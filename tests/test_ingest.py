"""Tests for the ingestion frontend (`repro.ingest`).

Two layers:

* :class:`TokenBucket` unit behaviour — virtual-clock refill, exact burst
  boundary, non-negative balance — plus hypothesis properties over
  arbitrary arrival sequences.
* :class:`AdmissionController` — the three-knob config, the
  admitted/throttled/shed partition as a hypothesis invariant over
  arbitrary offered streams and configs, determinism (same stream twice →
  same output), the structural queue-delay bound, shard-exactness
  (disjoint tenants admitted separately equal the merged stream), the
  throttle / shed / re-pace cases, and ``admit`` held to the per-request
  reference in ``reference_admission.py``.

Admission inside a serving run (``run_serving`` with an
:class:`IngestConfig`) is covered end to end by
``benchmarks/test_ingest_backpressure.py`` and ``tests/test_batch_planner.py``.
"""

from __future__ import annotations

from dataclasses import fields, replace
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from reference_admission import ADMITTED, SHED, THROTTLED, \
    ReferenceAdmission

from repro.ingest import (
    AdmissionController,
    CongestionLevel,
    IngestConfig,
    TokenBucket,
)
from repro.obs.metrics import MetricsRegistry
from repro.rules import Packet
from repro.serve.batcher import Request

PACKET = Packet(src_ip=1, dst_ip=2, src_port=3, dst_port=4, protocol=6)


def _request(tenant: str, time: float, seq: int = -1) -> Request:
    return Request(tenant_id=tenant, packet=PACKET, time=time,
                   flow_id=0, seq=seq)


# --------------------------------------------------------------------- #
# TokenBucket
# --------------------------------------------------------------------- #


class TestTokenBucket:
    def test_starts_full_and_burst_is_exact_at_the_boundary(self):
        bucket = TokenBucket(rate=10.0, burst=4)
        # Exactly `burst` same-instant consumes succeed; one more fails.
        assert all(bucket.try_consume(0.0) for _ in range(4))
        assert not bucket.try_consume(0.0)
        # After exactly 1/rate seconds one token (and only one) is back.
        assert bucket.try_consume(0.1)
        assert not bucket.try_consume(0.1)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=8)
        assert all(bucket.try_consume(0.0) for _ in range(8))
        bucket.refill(1e9)  # a long idle period refills to burst, not more
        assert bucket.tokens == pytest.approx(8.0)

    def test_monotone_clock_clamps_earlier_stamps(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        assert bucket.try_consume(1.0)
        before = bucket.tokens
        bucket.refill(0.5)  # out-of-order stamp must not rewind or refill
        assert bucket.tokens == pytest.approx(before)
        assert bucket.last_refill == pytest.approx(1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)

    @given(
        rate=st.floats(min_value=0.5, max_value=1e6),
        burst=st.integers(min_value=1, max_value=64),
        deltas=st.lists(st.floats(min_value=0.0, max_value=10.0,
                                  allow_nan=False), max_size=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_balance_never_negative_never_exceeds_burst(self, rate, burst,
                                                        deltas):
        """Whatever the arrival pattern, 0 <= tokens <= burst always."""
        bucket = TokenBucket(rate=rate, burst=burst)
        now = 0.0
        for delta in deltas:
            now += delta
            bucket.try_consume(now)
            assert 0.0 <= bucket.tokens <= bucket.burst + 1e-9

    @given(
        burst=st.integers(min_value=1, max_value=32),
        idle=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_burst_boundary_exact_after_any_idle(self, burst, idle):
        """After an idle period exactly ``burst`` back-to-back admits fit."""
        bucket = TokenBucket(rate=1000.0, burst=burst)
        assert all(bucket.try_consume(idle) for _ in range(burst))
        assert not bucket.try_consume(idle)


# --------------------------------------------------------------------- #
# AdmissionController
# --------------------------------------------------------------------- #

configs = st.builds(
    IngestConfig,
    tenant_rate=st.floats(min_value=1.0, max_value=1e5),
    tenant_burst=st.integers(min_value=1, max_value=128),
    queue_limit=st.integers(min_value=1, max_value=256),
)

streams = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.floats(min_value=0.0, max_value=5.0, allow_nan=False)),
    max_size=120,
)


def _dense(config):
    """One tenant offered at 2-16x its ``tenant_rate`` for up to ~400
    arrivals, each gap the over-rate spacing times a jitter in [0, 2]."""
    return st.tuples(
        st.floats(min_value=2.0, max_value=16.0),
        st.integers(min_value=1, max_value=400).flatmap(lambda n: st.lists(
            st.floats(min_value=0.0, max_value=2.0), min_size=n,
            max_size=n)),
    ).map(lambda drawn: [
        ("a", time) for time in accumulate(
            jitter / (drawn[0] * config.tenant_rate) for jitter in drawn[1])])


def _requests(stream):
    return [_request(tenant, time, seq=i)
            for i, (tenant, time) in enumerate(stream)]


def _tally(controller):
    """``(offered, admitted, throttled, shed)`` summed over the tenants."""
    entries = controller.tenant_summary(1.0).values()
    return tuple(sum(entry[key] for entry in entries)
                 for key in ("offered", "admitted", "throttled", "shed"))


def _delays(controller):
    return controller.metrics.timing("ingest.queue_delay_seconds").samples


class TestAdmissionController:
    def test_config_has_exactly_the_three_knobs(self):
        assert [f.name for f in fields(IngestConfig)] == \
            ["tenant_rate", "tenant_burst", "queue_limit"]
        with pytest.raises(TypeError):
            IngestConfig(adaptive_sources=False)
        for bad in ({"tenant_rate": 0.0}, {"tenant_burst": 0},
                    {"queue_limit": 0}):
            with pytest.raises(ValueError):
                IngestConfig(**bad)
        assert IngestConfig(tenant_rate=100.0, queue_limit=8) \
            .max_queue_delay == pytest.approx(0.08)

    @given(config=configs, stream=streams)
    @settings(max_examples=150, deadline=None)
    def test_partition_invariant(self, config, stream):
        """admitted + throttled + shed == offered, for any stream/config."""
        controller = AdmissionController(config)
        admitted = controller.admit(_requests(stream))
        offered, admits, throttled, shed = _tally(controller)
        assert offered == len(stream)
        assert admits + throttled + shed == offered
        assert len(admitted) == admits
        metrics = controller.metrics
        assert _tally(controller) == tuple(
            metrics.counter(f"ingest.{name}").value
            for name in ("offered", "admitted", "throttled", "shed"))

    @given(case=configs.flatmap(lambda config: st.tuples(
        st.just(config), streams | _dense(config))))
    @settings(max_examples=100, deadline=None)
    def test_queue_delay_bound(self, case):
        """No admitted request waits longer than queue_limit/tenant_rate:
        on mixed streams and on one tenant held over its rate."""
        config, stream = case
        controller = AdmissionController(config)
        controller.admit(_requests(stream))
        delays = _delays(controller)
        assert len(delays) == _tally(controller)[1]
        assert all(0.0 <= delay <= config.max_queue_delay + 1e-9
                   for delay in delays)

    @given(config=configs, stream=streams)
    @settings(max_examples=100, deadline=None)
    def test_deterministic_replay(self, config, stream):
        """The same offered stream always produces identical output."""
        first, second = AdmissionController(config), \
            AdmissionController(config)
        assert first.admit(_requests(stream)) == \
            second.admit(_requests(stream))
        assert first.tenant_summary(1.0) == second.tenant_summary(1.0)
        assert _delays(first) == _delays(second)

    @given(config=configs, stream=streams)
    @settings(max_examples=100, deadline=None)
    def test_shard_exactness(self, config, stream):
        """Per-tenant admission sharded by tenant equals the merged run.

        Admission state is per-tenant, so splitting a stream into disjoint
        tenant groups and admitting each separately must reproduce the
        single controller's output and tallies exactly.
        """
        requests = _requests(stream)
        merged = AdmissionController(config)
        whole = merged.admit(requests)
        shards = {t: AdmissionController(config) for t in ("a", "b", "c")}
        parts = [r for tenant, shard in shards.items()
                 for r in shard.admit([r for r in requests
                                       if r.tenant_id == tenant])]
        assert sorted(parts, key=lambda r: r.seq) == \
            sorted(whole, key=lambda r: r.seq)
        summed = tuple(map(sum, zip(*map(_tally, shards.values()))))
        assert summed == _tally(merged)

    def test_empty_bucket_throttles(self):
        config = IngestConfig(tenant_rate=10.0, tenant_burst=1,
                              queue_limit=8)
        controller = AdmissionController(config)
        admitted = controller.admit([_request("a", 0.0, seq=0),
                                     _request("a", 0.0, seq=1),
                                     _request("a", 0.1, seq=2)])
        # The second same-instant arrival finds the bucket empty; one
        # refill interval later a token is back.
        assert [r.seq for r in admitted] == [0, 2]
        assert _tally(controller) == (3, 2, 1, 0)
        assert controller.tenant_summary(1.0)["a"]["signal"] == "OK"

    def test_hard_level_sheds_when_queue_shorter_than_burst(self):
        # queue_limit < burst and back-to-back arrivals: a one-deep queue
        # is full while its entry waits, so the next wire arrival is shed
        # at the HARD level (no token taken); the shed source is re-paced
        # behind the drain.  The re-paced arrival finds the queue empty
        # (OK), and the one after it follows it at once, as the paced
        # source sends in order: it finds the queue drained too and is
        # admitted, and the next one is shed again.
        config = IngestConfig(tenant_rate=10.0, tenant_burst=32,
                              queue_limit=1)
        controller = AdmissionController(config)
        admitted = controller.admit(
            [_request("a", 0.0, seq=i) for i in range(8)])
        assert [r.seq for r in admitted] == [0, 2, 3, 5, 6]
        assert _tally(controller) == (8, 5, 0, 3)
        assert controller.tenant_summary(1.0)["a"]["signal"] == "HARD"
        assert max(_delays(controller)) <= config.max_queue_delay + 1e-9

    @pytest.mark.parametrize("queue_limit", [1, 2, 8, 64, 128])
    def test_over_rate_tenant_stays_within_the_delay_bound(self,
                                                           queue_limit):
        # One tenant offered 8x its rate for 2,000 arrivals: wire arrivals
        # that land behind a re-paced one follow it, so none is admitted
        # into a queue drained ahead of its own effective arrival.
        config = IngestConfig(tenant_rate=1000.0, tenant_burst=64,
                              queue_limit=queue_limit)
        controller = AdmissionController(config)
        controller.admit([_request("a", i / 8000.0, seq=i)
                          for i in range(2000)])
        delays = _delays(controller)
        assert delays
        assert max(delays) <= config.max_queue_delay + 1e-9
        assert _tally(controller)[0] == 2000

    def test_soft_signal_repaces_adaptive_sources(self):
        # A half-full queue flips the signal to SOFT; the next arrival is
        # re-paced to the sustained rate, so it admits (later) instead of
        # throttling, and its queue delay counts from the re-paced stamp.
        config = IngestConfig(tenant_rate=10.0, tenant_burst=64,
                              queue_limit=8)
        controller = AdmissionController(config)
        admitted = controller.admit(
            [_request("a", 0.0, seq=i) for i in range(8)])
        assert len(admitted) == 8
        assert _tally(controller) == (8, 8, 0, 0)
        delays = _delays(controller)
        # The fifth arrival sees four queued (SOFT) and waits 0.5 s; the
        # sixth is re-paced to t=0.5 and waits one drain interval.
        assert delays[4] == pytest.approx(0.5)
        assert delays[5] == pytest.approx(0.1)
        stamps = [r.time for r in admitted]
        assert stamps == sorted(stamps)

    def test_admit_restamps_and_reorders(self):
        config = IngestConfig(tenant_rate=5.0, tenant_burst=2, queue_limit=4)
        controller = AdmissionController(config)
        requests = [_request("a", 0.0, seq=0), _request("a", 0.0, seq=1),
                    _request("a", 0.0, seq=2)]
        admitted = controller.admit(requests)
        assert len(admitted) == 2  # burst=2, third has no token
        assert [r.time for r in admitted] == sorted(r.time for r in admitted)
        # Times were re-stamped to queue release times (drain at 5/s).
        assert admitted[1].time == pytest.approx(admitted[0].time + 0.2)

    def test_counters_and_metrics_agree(self):
        metrics = MetricsRegistry()
        config = IngestConfig(tenant_rate=10.0, tenant_burst=2, queue_limit=4)
        controller = AdmissionController(config, metrics=metrics)
        controller.admit([_request("a", 0.0) for _ in range(6)])
        # Two admits fill the bucket's burst, the third is throttled at
        # SOFT, the fourth is re-paced to t=0.3 where two tokens are back;
        # the fifth follows it at t=0.3 and waits one drain interval, and
        # the sixth finds the bucket empty.
        assert _tally(controller) == (6, 4, 2, 0)
        assert [metrics.counter(f"ingest.{name}").value
                for name in ("offered", "admitted", "throttled", "shed")] \
            == [6, 4, 2, 0]
        assert _delays(controller) == pytest.approx([0.1, 0.2, 0.0, 0.1])
        assert metrics.gauge("ingest.queue_depth").as_dict() == {
            "value": 2.0, "updates": 2}


# --------------------------------------------------------------------- #
# admit() against the per-request reference
# --------------------------------------------------------------------- #

#: Small rates, bursts and queues, so a short stream reaches every level.
oracle_configs = st.builds(
    IngestConfig,
    tenant_rate=st.sampled_from([4.0, 40.0, 400.0, 4000.0]),
    tenant_burst=st.integers(min_value=1, max_value=12),
    queue_limit=st.integers(min_value=1, max_value=12),
)

#: Stamps on a 1/64 s grid collide often (equal stamps, and releases that
#: land exactly on a later arrival); free floats cover the rest.
oracle_streams = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.integers(min_value=0, max_value=48).map(lambda k: k / 64)
              | st.floats(min_value=0.0, max_value=1.0)),
    max_size=150,
)


def _check_admit_against_reference(config, stream, split=None):
    """``admit`` over ``stream`` (unsorted, or cut in two time-ordered calls
    at ``split``) equals the per-request reference exactly: stamps,
    counters, delay samples, the peak-depth gauge and each tenant's
    summary.  Returns the reference verdicts in arrival order."""
    requests = _requests(stream)
    ordered = sorted(requests, key=lambda r: r.time)
    reference = ReferenceAdmission(config)
    verdicts = [reference.offer(r.tenant_id, r.time) for r in ordered]

    metrics = MetricsRegistry()
    controller = AdmissionController(config, metrics=metrics)
    if split is None:
        admitted = controller.admit(iter(requests))
    else:
        cut = min(split, len(ordered))
        admitted = (controller.admit(ordered[:cut])
                    + controller.admit(ordered[cut:]))
    expected = [replace(r, time=v[2]) for r, v in zip(ordered, verdicts)
                if v[0] == ADMITTED]
    if split is None:
        expected.sort(key=lambda r: r.time)
        # The same requests in the same order, stamped with the same floats.
        assert admitted == expected
    else:
        # Each call's output is sorted on its own.
        assert sorted(admitted, key=lambda r: r.seq) == \
            sorted(expected, key=lambda r: r.seq)

    assert {name: metrics.counter(f"ingest.{name}").value
            for name in ("offered", "admitted", "throttled", "shed")} \
        == {key[len("ingest_"):]: value
            for key, value in reference.counters().items()}
    assert _tally(controller) == tuple(reference.counters().values())
    assert metrics.timing("ingest.queue_delay_seconds").samples == \
        reference.delays
    assert metrics.gauge("ingest.queue_depth").as_dict() == {
        "value": reference.peak, "updates": reference.peak_writes}
    summary = controller.tenant_summary(1.0)
    assert {tenant_id: (entry["offered"], entry["admitted"],
                        entry["throttled"], entry["shed"],
                        entry["max_queue_depth"], entry["signal"])
            for tenant_id, entry in summary.items()} == {
        tenant_id: (sum(tenant.tally.values()), tenant.tally[ADMITTED],
                    tenant.tally[THROTTLED], tenant.tally[SHED],
                    tenant.max_depth, tenant.signal.name)
        for tenant_id, tenant in reference.tenants.items()}
    return verdicts


class TestAdmitMatchesReference:
    @given(config=oracle_configs, stream=oracle_streams)
    @settings(max_examples=300, deadline=None)
    def test_admit_equals_the_reference(self, config, stream):
        _check_admit_against_reference(config, stream)

    @given(config=oracle_configs, stream=oracle_streams,
           split=st.integers(min_value=0, max_value=150))
    @settings(max_examples=100, deadline=None)
    def test_consecutive_admits_carry_state_and_metrics(self, config,
                                                        stream, split):
        _check_admit_against_reference(config, stream, split)

    @pytest.mark.parametrize("config, stream, status, level", [
        # Spaced arrivals well under the rate: admitted at OK.
        (IngestConfig(tenant_rate=100.0, tenant_burst=4, queue_limit=8),
         [("a", k / 8) for k in range(8)], ADMITTED, CongestionLevel.OK),
        # A volley half-fills the queue: SOFT, and the source is re-paced.
        (IngestConfig(tenant_rate=10.0, tenant_burst=64, queue_limit=8),
         [("a", 0.0)] * 8 + [("b", 0.0)] * 8, ADMITTED,
         CongestionLevel.SOFT),
        # A volley overflows a queue shorter than the burst: HARD, shed.
        (IngestConfig(tenant_rate=10.0, tenant_burst=32, queue_limit=1),
         [("a", 0.0)] * 8, SHED, CongestionLevel.HARD),
        # More than the burst with room to queue: throttled.
        (IngestConfig(tenant_rate=10.0, tenant_burst=2, queue_limit=8),
         [("a", 0.0)] * 4 + [("a", 0.1)] * 2, THROTTLED,
         CongestionLevel.OK),
    ], ids=["ok", "soft", "hard", "throttle"])
    def test_each_level_is_reached_and_matched(self, config, stream,
                                               status, level):
        verdicts = _check_admit_against_reference(config, stream)
        assert (status, level) in {(v[0], v[1]) for v in verdicts}
