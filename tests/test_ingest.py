"""Tests for the ingestion frontend (`repro.ingest`).

Two layers:

* :class:`TokenBucket` unit behaviour — virtual-clock refill, exact burst
  boundary, non-negative balance — plus hypothesis properties over
  arbitrary arrival sequences.
* :class:`AdmissionController` — the admitted/throttled/shed partition as
  a hypothesis invariant over arbitrary offered streams and configs,
  determinism (same stream twice → same tallies), the structural
  queue-delay bound, shard-exactness (disjoint tenants admitted separately
  equal the merged stream), and SOFT/HARD signal behaviour.

Admission inside a serving run (``run_serving`` with an
:class:`IngestConfig`) is covered end to end by
``benchmarks/test_ingest_backpressure.py`` and ``tests/test_batch_planner.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from reference_admission import ReferenceAdmission

from repro.ingest import (
    ADMITTED,
    SHED,
    THROTTLED,
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
        assert bucket.available(1e9) == pytest.approx(8.0)

    def test_monotone_clock_clamps_earlier_stamps(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        assert bucket.try_consume(1.0)
        before = bucket.tokens
        bucket.refill(0.5)  # out-of-order stamp must not rewind or refill
        assert bucket.tokens == pytest.approx(before)
        assert bucket.last_refill == pytest.approx(1.0)

    def test_seconds_until_is_the_exact_retry_hint(self):
        bucket = TokenBucket(rate=4.0, burst=1)
        assert bucket.seconds_until() == 0.0
        assert bucket.try_consume(0.0)
        assert bucket.seconds_until() == pytest.approx(0.25)
        # The hint is honest: consuming exactly then succeeds.
        assert bucket.try_consume(0.25)

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
    soft_fraction=st.floats(min_value=0.1, max_value=1.0),
    adaptive_sources=st.booleans(),
)

streams = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.floats(min_value=0.0, max_value=5.0, allow_nan=False)),
    max_size=120,
)


def _offer_all(controller, stream):
    decisions = []
    for tenant, time in sorted(stream, key=lambda e: e[1]):
        decisions.append(controller.offer(_request(tenant, time)))
    return decisions


class TestAdmissionController:
    @given(config=configs, stream=streams)
    @settings(max_examples=150, deadline=None)
    def test_partition_invariant(self, config, stream):
        """admitted + throttled + shed == offered, for any stream/config."""
        controller = AdmissionController(config)
        decisions = _offer_all(controller, stream)
        assert controller.offered == len(stream)
        assert (controller.admitted + controller.throttled
                + controller.shed) == controller.offered
        by_status = {ADMITTED: 0, THROTTLED: 0, SHED: 0}
        for decision in decisions:
            by_status[decision.status] += 1
        assert by_status[ADMITTED] == controller.admitted
        assert by_status[THROTTLED] == controller.throttled
        assert by_status[SHED] == controller.shed

    @given(config=configs, stream=streams)
    @settings(max_examples=100, deadline=None)
    def test_queue_delay_bound(self, config, stream):
        """No admitted request waits longer than queue_limit/drain_rate."""
        controller = AdmissionController(config)
        for decision in _offer_all(controller, stream):
            if decision.admitted:
                assert decision.queue_delay <= \
                    config.max_queue_delay + 1e-9
                assert decision.release_time is not None

    @given(config=configs, stream=streams)
    @settings(max_examples=100, deadline=None)
    def test_deterministic_replay(self, config, stream):
        """The same offered stream always produces identical decisions."""
        first = _offer_all(AdmissionController(config), stream)
        second = _offer_all(AdmissionController(config), stream)
        assert first == second

    @given(config=configs, stream=streams)
    @settings(max_examples=100, deadline=None)
    def test_shard_exactness(self, config, stream):
        """Per-tenant admission sharded by tenant equals the merged run.

        The property behind exact sharded ingest counters: admission state
        is per-tenant, so splitting a stream into shard-disjoint tenant
        groups and admitting each separately must reproduce the single
        controller's tallies exactly.
        """
        merged = AdmissionController(config)
        _offer_all(merged, stream)
        shards = {t: AdmissionController(config) for t in ("a", "b", "c")}
        for tenant, time in sorted(stream, key=lambda e: e[1]):
            shards[tenant].offer(_request(tenant, time))
        summed = {key: sum(s.counters()[key] for s in shards.values())
                  for key in merged.counters()}
        assert summed == merged.counters()

    def test_empty_bucket_throttles_with_retry_hint(self):
        config = IngestConfig(tenant_rate=10.0, tenant_burst=1,
                              queue_limit=8, adaptive_sources=False)
        controller = AdmissionController(config)
        assert controller.offer(_request("a", 0.0)).admitted
        decision = controller.offer(_request("a", 0.0))
        assert decision.status == THROTTLED
        assert decision.retry_after == pytest.approx(0.1)
        # The hint is honest on the virtual clock.
        assert controller.offer(_request("a", 0.1)).admitted

    def test_hard_level_sheds_when_queue_shorter_than_burst(self):
        # queue_limit < burst: a full-burst same-instant volley overflows
        # the queue, so the tail is shed at the HARD level (no token taken).
        config = IngestConfig(tenant_rate=10.0, tenant_burst=32,
                              queue_limit=4, adaptive_sources=False)
        controller = AdmissionController(config)
        decisions = [controller.offer(_request("a", 0.0)) for _ in range(8)]
        assert [d.status for d in decisions[:4]] == [ADMITTED] * 4
        assert all(d.status == SHED for d in decisions[4:])
        assert all(d.level == CongestionLevel.HARD for d in decisions[4:])
        assert controller.shed == 4

    def test_soft_signal_repaces_adaptive_sources(self):
        # Half-full queue flips the signal to SOFT; with adaptive sources
        # the next arrivals are re-paced to the sustained rate, so they
        # admit (later) instead of throttling.
        config = IngestConfig(tenant_rate=10.0, tenant_burst=64,
                              queue_limit=8, adaptive_sources=True)
        controller = AdmissionController(config)
        decisions = [controller.offer(_request("a", 0.0)) for _ in range(8)]
        assert all(d.admitted for d in decisions)
        soft = [d for d in decisions if d.level == CongestionLevel.SOFT]
        assert soft, "a same-instant volley never crossed the SOFT level"
        # Re-pacing keeps the virtual queue bounded: release times advance
        # at exactly the drain rate.
        releases = [d.release_time for d in decisions]
        assert releases == sorted(releases)

    def test_admit_restamps_and_reorders(self):
        config = IngestConfig(tenant_rate=5.0, tenant_burst=2, queue_limit=4,
                              adaptive_sources=False)
        controller = AdmissionController(config)
        requests = [_request("a", 0.0, seq=0), _request("a", 0.0, seq=1),
                    _request("a", 0.0, seq=2)]
        admitted = controller.admit(requests)
        assert len(admitted) == 2  # burst=2, third has no token
        assert [r.time for r in admitted] == sorted(r.time for r in admitted)
        # Times were re-stamped to queue release times (drain at 5/s).
        assert admitted[1].time == pytest.approx(admitted[0].time + 0.2)

    def test_counters_and_metrics_agree(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        config = IngestConfig(tenant_rate=10.0, tenant_burst=2, queue_limit=4,
                              adaptive_sources=False)
        controller = AdmissionController(config, metrics=metrics)
        for i in range(6):
            controller.offer(_request("a", 0.0))
        assert metrics.counter("ingest.offered").value == 6
        assert metrics.counter("ingest.admitted").value == \
            controller.admitted
        assert metrics.counter("ingest.throttled").value == \
            controller.throttled
        assert metrics.timing("ingest.queue_delay_seconds").count == \
            controller.admitted


# --------------------------------------------------------------------- #
# admit() against the per-request reference
# --------------------------------------------------------------------- #

#: Small rates, bursts and queues, so a short stream reaches every level.
oracle_configs = st.builds(
    IngestConfig,
    tenant_rate=st.sampled_from([4.0, 40.0, 400.0, 4000.0]),
    tenant_burst=st.integers(min_value=1, max_value=12),
    queue_limit=st.integers(min_value=1, max_value=12),
    drain_rate=st.none() | st.sampled_from([2.0, 50.0, 1000.0]),
    soft_fraction=st.sampled_from([0.25, 0.5, 1.0]),
    soft_age=st.none() | st.sampled_from([0.0, 0.01, 0.1]),
    adaptive_sources=st.booleans(),
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
    """``admit`` over ``stream`` (unsorted, cut in two time-ordered calls at
    ``split``) and per-request ``offer`` each equal the reference exactly.
    Returns the reference verdicts in arrival order."""
    requests = [_request(tenant, time, seq=i)
                for i, (tenant, time) in enumerate(stream)]
    ordered = sorted(requests, key=lambda r: r.time)
    reference = ReferenceAdmission(config)
    verdicts = [reference.offer(r.tenant_id, r.time) for r in ordered]

    offer_metrics = MetricsRegistry()
    offering = AdmissionController(config, metrics=offer_metrics)
    decisions = [offering.offer(r) for r in ordered]
    assert [(d.status, d.level, d.release_time, d.queue_delay,
             d.retry_after) for d in decisions] == verdicts

    admit_metrics = MetricsRegistry()
    admitting = AdmissionController(config, metrics=admit_metrics)
    if split is None:
        admitted = admitting.admit(iter(requests))
    else:
        cut = min(split, len(ordered))
        admitted = (admitting.admit(ordered[:cut])
                    + admitting.admit(ordered[cut:]))
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

    for controller, metrics in ((offering, offer_metrics),
                                (admitting, admit_metrics)):
        assert controller.counters() == reference.counters()
        assert {name: metrics.counter(f"ingest.{name}").value
                for name in ("offered", "admitted", "throttled", "shed")} \
            == {key[len("ingest_"):]: value
                for key, value in reference.counters().items()}
        assert metrics.timing("ingest.queue_delay_seconds").samples == \
            reference.delays
        assert metrics.gauge("ingest.queue_depth").as_dict() == {
            "value": reference.peak, "updates": reference.peak_writes}
    assert admitting.tenant_summary(1.0) == offering.tenant_summary(1.0)
    return verdicts


class TestAdmitMatchesReference:
    @given(config=oracle_configs, stream=oracle_streams)
    @settings(max_examples=300, deadline=None)
    def test_admit_and_offer_equal_the_reference(self, config, stream):
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
        (IngestConfig(tenant_rate=10.0, tenant_burst=32, queue_limit=4,
                      adaptive_sources=False),
         [("a", 0.0)] * 8, SHED, CongestionLevel.HARD),
        # More than the burst with room to queue: throttled.
        (IngestConfig(tenant_rate=10.0, tenant_burst=2, queue_limit=8,
                      adaptive_sources=False),
         [("a", 0.0)] * 4 + [("a", 0.1)] * 2, THROTTLED,
         CongestionLevel.OK),
    ], ids=["ok", "soft", "hard", "throttle"])
    def test_each_level_is_reached_and_matched(self, config, stream,
                                               status, level):
        verdicts = _check_admit_against_reference(config, stream)
        assert (status, level) in {(v[0], v[1]) for v in verdicts}
