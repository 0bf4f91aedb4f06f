"""Per-tenant token-bucket rate limiting on the trace clock.

A :class:`TokenBucket` enforces a sustained ``rate`` (tokens per trace
second) with a ``burst`` allowance (the bucket's capacity): a tenant may
send ``burst`` packets back to back after an idle period, but its long-run
admitted rate can never exceed ``rate``.

The clock is *virtual* on purpose — every refill is driven by the request
arrival timestamps the workload (or trace) carries, never by the wall
clock, so the same offered stream always produces the same admit/throttle
decisions on every machine.  The refill is monotone: a timestamp earlier
than the last one seen is clamped forward (a re-paced arrival can run ahead
of the next arrival's own stamp), which keeps the bucket's token count a
deterministic function of the arrival sequence.
"""

from __future__ import annotations


class TokenBucket:
    """A virtual-clock token bucket: ``rate`` tokens/sec, ``burst`` capacity.

    The bucket starts full.  ``tokens`` is continuous (refill accrues
    fractionally between arrivals) and is never allowed to go negative:
    :meth:`try_consume` either takes whole tokens or leaves the bucket
    untouched.
    """

    __slots__ = ("rate", "burst", "tokens", "last_refill")

    def __init__(self, rate: float, burst: float,
                 clock: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0 tokens/sec")
        if burst < 1:
            raise ValueError("burst must be >= 1 token")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_refill = float(clock)

    def refill(self, now: float) -> None:
        """Accrue tokens up to ``now`` (monotone: earlier stamps clamp)."""
        if now > self.last_refill:
            self.tokens = min(
                self.burst,
                self.tokens + (now - self.last_refill) * self.rate,
            )
            self.last_refill = now

    def try_consume(self, now: float, tokens: float = 1.0) -> bool:
        """Take ``tokens`` at ``now`` if the bucket holds them.

        Returns ``True`` and debits on success; returns ``False`` and
        leaves the balance untouched (never negative) otherwise.
        """
        self.refill(now)
        if self.tokens >= tokens:
            self.tokens -= tokens
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TokenBucket(rate={self.rate}, burst={self.burst}, "
                f"tokens={self.tokens:.3f}, t={self.last_refill:.6f})")
