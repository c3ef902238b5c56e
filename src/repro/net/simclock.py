"""Simulated time for the discrete-event network.

The paper assumes a strong synchrony model (§IV-D): messages between honest
parties arrive within a bounded delay.  A deterministic simulated clock lets
tests and benchmarks exercise timeouts (the handshake ``hsTimer`` of
Algorithm 1, liveness probe periods) without real sleeping.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """A monotonically advancing simulated clock (seconds as float)."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance_to(self, timestamp: float) -> float:
        if timestamp < self._now:
            raise ValueError(
                f"cannot rewind the clock from {self._now} to {timestamp}"
            )
        self._now = timestamp
        return self._now

    def __call__(self) -> float:
        """Clock objects are usable wherever a ``clock()`` callable is taken."""
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(t={self._now:.6f})"
