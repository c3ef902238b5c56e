"""Correlated reply futures — the non-blocking half of the endpoint API.

A :class:`PendingReply` is the client-side handle for one in-flight request:
``submit(method, *args)`` on a transport returns immediately, and the reply
resolves later when the network's event loop delivers the correlated
response (or the caller cancels it, or the synchrony bound passes).  The
:func:`wait_any` / :func:`wait_all` combinators drive the simulated event
loop until the first/all of a set of replies arrive, which is what lets N
requests to M servers genuinely overlap under deterministic simulated time
— the prerequisite for hedged queries and first-valid-response failover.

This module is deliberately free of PARP imports: the transport layer maps
remote failures onto exceptions *before* resolving a reply, so a future
only ever carries opaque values and exceptions.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "EndpointTimeout",
    "ReplyCancelled",
    "PendingReply",
    "ExponentialBackoff",
    "wait_any",
    "wait_all",
]

#: fallback synchrony bound when a reply carries no per-endpoint timeout.
DEFAULT_TIMEOUT = 10.0

#: growth per attempt of :class:`ExponentialBackoff`'s raw delay
BACKOFF_FACTOR = 2.0
#: ± spread of a backoff delay, as a fraction of the raw delay
BACKOFF_JITTER = 0.5

# Reply lifecycle.  A reply resolves exactly once: value, error, or cancel.
_PENDING = "pending"
_DONE = "done"
_FAILED = "failed"
_CANCELLED = "cancelled"

#: driver signature: ``driver(keep_running_predicate, timeout) -> bool`` —
#: the shape of :meth:`repro.net.network.SimNetwork.run_while`.
Driver = Callable[[Callable[[], bool], float], bool]


class EndpointTimeout(Exception):
    """No reply within the synchrony bound — the hsTimer fired."""


class ReplyCancelled(Exception):
    """The caller abandoned this request before a reply arrived."""


class PendingReply:
    """A future for one submitted request.

    Resolved by the transport when the correlated reply is delivered
    (:meth:`set_result` / :meth:`set_exception`), or by the caller via
    :meth:`cancel`.  Every reply resolves **exactly once**; late transitions
    are ignored (and reported back to the transport via the return value so
    it can count late deliveries).
    """

    def __init__(self, method: str = "", target: str = "",
                 driver: Optional[Driver] = None,
                 default_timeout: Optional[float] = None,
                 canceller: Optional[Callable[[], Any]] = None) -> None:
        self.method = method
        self.target = target
        self._driver = driver
        self._default_timeout = (default_timeout if default_timeout is not None
                                 else DEFAULT_TIMEOUT)
        self._canceller = canceller
        self._state = _PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["PendingReply"], None]] = []
        # Resolution may race a waiting thread when the endpoint is driven
        # from another thread; the lock keeps "exactly once" exact.
        self._lock = threading.Lock()

    # -- constructors for already-settled replies -------------------------- #

    @classmethod
    def completed(cls, value: Any, method: str = "") -> "PendingReply":
        """A reply that resolved at submit time (in-process endpoints)."""
        reply = cls(method=method)
        reply.set_result(value)
        return reply

    @classmethod
    def failed(cls, exc: BaseException, method: str = "") -> "PendingReply":
        """A reply that failed at submit time (in-process endpoints)."""
        reply = cls(method=method)
        reply.set_exception(exc)
        return reply

    # -- inspection -------------------------------------------------------- #

    def done(self) -> bool:
        """Whether the reply has resolved (value, error, or cancel)."""
        return self._state is not _PENDING

    @property
    def ok(self) -> bool:
        """Resolved with a value (False while pending or on error/cancel)."""
        return self._state is _DONE

    def cancelled(self) -> bool:
        return self._state is _CANCELLED

    @property
    def state(self) -> str:
        return self._state

    # -- waiting ----------------------------------------------------------- #

    def wait(self) -> bool:
        """Drive the event loop until resolved or the reply's timeout (its
        endpoint's synchrony bound) passes; returns :meth:`done`.  A
        driverless pending reply (nothing can ever resolve it) returns
        immediately."""
        if self.done() or self._driver is None:
            return self.done()
        self._driver(lambda: not self.done(), self._default_timeout)
        return self.done()

    def result(self) -> Any:
        """The reply's value; waits (driving the loop) while pending.

        Raises the resolved exception on a failed reply,
        :class:`ReplyCancelled` on a cancelled one, and
        :class:`EndpointTimeout` when the wait expires first.
        """
        if not self.wait():
            raise EndpointTimeout(
                f"{self.method or 'request'} to {self.target or 'server'}: "
                f"no reply within {self._default_timeout}s of simulated time"
            )
        if self._state is _CANCELLED:
            raise ReplyCancelled(
                f"{self.method or 'request'} to {self.target or 'server'} "
                "was cancelled"
            )
        if self._exception is not None:
            raise self._exception
        return self._value

    def exception(self) -> Optional[BaseException]:
        """The resolved exception, or None (valid result, cancel, or still
        pending after the wait)."""
        self.wait()
        return self._exception

    # -- resolution (transport side) --------------------------------------- #

    def set_result(self, value: Any) -> bool:
        """Resolve with a value; False if already resolved (late reply)."""
        return self._settle(_DONE, value=value)

    def set_exception(self, exc: BaseException) -> bool:
        """Resolve with an error; False if already resolved (late reply)."""
        return self._settle(_FAILED, exc=exc)

    def cancel(self) -> bool:
        """Abandon the request; True only if it was still in flight.

        The transport's canceller runs first so a reply that arrives after
        cancellation is dropped instead of resolving a correlation the
        caller no longer owns.
        """
        settled = self._settle(_CANCELLED)
        if settled and self._canceller is not None:
            self._canceller()
        return settled

    def add_done_callback(self, fn: Callable[["PendingReply"], None]) -> None:
        """Run ``fn(reply)`` on resolution; immediately if already resolved."""
        with self._lock:
            if self._state is _PENDING:
                self._callbacks.append(fn)
                return
        fn(self)

    def _settle(self, state: str, value: Any = None,
                exc: Optional[BaseException] = None) -> bool:
        with self._lock:
            if self._state is not _PENDING:
                return False
            self._state = state
            self._value = value
            self._exception = exc
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)
        return True

    def __repr__(self) -> str:
        return (f"PendingReply({self.method or '?'}→{self.target or '?'}, "
                f"{self._state})")


class ExponentialBackoff:
    """Deterministic jittered exponential backoff.

    ``delay(attempt)`` for attempt 1, 2, 3… grows as
    ``base × BACKOFF_FACTOR^(n-1)`` capped at ``cap``, with ±``BACKOFF_JITTER``
    (a fraction of the raw delay) applied
    from an RNG stream derived from ``(seed, attempt)`` — the same attempt
    number always yields the same delay for a given seed, so retry schedules
    reproduce run-to-run while still decorrelating across seeds (give each
    retrying party its own seed and synchronized clients don't re-converge
    into the thundering herd the jitter exists to break up).
    """

    def __init__(self, base: float = 0.1, cap: float = 10.0,
                 seed: int = 0) -> None:
        if base < 0 or cap < base:
            raise ValueError("backoff needs base ≥ 0, cap ≥ base")
        self.base = base
        self.cap = cap
        self.seed = seed

    def delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-indexed; values < 1 clamp to 1)."""
        n = max(1, int(attempt))
        raw = min(self.cap, self.base * BACKOFF_FACTOR ** (n - 1))
        rng = random.Random(f"backoff|{self.seed}|{n}")
        spread = BACKOFF_JITTER * raw
        return max(0.0, raw - spread + 2.0 * spread * rng.random())


# ---------------------------------------------------------------------- #
# Combinators
# ---------------------------------------------------------------------- #


def _in_flight(replies: Sequence[PendingReply],
               ) -> tuple[Optional[Driver], list[PendingReply]]:
    """The one event loop that can resolve ``replies``, and the unresolved
    replies it drives (a driverless one can never resolve).

    Replies of one simulated network share one loop (``network.run_while``
    bound methods compare equal); replies from two loops cannot be waited
    on together — each network's simulated time is its own universe.
    """
    pending = [reply for reply in replies
               if not reply.done() and reply._driver is not None]
    if any(reply._driver != pending[0]._driver for reply in pending[1:]):
        raise ValueError("replies from two event loops cannot be awaited "
                         "together")
    return (pending[0]._driver if pending else None), pending


def _default_bound(replies: Sequence[PendingReply]) -> float:
    bounds = [reply._default_timeout for reply in replies]
    return max(bounds) if bounds else DEFAULT_TIMEOUT


def wait_any(replies: Iterable[PendingReply],
             timeout: Optional[float] = None) -> Optional[PendingReply]:
    """Drive the event loop until the first reply resolves.

    Returns the first resolved reply (an already-resolved one wins without
    advancing time), or None when ``timeout`` simulated seconds pass with
    every reply still in flight.  Raises :class:`ValueError` when the
    replies belong to two event loops.
    """
    replies = list(replies)
    for reply in replies:
        if reply.done():
            return reply
    driver, _ = _in_flight(replies)
    if driver is not None:
        bound = timeout if timeout is not None else _default_bound(replies)
        driver(lambda: not any(reply.done() for reply in replies), bound)
    return next((reply for reply in replies if reply.done()), None)


def wait_all(replies: Iterable[PendingReply]) -> bool:
    """Drive the event loop until every reply resolves.

    Returns True when all resolved within the replies' longest timeout
    (cancellations count as resolved — the point is "nothing still in
    flight", not "everything succeeded").  Raises :class:`ValueError` when
    the replies belong to two event loops.
    """
    replies = list(replies)
    driver, pending = _in_flight(replies)
    if driver is not None:
        driver(lambda: not all(reply.done() for reply in pending),
               _default_bound(replies))
    return all(reply.done() for reply in replies)
