"""Bounded admission for the serving path: queue accounting + load tracking.

The paper's server accepts unbounded work at static fees; past saturation
that collapses everyone's latency (the queue grows without bound, so every
response — including the ones that would have been fast — waits behind the
backlog).  This module gives :class:`~repro.parp.server.FullNodeServer` the
standard production alternative:

* a **virtual backlog** measured in request-cost units (a single proved
  query costs 1; batch items cost a fraction — they share signatures and a
  deduplicated multiproof).  Each admitted request pushes the server's
  ``busy_until`` horizon forward by ``cost × service_time``; the backlog at
  any instant is how far that horizon sits past "now".
* an **admission threshold**: when admitting a request would push the
  backlog past ``max_queue_cost`` units, the request is *shed* — the server
  answers with a signed :class:`~repro.parp.messages.OverloadedReply`
  instead of queueing it.  Shedding bounds the queueing delay of every
  admitted request by ``max_queue_cost × service_time``, which is what keeps
  p99 flat past saturation.
* a **load tracker**: EWMA of queue depth at admission and of the modeled
  serve delay, driving the load factor that both the
  :func:`~repro.parp.pricing.load_multiplier` fee curve and the
  ``load_info()`` probe report.
* a **jittered retry-after hint**: how long until enough backlog drains to
  fit the shed request, scattered ±``RETRY_JITTER`` so the shed clients'
  retries do not re-arrive as one synchronized herd.

Everything is driven by the server's clock (the sim clock under
:class:`~repro.net.network.SimNetwork`, ``time.monotonic`` in-process), and
all state updates take an internal lock — concurrent sessions already hit
the serving path from interleaved events and threads.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from .pricing import load_multiplier

__all__ = ["AdmissionConfig", "AdmissionDecision", "AdmissionController"]

#: retry-after hints scatter uniformly in [1-j, 1+j] × the drain time.
RETRY_JITTER = 0.5


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning knobs for one server's admission pipeline."""

    #: backlog bound in cost units; one unit ≈ one single proved query.
    #: Queueing delay of any admitted request ≤ max_queue_cost × service_time.
    max_queue_cost: float = 64.0
    #: modeled seconds of serving work per cost unit (calibrate to the
    #: hardware: proof generation dominates).
    service_time: float = 0.002
    #: marginal cost of each batch item after the first — batches amortize
    #: signature checks and share one deduplicated multiproof, so N batched
    #: queries cost the server far less than N separate requests.
    batch_item_cost: float = 0.25
    #: EWMA smoothing for the load/latency trackers (fraction of each new
    #: observation that replaces history).
    ewma_alpha: float = 0.2
    #: seed for the deterministic retry-jitter stream (give each server its
    #: own so shed cohorts on different servers decorrelate).
    seed: int = 0


@dataclass(frozen=True)
class AdmissionDecision:
    """One request's verdict at the admission gate."""

    admitted: bool
    cost: float          # cost units this request carries
    load: float          # load factor at decision time (1.0 = queue full)
    queue_delay: float   # admitted: modeled queueing+service delay (seconds)
    retry_after: float   # shed: jittered drain-time hint (0 when admitted)


class AdmissionController:
    """Virtual-backlog admission gate + EWMA load tracker for one server."""

    def __init__(self, config: AdmissionConfig | None = None,
                 clock=None) -> None:
        self.config = config if config is not None else AdmissionConfig()
        #: callable returning seconds; sim clocks drop straight in.
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._busy_until = float("-inf")   # horizon of committed work
        self._ewma_depth = 0.0             # cost units, sampled at offers
        self._ewma_delay = 0.0             # modeled serve delay, admitted reqs
        self._rng = random.Random(f"admission|{self.config.seed}")
        self.admitted = 0
        self.shed = 0

    # -- cost accounting ---------------------------------------------------- #

    def cost_of(self, queries: int) -> float:
        """Cost units of a request covering ``queries`` calls (1 for a
        single request; batches pay a marginal fraction per extra item)."""
        if queries <= 1:
            return 1.0
        return 1.0 + self.config.batch_item_cost * (queries - 1)

    # -- load inspection ---------------------------------------------------- #

    def _backlog_at(self, now: float) -> float:
        """Committed-but-unserved work, in cost units, at instant ``now``."""
        pending = max(0.0, self._busy_until - now)
        if self.config.service_time <= 0:
            return 0.0
        return pending / self.config.service_time

    def load_factor(self) -> float:
        """Instantaneous backlog / capacity, in [0, ~1]."""
        with self._lock:
            backlog = self._backlog_at(float(self._clock()))
        if self.config.max_queue_cost <= 0:
            return 1.0 if backlog > 0 else 0.0
        return min(1.0, backlog / self.config.max_queue_cost)

    def fee_multiplier(self) -> float:
        """Current quote multiplier from the load→fee curve."""
        return load_multiplier(self.load_factor())

    def snapshot(self) -> dict:
        """The ``load_info()`` payload: load, EWMA trackers, counters."""
        with self._lock:
            now = float(self._clock())
            backlog = self._backlog_at(now)
            depth = self._ewma_depth
            delay = self._ewma_delay
            admitted, shed = self.admitted, self.shed
        capacity = self.config.max_queue_cost
        load = (min(1.0, backlog / capacity) if capacity > 0
                else (1.0 if backlog > 0 else 0.0))
        return {
            "load": load,
            "queue_depth": backlog,
            "ewma_queue_depth": depth,
            "ewma_serve_delay": delay,
            "fee_multiplier": load_multiplier(load),
            "max_queue_cost": capacity,
            "service_time": self.config.service_time,
            "admitted": admitted,
            "shed": shed,
        }

    # -- the gate ------------------------------------------------------------ #

    def offer(self, cost: float) -> AdmissionDecision:
        """Admit or shed a request of ``cost`` units, atomically.

        Admission commits the work: ``busy_until`` advances by the request's
        modeled service time, and the returned ``queue_delay`` — how long
        the request waits behind the backlog plus its own service — is what
        the transport uses to schedule the reply.  A shed leaves the backlog
        untouched and returns the jittered ``retry_after`` drain hint.
        """
        alpha = self.config.ewma_alpha
        with self._lock:
            now = float(self._clock())
            backlog = self._backlog_at(now)
            self._ewma_depth += alpha * (backlog - self._ewma_depth)
            capacity = self.config.max_queue_cost
            load = (min(1.0, backlog / capacity) if capacity > 0
                    else (1.0 if backlog > 0 else 0.0))
            if backlog + cost > capacity:
                self.shed += 1
                return AdmissionDecision(
                    admitted=False, cost=cost, load=load, queue_delay=0.0,
                    retry_after=self._retry_after(backlog, cost),
                )
            start = max(now, self._busy_until)
            self._busy_until = start + cost * self.config.service_time
            queue_delay = self._busy_until - now
            self._ewma_delay += alpha * (queue_delay - self._ewma_delay)
            self.admitted += 1
            return AdmissionDecision(
                admitted=True, cost=cost, load=load, queue_delay=queue_delay,
                retry_after=0.0,
            )

    def _retry_after(self, backlog: float, cost: float) -> float:
        """Jittered hint: time until ``cost`` units fit the queue again.

        Deterministic given the config seed and the call sequence — the
        bench and the e2e retry tests reproduce run-to-run.
        """
        need = backlog + cost - self.config.max_queue_cost
        base = max(need, 1.0) * self.config.service_time
        j = RETRY_JITTER
        return base * (1.0 - j + 2.0 * j * self._rng.random())
