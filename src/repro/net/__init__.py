"""Discrete-event simulated network (latency, loss, partitions, timeouts),
plus the futures-based endpoint transport (submit, wait_any, hedged races)."""

from .futures import (
    EndpointTimeout,
    ExponentialBackoff,
    PendingReply,
    ReplyCancelled,
    wait_all,
    wait_any,
)
from .latency import FixedLatency, LatencyModel, PairwiseLatency, UniformLatency
from .network import LinkStats, NetworkError, NetworkStats, SimNetwork
from .simclock import SimClock
from .transport import RemoteError, SimEndpoint, SimServerBinding

__all__ = [
    "SimClock",
    "SimNetwork",
    "NetworkError",
    "NetworkStats",
    "LinkStats",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "PairwiseLatency",
    "SimEndpoint",
    "SimServerBinding",
    "EndpointTimeout",
    "ReplyCancelled",
    "RemoteError",
    "PendingReply",
    "ExponentialBackoff",
    "wait_any",
    "wait_all",
]
