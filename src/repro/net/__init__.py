"""Discrete-event simulated network (latency, loss, partitions, timeouts),
plus the futures-based endpoint transport (submit, wait_any, hedged races)."""

from .futures import (
    EndpointTimeout,
    PendingReply,
    ReplyCancelled,
    wait_all,
    wait_any,
)
from .latency import FixedLatency, LatencyModel, PairwiseLatency, UniformLatency
from .network import NetworkError, SimNetwork
from .simclock import SimClock
from .transport import RemoteError, SimEndpoint, SimServerBinding

__all__ = [
    "SimClock",
    "SimNetwork",
    "NetworkError",
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
    "wait_any",
    "wait_all",
]
