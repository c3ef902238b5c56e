"""The read workload of §VI-A: balance queries that do not alter state.

"A read workload includes requests that query and retrieve data from the
blockchain without altering its state.  It is typical for data verification
and status checks."  The paper's reference read is ``eth_getBalance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.keys import Address
from ..parp.client import LightClientSession
from .accounts import ZipfSelector

__all__ = ["ReadWorkloadResult", "ReadWorkload"]


@dataclass
class ReadWorkloadResult:
    """Aggregate outcome of a read run."""

    requests: int = 0
    balances: list[int] = field(default_factory=list)
    bytes_request: int = 0
    bytes_response: int = 0
    fees_paid: int = 0


class ReadWorkload:
    """Zipf-skewed balance polling over a fixed account population."""

    def __init__(self, targets: list[Address], zipf_exponent: float = 1.1,
                 seed: int = 7) -> None:
        if not targets:
            raise ValueError("need at least one target account")
        self.targets = targets
        self.selector = ZipfSelector(len(targets), zipf_exponent, seed)

    def next_target(self) -> Address:
        return self.targets[self.selector.pick()]

    def run(self, session: LightClientSession, requests: int) -> ReadWorkloadResult:
        """Issue ``requests`` paid, verified balance queries."""
        result = ReadWorkloadResult()
        start_spent = session.channel.spent if session.channel else 0
        for _ in range(requests):
            target = self.next_target()
            outcome = session.request("eth_getBalance", target)
            from ..parp.queries import decode_balance

            result.balances.append(decode_balance(outcome.response.result))
            result.requests += 1
            result.bytes_request += len(outcome.request.encode_wire())
            result.bytes_response += len(outcome.response.encode_wire())
        if session.channel:
            result.fees_paid = session.channel.spent - start_spent
        return result
