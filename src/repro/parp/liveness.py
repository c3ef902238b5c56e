"""Channel liveness monitoring (paper §V-C).

"To facilitate a light client to monitor the payment channel's liveness,
for example, if the payment channel is closed secretly by a full node, LC
periodically sends a request to FN asking for P.T.  By getting block header
information from other sources in the network … a light client can verify
the liveness of a channel."

The monitor alternates a cheap unverified probe with a verified storage
proof read of the CMM status slot; any divergence between what the FN
*says* and what the chain *proves* is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .client import LightClientSession, SessionError
from .constants import LIVENESS_PERIOD_SECONDS
from .states import ChannelStatus

__all__ = ["LivenessAlert", "LivenessObservation", "LivenessMonitor"]


@dataclass(frozen=True)
class LivenessObservation:
    """One probe round."""

    time: float
    claimed_status: Optional[int]    # what the FN answered (None: probe failed)
    verified_status: Optional[int]   # what the chain proves (None: unchecked)

    @property
    def divergent(self) -> bool:
        return (
            self.claimed_status is not None
            and self.verified_status is not None
            and self.claimed_status != self.verified_status
        )


class LivenessAlert(Exception):
    """The channel is no longer live (or the FN lied about it)."""

    def __init__(self, observation: LivenessObservation, reason: str) -> None:
        super().__init__(reason)
        self.observation = observation


@dataclass
class LivenessMonitor:
    """Periodic channel-status probing for a bonded session."""

    session: LightClientSession
    period: float = LIVENESS_PERIOD_SECONDS
    verify_every: int = 2          # every k-th probe uses the verified path
    observations: list[LivenessObservation] = field(default_factory=list)
    _probes: int = 0

    def __post_init__(self) -> None:
        if self.period <= 0 or self.verify_every < 1:
            raise ValueError("liveness needs period > 0 and verify_every ≥ 1, "
                             f"got {self.period} and {self.verify_every}")

    def due(self, now: float) -> bool:
        if not self.observations:
            return True
        return now - self.observations[-1].time >= self.period

    def probe(self, now: float) -> LivenessObservation:
        """One liveness round; raises :class:`LivenessAlert` on problems."""
        self._probes += 1
        claimed: Optional[int] = None
        verified: Optional[int] = None
        try:
            claimed = self.session.channel_status_fast()
        except SessionError:
            claimed = None
        if self._probes % self.verify_every == 0 or claimed != ChannelStatus.OPEN.value:
            try:
                verified = self.session.channel_status_verified()
            except SessionError:
                verified = None
        observation = LivenessObservation(
            time=now, claimed_status=claimed, verified_status=verified,
        )
        self.observations.append(observation)

        if observation.divergent:
            raise LivenessAlert(
                observation,
                f"full node claims status {claimed} but the chain proves "
                f"{verified} — channel manipulated secretly",
            )
        effective = verified if verified is not None else claimed
        if effective is None:
            raise LivenessAlert(observation, "both liveness probes failed")
        if effective != ChannelStatus.OPEN.value:
            raise LivenessAlert(
                observation,
                f"channel is no longer open (status {effective})",
            )
        return observation
