"""Protocol state enumerations (the tripartite diagram of Fig. 4)."""

from __future__ import annotations

from enum import Enum

__all__ = ["LightClientState", "ChannelStatus", "ResponseClass"]


class LightClientState(Enum):
    """Light-client lifecycle states (Fig. 4, bottom track)."""

    IDLE = "idle"
    HANDSHAKING = "handshaking"
    UNBONDED = "unbonded"      # OpenChannel sent, receipt not yet verified
    BONDED = "bonded"          # channel open; request/response phase
    UNBONDING = "unbonding"    # CloseChannel sent, dispute window running


class ChannelStatus(Enum):
    """On-chain payment-channel states (Fig. 4, middle track).

    Integer values match the CMM storage encoding.
    """

    NONE = 0
    OPEN = 1
    CLOSING = 2
    CLOSED = 3


class ResponseClass(Enum):
    """Outcome of light-client response verification (paper §IV-F).

    * VALID — all checks pass; the client trusts the response.
    * INVALID — the client cannot trust the response but also cannot hold
      the full node accountable (no usable fraud proof); it should leave.
    * FRAUD — provably wrong; the client can construct a fraud proof.
    """

    VALID = "valid"
    INVALID = "invalid"
    FRAUD = "fraudulent"
