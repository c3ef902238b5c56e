"""Fig. 3's request digest, one hash per call: the builders' reference.

``h_req = Hash(α, h_B, a, γ)``; a batch's γ carries its version byte in
front of ``rlp([γ_1 … γ_N])``.  The request builders hash h_req's
pre-image beside h_pay in one ``keccak256_many`` call; nothing a
client or server runs needs h_req alone, so the one-call form lives here,
where the wire and paired-digest tests check the builders against it.
"""

from repro.crypto import keccak256
from repro.parp.messages import _versioned, request_preimage


def request_digest(alpha: bytes, h_b: bytes, amount: int, call_bytes: bytes) -> bytes:
    """``h_req = Hash(α, h_B, a, γ)``."""
    return keccak256(request_preimage(alpha, h_b, amount, call_bytes))


def batch_request_digest(alpha: bytes, h_b: bytes, amount: int, version: int,
                         calls_bytes: bytes) -> bytes:
    """``h_req = Hash(α, h_B, a, v, rlp([γ_1 … γ_N]))`` for a batch."""
    return request_digest(alpha, h_b, amount, _versioned(version, calls_bytes))
