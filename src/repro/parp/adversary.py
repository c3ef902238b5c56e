"""Misbehaving full nodes — failure injection for the accountability story.

The paper's security argument is that every way a full node can lie maps to
a classification (§IV-F): attributable lies are FRAUD (slashing evidence),
non-attributable garbage is INVALID (walk away).  Each attack below is one
edit of the honest step-(C) response, signed afterwards through the digest
every verifier recomputes (:meth:`~repro.parp.messages.PARPResponse.signed`)
— so a lie reads the same on either wire, and a lying batch is as slashable
as a lying single answer:

=====================  ==========================  =====================
attack                 what it forges              expected classification
=====================  ==========================  =====================
``inflate_balance``    R(γ) of the last item       FRAUD (merkle-proof)
``bogus_proof``        every proof node            FRAUD (merkle-proof)
``overcharge``         cumulative amount a         FRAUD (payment-amount)
``stale_height``       old state, m_B < pinned     FRAUD (timestamp)
``wrong_signature``    σ_res by a different key    INVALID (response-signature)
``wrong_request_hash`` echoed h_req                INVALID (request-hash)
``wrong_channel``      α bound into h_res          INVALID (response-signature)
=====================  ==========================  =====================

``stale_height`` is the one lie told before signing: the server answers from
the state two blocks below the block the request pins, result and proof
consistent with that old header.  :func:`forge` of an answer already made
can only relabel its m_B.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple, Optional

from ..crypto.keys import PrivateKey
from ..trie.proof import ProofIndex
from .messages import ResponseStatus
from .server import FullNodeServer

__all__ = ["ATTACKS", "MaliciousFullNodeServer", "forge"]

#: the key ``wrong_signature`` signs with: nobody's channel partner
ROGUE = PrivateKey.from_seed(b"rogue-signer")


class Lie(NamedTuple):
    """One attack: ``edit(response, target, pinned)`` of the honest
    response (``target`` the item a content lie edits, ``pinned`` the height
    of the block the request pins), signed by ``key`` for channel ``alpha``
    — None for the server's own key and the request's channel."""

    edit: Callable
    key: Optional[PrivateKey] = None
    alpha: Optional[bytes] = None


def _flipped(data: bytes) -> bytes:
    """``data`` with its first byte changed (one byte for nothing)."""
    return bytes([data[0] ^ 0x01]) + data[1:] if data else b"\x01"


ATTACKS: dict[str, Lie] = {
    "inflate_balance": Lie(lambda r, target, pinned: r.with_result(
        target, _flipped(r.item_view(target).result))),
    "bogus_proof": Lie(lambda r, target, pinned: replace(r, proof=ProofIndex(
        [node[::-1] for node in r.proof] or [b"\xde\xad\xbe\xef" * 8]))),
    "overcharge": Lie(lambda r, target, pinned: replace(r, a=r.a + 10 ** 9)),
    "stale_height": Lie(
        lambda r, target, pinned: replace(r, m_b=max(0, pinned - 2))),
    "wrong_signature": Lie(lambda r, target, pinned: r, key=ROGUE),
    "wrong_request_hash": Lie(
        lambda r, target, pinned: replace(r, h_req=_flipped(r.h_req))),
    "wrong_channel": Lie(lambda r, target, pinned: r, alpha=bytes(16)),
}


def forge(attack: str, honest, alpha: bytes, key: PrivateKey, pinned: int,
          target: int = 0):
    """``honest`` (either wire) told as ``attack`` and signed: by ``key``
    for channel ``alpha`` unless the attack signs otherwise."""
    lie = ATTACKS[attack]
    return lie.edit(honest, target, pinned).signed(lie.key or key,
                                                   lie.alpha or alpha)


class MaliciousFullNodeServer(FullNodeServer):
    """A PARP server that tells one configured lie per response, either wire.

    Everything else (handshake, channel accounting, payments) stays honest,
    isolating exactly one lie per response — the way the classification
    matrix is meant to be tested.
    """

    def __init__(self, *args, attack: str = "inflate_balance",
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if attack not in ATTACKS:
            raise ValueError(
                f"unknown attack {attack!r}; pick one of {tuple(ATTACKS)}")
        self.attack = attack
        self.attacks_launched = 0

    def _execute_and_sign(self, request):
        """Honest step (C) — from old state for ``stale_height`` — then the
        configured lie on the last item."""
        self.attacks_launched += 1
        block = self.node.chain.get_block_by_hash(request.h_b)
        pinned = block.number if block is not None else self.node.head_number()
        if block is not None and self.attack == "stale_height":
            stale = max(0, pinned - 2)
            honest = request.response_type.from_answers(
                request, stale, [self._execute_call(request, call, stale)
                                 for call in request.calls],
                self.key, ResponseStatus.OK)
        else:
            honest = super()._execute_and_sign(request)
        return forge(self.attack, honest, request.alpha, self.key, pinned,
                     len(honest) - 1)
