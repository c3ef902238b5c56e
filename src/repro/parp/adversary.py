"""Misbehaving full nodes — failure injection for the accountability story.

The paper's security argument is that every way a full node can lie maps to
a classification (§IV-F): attributable lies are FRAUD (slashing evidence),
non-attributable garbage is INVALID (walk away).  This module implements a
malicious server for each row of that argument so tests, benchmarks, and
examples can exercise the full detection → witness → slash pipeline:

=====================  ==========================  =====================
attack                 what it forges              expected classification
=====================  ==========================  =====================
``inflate_balance``    account record in R(γ)      FRAUD (merkle-proof)
``bogus_proof``        Merkle proof nodes          FRAUD (merkle-proof)
``overcharge``         cumulative amount a         FRAUD (payment-amount)
``stale_height``       serves old state, m_B low   FRAUD (timestamp)
``wrong_signature``    σ_res by a different key    INVALID (response-signature)
``wrong_request_hash`` echoed h_req                INVALID (request-hash)
``wrong_channel``      α bound into h_res          INVALID (response-signature)
=====================  ==========================  =====================
"""

from __future__ import annotations

from ..chain.account import Account
from ..crypto.keys import PrivateKey
from .messages import PARPRequest, PARPResponse, ResponseStatus
from .queries import execute_query
from .server import FullNodeServer

__all__ = ["ATTACKS", "MaliciousFullNodeServer"]

ATTACKS = (
    "inflate_balance",
    "bogus_proof",
    "overcharge",
    "stale_height",
    "wrong_signature",
    "wrong_request_hash",
    "wrong_channel",
)


class MaliciousFullNodeServer(FullNodeServer):
    """A PARP server that executes one configured attack per response.

    Everything else (handshake, channel accounting, payments) stays honest,
    isolating exactly one lie per response — the way the classification
    matrix is meant to be tested.
    """

    def __init__(self, *args, attack: str = "inflate_balance",
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if attack not in ATTACKS:
            raise ValueError(f"unknown attack {attack!r}; pick one of {ATTACKS}")
        self.attack = attack
        self.attacks_launched = 0

    # The dispatcher: run the configured forgery instead of honest step (C).
    # Forgeries ride the single wire only — the FDM cannot decode a batch
    # yet, so a forged batch could not be slashed; batches are served
    # honestly.
    def _execute_and_sign(self, request):
        if not isinstance(request, PARPRequest):
            return super()._execute_and_sign(request)
        self.attacks_launched += 1
        forge = getattr(self, f"_attack_{self.attack}")
        return forge(request)

    # ------------------------------------------------------------------ #
    # Content fraud
    # ------------------------------------------------------------------ #

    def _attack_inflate_balance(self, request: PARPRequest) -> PARPResponse:
        """Return a doctored account record with 1000x the real balance,
        next to the *real* proof — the proof cannot cover the lie."""
        m_b = self.node.head_number()
        result, proof = execute_query(self.node, request.call, m_b)
        if request.call.method == "eth_getBalance" and result:
            account = Account.decode(result)
            doctored = account.with_balance(account.balance * 1000 + 1)
            result = doctored.encode()
        else:  # non-balance queries: flip bytes in the result payload
            result = bytes([result[0] ^ 0xFF]) + result[1:] if result else b"\x01"
        return PARPResponse.build(
            alpha=request.alpha, request=request, m_b=self.node.head_number(),
            result=result, proof=proof, key=self.key,
        )

    def _attack_bogus_proof(self, request: PARPRequest) -> PARPResponse:
        """Honest result, garbage proof (e.g. a lazy node serving cached
        data it can no longer prove)."""
        m_b = self.node.head_number()
        result, proof = execute_query(self.node, request.call, m_b)
        bogus = [node[::-1] for node in proof] or [b"\xde\xad\xbe\xef" * 8]
        return PARPResponse.build(
            alpha=request.alpha, request=request, m_b=self.node.head_number(),
            result=result, proof=bogus, key=self.key,
        )

    # ------------------------------------------------------------------ #
    # Payment fraud
    # ------------------------------------------------------------------ #

    def _attack_overcharge(self, request: PARPRequest) -> PARPResponse:
        """Acknowledge a higher cumulative amount than the client signed."""
        m_b = self.node.head_number()
        result, proof = execute_query(self.node, request.call, m_b)
        inflated = request.a + 10 ** 9
        return _sign_response(
            self.key, request.alpha, request, m_b=self.node.head_number(),
            amount=inflated, result=result, proof=proof,
        )

    # ------------------------------------------------------------------ #
    # Staleness fraud
    # ------------------------------------------------------------------ #

    def _attack_stale_height(self, request: PARPRequest) -> PARPResponse:
        """Serve consistent-but-outdated state: proof and result are valid
        against an *old* block, and m_B honestly says so — but m_B is below
        the height the client pinned, which §V-D defines as fraud."""
        pinned = self.node.chain.get_block_by_hash(request.h_b)
        stale = max(0, (pinned.number if pinned else self.node.head_number()) - 2)
        result, proof = execute_query(self.node, request.call, stale)
        return PARPResponse.build(
            alpha=request.alpha, request=request, m_b=stale,
            result=result, proof=proof, key=self.key,
        )

    # ------------------------------------------------------------------ #
    # Non-attributable garbage (INVALID, not slashable)
    # ------------------------------------------------------------------ #

    def _attack_wrong_signature(self, request: PARPRequest) -> PARPResponse:
        """Sign with a throwaway key — unattributable, hence merely invalid."""
        m_b = self.node.head_number()
        result, proof = execute_query(self.node, request.call, m_b)
        rogue = PrivateKey.from_seed(b"rogue-signer")
        return PARPResponse.build(
            alpha=request.alpha, request=request, m_b=m_b,
            result=result, proof=proof, key=rogue,
        )

    def _attack_wrong_request_hash(self, request: PARPRequest) -> PARPResponse:
        """Echo a corrupted request hash, unlinking response from request."""
        m_b = self.node.head_number()
        result, proof = execute_query(self.node, request.call, m_b)
        honest = PARPResponse.build(
            alpha=request.alpha, request=request, m_b=m_b,
            result=result, proof=proof, key=self.key,
        )
        corrupted = bytes([honest.h_req[0] ^ 0x01]) + honest.h_req[1:]
        return PARPResponse(
            status=honest.status, m_b=honest.m_b, a=honest.a,
            result=honest.result, proof=honest.proof, h_req=corrupted,
            sig_req=honest.sig_req, sig_res=honest.sig_res,
        )

    def _attack_wrong_channel(self, request: PARPRequest) -> PARPResponse:
        """Bind the signature to a different channel id."""
        m_b = self.node.head_number()
        result, proof = execute_query(self.node, request.call, m_b)
        foreign_alpha = bytes(16)
        return _sign_response(
            self.key, foreign_alpha, request, m_b=m_b,
            amount=request.a, result=result, proof=proof,
        )


def _sign_response(key: PrivateKey, alpha: bytes, request: PARPRequest,
                   m_b: int, amount: int, result: bytes,
                   proof: list[bytes],
                   status: int = ResponseStatus.OK) -> PARPResponse:
    """Build a response with arbitrary (possibly inconsistent) fields but a
    *correct* signature over them — the attacker signs its own lie, through
    the one digest every verifier recomputes."""
    return PARPResponse(
        status=status, m_b=m_b, a=amount, result=result, proof=proof,
        h_req=request.h_req, sig_req=request.sig_req, sig_res=b"",
    ).signed(key, alpha)
