"""Fraud Detection Module (FDM) — on-chain Algorithm 2.

A witness full node submits ``(req, res, header_m, header_req, addr_WN)``;
the contract re-runs, with metered gas, exactly the checks the light client
ran off-chain (shared code in :mod:`repro.parp.queries` — the two verifiers
cannot diverge), and on any *fraud* condition instructs the Deposit Module
to confiscate the offending full node's collateral:

1. decode req/res; **identifier match** (req.α == res.α),
2. channel lookup (must exist, not closed) via the CMM,
3. **request integrity**: rebuild h_req, ``recover(h_req, σ_req) == LC``,
4. **response origin**: rebuild h_res (over the node *hashes* of π_γ, each
   node hashed once as the response is decoded — see
   :mod:`repro.parp.messages`), ``recover(h_res, σ_res) == FN``,
5. **payment amount check** (req.a ≠ res.a → slash),
6. **timestamp check** (res.m_B < height(req.h_B) → slash),
7. **Merkle proof check** (π_γ fails against the trusted root → slash).

Headers are authenticated exactly as in the paper's §VI: the submitter
provides raw header fields; the contract re-hashes them and checks the hash
against the chain's 256-block BLOCKHASH window (for the proof header) or
against req.h_B itself (for the height reference, which the request pins).
"""

from __future__ import annotations

from typing import Optional

from ..chain.header import BlockHeader
from ..crypto.keys import Address
from ..parp.messages import MessageError, PARPRequest, PARPResponse
from ..parp.queries import QueryFraud, Unverifiable, verify_query_result
from ..rlp import codec as rlp
from ..vm import abi
from ..vm.contract import NativeContract, contract_method
from ..vm.gas import PROOF_VERIFY_BYTE_GAS, RLP_DECODE_BYTE_GAS
from ..vm.runtime import CallContext, Revert

__all__ = ["FraudModule"]

# mirror of channels.CHANNEL_* (kept literal to avoid an import cycle)
_CHANNEL_NONE = 0
_CHANNEL_CLOSED = 3


class FraudModule(NativeContract):
    """Native-contract implementation of the FDM."""

    name = "FraudModule"

    def __init__(self, address: Address, deposit_module: Address,
                 channels_module: Address) -> None:
        super().__init__(address)
        self._deposit_module = deposit_module
        self._channels_module = channels_module

    @contract_method()
    def submit_fraud_proof(self, ctx: CallContext, args: list) -> bool:
        """Adjudicate a fraud proof; slashes and returns True on fraud,
        reverts otherwise (so honest nodes can never be slashed and spurious
        submissions simply burn the submitter's gas)."""
        req_blob = abi.as_bytes(args[0])
        res_blob = abi.as_bytes(args[1])
        proof_header_blob = abi.as_bytes(args[2])
        req_header_blob = abi.as_bytes(args[3])
        witness = abi.as_address(args[4])

        # -- decode (metered per byte, like a Solidity RLP reader) -------- #
        ctx.charge(RLP_DECODE_BYTE_GAS * (len(req_blob) + len(res_blob)), "decode")
        try:
            request = PARPRequest.decode_wire(req_blob)
            # every proof node is hashed here, metered, and nowhere else:
            # h_res and the Merkle walk below both read the decoded index
            res_alpha, response = PARPResponse.decode_for_fraud(
                res_blob, ctx.keccak)
        except MessageError as exc:
            raise Revert(f"undecodable fraud evidence: {exc}") from exc

        # -- the match of the identifier ---------------------------------- #
        ctx.require(request.alpha == res_alpha, "channel id mismatch")
        alpha = request.alpha

        # -- channel lookup (Algorithm 2: chan.T != "closed") -------------- #
        channel = ctx.call(self._channels_module, "get_channel", [alpha])
        lc_raw, fn_raw, _budget, _cs, status, _deadline = channel
        ctx.require(status != _CHANNEL_NONE, "unknown channel")
        ctx.require(status != _CHANNEL_CLOSED, "channel already closed")
        light_client = Address(lc_raw)
        full_node = Address(fn_raw)

        # -- the origin of the request ------------------------------------- #
        h_req = ctx.keccak(request.expected_preimage())
        ctx.require(h_req == request.h_req, "request hash mismatch")
        req_signer = ctx.ecrecover(h_req, request.sig_req)
        ctx.require(req_signer == light_client,
                    "request not signed by the channel's light client")

        # -- the origin of the response ------------------------------------- #
        h_res = ctx.keccak(response.preimage(alpha))
        res_signer = ctx.ecrecover(h_res, response.sig_res)
        ctx.require(res_signer == full_node,
                    "response not signed by the channel's full node")
        ctx.require(response.h_req == h_req, "response references another request")

        # -- payment amount check (fraud) ------------------------------------ #
        if request.a != response.a:
            return self._slash(ctx, full_node, light_client, witness,
                               "payment amount mismatch")

        # -- timestamp check (fraud) ------------------------------------------ #
        req_header = self._decode_header(ctx, req_header_blob)
        ctx.require(
            ctx.keccak(req_header_blob) == request.h_b,
            "submitted height-reference header does not match req.h_B",
        )
        if response.m_b < req_header.number:
            return self._slash(ctx, full_node, light_client, witness,
                               "stale response height")

        # -- Merkle proof check (fraud) ----------------------------------------- #
        proof_header = self._decode_header(ctx, proof_header_blob)
        proof_header_hash = ctx.keccak(proof_header_blob)
        canonical = ctx.block_hash(proof_header.number)
        ctx.require(canonical is not None,
                    "proof header outside the 256-block verification window")
        ctx.require(canonical == proof_header_hash,
                    "submitted header is not canonical at its height")

        headers = {proof_header.number: proof_header,
                   req_header.number: req_header}
        proof_bytes = sum(len(node) for node in response.proof)
        ctx.charge(
            PROOF_VERIFY_BYTE_GAS * proof_bytes
            + RLP_DECODE_BYTE_GAS * len(response.result),
            "proof-verify",
        )
        try:
            verify_query_result(request.call, response, headers.get)
        except QueryFraud as exc:
            return self._slash(ctx, full_node, light_client, witness, str(exc))
        except Unverifiable as exc:
            raise Revert(f"fraud proof not adjudicable: {exc}") from exc
        except MessageError as exc:
            raise Revert(f"malformed query in fraud proof: {exc}") from exc

        raise Revert("no fraud detected")

    @contract_method()
    def submit_head_equivocation(self, ctx: CallContext, args: list) -> bool:
        """Adjudicate a head-announcement equivocation (gossip fraud path).

        Evidence is self-contained: two domain-separated announcement
        signatures over *different* headers at *one* height, both
        recovering to the same registry identity.  No channel context is
        needed — the announcer's misbehavior is against every subscriber
        at once — so the slash reuses the §IV-F split with the submitting
        reporter in the defrauded-party seat.
        """
        from ..gossip.heads import HEAD_ANNOUNCEMENT_DOMAIN

        header_a_blob = abi.as_bytes(args[0])
        sig_a = abi.as_bytes(args[1])
        header_b_blob = abi.as_bytes(args[2])
        sig_b = abi.as_bytes(args[3])
        reporter = abi.as_address(args[4])
        witness = abi.as_address(args[5])

        header_a = self._decode_header(ctx, header_a_blob)
        header_b = self._decode_header(ctx, header_b_blob)
        ctx.require(header_a.number == header_b.number,
                    "announcements are at different heights")
        ctx.require(ctx.keccak(header_a_blob) != ctx.keccak(header_b_blob),
                    "announcements carry the same header")

        digest_a = ctx.keccak(HEAD_ANNOUNCEMENT_DOMAIN + header_a_blob)
        digest_b = ctx.keccak(HEAD_ANNOUNCEMENT_DOMAIN + header_b_blob)
        signer_a = ctx.ecrecover(digest_a, sig_a)
        signer_b = ctx.ecrecover(digest_b, sig_b)
        ctx.require(signer_a == signer_b,
                    "announcements signed by different identities")

        return self._slash(ctx, signer_a, reporter, witness,
                           "equivocating head announcements")

    def _decode_header(self, ctx: CallContext, blob: bytes) -> BlockHeader:
        ctx.charge(RLP_DECODE_BYTE_GAS * len(blob), "decode")
        try:
            return BlockHeader.decode(blob)
        except (rlp.RLPError, ValueError) as exc:
            raise Revert(f"undecodable header: {exc}") from exc

    def _slash(self, ctx: CallContext, full_node: Address,
               light_client: Address, witness: Address, reason: str) -> bool:
        """Confirmed fraud: confiscate and distribute the deposit (§IV-F)."""
        ctx.call(self._deposit_module, "slash", [full_node, light_client, witness])
        ctx.emit(
            "FraudConfirmed",
            topics=[full_node.to_bytes(), light_client.to_bytes()],
            data=reason.encode("utf-8")[:96],
        )
        return True
