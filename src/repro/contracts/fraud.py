"""Fraud Detection Module (FDM) — on-chain Algorithm 2.

A witness full node submits ``(wire, req, res, i, header_m, header_req,
addr_WN)``: the exchange of either wire as the client received it — ``wire``
names the request type, a single request is a batch of one — and the index
``i`` of the call it convicts.  The contract does what only a contract can —
the metered decode of the calldata, the channel lookup (must exist, not
closed) via the CMM, the authentication of the two headers, the slash — and
takes its verdict from the three calls the off-chain parties make, handing
them ``ctx.keccak`` / ``ctx.ecrecover`` so every hash and recover (a batch's
root fold included) is metered:

* ``PARPRequest.verify`` — the full node's step (B): h_req rebuilt, σ_req
  and σ_a recover to the channel's light client;
* ``verification._classify_envelope`` — §V-D checks 1–5: echo of h_req /
  σ_req, σ_res recovers to the channel's full node over h_res (over the
  node *hashes* of π_γ, each hashed once as the response is decoded),
  payment amount, timestamp;
* ``verification._classify_item`` — §V-D check 6 on item ``i``: a signed
  error proves nothing and convicts nobody, else π_γ against the header's
  roots.  An honest item of a lying batch is not convicted by naming it.
  The walk is charged per byte of the nodes it reads: the named item's
  path, not the whole pool a batch shares.

It slashes iff the report those return is FRAUD and reverts with the
report's check otherwise: the two verifiers cannot diverge, because there
is one.  A change of verdict is a change to :mod:`repro.parp.verification`.

Headers are authenticated exactly as in the paper's §VI: the submitter
provides raw header fields; the contract re-hashes them and checks the hash
against the chain's 256-block BLOCKHASH window (for the proof header) or
against req.h_B itself (for the height reference, which the request pins).
"""

from __future__ import annotations

from ..chain.header import BlockHeader
from ..crypto.keys import Address
from ..parp.messages import BatchRequest, MessageError, PARPRequest
from ..parp.verification import _classify_envelope, _classify_item
from ..rlp import codec as rlp
from ..vm import abi
from ..vm.contract import NativeContract, contract_method
from ..vm.gas import PROOF_VERIFY_BYTE_GAS, RLP_DECODE_BYTE_GAS
from ..vm.runtime import CallContext, Revert
from .channels import CHANNEL_CLOSED, CHANNEL_NONE

__all__ = ["FraudModule"]

#: the request type each wire field of the calldata names
_WIRES = {wire.noun.encode(): wire for wire in (PARPRequest, BatchRequest)}


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
        ctx.require(len(args) == 7, "fraud proof takes (wire, request, "
                    "response, item, proof header, request header, witness)")
        try:
            wire, req_blob, res_blob = (abi.as_bytes(arg) for arg in args[:3])
            item = abi.as_int(args[3])
            proof_header_blob, req_header_blob = (
                abi.as_bytes(arg) for arg in args[4:6])
            witness = abi.as_address(args[6])
        except abi.ABIError as exc:
            raise Revert(f"malformed fraud proof calldata: {exc}") from exc
        request_type = _WIRES.get(wire)
        ctx.require(request_type is not None,
                    f"wire {wire[:16]!r} names no request type")

        # -- decode (metered per byte, like a Solidity RLP reader) -------- #
        ctx.charge(RLP_DECODE_BYTE_GAS * (len(req_blob) + len(res_blob)), "decode")
        try:
            request = request_type.decode_wire(req_blob)
            # every proof node is hashed here, metered, and nowhere else:
            # h_res and the Merkle walk below both read the decoded index
            alpha, response = request.response_type.decode_for_fraud(
                res_blob, ctx.keccak)
        except MessageError as exc:
            raise Revert(f"undecodable fraud evidence: {exc}") from exc
        ctx.require(request.alpha == alpha, "channel id mismatch")
        ctx.require(item < len(request.calls),
                    f"item {item} out of range for a {request.noun} of "
                    f"{len(request.calls)} call(s)")

        # -- channel lookup (Algorithm 2: chan.T != "closed") -------------- #
        channel = ctx.call(self._channels_module, "get_channel", [alpha])
        lc_raw, fn_raw, _budget, _cs, status, _deadline = channel
        ctx.require(status != CHANNEL_NONE, "unknown channel")
        ctx.require(status != CHANNEL_CLOSED, "channel already closed")
        light_client = Address(lc_raw)
        full_node = Address(fn_raw)

        # -- the origin of the request: the full node's own step (B) ------- #
        try:
            request.verify(light_client, ctx.keccak, ctx.ecrecover)
        except MessageError as exc:
            raise Revert(f"request-origin: {exc}") from exc

        # -- §V-D checks 1–5, at the height of the header req.h_B pins ----- #
        req_header = self._decode_header(ctx, req_header_blob)
        ctx.require(
            ctx.keccak(req_header_blob) == request.h_b,
            "submitted height-reference header does not match req.h_B",
        )
        report = _classify_envelope(
            request, response, alpha, full_node, req_header.number,
            answered=len(response), keccak=ctx.keccak,
            ecrecover=ctx.ecrecover)

        # -- §V-D check 6 on item i, against a header BLOCKHASH vouches for #
        if report is None:
            proof_header = self._decode_header(ctx, proof_header_blob)
            canonical = ctx.block_hash(proof_header.number)
            ctx.require(canonical is not None,
                        "proof header outside the 256-block verification window")
            ctx.require(canonical == ctx.keccak(proof_header_blob),
                        "submitted header is not canonical at its height")
            answer = response.item_view(item)
            pool = response.proof_index
            with pool.sharing_decodes() as read:
                report = _classify_item(request.calls[item], answer, {
                    proof_header.number: proof_header,
                    req_header.number: req_header,
                }.get)
            # the walk is charged by the nodes it read: the item's own path,
            # not the pool the rest of a batch shares
            size = dict(zip(pool.hashes, map(len, pool)))
            ctx.charge(
                PROOF_VERIFY_BYTE_GAS * sum(size[node] for node in read)
                + RLP_DECODE_BYTE_GAS * len(answer.result),
                "proof-verify",
            )

        verdict = f"{report.check}: {report.detail}"
        if not report.fraudulent:
            raise Revert(f"no fraud detected ({verdict})")
        return self._slash(ctx, full_node, light_client, witness, verdict)

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

        ctx.require(len(args) == 6, "head equivocation takes (header a, "
                    "signature a, header b, signature b, reporter, witness)")
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
        ctx.require(signer_a is not None,
                    "announcement signature recovers to no identity")
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
