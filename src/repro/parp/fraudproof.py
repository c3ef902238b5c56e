"""Fraud-proof construction and witness submission (paper §IV-F).

When the light client classifies a response as FRAUD it assembles a
:class:`FraudProofPackage` — the request and the response of either wire as
it received them (α re-attached), the index of the item it convicts, and the
block headers the on-chain module needs to re-run the checks.  A batch
package carries the whole signed batch and no Merkle opening: the FDM
recomputes the batch root through the one ``commitment`` every party signs
and checks with.  The client cannot submit the package through the
misbehaving node ("obviously we cannot trust the full node to submit a proof
of its own fraudulent behavior"), so it hands it to a *witness* full node,
which wraps it in a transaction to the Fraud Detection Module, pays the gas,
and collects the witness share of the slashed deposit.  The light client
needs no payment channel with the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..chain.header import BlockHeader
from ..chain.transaction import UnsignedTransaction
from ..contracts.addresses import FRAUD_MODULE_ADDRESS
from ..crypto.keys import Address
from ..node.fullnode import FullNode
from ..vm.abi import encode_call
from .messages import (
    BatchRequest,
    BatchResponse,
    MessageError,
    PARPRequest,
    PARPResponse,
)
from .queries import QUERY_CATALOG, QueryFraud

__all__ = [
    "FraudProofError",
    "FraudProofPackage",
    "build_fraud_package",
    "WitnessService",
    "WITNESS_GAS_PRICE",
    "WITNESS_GAS_LIMIT",
]

#: what a witness bids per gas on its FDM submissions.
WITNESS_GAS_PRICE = 12 * 10 ** 9
#: gas a witness allows one FDM submission (a 16-call batch over a
#: 64-account state is slashed within it).
WITNESS_GAS_LIMIT = 2_000_000


class FraudProofError(Exception):
    """Raised when a fraud package cannot be assembled or submitted."""


@dataclass(frozen=True)
class FraudProofPackage:
    """Everything the FDM needs: evidence plus authenticated headers."""

    alpha: bytes
    request: PARPRequest | BatchRequest
    response: PARPResponse | BatchResponse
    proof_header: BlockHeader   # canonical header for the Merkle adjudication
    req_header: BlockHeader     # the header pinned by req.h_B (height reference)
    item: int = 0               # the call whose answer check 6 judges

    def fdm_args(self, witness: Address) -> list[Any]:
        """Argument list for ``FraudModule.submit_fraud_proof``: the wire
        is named, never guessed from the shape of the blobs."""
        return [
            self.request.noun.encode(),
            self.request.encode_wire(),
            self.response.encode_for_fraud(self.alpha),
            self.item,
            self.proof_header.encode(),
            self.req_header.encode(),
            witness,
        ]

    def calldata(self, witness: Address) -> bytes:
        return encode_call("submit_fraud_proof", self.fdm_args(witness))


def build_fraud_package(request: PARPRequest | BatchRequest,
                        response: PARPResponse | BatchResponse,
                        alpha: bytes, get_header, get_by_hash,
                        item: int = 0) -> FraudProofPackage:
    """Assemble a package convicting call ``item`` of ``request`` (any one
    when the envelope decided the verdict) from the client's header chain.

    ``get_header`` maps a block number to a header and ``get_by_hash`` maps
    a block hash to a header (both from the client's synced chain).  Raises
    :class:`FraudProofError` when the needed headers are not locally
    available — in that case the response was classified INVALID, not
    FRAUD, so this should not happen for genuine fraud classifications.
    """
    # The request pinned h_B from the client's own chain.
    req_header = get_by_hash(request.h_b)
    if req_header is None:
        raise FraudProofError("cannot locate the header pinned by req.h_B")
    # The header the item's verifier reads; an answer that is wrong before
    # any header is read (or that lacks the item) travels with the pinned one.
    proof_number = None
    call = request.calls[item]
    spec = QUERY_CATALOG.get(call.method)
    if spec is not None and spec.verifiable and item < len(response):
        try:
            proof_number = spec.proof_height(
                call, response.item_view(item).result, response.m_b)
        except (QueryFraud, MessageError):
            pass
    if proof_number is None:
        proof_number = req_header.number
    proof_header = get_header(proof_number)
    if proof_header is None:
        raise FraudProofError(f"missing header {proof_number} for the proof check")
    return FraudProofPackage(
        alpha=alpha, request=request, response=response,
        proof_header=proof_header, req_header=req_header, item=item,
    )


class WitnessService:
    """A witness full node that submits fraud proofs on-chain (§IV-F).

    Incentive: the Deposit Module pays the witness a fixed share of the
    slashed collateral, which (for any sane deposit size) dwarfs the gas
    cost of the submission.
    """

    def __init__(self, node: FullNode) -> None:
        self.node = node
        self.key = node.key
        self.submitted = 0
        self.confirmed = 0

    @property
    def address(self) -> Address:
        return self.key.address

    def submit(self, package: FraudProofPackage) -> bytes:
        """Build, sign, submit, and mine the fraud-proof transaction.

        Returns the transaction hash; raises :class:`FraudProofError` if the
        transaction reverted (i.e. the FDM found no fraud).
        """
        return self._send(package.calldata(self.address), "fraud-proof")

    def submit_equivocation(self, proof, reporter: Optional[Address] = None) -> bytes:
        """Submit a head-announcement equivocation proof on-chain.

        ``proof`` is a :class:`repro.gossip.heads.HeadEquivocationProof`;
        ``reporter`` (default: the witness itself) takes the defrauded-party
        share of the slash.  Same contract as :meth:`submit` otherwise.
        """
        reporter = reporter if reporter is not None else self.address
        return self._send(encode_call("submit_head_equivocation", [
            proof.first.header.encode(),
            proof.first.signature,
            proof.second.header.encode(),
            proof.second.signature,
            reporter,
            self.address,
        ]), "equivocation")

    def _send(self, calldata: bytes, what: str) -> bytes:
        """One transaction to the FDM: signed, mined, receipt checked."""
        nonce = self.node.chain.state.nonce_of(self.address)
        tx = UnsignedTransaction(
            nonce=nonce, gas_price=WITNESS_GAS_PRICE,
            gas_limit=WITNESS_GAS_LIMIT,
            to=FRAUD_MODULE_ADDRESS, value=0, data=calldata,
        ).sign(self.key)
        tx_hash = self.node.submit_transaction(tx.encode())
        location = self.node.ensure_mined(tx_hash)
        self.submitted += 1
        if location is None:
            raise FraudProofError(f"{what} transaction was not included")
        receipt = self.node.chain.get_receipt(tx_hash)
        if receipt is None or not receipt.succeeded:
            raise FraudProofError(
                f"{what} transaction reverted (nothing adjudicated)")
        self.confirmed += 1
        return tx_hash
