"""Light-client response verification — the six checks of §V-D.

The checks run in a strict order that mirrors the paper's rationale:
failures that would leave the client *unable to build a fraud proof* come
first and classify the response as INVALID (walk away, don't pay more);
only once the response is provably attributable to the full node do the
remaining checks classify failures as FRAUD (slashing evidence):

1. **Verify Request Hash** — the response must echo ``h_req``/``σ_req`` of
   our request; otherwise it is not linkable to what we asked (INVALID).
2. **Verify Response Signature** — ``σ_res`` must recover to the channel's
   full node over ``h_res`` computed with *our* channel id α; otherwise the
   response proves nothing (INVALID).
3. **Channel Identifier Check** — α is bound inside ``h_res``; a response
   signed for another channel fails check 2 (kept as an explicit step for
   fraud-blob submissions where α travels with the message) (INVALID).
4. **Payment Amount Check** — ``res.a`` must equal the signed ``req.a``;
   a mismatch is attributable and provable (FRAUD).
5. **Timestamp Check** — ``res.m_B`` must be at least the height of the
   block the request pinned via ``h_B``; staler is FRAUD.
6. **Verify Merkle Proof** — π_γ must authenticate R(γ) against the header
   roots at the relevant height; failure is FRAUD.  A header the client
   cannot obtain makes the response unverifiable (INVALID).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..crypto.keys import Address
from ..trie.proof import HashMemo
from .messages import (
    BatchRequest,
    BatchResponse,
    Ecrecover,
    Keccak,
    MessageError,
    PARPRequest,
    PARPResponse,
    ResponseStatus,
    RpcCall,
)
from .queries import HeaderLookup, QueryFraud, Unverifiable, verify_query_result
from .sharding import shard_keys_of_calls
from .states import ResponseClass

__all__ = ["VerificationReport", "classify_response", "classify_batch_response"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of classifying one response."""

    classification: ResponseClass
    check: str               # which §V-D check decided the outcome
    detail: str = ""
    is_error_response: bool = False

    @property
    def valid(self) -> bool:
        return self.classification is ResponseClass.VALID

    @property
    def fraudulent(self) -> bool:
        return self.classification is ResponseClass.FRAUD


def _classify_envelope(request: PARPRequest | BatchRequest,
                       response: PARPResponse | BatchResponse,
                       alpha: bytes, full_node: Address, request_height: int,
                       answered: int, keccak: Optional[Keccak] = None,
                       ecrecover: Optional[Ecrecover] = None,
                       ) -> Optional[VerificationReport]:
    """Checks 1–5 over the signed envelope, either wire; None when all hold.

    The metadata is shared by every call of the request, so one pass covers
    them all.  ``answered`` is how many calls the response answers (always
    one on the single wire).  The on-chain FDM takes its verdict from this
    function and :func:`_classify_item` too, passing its metered ``keccak``
    / ``ecrecover`` and the height of the header ``req.h_B`` pins.
    """
    # 1. Verify Request Hash ------------------------------------------------ #
    if response.h_req != request.h_req:
        return VerificationReport(
            ResponseClass.INVALID, "request-hash",
            "response echoes a different request hash",
        )
    if response.sig_req != request.sig_req:
        return VerificationReport(
            ResponseClass.INVALID, "request-hash",
            "response echoes a different request signature",
        )

    # 2./3. Verify Response Signature (α-bound) ------------------------------- #
    try:
        signer = response.signer(alpha, full_node, keccak, ecrecover)
    except MessageError as exc:
        return VerificationReport(
            ResponseClass.INVALID, "response-signature", str(exc),
        )
    if signer != full_node:
        return VerificationReport(
            ResponseClass.INVALID, "response-signature",
            f"signed by {signer.hex()}, expected {full_node.hex()}",
        )

    # Envelope sanity: the server must answer every call it signed for.
    if answered != len(request.calls):
        return VerificationReport(
            ResponseClass.FRAUD, "batch-arity",
            f"batch of {len(request.calls)} calls answered with "
            f"{answered} results",
        )

    # 4. Payment Amount Check -------------------------------------------------- #
    if response.a != request.a:
        return VerificationReport(
            ResponseClass.FRAUD, "payment-amount",
            f"request committed {request.a}, response claims {response.a}",
        )

    # 5. Timestamp Check --------------------------------------------------------- #
    if response.m_b < request_height:
        return VerificationReport(
            ResponseClass.FRAUD, "timestamp",
            f"response height {response.m_b} < request height {request_height}",
        )
    return None


def _classify_item(call: RpcCall, item: PARPResponse,
                   get_header: HeaderLookup) -> VerificationReport:
    """Check 6 for one call and its (view of a) single response."""
    # Signed error responses carry no verifiable payload.
    if item.status != ResponseStatus.OK:
        return VerificationReport(
            ResponseClass.VALID, "error-response",
            "full node signed an error outcome", is_error_response=True,
        )
    # 6. Verify Merkle Proof -------------------------------------------------------- #
    try:
        verify_query_result(call, item, get_header)
    except QueryFraud as exc:
        return VerificationReport(ResponseClass.FRAUD, "merkle-proof", str(exc))
    except (Unverifiable, MessageError) as exc:
        return VerificationReport(ResponseClass.INVALID, "merkle-proof", str(exc))
    return VerificationReport(ResponseClass.VALID, "all-checks")


def classify_response(request: PARPRequest, response: PARPResponse,
                      alpha: bytes, full_node: Address,
                      request_height: int,
                      get_header: HeaderLookup) -> VerificationReport:
    """Run the §V-D checks; never raises, always returns a report.

    ``request_height`` is the height of the block whose hash the client put
    in ``req.h_B`` (the client always knows it — it chose the hash from its
    own header chain).
    """
    return (_classify_envelope(request, response, alpha, full_node,
                               request_height, answered=1)
            or _classify_item(request.call, response, get_header))


def classify_batch_response(
        request: BatchRequest, response: BatchResponse, alpha: bytes,
        full_node: Address, request_height: int, get_header: HeaderLookup,
) -> tuple[VerificationReport, list[VerificationReport]]:
    """The §V-D checks lifted to a batch; never raises.

    Checks 1–5 run once over the batch envelope.  Check 6 then runs per item
    against the *shared* multiproof node pool via
    :meth:`BatchResponse.item_view`.  Returns the overall report plus one
    report per item; the overall classification is the worst across the
    envelope and every item (FRAUD > INVALID > VALID).
    """
    failed = _classify_envelope(request, response, alpha, full_node,
                                request_height, answered=len(response))
    if failed is not None:
        return failed, []
    memo = response.proof_index.keccak
    if isinstance(memo, HashMemo):  # the items' trie keys, side by side
        shard_keys_of_calls(request.calls, memo)
    with response.proof_index.sharing_decodes():
        item_reports = [
            _classify_item(call, response.item_view(index), get_header)
            for index, call in enumerate(request.calls)
        ]
    # the first report of the highest severity; all-checks when none is worse
    worst = max(
        [VerificationReport(ResponseClass.VALID, "all-checks"), *item_reports],
        key=lambda report: _SEVERITY.index(report.classification),
    )
    return worst, item_reports


_SEVERITY = (ResponseClass.VALID, ResponseClass.INVALID, ResponseClass.FRAUD)
