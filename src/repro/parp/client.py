"""The PARP light-client session: the client side of the whole protocol.

Drives the lifecycle of Fig. 4 — ``IDLE → Handshaking → Unbonded → Bonded →
Unbonding → IDLE`` — over any transport that satisfies
:class:`ServerEndpoint` (the in-process server directly, or a simulated
network adapter).

The paid request path (§IV-E.3, steps (A) and (D) of Fig. 5):

1. pick the next cumulative amount ``a`` from the fee schedule,
2. pin the latest locally verified header hash ``h_B``,
3. build + sign the request (payment signature σ_a, request signature σ_req),
4. send, receive, sync any headers needed, then run the six §V-D checks,
5. VALID → hand the result to the application; INVALID → raise
   :class:`InvalidResponse` (terminate, fail over); FRAUD → assemble a fraud
   package and raise :class:`FraudDetected` (report via a witness node).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Protocol, Sequence, Union

from ..chain.header import BlockHeader
from ..chain.transaction import Transaction, UnsignedTransaction
from ..contracts.addresses import CHANNELS_MODULE_ADDRESS
from ..contracts.channels import channel_status_slot
from ..crypto.keys import Address, PrivateKey
from ..lightclient.sync import HeaderSyncer, SyncError
from ..net.futures import PendingReply
from ..rlp import codec as rlp
from ..trie.proof import HashMemo
from ..vm.abi import encode_call
from .channel import ChannelError, ClientChannel
from .constants import BATCH_PROTOCOL_VERSION, MAX_AMOUNT
from .fraudproof import FraudProofError, FraudProofPackage, build_fraud_package
from .handshake import Handshake, HandshakeConfirm, HandshakeError, OpenChannelReceipt
from .messages import (
    BatchRequest,
    BatchResponse,
    MessageError,
    OverloadedReply,
    PARPRequest,
    PARPResponse,
    ResponseStatus,
    RpcCall,
)
from .pricing import DEFAULT_FEE_SCHEDULE, FeeSchedule
from .queries import decode_balance, decode_inclusion, decode_int_result
from .states import LightClientState, ResponseClass
from .verification import (
    VerificationReport,
    classify_batch_response,
    classify_response,
)

__all__ = [
    "ServerEndpoint",
    "SessionError",
    "InvalidResponse",
    "FraudDetected",
    "ServerOverloaded",
    "RequestOutcome",
    "BatchItem",
    "BatchOutcome",
    "PendingQuery",
    "LightClientSession",
]

DEFAULT_GAS_PRICE = 12 * 10 ** 9
DEFAULT_GAS_LIMIT = 500_000


class ServerEndpoint(Protocol):
    """What a light client needs from a (remote) PARP full node.

    :class:`~repro.parp.server.FullNodeServer` satisfies it in process;
    over the simulated network :class:`~repro.net.transport.SimEndpoint`
    does, with one blocking adapter per name in
    :data:`~repro.net.transport.ENDPOINT_METHODS` — the same table its
    server-side binding admits calls by, and which a test holds equal to
    the methods declared here.

    Endpoints may additionally expose the non-blocking transport contract
    ``submit(method, *args) -> PendingReply``; sessions probe for it via
    getattr and fall back to executing blocking calls into an
    already-resolved future, so ``begin_*``/``collect`` work against any
    endpoint — in-process servers just lose the overlap.
    """

    @property
    def address(self) -> Address: ...
    # Connection setup and channel management (Algorithm 1, §IV-E)
    def handshake(self, msg: Handshake) -> HandshakeConfirm: ...
    def open_channel(self, raw_tx: bytes) -> OpenChannelReceipt: ...
    def relay_transaction(self, raw_tx: bytes) -> bytes: ...
    def get_transaction_count(self, address: Address) -> int: ...
    # The paid wires
    def serve_request(self, wire: bytes) -> bytes: ...
    def serve_batch(self, wire: bytes) -> bytes: ...
    # Free header service (§IV-D) and checkpoint sync
    def serve_header(self, number: int) -> Optional[BlockHeader]: ...
    def serve_head_number(self) -> int: ...
    def serve_bootstrap(self, checkpoint_hash: bytes) -> Optional[BlockHeader]: ...
    def serve_updates_range(self, start: int, count: int) -> list[BlockHeader]: ...
    # Free probes: the shard a server holds, its admission load
    def shard_info(self) -> Optional[tuple[int, int, bytes, int]]: ...
    def load_info(self) -> dict: ...


class SessionError(Exception):
    """Protocol/lifecycle errors on the client side."""


class InvalidResponse(SessionError):
    """The response failed a check that precludes a fraud proof (§IV-F:
    "It is sensible for the client to terminate the connection")."""

    def __init__(self, report: VerificationReport) -> None:
        super().__init__(f"invalid response [{report.check}]: {report.detail}")
        self.report = report


class FraudDetected(SessionError):
    """The response is provably fraudulent; carries the evidence package."""

    def __init__(self, report: VerificationReport,
                 package: Optional[FraudProofPackage]) -> None:
        super().__init__(f"fraud detected [{report.check}]: {report.detail}")
        self.report = report
        self.package = package


class ServerOverloaded(SessionError):
    """The server shed the request with a signed ``Overloaded`` reply.

    A **soft** failure: the server met the protocol — it attributably
    declined, quoted when to come back (``retry_after``) and at what price
    (``fee_multiplier``) — so callers must not slash its reputation or
    concede the payment.  The marketplace reacts with re-ranking, failover,
    or a jittered backoff retry; nothing about the channel changes.
    """

    def __init__(self, reply: OverloadedReply) -> None:
        super().__init__(
            f"server overloaded (load={reply.load:.2f}); "
            f"retry after {reply.retry_after:.3f}s "
            f"at ×{reply.fee_multiplier:.3f} fees"
        )
        self.reply = reply
        self.load = reply.load
        self.retry_after = reply.retry_after
        self.fee_multiplier = reply.fee_multiplier


@dataclass(frozen=True)
class RequestOutcome:
    """A verified request/response round."""

    request: PARPRequest
    response: PARPResponse
    report: VerificationReport
    amount_paid: int          # cumulative a after this request

    @classmethod
    def of(cls, request: PARPRequest, response: PARPResponse,
           report: VerificationReport) -> "RequestOutcome":
        """The round as :func:`classify_response` judged it."""
        return cls(request=request, response=response, report=report,
                   amount_paid=request.a)


@dataclass(frozen=True)
class BatchItem:
    """One verified query out of a batch."""

    call: RpcCall
    status: int
    result: bytes
    report: VerificationReport

    @property
    def ok(self) -> bool:
        return self.status == ResponseStatus.OK


@dataclass(frozen=True)
class BatchOutcome:
    """A verified batch round."""

    items: tuple[BatchItem, ...]
    report: VerificationReport
    amount_paid: int          # cumulative a after the batch
    request: BatchRequest
    response: BatchResponse

    @classmethod
    def of(cls, request: BatchRequest, response: BatchResponse,
           verdict: tuple[VerificationReport, list[VerificationReport]],
           ) -> "BatchOutcome":
        """The round as :func:`classify_batch_response` judged it: the
        overall report plus one per item (none when the envelope failed)."""
        report, item_reports = verdict
        items = tuple(
            BatchItem(call=call, status=response.statuses[i],
                      result=response.results[i], report=item_reports[i])
            for i, call in enumerate(request.calls)
        ) if item_reports else ()
        return cls(items=items, report=report, amount_paid=request.a,
                   request=request, response=response)

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class PendingQuery:
    """A signed, paid, submitted — but not yet verified — request or batch.

    Produced by :meth:`LightClientSession.begin_request` (``request`` is a
    :class:`PARPRequest`) or :meth:`LightClientSession.begin_batch` (a
    :class:`BatchRequest`); hand it back to
    :meth:`LightClientSession.collect` to wait for the reply and run the
    §V-D checks.  The payment left the budget at submit time; cancelling
    abandons the correlation (the channel keeps ``spent > acked``, and the
    unacked amount is not volunteered at closure).
    """

    request: Union[PARPRequest, BatchRequest]
    reply: PendingReply
    collected: bool = field(default=False, compare=False)

    def cancel(self) -> bool:
        """Abandon the in-flight query; True if it had not resolved."""
        return self.reply.cancel()


class LightClientSession:
    """One light client ↔ full node PARP connection."""

    def __init__(self, key: PrivateKey, endpoint: ServerEndpoint,
                 headers: HeaderSyncer,
                 fee_schedule: FeeSchedule = DEFAULT_FEE_SCHEDULE,
                 gas_price: int = DEFAULT_GAS_PRICE,
                 clock=None, hash_memo: Optional[HashMemo] = None) -> None:
        self.key = key
        self.endpoint = endpoint
        self.headers = headers
        #: keccak256 of every proof node and secure trie key this verifier
        #: has hashed, bounded; a client with several sessions passes the
        #: one memo it owns so they share it — never a server's
        self.hash_memo = hash_memo if hash_memo is not None else HashMemo()
        self.fee_schedule = fee_schedule
        self.gas_price = gas_price
        self.state = LightClientState.IDLE
        self.channel: Optional[ClientChannel] = None
        self.full_node: Optional[Address] = None
        self.history: list[RequestOutcome | BatchOutcome] = []
        self._clock = clock

    @property
    def address(self) -> Address:
        return self.key.address

    @property
    def alpha(self) -> Optional[bytes]:
        return self.channel.alpha if self.channel else None

    def _now(self) -> int:
        if self._clock is not None:
            return int(self._clock())
        # Without a wall clock, chain time is the shared notion of "now".
        return self.headers.tip.timestamp if len(self.headers.chain) else 0

    # ------------------------------------------------------------------ #
    # Connection setup (Algorithm 1, light-client side)
    # ------------------------------------------------------------------ #

    def connect(self, budget: int,
                gas_limit: int = DEFAULT_GAS_LIMIT) -> bytes:
        """Handshake and open a funded payment channel; returns α."""
        if self.state is not LightClientState.IDLE:
            raise SessionError(f"cannot connect while {self.state.value}")
        if not 0 < budget <= MAX_AMOUNT:
            raise SessionError("budget out of range")

        # line 4: fetch the latest block hash from the network
        self.headers.sync()
        # lines 5-8: HANDSHAKE, await HSCONFIRM
        self.state = LightClientState.HANDSHAKING
        try:
            confirm = self.endpoint.handshake(Handshake(self.address))
        except Exception:
            self.state = LightClientState.IDLE
            raise
        try:
            confirm.verify(self.address)     # line 11
        except HandshakeError:
            self.state = LightClientState.IDLE
            raise
        if confirm.expiry < self._now():
            self.state = LightClientState.IDLE
            raise SessionError("handshake confirmation already expired")
        self.full_node = confirm.full_node

        # lines 13-16: form, sign, and send the OpenChannel transaction
        nonce = self.endpoint.get_transaction_count(self.address)
        open_tx = UnsignedTransaction(
            nonce=nonce, gas_price=self.gas_price, gas_limit=gas_limit,
            to=CHANNELS_MODULE_ADDRESS, value=budget,
            data=encode_call(
                "open_channel",
                [confirm.full_node, confirm.expiry, confirm.signature],
            ),
        ).sign(self.key)
        self.state = LightClientState.UNBONDED
        try:
            receipt = self.endpoint.open_channel(open_tx.encode())
            receipt.verify(confirm.full_node)   # lines 17-18
        except Exception:
            self.state = LightClientState.IDLE
            raise
        self.channel = ClientChannel(
            alpha=receipt.channel_id, full_node=confirm.full_node, budget=budget,
        )
        self.state = LightClientState.BONDED     # line 21
        return receipt.channel_id

    def adopt_channel(self, alpha: bytes, full_node: Address, budget: int,
                      spent: int = 0) -> None:
        """Resume a known open channel (reconnect without reopening)."""
        if self.state is not LightClientState.IDLE:
            raise SessionError(f"cannot adopt a channel while {self.state.value}")
        self.channel = ClientChannel(
            alpha=alpha, full_node=full_node, budget=budget, spent=spent,
            acked=spent,
        )
        self.full_node = full_node
        self.state = LightClientState.BONDED

    # ------------------------------------------------------------------ #
    # The paid request path (steps (A) and (D) of Fig. 5)
    # ------------------------------------------------------------------ #

    def request(self, method: str, *params: Any,
                tip: int = 0) -> RequestOutcome:
        """One paid RPC round; returns the verified outcome.

        ``tip`` adds extra payment on top of the fee schedule (e.g. for
        priority service).  Raises on INVALID/FRAUD classifications.
        """
        return self.request_call(RpcCall.create(method, *params), tip=tip)

    def request_call(self, call: RpcCall, tip: int = 0) -> RequestOutcome:
        """Like :meth:`request` but for a pre-built call — a failing-over
        marketplace client re-issues the identical γ to the next server.

        Thin submit-then-wait adapter over the non-blocking path.
        """
        return self.collect(self.begin_request(call, tip=tip))

    # ------------------------------------------------------------------ #
    # The non-blocking request path (issue now, verify on collect)
    # ------------------------------------------------------------------ #

    def _submit(self, method: str, wire: bytes) -> PendingReply:
        """Issue one endpoint call without blocking.

        Transport-capable endpoints return a genuinely in-flight future;
        in-process endpoints execute synchronously and hand back an
        already-resolved one, so callers never branch.
        """
        submit = getattr(self.endpoint, "submit", None)
        if submit is not None:
            return submit(method, wire)
        try:
            value = getattr(self.endpoint, method)(wire)
        except Exception as exc:  # noqa: BLE001 — resolve, don't raise: the
            # failure surfaces (typed) at collect time, same as over a network
            return PendingReply.failed(exc, method=method)
        return PendingReply.completed(value, method=method)

    def _require_bonded(self) -> None:
        if self.state is not LightClientState.BONDED or self.channel is None:
            raise SessionError(f"no bonded channel (state={self.state.value})")

    def begin_request(self, call: RpcCall, tip: int = 0) -> PendingQuery:
        """Step (A) without the wait: sign, pay, submit, return the future.

        Money leaves our budget the moment the signature is on the wire;
        verification (step (D)) runs when the outcome is :meth:`collect`-ed.
        Multiple requests may be in flight on one session at once — their
        cumulative payment amounts are signed in issue order, so pipelining
        assumes in-order delivery (true for fixed/pairwise link latencies;
        a transport that reorders, e.g. ``UniformLatency``, can deliver a
        later, higher amount first, and the server's monotonic payment
        check then rejects the earlier request — it surfaces as INVALID at
        collect time and failover handles it).  Hedged queries are immune:
        each race leg rides its own channel.
        """
        return self._begin(self.build_request, self.fee_schedule.price,
                           call, tip)

    def begin_batch(self, calls: Sequence[RpcCall],
                    tip: int = 0) -> PendingQuery:
        """Non-blocking :meth:`query_batch` issue."""
        calls = self._bonded_batch(calls)
        return self._begin(self.build_batch_request,
                           self.fee_schedule.batch_price, calls, tip)

    def _begin(self, build, price_of, payload, tip: int) -> PendingQuery:
        """The one issue path: price → next amount → build + sign → commit
        the payment → submit.  ``payload`` is the call (single wire) or the
        calls (batch wire) that ``price_of`` prices and ``build`` signs."""
        self._require_bonded()
        try:
            amount = self.channel.next_amount(price_of(payload) + tip)
        except ChannelError as exc:
            raise SessionError(str(exc)) from exc
        request = build(payload, amount)
        self.channel.record_request(amount)
        reply = self._submit(request.endpoint, request.encode_wire())
        return PendingQuery(request=request, reply=reply)

    def collect(self, pending: PendingQuery,
                ) -> Union[RequestOutcome, BatchOutcome]:
        """Wait for the correlated reply and verify it (step (D)).

        A transport failure — timeout, cancellation, or a typed remote
        error — classifies as INVALID with the ``transport`` check, exactly
        like the blocking path always has; a verified response advances the
        channel's acked amount.  Each pending outcome collects once.
        """
        if pending.collected:
            raise SessionError("pending outcome was already collected")
        pending.collected = True
        try:
            raw = pending.reply.result()
        except Exception as exc:
            # drop the correlation (no-op if already resolved) so a reply
            # limping in after the timeout is discarded and counted late
            # instead of resolving a future nobody holds anymore
            pending.reply.cancel()
            raise InvalidResponse(VerificationReport(
                ResponseClass.INVALID, "transport", str(exc),
            )) from exc
        if not isinstance(raw, bytes):
            # in process and over SimNetwork a reply is an arbitrary object:
            # one that is no wire frame is INVALID like any undecodable reply
            raise InvalidResponse(VerificationReport(
                ResponseClass.INVALID, "decode",
                f"reply is {type(raw).__name__}, not bytes",
            ))
        finish = getattr(self, pending.request.completion)
        return finish(pending.request, raw)

    def build_request(self, call: RpcCall, amount: int) -> PARPRequest:
        """Step (A): pin h_B and produce the doubly signed request."""
        h_b = self.headers.tip.hash
        return PARPRequest.build(
            alpha=self.channel.alpha, h_b=h_b, amount=amount,
            call=call, key=self.key,
        )

    def _raise_if_overloaded(self, raw: bytes, h_req: bytes) -> None:
        """Classify a signed ``Overloaded`` shed before normal decoding.

        Raises :class:`ServerOverloaded` for a *verified* overload reply
        (signed by our bonded server, echoing our request hash) — the soft
        path.  A malformed or mis-signed overload frame is treated exactly
        like any other unverifiable response: :class:`InvalidResponse`, so a
        third party cannot forge backpressure on the server's behalf.

        The channel keeps the shed request's payment as *spent but never
        acked*: cumulative amounts mean a later served request folds it in,
        and a cooperative close concedes only acked value — shedding costs
        the client nothing.
        """
        if not OverloadedReply.is_overload_wire(raw):
            return
        try:
            reply = OverloadedReply.decode_wire(raw)
            reply.verify(expected_signer=self.full_node, expected_h_req=h_req)
        except MessageError as exc:
            raise InvalidResponse(VerificationReport(
                ResponseClass.INVALID, "overload", str(exc),
            )) from exc
        raise ServerOverloaded(reply)

    def process_response(self, request: PARPRequest, raw: bytes) -> RequestOutcome:
        """Step (D): decode, header-sync, classify, and act on a response."""
        return self._process(request, raw, classify_response,
                             RequestOutcome.of)

    def process_batch_response(self, request: BatchRequest,
                               raw: bytes) -> BatchOutcome:
        """Step (D) for a batch: decode, header-sync, classify per item."""
        return self._process(request, raw, classify_batch_response,
                             BatchOutcome.of)

    def _process(self, request, raw: bytes, classify, outcome_of):
        """The one step-(D) path, either wire.

        ``classify`` runs the §V-D checks and ``outcome_of`` shapes its
        verdict into the wire's outcome type.
        """
        self._raise_if_overloaded(raw, request.h_req)
        try:
            response = request.response_type.decode_wire(raw, self.hash_memo)
        except MessageError as exc:
            raise InvalidResponse(VerificationReport(
                ResponseClass.INVALID, "decode", str(exc),
            )) from exc

        # Fetch any headers verification will need (free, multi-source).
        request_height = self.headers.height_of(request.h_b)
        if request_height is None:
            raise SessionError(
                f"{request.noun} pinned a header we no longer track")
        try:
            if response.m_b > self.headers.chain.tip_number:
                self.headers.sync_to(response.m_b)
        except SyncError:
            pass  # classification will mark it unverifiable/invalid

        outcome = outcome_of(request, response, classify(
            request, response, self.channel.alpha, self.full_node,
            request_height, self.headers.get_header,
        ))
        self.history.append(outcome)

        report = outcome.report
        if report.classification is ResponseClass.FRAUD:
            package = self._try_build_package(request, response, outcome)
            self.state = LightClientState.UNBONDING  # terminate the connection
            raise FraudDetected(report, package)
        if report.classification is ResponseClass.INVALID:
            raise InvalidResponse(report)
        self.channel.record_ack(request.a)
        return outcome

    # ------------------------------------------------------------------ #
    # Batched queries (multiproof extension)
    # ------------------------------------------------------------------ #

    def _bonded_batch(self, calls: Sequence[RpcCall]) -> tuple[RpcCall, ...]:
        """The calls of a batch about to be issued, as a non-empty tuple."""
        self._require_bonded()
        calls = tuple(calls)
        if not calls:
            raise SessionError("a batch needs at least one call")
        return calls

    def query_batch(self, calls: Sequence[RpcCall], tip: int = 0) -> BatchOutcome:
        """N queries, one payment, one multiproof — the batched request path.

        Builds and signs a single :class:`BatchRequest` covering ``calls``,
        advances the channel once by the batch price, and verifies the
        response's shared multiproof item by item.  A server that does not
        speak :data:`~repro.parp.constants.BATCH_PROTOCOL_VERSION` refuses
        the wire on decode: :class:`InvalidResponse` (``transport``), like
        any refusal.  Thin submit-then-wait adapter over the non-blocking
        path.
        """
        return self.collect(self.begin_batch(calls, tip=tip))

    def build_batch_request(self, calls: Sequence[RpcCall],
                            amount: int) -> BatchRequest:
        """Step (A) for a batch: pin h_B and doubly sign once for N calls."""
        return BatchRequest.build(
            alpha=self.channel.alpha, h_b=self.headers.tip.hash,
            amount=amount, calls=calls, key=self.key,
            version=BATCH_PROTOCOL_VERSION,
        )

    def get_balances(self, addresses: Sequence[Address]) -> list[int]:
        """Batched convenience: balances of many accounts in one round."""
        calls = [RpcCall.create("eth_getBalance", a) for a in addresses]
        outcome = self.query_batch(calls)
        balances = []
        for item in outcome.items:
            if not item.ok:
                raise SessionError(
                    f"balance query failed for {item.call.params[0].hex()}"
                )
            balances.append(decode_balance(item.result))
        return balances

    def _try_build_package(self, request, response,
                           outcome) -> Optional[FraudProofPackage]:
        """The evidence of a FRAUD verdict, either wire: it names the first
        FRAUD item, or item 0 when the envelope decided (a batch outcome
        then has no items; a single one never has any)."""
        items = getattr(outcome, "items", ())
        item = next((i for i, answer in enumerate(items)
                     if answer.report.fraudulent), 0)
        try:
            return build_fraud_package(
                request, response, self.channel.alpha, self.headers.get_header,
                get_by_hash=self.headers.chain.get_by_hash, item=item,
            )
        except FraudProofError:
            return None

    # ------------------------------------------------------------------ #
    # Typed convenience wrappers
    # ------------------------------------------------------------------ #

    def get_balance(self, address: Address) -> int:
        outcome = self.request("eth_getBalance", address)
        return decode_balance(outcome.response.result)

    def get_storage_at(self, address: Address, slot: bytes) -> bytes:
        outcome = self.request("eth_getStorageAt", address, slot)
        item = rlp.decode(outcome.response.result)
        return item[0] if isinstance(item, list) and item else b""

    def get_transaction(self, number: int, index: int) -> bytes:
        outcome = self.request(
            "eth_getTransactionByBlockNumberAndIndex", number, index,
        )
        _, _, tx_bytes = _triple(outcome.response.result)
        return tx_bytes

    def send_raw_transaction(self, raw: bytes) -> tuple[Optional[int], Optional[int], bytes]:
        """Submit a transaction; returns (block, index, tx_hash)."""
        outcome = self.request("eth_sendRawTransaction", raw)
        return decode_inclusion(outcome.response.result)

    def send_transaction(self, tx: Transaction) -> tuple[Optional[int], Optional[int], bytes]:
        return self.send_raw_transaction(tx.encode())

    def get_transaction_receipt(self, tx_hash: bytes) -> bytes:
        outcome = self.request("eth_getTransactionReceipt", tx_hash)
        _, _, receipt_bytes = _triple(outcome.response.result)
        return receipt_bytes

    def block_number(self) -> int:
        outcome = self.request("eth_blockNumber")
        return decode_int_result(outcome.response.result)

    # ------------------------------------------------------------------ #
    # Liveness check (§V-C)
    # ------------------------------------------------------------------ #

    def channel_status_fast(self) -> int:
        """Unverified probe: ask the FN what it thinks the status is."""
        outcome = self.request("parp_channelStatus", self.channel.alpha)
        return decode_int_result(outcome.response.result)

    def channel_status_verified(self) -> int:
        """Verified probe: read the CMM's status slot with a storage proof.

        Even a lying full node cannot fake this — the value authenticates
        against the state root of a header the client obtained from
        independent sources (the §V-C defense against secretly closed
        channels).
        """
        slot = channel_status_slot(self.channel.alpha)
        raw = self.get_storage_at(CHANNELS_MODULE_ADDRESS, slot)
        return int.from_bytes(raw, "big") if raw else 0

    # ------------------------------------------------------------------ #
    # Closure (§IV-E.4, client side)
    # ------------------------------------------------------------------ #

    def build_close_transaction(self, gas_limit: int = 300_000) -> Transaction:
        """CloseChannel tx conceding the highest *acknowledged* amount.

        Payments whose request died in transit (``spent`` > ``acked``) are
        not volunteered; a server that did receive them can still counter
        with its higher σ_a inside the dispute window.
        """
        if self.channel is None:
            raise SessionError("no channel to close")
        from .messages import payment_digest

        amount = self.channel.acked
        sig_a = (self.key.sign(payment_digest(self.channel.alpha, amount)).to_bytes()
                 if amount else b"")
        nonce = self.endpoint.get_transaction_count(self.address)
        return UnsignedTransaction(
            nonce=nonce, gas_price=self.gas_price, gas_limit=gas_limit,
            to=CHANNELS_MODULE_ADDRESS, value=0,
            data=encode_call(
                "close_channel", [self.channel.alpha, amount, sig_a],
            ),
        ).sign(self.key)

    def close(self, relay: Optional[ServerEndpoint] = None) -> bytes:
        """Start closure (through any relay — not necessarily our FN)."""
        if self.state is not LightClientState.BONDED:
            raise SessionError(f"cannot close while {self.state.value}")
        tx = self.build_close_transaction()
        endpoint = relay if relay is not None else self.endpoint
        tx_hash = endpoint.relay_transaction(tx.encode())
        self.state = LightClientState.UNBONDING
        return tx_hash

    def confirm_close(self, relay: Optional[ServerEndpoint] = None) -> bytes:
        """Settle after the dispute window; returns to IDLE."""
        if self.state is not LightClientState.UNBONDING or self.channel is None:
            raise SessionError(f"cannot confirm closure while {self.state.value}")
        endpoint = relay if relay is not None else self.endpoint
        nonce = endpoint.get_transaction_count(self.address)
        tx = UnsignedTransaction(
            nonce=nonce, gas_price=self.gas_price, gas_limit=300_000,
            to=CHANNELS_MODULE_ADDRESS, value=0,
            data=encode_call("confirm_closure", [self.channel.alpha]),
        ).sign(self.key)
        tx_hash = endpoint.relay_transaction(tx.encode())
        self.state = LightClientState.IDLE
        self.channel = None
        self.full_node = None
        return tx_hash


def _triple(raw: bytes) -> tuple[bytes, bytes, bytes]:
    item = rlp.decode(raw)
    if not isinstance(item, list) or len(item) != 3:
        raise SessionError("malformed result payload")
    return item[0], item[1], item[2]
