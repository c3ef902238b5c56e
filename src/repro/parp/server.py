"""The PARP full-node serving engine (server side of Fig. 5).

Wraps a :class:`repro.node.fullnode.FullNode` with the PARP layers:

* handshake consent and channel bootstrapping (Algorithm 1, FN side),
* request verification — step (B): signatures, channel accounting, fees,
* query execution + Merkle proof generation + response signing — step (C),
* channel bookkeeping (retaining the latest redeemable payment proof),
* free services the protocol grants: header serving (§IV-D) and relaying
  of channel-management transactions (§IV-E.2 "mediated via the full node").

A server refuses to serve until its operator has staked collateral in the
Deposit Module — the availability condition of Fig. 4.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from ..chain.chain import ChainError
from ..chain.header import BlockHeader
from ..chain.receipt import LogEntry
from ..chain.state import StateDB
from ..chain.transaction import Transaction, TransactionError
from ..contracts.addresses import CHANNELS_MODULE_ADDRESS, FRAUD_MODULE_ADDRESS
from ..crypto import keccak256
from ..crypto.keys import Address
from ..metrics.cache import LRUCache
from ..node.fullnode import FullNode
from ..rlp import codec as rlp
from ..trie.shard import ShardPool, ShardRange
from .admission import AdmissionConfig, AdmissionController
from .channel import ChannelError, ServerChannel
from .constants import DEFAULT_HANDSHAKE_EXPIRY_SECONDS
from .handshake import Handshake, HandshakeConfirm, OpenChannelReceipt
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
from .pricing import (
    DEFAULT_FEE_SCHEDULE,
    MULTIPLIER_SCALE,
    FeeSchedule,
    RepricedFeeSchedule,
    load_multiplier,
)
from .queries import QUERY_CATALOG, QueryError, execute_query
from .sharding import shard_key_of_call

__all__ = ["ServeError", "ServerStats", "FullNodeServer"]

_CHANNEL_OPENED_TOPIC = keccak256(b"ChannelOpened")


class ServeError(Exception):
    """Request rejected before a signed response could be produced.

    The transport surfaces this as an *unsigned* error — the client
    classifies it as INVALID and should fail over to another node.
    """


class _SnapshotViewBackend:
    """ChainBackend facade that memoizes per-height state read views.

    Every proved query calls ``state_at(m_b)``; without this, each request
    (and each item of a batch) builds a fresh :class:`StateDB` view.  The
    chain is append-only and fork-free, so the state at a given height is
    immutable once that block exists — views can be cached indefinitely and
    shared across requests.  Combined with the trie's decoded-node LRU the
    whole batch walks warm decoded nodes instead of re-decoding the root
    path per item.
    """

    def __init__(self, node: FullNode, capacity: int = 16) -> None:
        self._node = node
        self._views = LRUCache(capacity=capacity)

    def state_at(self, number: int):
        # LRUCache is internally locked; racing duplicate view construction
        # is safe (read views are idempotent, last write wins)
        return self._views.get_or_put(number,
                                      lambda: self._node.state_at(number))

    def __getattr__(self, name):
        return getattr(self._node, name)


class _ShardSliceBackend(_SnapshotViewBackend):
    """Per-height read views backed by *only* this shard's trie slice.

    A shard server follows the full chain (headers, blocks, receipts — the
    delegated attributes) but materializes just its slice of each height's
    state: the account-trie spine plus the subtrees and storage tries of
    in-range accounts.  In-range proofs come out bit-for-bit identical to a
    full node's (they verify against the global ``state_root``); proofs for
    anything else are structurally impossible — the slice is missing the
    nodes — so range enforcement is physics, not policy.

    The slices of all heights live in one content-addressed
    :class:`~repro.trie.shard.ShardPool`, so following the chain to a new
    height reads what that block changed in range, and every view decodes
    through the pool's one LRU.  The pool keeps no more history than the
    chain does: when the chain prunes, it is dropped and rebuilt from the
    heights still served.
    """

    def __init__(self, node: FullNode, shard: ShardRange,
                 capacity: int = 16) -> None:
        super().__init__(node, capacity=capacity)
        self._shard = shard
        self._pool = ShardPool()
        self._pool_floor = node.chain.first_retained_number

    def state_at(self, number: int):
        floor = self._node.chain.first_retained_number
        if floor != self._pool_floor:
            self._pool_floor = floor
            self._pool = ShardPool()
            self._views.clear()
        return self._views.get_or_put(
            number,
            lambda: self._node.state_at(number).shard_slice(self._shard,
                                                            self._pool),
        )


@dataclass
class ServerStats:
    """Serving counters (feeds Fig. 7 and the Proof-of-Serving extension)."""

    handshakes: int = 0
    channels_opened: int = 0
    requests_served: int = 0
    requests_rejected: int = 0
    batches_served: int = 0
    batch_queries_served: int = 0
    out_of_range_rejected: int = 0   # state-keyed calls outside the shard
    admitted: int = 0                # requests/batches past the admission gate
    shed: int = 0                    # signed Overloaded replies sent instead
    heads_announced: int = 0         # signed head announcements gossiped
    bytes_in: int = 0
    bytes_out: int = 0
    fees_earned: int = 0


class FullNodeServer:
    """A PARP-compatible full node server."""

    def __init__(self, node: FullNode,
                 fee_schedule: FeeSchedule = DEFAULT_FEE_SCHEDULE,
                 clock=None,
                 shard_range: Optional[ShardRange] = None,
                 admission: Optional[AdmissionConfig | AdmissionController]
                 = None) -> None:
        self.node = node
        self.key = node.key
        self.fee_schedule = fee_schedule
        #: the slice of the account space this server materializes and
        #: advertises; None (or the full range) means a whole-state server
        self.shard_range = (None if shard_range is not None
                            and shard_range.is_full else shard_range)
        self.channels: dict[bytes, ServerChannel] = {}
        self.stats = ServerStats()
        #: memoized per-height state views: batch items and concurrent
        #: sessions pinned to the same snapshot share one warm StateDB.
        #: Shard servers substitute slice-backed views — same interface,
        #: physically incapable of proving out-of-range keys.
        self._backend = (_SnapshotViewBackend(node) if self.shard_range is None
                         else _ShardSliceBackend(node, self.shard_range))
        #: recent (result, proof) pairs keyed by (height, call): a dApp
        #: re-reading hot keys between blocks skips the trie walk entirely.
        self.proof_cache: LRUCache = LRUCache(capacity=2048)
        self._clock = clock  # callable returning seconds; defaults to chain time
        #: bounded admission pipeline — opt-in: None keeps the seed behavior
        #: (accept unbounded work, never shed).  Pass an
        #: :class:`~repro.parp.admission.AdmissionConfig` (built into a
        #: controller on the server's clock) or a ready controller.
        if isinstance(admission, AdmissionConfig):
            admission = AdmissionController(admission, clock=clock)
        self.admission: Optional[AdmissionController] = admission
        #: modeled queueing+service delay of the most recently admitted
        #: request; the network binding consumes it to schedule the reply
        #: (so queueing shows up in the latency clients actually measure)
        self._service_delay = 0.0
        # Multi-client session multiplexing: channel registration and each
        # channel's payment accounting are serialized independently, so N
        # concurrent clients (threads or interleaved sim events) cannot
        # corrupt the (a, σ_a) pair that is the node's money.  Channel locks
        # are reentrant: with the futures transport a serve handler can run
        # while an outer frame of the same (single-threaded) event loop is
        # already inside this channel — e.g. a client driving the loop from
        # collect() while another of its in-flight requests is delivered —
        # and a plain Lock would self-deadlock where no real contention
        # exists.  Cross-thread exclusion is unchanged.
        self._registry_lock = threading.Lock()
        self._channel_locks: dict[bytes, threading.RLock] = {}
        self._stats_lock = threading.Lock()
        #: the gossip node announcing this server's sealed heads (if any)
        self.gossip = None
        self._seal_listener = None

    @property
    def address(self) -> Address:
        return self.key.address

    @property
    def node_store(self):
        """The serving node's backing trie store (see :mod:`repro.storage`).

        Disk-backed servers expose their store stats (batches, appended
        bytes, recovery counters) here for the benches and operators; the
        serving path itself is backend-agnostic — proofs read through the
        store interface plus the decoded-node LRU.
        """
        return self.node.node_store

    def _now(self) -> int:
        if self._clock is not None:
            return int(self._clock())
        return self.node.chain.head.header.timestamp

    def _channel_and_lock(self, alpha: bytes,
                          ) -> tuple[Optional[ServerChannel],
                                     Optional[threading.Lock]]:
        with self._registry_lock:
            channel = self.channels.get(alpha)
            if channel is None:
                return None, None
            lock = self._channel_locks.get(alpha)
            if lock is None:  # channel injected directly (tests, adoption)
                lock = self._channel_locks[alpha] = threading.RLock()
            return channel, lock

    def _bump(self, field_name: str, amount: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, field_name,
                    getattr(self.stats, field_name) + amount)

    @property
    def open_channel_count(self) -> int:
        """Channels currently multiplexed on this server (not yet closed)."""
        with self._registry_lock:
            return sum(1 for c in self.channels.values() if not c.closed)

    # ------------------------------------------------------------------ #
    # Connection setup (Algorithm 1, full-node side)
    # ------------------------------------------------------------------ #

    def handshake(self, msg: Handshake) -> HandshakeConfirm:
        """Consent to serve a light client; the confirmation expires."""
        self._bump("handshakes")
        expiry = self._now() + int(DEFAULT_HANDSHAKE_EXPIRY_SECONDS)
        return HandshakeConfirm.build(self.key, msg.light_client, expiry)

    def open_channel(self, raw_tx: bytes) -> OpenChannelReceipt:
        """Relay the LC's OpenChannel transaction and acknowledge the channel.

        The FN mediates this on-chain step (§IV-E.2): it submits the signed
        transaction, waits for inclusion, extracts the assigned channel id
        from the ``ChannelOpened`` event, registers the channel locally, and
        returns the counter-signed receipt of Algorithm 1 line 17.
        """
        self._bump("bytes_in", len(raw_tx))
        try:
            tx = Transaction.decode(raw_tx)
        except TransactionError as exc:
            raise ServeError(f"undecodable OpenChannel transaction: {exc}") from exc
        if tx.to != CHANNELS_MODULE_ADDRESS:
            raise ServeError("OpenChannel must target the Channels module")
        try:
            tx_hash = self.node.submit_transaction(raw_tx)
        except ChainError as exc:
            raise ServeError(f"OpenChannel rejected by the chain: {exc}") from exc
        location = self.node.ensure_mined(tx_hash)
        if location is None:
            raise ServeError("OpenChannel transaction was not included")
        receipt = self.node.chain.get_receipt(tx_hash)
        if receipt is None or not receipt.succeeded:
            raise ServeError("OpenChannel transaction reverted")
        event = self._find_channel_opened(receipt.logs, tx.sender)
        if event is None:
            raise ServeError("no ChannelOpened event for this transaction")
        alpha, light_client, budget = event
        with self._registry_lock:
            self.channels[alpha] = ServerChannel(
                alpha=alpha, light_client=light_client, budget=budget,
            )
            self._channel_locks[alpha] = threading.RLock()
        self._bump("channels_opened")
        return OpenChannelReceipt.build(self.key, alpha)

    def _find_channel_opened(self, logs: tuple[LogEntry, ...],
                             sender: Address) -> Optional[tuple[bytes, Address, int]]:
        for log in logs:
            if not log.topics or log.topics[0] != _CHANNEL_OPENED_TOPIC:
                continue
            if len(log.topics) != 4:
                continue
            alpha = log.topics[1][-16:]
            light_client = Address(log.topics[2][-20:])
            full_node = Address(log.topics[3][-20:])
            if full_node != self.address or light_client != sender:
                continue
            budget = int.from_bytes(log.data, "big")
            return alpha, light_client, budget
        return None

    # ------------------------------------------------------------------ #
    # Free services (headers §IV-D, channel-management relay §IV-E)
    # ------------------------------------------------------------------ #

    def serve_header(self, number: int) -> Optional[BlockHeader]:
        return self.node.serve_header(number)

    def serve_head_number(self) -> int:
        return self.node.serve_head_number()

    def serve_bootstrap(self, checkpoint_hash: bytes) -> Optional[BlockHeader]:
        """Free checkpoint bootstrap: the header behind a trusted hash
        (self-certifying for the client — keccak(header) must equal it)."""
        return self.node.serve_bootstrap(checkpoint_hash)

    def serve_updates_range(self, start: int, count: int) -> list[BlockHeader]:
        """Free UpdatesByRange page (headers ride the free tier, §IV-D);
        the billable ``parp_updatesByRange`` query returns the same data
        with signed-response accountability."""
        return self.node.serve_updates_range(start, count)

    def get_transaction_count(self, address: Address) -> int:
        """Free bootstrap query: the LC's nonce for channel transactions."""
        return self.node.chain.state.nonce_of(address)

    # ------------------------------------------------------------------ #
    # Gossip (push-based head propagation)
    # ------------------------------------------------------------------ #

    def enable_gossip(self, gossip) -> None:
        """Announce every block this chain seals on the ``new_heads`` topic.

        The announcement is the sealed header signed with the *operator
        key* — the same identity that staked in the deposit registry, so
        receivers can stake-gate announcers, and a later conflicting
        announcement at the same height is slashable equivocation.
        """
        from ..gossip.heads import TOPIC_NEW_HEADS, HeadAnnouncement

        if self._seal_listener is not None:
            self.node.chain.remove_seal_listener(self._seal_listener)
        self.gossip = gossip

        def announce(block) -> None:
            announcement = HeadAnnouncement.build(block.header, self.key)
            gossip.publish(TOPIC_NEW_HEADS, announcement.encode())
            self._bump("heads_announced")

        self._seal_listener = self.node.chain.on_seal(announce)

    def disable_gossip(self) -> None:
        if self._seal_listener is not None:
            self.node.chain.remove_seal_listener(self._seal_listener)
            self._seal_listener = None
        self.gossip = None

    def relay_transaction(self, raw_tx: bytes) -> bytes:
        """Free relay, restricted to PARP channel/fraud management calls."""
        try:
            tx = Transaction.decode(raw_tx)
        except TransactionError as exc:
            raise ServeError(f"undecodable transaction: {exc}") from exc
        if tx.to not in (CHANNELS_MODULE_ADDRESS, FRAUD_MODULE_ADDRESS):
            raise ServeError(
                "free relay is limited to channel and fraud management; "
                "use a paid eth_sendRawTransaction for other transactions"
            )
        tx_hash = self.node.submit_transaction(raw_tx)
        self.node.ensure_mined(tx_hash)
        return tx_hash

    # ------------------------------------------------------------------ #
    # The paid request path (steps (B) and (C) of Fig. 5)
    # ------------------------------------------------------------------ #

    def serve_request(self, wire: bytes) -> bytes:
        """Verify, execute, prove, and sign one PARP request."""
        return self._serve(PARPRequest, wire, "requests_served")

    def serve_batch(self, wire: bytes) -> bytes:
        """Verify, execute, multiprove, and sign one batch of N queries.

        All N queries run against one snapshot (the head at batch start),
        their Merkle proofs are merged into one deduplicated node pool, and
        the channel is billed with a single update — the whole point of
        batching: metadata, signatures, and shared trie levels are paid for
        once instead of N times.
        """
        return self._serve(BatchRequest, wire, "batches_served",
                           "batch_queries_served")

    def _serve(self, wire_type: type[PARPRequest] | type[BatchRequest],
               wire: bytes, served: str,
               queries_served: Optional[str] = None) -> bytes:
        """The one paid-request pipeline; a single request is a batch of one.

        The admission gate sits between decode and verification: shedding
        must stay cheaper than serving (no signature checks, no billing —
        the client is *not* charged for a request that was never admitted),
        and a shed comes back as a signed
        :class:`~repro.parp.messages.OverloadedReply` instead of a served
        response.  ``served`` / ``queries_served`` name the
        :class:`ServerStats` counters a served request of this wire advances
        (by one, and by its number of calls).
        """
        self._bump("bytes_in", len(wire))
        try:
            request = wire_type.decode_wire(wire)
        except MessageError as exc:
            self._bump("requests_rejected")
            raise ServeError(f"undecodable {wire_type.noun}: {exc}") from exc
        shed = self._admission_gate(request.h_req, queries=len(request.calls))
        if shed is not None:
            return shed
        self.verify_and_bill(request)                  # step (B), once
        response = self._execute_and_sign(request)     # step (C), shared
        out = response.encode_wire()
        self._bump("bytes_out", len(out))
        self._bump(served)
        if queries_served is not None:
            self._bump(queries_served, len(request.calls))
        return out

    def verify_and_bill(self, request: PARPRequest | BatchRequest) -> None:
        """Step (B), either wire: version, channel, both signatures, then
        the payment — banked under the channel's lock, counted as fees.
        Raises :class:`ServeError` (and counts a rejection) on any failure."""
        try:
            try:
                request.check_version()
                channel, lock = self._channel_and_lock(request.alpha)
                if channel is None:
                    raise ServeError(f"unknown channel {request.alpha.hex()}")
                request.verify(expected_sender=channel.light_client)
            except MessageError as exc:
                raise ServeError(
                    f"{request.noun} verification failed: {exc}") from exc
            price = request.price(self.fee_schedule)
            with lock:
                previous = channel.latest_amount
                try:
                    channel.accept_request_payment(
                        request, min_increment=price,
                        queries=len(request.calls),
                    )
                except ChannelError as exc:
                    raise ServeError(f"payment rejected: {exc}") from exc
                earned = channel.latest_amount - previous
        except ServeError:
            self._bump("requests_rejected")
            raise
        self._bump("fees_earned", earned)

    def _admission_gate(self, h_req: bytes, queries: int) -> Optional[bytes]:
        """Offer a request to the admission controller.

        Returns the encoded, signed ``Overloaded`` reply when the request is
        shed, or ``None`` when admitted (in which case the modeled queueing
        delay is parked for the transport to pick up via
        :meth:`consume_service_delay`).  Servers without an admission
        controller admit everything, exactly like the seed.
        """
        if self.admission is None:
            return None
        decision = self.admission.offer(self.admission.cost_of(queries))
        if decision.admitted:
            self._bump("admitted")
            self._service_delay = decision.queue_delay
            return None
        self._bump("shed")
        reply = OverloadedReply.build(
            m_b=self.node.head_number(),
            load=decision.load,
            retry_after=decision.retry_after,
            fee_multiplier=load_multiplier(decision.load),
            h_req=h_req,
            key=self.key,
        )
        out = reply.encode_wire()
        self._bump("bytes_out", len(out))
        return out

    def consume_service_delay(self) -> float:
        """Take (and reset) the queueing delay of the last admitted request.

        The transport binding calls this after the handler returns and
        schedules the reply that far into the future, so admitted work
        observably queues behind the backlog instead of replying instantly.
        """
        delay, self._service_delay = self._service_delay, 0.0
        return delay

    def _execute_and_sign(self, request: PARPRequest | BatchRequest,
                          ) -> PARPResponse | BatchResponse:
        """Step (C), either wire: answer every call, then build and sign.

        This is also the hook misbehaving servers override
        (:mod:`repro.parp.adversary`).
        """
        m_b = self.node.head_number()  # ONE snapshot for every call
        if self.node.chain.get_block_by_hash(request.h_b) is None:
            # The client's pinned block must be on our chain (same network).
            status = ResponseStatus.ERROR
            answers = [_refusal(
                f"unknown reference block {request.h_b.hex()[:16]}"
            )] * len(request.calls)
        else:
            status = ResponseStatus.OK
            answers = [self._execute_call(request, call, m_b)
                       for call in request.calls]
            specs = [QUERY_CATALOG.get(call.method) for call in request.calls]
            if any(spec is not None and spec.seals for spec in specs):
                m_b = self.node.head_number()  # a send advanced the head
        return request.response_type.from_answers(
            request, m_b, answers, self.key, status)

    def _execute_call(self, request: PARPRequest | BatchRequest,
                      call: RpcCall,
                      m_b: int) -> tuple[int, bytes, Sequence[bytes]]:
        """One call of a paid request as ``(status, result, proof)``.

        Whatever stops the call — a method this wire refuses, a key outside
        the shard, a failing query — comes back as a *signed* error: the
        client paid for the attempt and gets an attributable outcome (it
        cannot be forged by a third party) instead of an unsigned transport
        failure.
        """
        try:
            spec = QUERY_CATALOG.get(call.method)
            if (request.one_snapshot and spec is not None
                    and not spec.batchable):
                raise QueryError(f"{call.method} is not batchable")
            self._require_in_shard(call)
            if call.method == "parp_channelStatus":
                result, proof = self._channel_status(call)
            else:
                result, proof = self._execute_cached(call, m_b)
        except QueryError as exc:
            return _refusal(str(exc))
        return ResponseStatus.OK, result, proof

    def _require_in_shard(self, call: RpcCall) -> None:
        """Refuse a state-keyed call whose key this shard does not hold —
        attributably, instead of letting the slice walk blow up."""
        if self.shard_range is None:
            return
        key = shard_key_of_call(call, StateDB.secure_key)
        if key is None or self.shard_range.covers(key):
            return
        self._bump("out_of_range_rejected")
        raise QueryError(f"key {key.hex()[:16]}… is outside this server's "
                         f"shard {self.shard_range.label}")

    def _channel_status(self, call: RpcCall) -> tuple[bytes, Sequence[bytes]]:
        """Cheap, unverified channel-status probe from local records."""
        alpha = call.param_bytes(0, exact=16)
        channel = self.channels.get(alpha)
        if channel is None:
            status = 0
        elif channel.closed:
            status = 3
        else:
            status = 1
        return rlp.encode(rlp.encode_int(status)), []

    def _execute_cached(self, call: RpcCall, m_b: int) -> tuple[bytes, Sequence[bytes]]:
        """Execute a query through the proof LRU when deterministic at m_b.

        Execution goes through the snapshot-view backend, so every query at
        the same height reuses one cached StateDB read view.
        """
        spec = QUERY_CATALOG.get(call.method)
        if spec is None or not spec.cacheable:
            return execute_query(self._backend, call, m_b)
        cache_key = (m_b, call.encode())
        cached = self.proof_cache.get(cache_key)  # LRUCache locks internally
        if cached is not None:
            return cached
        result, proof = execute_query(self._backend, call, m_b)
        self.proof_cache.put(cache_key, (result, proof))
        return result, proof

    # ------------------------------------------------------------------ #
    # Free probes: shard, load, quoted fees, batch version
    # ------------------------------------------------------------------ #

    def shard_info(self) -> Optional[tuple[int, int, bytes, int]]:
        """Free probe: ``(lo, hi, shard commitment, height)`` or None.

        The commitment is the masked-root hash of
        :func:`repro.trie.shard.shard_commitment` at the current head — two
        honest servers of one shard must agree on it, and any full node can
        recompute it for auditing; a whole-state server returns None.
        """
        if self.shard_range is None:
            return None
        head = self.node.head_number()
        state = self._backend.state_at(head)
        return (self.shard_range.lo, self.shard_range.hi,
                state.shard_commitment(self.shard_range), head)

    def load_info(self) -> dict:
        """Free probe beside :meth:`shard_info`: the admission snapshot.

        Clients and operators read the current load factor, EWMA queue
        depth / serve delay, quote multiplier, and admitted/shed counters.
        Servers without admission control report a permanently idle pipeline.
        """
        if self.admission is None:
            return {
                "load": 0.0,
                "queue_depth": 0.0,
                "ewma_queue_depth": 0.0,
                "ewma_serve_delay": 0.0,
                "fee_multiplier": 1.0,
                "max_queue_cost": float("inf"),
                "service_time": 0.0,
                "admitted": self.stats.requests_served,
                "shed": 0,
            }
        return self.admission.snapshot()

    def current_fee_multiplier(self) -> float:
        """The load→fee multiplier this server would quote right now."""
        if self.admission is None:
            return 1.0
        return self.admission.fee_multiplier()

    def quoted_fee_schedule(self) -> FeeSchedule:
        """The fee schedule this server *advertises* under current load.

        Repricing is quote-only: enforcement in the serving path stays at the
        base schedule (its prices are the floor), so a client holding a stale
        cheaper quote still clears ``min_increment`` — overload never turns
        honest payments into rejections.  Quotes are re-published through the
        marketplace so newly ranking clients see (and pay) the surge price.
        """
        multiplier = self.current_fee_multiplier()
        if multiplier <= 1.0:
            return self.fee_schedule
        millis = max(MULTIPLIER_SCALE, round(multiplier * MULTIPLIER_SCALE))
        return RepricedFeeSchedule(base=self.fee_schedule,
                                   multiplier_millis=millis)

    # ------------------------------------------------------------------ #
    # Proof of Serving (§VIII extension, receipts)
    # ------------------------------------------------------------------ #

    def serving_receipt(self, alpha: bytes):
        """The channel's current (α, a, σ_a) packaged as a serving receipt."""
        from .proof_of_serving import ServingReceipt

        channel = self.channels.get(alpha)
        if channel is None:
            raise ServeError(f"unknown channel {alpha.hex()}")
        return ServingReceipt(
            alpha=channel.alpha, full_node=self.address,
            light_client=channel.light_client, amount=channel.latest_amount,
            signature=channel.latest_sig or b"",
            queries=channel.queries_served,
        )

    # ------------------------------------------------------------------ #
    # Redemption / closure (FN-initiated, §IV-E.4)
    # ------------------------------------------------------------------ #

    def build_close_transaction(self, alpha: bytes, nonce: int,
                                gas_price: int = 12 * 10 ** 9,
                                gas_limit: int = 300_000) -> Transaction:
        """Build the FN's CloseChannel transaction with the latest payment
        proof — this is how the node redeems its earnings."""
        from ..chain.transaction import UnsignedTransaction
        from ..vm.abi import encode_call

        channel = self.channels.get(alpha)
        if channel is None:
            raise ServeError(f"unknown channel {alpha.hex()}")
        alpha_b, amount, sig = channel.redeemable_state()
        return UnsignedTransaction(
            nonce=nonce, gas_price=gas_price, gas_limit=gas_limit,
            to=CHANNELS_MODULE_ADDRESS, value=0,
            data=encode_call("close_channel", [alpha_b, amount, sig]),
        ).sign(self.key)

    def mark_closed(self, alpha: bytes) -> None:
        channel, lock = self._channel_and_lock(alpha)
        if channel is not None:
            with lock:
                channel.closed = True

    def __repr__(self) -> str:
        return (
            f"FullNodeServer(addr={self.address.hex()[:10]}…, "
            f"channels={len(self.channels)}, served={self.stats.requests_served})"
        )


def _refusal(message: str) -> tuple[int, bytes, Sequence[bytes]]:
    """The answer to a call that was not executed: the canonical signed-error
    result payload, no proof."""
    return (ResponseStatus.ERROR,
            rlp.encode([b"error", message.encode("utf-8")]), [])
