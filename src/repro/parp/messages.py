"""PARP wire messages: the request/response structures of Fig. 3.

A request is ``req = (α, h_B, a, γ, h_req, σ_a, σ_req)``:

* ``α``     — channel identifier (16 bytes),
* ``h_B``   — most recent block hash known to the light client,
* ``a``     — *cumulative* payment amount (must be monotone per channel),
* ``γ``     — the wrapped base-layer RPC call,
* ``h_req`` — ``keccak256(α ‖ h_B ‖ a ‖ γ)``,
* ``σ_a``   — LC signature over ``keccak256(α ‖ a)`` (the micropayment —
  this is what the full node redeems on-chain),
* ``σ_req`` — LC signature over ``h_req`` (binds the payment to the call,
  needed for fraud proofs).

A response is ``res = (α, m_B, a, R(γ), π_γ, h_req, σ_req, σ_res)`` where
``σ_res`` signs ``h_res = keccak256(α ‖ status ‖ m_B ‖ a ‖ rlp([R, π]) ‖
h_req ‖ σ_req)``.  On the wire the response omits ``α`` (the session is
channel-scoped) but ``α`` stays in the signed pre-image, so the 187-byte
metadata figure of Table II is met while fraud proofs remain α-bound; the
*fraud blob* (`encode_for_fraud`) re-attaches α explicitly for on-chain
decoding, mirroring ``decodeResponse`` in Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Optional, Sequence

from ..crypto import Signature, SignatureError, keccak256, recover_address
from ..crypto.keys import Address, PrivateKey
from ..rlp import codec as rlp
from ..trie.proof import ProofIndex
from .constants import (
    ALPHA_BYTES,
    AMOUNT_BYTES,
    BATCH_REQUEST_OVERHEAD_BYTES,
    BATCH_RESPONSE_OVERHEAD_BYTES,
    HASH_BYTES,
    HEIGHT_BYTES,
    MAX_AMOUNT,
    MILLIS_BYTES,
    OVERLOAD_OVERHEAD_BYTES,
    REQUEST_OVERHEAD_BYTES,
    RESPONSE_OVERHEAD_BYTES,
    SIGNATURE_BYTES,
    STATUS_BYTES,
)

__all__ = [
    "MessageError",
    "RpcCall",
    "PARPRequest",
    "PARPResponse",
    "BatchRequest",
    "BatchResponse",
    "OverloadedReply",
    "ResponseStatus",
    "payment_digest",
    "payment_preimage",
    "handshake_digest",
    "handshake_preimage",
    "request_digest",
    "batch_request_digest",
    "response_digest",
    "response_preimage",
    "overload_digest",
    "overload_preimage",
]


class MessageError(ValueError):
    """Raised on malformed PARP wire data."""


class ResponseStatus:
    """Response status byte values."""

    OK = 0
    ERROR = 1       # base-layer RPC error (e.g. unknown method); still signed
    OVERLOADED = 2  # admission shed: a signed refusal, not a served response


def _encode_amount(amount: int) -> bytes:
    if not 0 <= amount <= MAX_AMOUNT:
        raise MessageError(f"payment amount {amount} out of u128 range")
    return amount.to_bytes(AMOUNT_BYTES, "big")


def _encode_height(height: int) -> bytes:
    if not 0 <= height < (1 << (8 * HEIGHT_BYTES)):
        raise MessageError(f"block height {height} out of u64 range")
    return height.to_bytes(HEIGHT_BYTES, "big")


def payment_preimage(alpha: bytes, amount: int) -> bytes:
    """Bytes hashed for σ_a; shared with the on-chain CMM (metered there)."""
    if len(alpha) != ALPHA_BYTES:
        raise MessageError(f"channel id must be {ALPHA_BYTES} bytes")
    return alpha + _encode_amount(amount)


def payment_digest(alpha: bytes, amount: int) -> bytes:
    """``Hash(α, a)`` — the digest behind σ_a; also checked on-chain by the
    Channels Management Module when redeeming or disputing."""
    return keccak256(payment_preimage(alpha, amount))


def handshake_preimage(light_client: Address, expiry: int) -> bytes:
    """Bytes behind the handshake confirmation ``Sign((LC ‖ expiryDate),
    sk_FN)`` of Algorithm 1; verified again on-chain when opening a channel."""
    if expiry < 0 or expiry >= (1 << 64):
        raise MessageError("handshake expiry out of u64 range")
    return light_client.to_bytes() + expiry.to_bytes(8, "big")


def handshake_digest(light_client: Address, expiry: int) -> bytes:
    return keccak256(handshake_preimage(light_client, expiry))


def request_digest(alpha: bytes, h_b: bytes, amount: int, call_bytes: bytes) -> bytes:
    """``h_req = Hash(α, h_B, a, γ)``."""
    if len(alpha) != ALPHA_BYTES or len(h_b) != HASH_BYTES:
        raise MessageError("bad α or h_B length in request digest")
    return keccak256(alpha + h_b + _encode_amount(amount) + call_bytes)


def batch_request_digest(alpha: bytes, h_b: bytes, amount: int, version: int,
                         calls_bytes: bytes) -> bytes:
    """``h_req = Hash(α, h_B, a, v, rlp([γ_1 … γ_N]))`` for a batch.

    The version byte is bound into the digest so a server cannot silently
    downgrade the batch semantics the client signed for.
    """
    if len(alpha) != ALPHA_BYTES or len(h_b) != HASH_BYTES:
        raise MessageError("bad α or h_B length in batch request digest")
    if not 0 <= version < 256:
        raise MessageError(f"batch protocol version {version} out of u8 range")
    return keccak256(
        alpha + h_b + _encode_amount(amount) + bytes([version]) + calls_bytes
    )


def response_preimage(alpha: bytes, status: int, m_b: int, amount: int,
                      payload: bytes, h_req: bytes, sig_req: bytes) -> bytes:
    """Bytes behind h_res; shared with the on-chain FDM (metered there)."""
    if len(alpha) != ALPHA_BYTES:
        raise MessageError(f"channel id must be {ALPHA_BYTES} bytes")
    return (
        alpha + bytes([status]) + _encode_height(m_b) + _encode_amount(amount)
        + payload + h_req + sig_req
    )


def response_digest(alpha: bytes, status: int, m_b: int, amount: int,
                    payload: bytes, h_req: bytes, sig_req: bytes) -> bytes:
    """``h_res = Hash(α, status, m_B, a, rlp([R, π]), h_req, σ_req)``."""
    return keccak256(
        response_preimage(alpha, status, m_b, amount, payload, h_req, sig_req)
    )


def _encode_millis(value: int, what: str) -> bytes:
    if not 0 <= value < (1 << (8 * MILLIS_BYTES)):
        raise MessageError(f"{what} {value} out of u32 fixed-point range")
    return value.to_bytes(MILLIS_BYTES, "big")


def overload_preimage(m_b: int, load_millis: int, retry_after_millis: int,
                      fee_multiplier_millis: int, h_req: bytes) -> bytes:
    """Bytes behind σ_ovl — the full Overloaded reply, h_req included, so a
    shed of request X cannot be replayed as a shed of request Y."""
    if len(h_req) != HASH_BYTES:
        raise MessageError("bad h_req length in overload digest")
    return (
        bytes([ResponseStatus.OVERLOADED]) + _encode_height(m_b)
        + _encode_millis(load_millis, "load factor")
        + _encode_millis(retry_after_millis, "retry-after hint")
        + _encode_millis(fee_multiplier_millis, "fee multiplier")
        + h_req
    )


def overload_digest(m_b: int, load_millis: int, retry_after_millis: int,
                    fee_multiplier_millis: int, h_req: bytes) -> bytes:
    """``h_ovl = Hash(status, m_B, load, retry_after, fee_mult, h_req)``."""
    return keccak256(overload_preimage(
        m_b, load_millis, retry_after_millis, fee_multiplier_millis, h_req,
    ))


# --------------------------------------------------------------------------- #
# RPC call γ
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class RpcCall:
    """The base-layer RPC call γ wrapped inside a PARP request.

    Parameters are RLP items (bytes / nested lists); helpers convert common
    Python values.  The canonical encoding is ``rlp([method, param, …])``.
    """

    method: str
    params: tuple[rlp.Item, ...] = ()

    @classmethod
    def create(cls, method: str, *params: Any) -> "RpcCall":
        return cls(method=method, params=tuple(_param_to_item(p) for p in params))

    def encode(self) -> bytes:
        return rlp.encode([self.method.encode("utf-8"), *self.params])

    @classmethod
    def decode(cls, raw: bytes) -> "RpcCall":
        try:
            item = rlp.decode(raw)
        except rlp.RLPError as exc:
            raise MessageError(f"undecodable RPC call: {exc}") from exc
        if not isinstance(item, list) or not item or not isinstance(item[0], bytes):
            raise MessageError("RPC call must be rlp([method, params…])")
        try:
            method = item[0].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MessageError("RPC method name is not UTF-8") from exc
        return cls(method=method, params=tuple(item[1:]))

    def param_bytes(self, index: int, exact: int | None = None) -> bytes:
        if index >= len(self.params) or not isinstance(self.params[index], bytes):
            raise MessageError(f"{self.method}: missing bytes param {index}")
        value = self.params[index]
        if exact is not None and len(value) != exact:
            raise MessageError(
                f"{self.method}: param {index} must be {exact} bytes, got {len(value)}"
            )
        return value

    def param_int(self, index: int) -> int:
        raw = self.param_bytes(index)
        try:
            return rlp.decode_int(raw)
        except rlp.RLPError as exc:
            raise MessageError(f"{self.method}: bad integer param {index}") from exc

    def __repr__(self) -> str:
        return f"RpcCall({self.method}, {len(self.params)} params)"


def _param_to_item(value: Any) -> rlp.Item:
    if isinstance(value, bool):
        return rlp.encode_int(int(value))
    if isinstance(value, int):
        if value < 0:
            raise MessageError("negative RPC parameters are not encodable")
        return rlp.encode_int(value)
    if isinstance(value, Address):
        return value.to_bytes()
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, (list, tuple)):
        return [_param_to_item(v) for v in value]
    raise MessageError(f"cannot encode RPC parameter of type {type(value).__name__}")


# --------------------------------------------------------------------------- #
# Request
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PARPRequest:
    """A signed PARP request (Fig. 3, left)."""

    alpha: bytes
    h_b: bytes
    a: int
    call: RpcCall
    h_req: bytes
    sig_a: bytes
    sig_req: bytes

    @classmethod
    def build(cls, alpha: bytes, h_b: bytes, amount: int, call: RpcCall,
              key: PrivateKey) -> "PARPRequest":
        """Construct and sign a request (light-client side, step (A))."""
        call_bytes = call.encode()
        h_req = request_digest(alpha, h_b, amount, call_bytes)
        sig_a = key.sign(payment_digest(alpha, amount)).to_bytes()
        sig_req = key.sign(h_req).to_bytes()
        return cls(alpha=alpha, h_b=h_b, a=amount, call=call,
                   h_req=h_req, sig_a=sig_a, sig_req=sig_req)

    # -- wire ------------------------------------------------------------- #

    def encode_wire(self) -> bytes:
        """226 bytes of PARP metadata followed by the base RPC call γ."""
        return (
            self.alpha + self.h_b + _encode_amount(self.a) + self.h_req
            + self.sig_a + self.sig_req + self.call.encode()
        )

    @classmethod
    def decode_wire(cls, raw: bytes) -> "PARPRequest":
        if len(raw) < REQUEST_OVERHEAD_BYTES:
            raise MessageError(
                f"request too short: {len(raw)} < {REQUEST_OVERHEAD_BYTES}"
            )
        pos = 0
        alpha = raw[pos:pos + ALPHA_BYTES]; pos += ALPHA_BYTES
        h_b = raw[pos:pos + HASH_BYTES]; pos += HASH_BYTES
        amount = int.from_bytes(raw[pos:pos + AMOUNT_BYTES], "big"); pos += AMOUNT_BYTES
        h_req = raw[pos:pos + HASH_BYTES]; pos += HASH_BYTES
        sig_a = raw[pos:pos + SIGNATURE_BYTES]; pos += SIGNATURE_BYTES
        sig_req = raw[pos:pos + SIGNATURE_BYTES]; pos += SIGNATURE_BYTES
        call = RpcCall.decode(raw[pos:])
        return cls(alpha=alpha, h_b=h_b, a=amount, call=call,
                   h_req=h_req, sig_a=sig_a, sig_req=sig_req)

    # -- verification -------------------------------------------------------- #

    def expected_preimage(self) -> bytes:
        """The exact bytes behind h_req (for metered on-chain recomputation)."""
        return self.alpha + self.h_b + _encode_amount(self.a) + self.call.encode()

    def expected_digest(self) -> bytes:
        return request_digest(self.alpha, self.h_b, self.a, self.call.encode())

    def verify(self, expected_sender: Optional[Address] = None) -> Address:
        """Full-node-side request verification (step (B) in Fig. 5).

        Checks the digest reconstruction and both signatures; returns the
        recovered light-client address.
        """
        if self.h_req != self.expected_digest():
            raise MessageError("request hash does not match request contents")
        try:
            req_signer = recover_address(self.h_req, Signature.from_bytes(self.sig_req))
            pay_signer = recover_address(
                payment_digest(self.alpha, self.a), Signature.from_bytes(self.sig_a)
            )
        except SignatureError as exc:
            raise MessageError(f"bad request signature: {exc}") from exc
        if req_signer != pay_signer:
            raise MessageError("request and payment signed by different keys")
        if expected_sender is not None and req_signer != expected_sender:
            raise MessageError("request signer is not the channel's light client")
        return req_signer

    @property
    def wire_overhead(self) -> int:
        """PARP metadata bytes added on top of the base RPC call (Table II)."""
        return REQUEST_OVERHEAD_BYTES


# --------------------------------------------------------------------------- #
# Response
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PARPResponse:
    """A signed PARP response (Fig. 3, right)."""

    status: int
    m_b: int
    a: int
    result: bytes                 # R(γ): rlp-encoded result payload
    proof: tuple[bytes, ...]      # π_γ: Merkle proof nodes (may be empty)
    h_req: bytes
    sig_req: bytes                # echo of the request signature
    sig_res: bytes

    @staticmethod
    def _payload(result: bytes, proof: Sequence[bytes]) -> bytes:
        return rlp.encode([result, list(proof)])

    @classmethod
    def build(cls, alpha: bytes, request: PARPRequest, m_b: int, result: bytes,
              proof: Sequence[bytes], key: PrivateKey,
              status: int = ResponseStatus.OK) -> "PARPResponse":
        """Construct and sign a response (full-node side, step (C))."""
        payload = cls._payload(result, proof)
        h_res = response_digest(
            alpha, status, m_b, request.a, payload, request.h_req, request.sig_req
        )
        return cls(
            status=status, m_b=m_b, a=request.a, result=result,
            proof=tuple(proof), h_req=request.h_req, sig_req=request.sig_req,
            sig_res=key.sign(h_res).to_bytes(),
        )

    # -- digests ------------------------------------------------------------ #

    def preimage(self, alpha: bytes) -> bytes:
        """The exact bytes behind h_res (for metered on-chain recomputation)."""
        payload = self._payload(self.result, self.proof)
        return response_preimage(
            alpha, self.status, self.m_b, self.a, payload, self.h_req, self.sig_req
        )

    def digest(self, alpha: bytes) -> bytes:
        """Recompute h_res for the given channel id."""
        payload = self._payload(self.result, self.proof)
        return response_digest(
            alpha, self.status, self.m_b, self.a, payload, self.h_req, self.sig_req
        )

    def signer(self, alpha: bytes) -> Address:
        """Recover the full-node address that signed this response."""
        try:
            return recover_address(self.digest(alpha), Signature.from_bytes(self.sig_res))
        except SignatureError as exc:
            raise MessageError(f"bad response signature: {exc}") from exc

    # -- wire ------------------------------------------------------------- #

    def encode_wire(self) -> bytes:
        """187 bytes of metadata followed by rlp([R(γ), π_γ])."""
        return (
            bytes([self.status]) + _encode_height(self.m_b) + _encode_amount(self.a)
            + self.h_req + self.sig_req + self.sig_res
            + self._payload(self.result, self.proof)
        )

    @classmethod
    def decode_wire(cls, raw: bytes) -> "PARPResponse":
        if len(raw) < RESPONSE_OVERHEAD_BYTES:
            raise MessageError(
                f"response too short: {len(raw)} < {RESPONSE_OVERHEAD_BYTES}"
            )
        pos = 0
        status = raw[pos]; pos += STATUS_BYTES
        m_b = int.from_bytes(raw[pos:pos + HEIGHT_BYTES], "big"); pos += HEIGHT_BYTES
        amount = int.from_bytes(raw[pos:pos + AMOUNT_BYTES], "big"); pos += AMOUNT_BYTES
        h_req = raw[pos:pos + HASH_BYTES]; pos += HASH_BYTES
        sig_req = raw[pos:pos + SIGNATURE_BYTES]; pos += SIGNATURE_BYTES
        sig_res = raw[pos:pos + SIGNATURE_BYTES]; pos += SIGNATURE_BYTES
        try:
            payload = rlp.decode(raw[pos:])
        except rlp.RLPError as exc:
            raise MessageError(f"undecodable response payload: {exc}") from exc
        if (not isinstance(payload, list) or len(payload) != 2
                or not isinstance(payload[0], bytes)
                or not isinstance(payload[1], list)):
            raise MessageError("response payload must be rlp([result, proof])")
        proof_nodes = []
        for node in payload[1]:
            if not isinstance(node, bytes):
                raise MessageError("proof nodes must be byte strings")
            proof_nodes.append(node)
        return cls(status=status, m_b=m_b, a=amount, result=payload[0],
                   proof=tuple(proof_nodes), h_req=h_req,
                   sig_req=sig_req, sig_res=sig_res)

    # -- fraud blob (on-chain format, α re-attached) ------------------------- #

    def encode_for_fraud(self, alpha: bytes) -> bytes:
        """Serialization submitted to the Fraud Detection Module."""
        if len(alpha) != ALPHA_BYTES:
            raise MessageError(f"channel id must be {ALPHA_BYTES} bytes")
        return alpha + self.encode_wire()

    @classmethod
    def decode_for_fraud(cls, raw: bytes) -> tuple[bytes, "PARPResponse"]:
        if len(raw) < ALPHA_BYTES:
            raise MessageError("fraud blob too short for a channel id")
        return raw[:ALPHA_BYTES], cls.decode_wire(raw[ALPHA_BYTES:])

    # -- sizes (Table II) ----------------------------------------------------- #

    @property
    def wire_overhead(self) -> int:
        """Metadata bytes (187) + Merkle proof bytes, per Table II."""
        proof_bytes = len(rlp.encode(list(self.proof))) if self.proof else 0
        return RESPONSE_OVERHEAD_BYTES + proof_bytes

    def with_result(self, result: bytes) -> "PARPResponse":
        """A tampered copy (used by tests and the malicious-node examples)."""
        return replace(self, result=result)


# --------------------------------------------------------------------------- #
# Overloaded reply (admission control)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class OverloadedReply:
    """A signed, typed refusal: the server's admission queue is full.

    Sent *instead of* a served response when a request (or batch) arrives
    past the admission threshold.  It is deliberately not a
    :class:`PARPResponse` — the client paid nothing for it (shedding happens
    before the payment is accepted, so the channel's server-side cumulative
    amount does not advance) and it proves nothing about state.  What the
    signature buys is **attribution**: the overload signal demonstrably came
    from the serving key, so clients can treat it as a soft failover hint
    without opening a spoofing channel (a MITM can't demote a healthy
    server by forging "I'm overloaded" replies).

    Fixed-point u32 fields (thousandths):

    * ``load_millis``           — load factor at decision time (1000 = the
      admission queue is exactly full),
    * ``retry_after_millis``    — jittered seconds until the queue is
      expected to have drained enough to admit this request's cost,
    * ``fee_multiplier_millis`` — the repriced quote (matches the
      republished :class:`~repro.parp.pricing.RepricedFeeSchedule`).
    """

    m_b: int
    load_millis: int
    retry_after_millis: int
    fee_multiplier_millis: int
    h_req: bytes
    sig_ovl: bytes

    @classmethod
    def build(cls, m_b: int, load: float, retry_after: float,
              fee_multiplier: float, h_req: bytes,
              key: PrivateKey) -> "OverloadedReply":
        """Quantize, digest, and sign (server side, the shed path)."""
        limit = (1 << (8 * MILLIS_BYTES)) - 1
        load_millis = min(limit, max(0, round(load * 1000)))
        retry_millis = min(limit, max(0, round(retry_after * 1000)))
        fee_millis = min(limit, max(0, round(fee_multiplier * 1000)))
        digest = overload_digest(m_b, load_millis, retry_millis, fee_millis,
                                 h_req)
        return cls(m_b=m_b, load_millis=load_millis,
                   retry_after_millis=retry_millis,
                   fee_multiplier_millis=fee_millis, h_req=h_req,
                   sig_ovl=key.sign(digest).to_bytes())

    # -- float views ------------------------------------------------------- #

    @property
    def load(self) -> float:
        return self.load_millis / 1000.0

    @property
    def retry_after(self) -> float:
        return self.retry_after_millis / 1000.0

    @property
    def fee_multiplier(self) -> float:
        return self.fee_multiplier_millis / 1000.0

    # -- wire ------------------------------------------------------------- #

    @staticmethod
    def is_overload_wire(raw: bytes) -> bool:
        """Cheap discriminator: served responses lead with status OK/ERROR,
        an overload reply with its own status byte — one branch before the
        normal decode path, no exception control flow."""
        return (len(raw) == OVERLOAD_OVERHEAD_BYTES
                and raw[0] == ResponseStatus.OVERLOADED)

    def encode_wire(self) -> bytes:
        """118 bytes, all metadata (see OVERLOAD_OVERHEAD_BYTES)."""
        return (
            overload_preimage(self.m_b, self.load_millis,
                              self.retry_after_millis,
                              self.fee_multiplier_millis, self.h_req)
            + self.sig_ovl
        )

    @classmethod
    def decode_wire(cls, raw: bytes) -> "OverloadedReply":
        if len(raw) != OVERLOAD_OVERHEAD_BYTES:
            raise MessageError(
                f"overload reply must be {OVERLOAD_OVERHEAD_BYTES} bytes, "
                f"got {len(raw)}"
            )
        if raw[0] != ResponseStatus.OVERLOADED:
            raise MessageError(f"not an overload reply (status {raw[0]})")
        pos = STATUS_BYTES
        m_b = int.from_bytes(raw[pos:pos + HEIGHT_BYTES], "big"); pos += HEIGHT_BYTES
        load = int.from_bytes(raw[pos:pos + MILLIS_BYTES], "big"); pos += MILLIS_BYTES
        retry = int.from_bytes(raw[pos:pos + MILLIS_BYTES], "big"); pos += MILLIS_BYTES
        fee = int.from_bytes(raw[pos:pos + MILLIS_BYTES], "big"); pos += MILLIS_BYTES
        h_req = raw[pos:pos + HASH_BYTES]; pos += HASH_BYTES
        sig_ovl = raw[pos:pos + SIGNATURE_BYTES]
        return cls(m_b=m_b, load_millis=load, retry_after_millis=retry,
                   fee_multiplier_millis=fee, h_req=h_req, sig_ovl=sig_ovl)

    # -- verification ------------------------------------------------------ #

    def digest(self) -> bytes:
        return overload_digest(self.m_b, self.load_millis,
                               self.retry_after_millis,
                               self.fee_multiplier_millis, self.h_req)

    def signer(self) -> Address:
        try:
            return recover_address(self.digest(),
                                   Signature.from_bytes(self.sig_ovl))
        except SignatureError as exc:
            raise MessageError(f"bad overload signature: {exc}") from exc

    def verify(self, expected_signer: Optional[Address] = None,
               expected_h_req: Optional[bytes] = None) -> Address:
        """Client-side checks: the shed is bound to *our* request and signed
        by *our* server — anything else is an invalid response, not a soft
        failure."""
        if expected_h_req is not None and self.h_req != expected_h_req:
            raise MessageError("overload reply answers a different request")
        signer = self.signer()
        if expected_signer is not None and signer != expected_signer:
            raise MessageError(
                "overload reply signed by a key other than the serving node"
            )
        return signer


# --------------------------------------------------------------------------- #
# Batched queries (multiproof extension)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class BatchRequest:
    """N RPC calls paid for by ONE channel update.

    Structurally a :class:`PARPRequest` whose γ is a *list* of calls and whose
    metadata is prefixed by a batch-protocol version byte.  The cumulative
    amount ``a`` covers the whole batch, so the channel advances once no
    matter how many keys the dApp fetches — and the server answers with one
    deduplicated multiproof instead of N overlapping proofs.
    """

    version: int
    alpha: bytes
    h_b: bytes
    a: int
    calls: tuple[RpcCall, ...]
    h_req: bytes
    sig_a: bytes
    sig_req: bytes

    @staticmethod
    def _calls_bytes(calls: Sequence[RpcCall]) -> bytes:
        return rlp.encode([call.encode() for call in calls])

    @classmethod
    def build(cls, alpha: bytes, h_b: bytes, amount: int,
              calls: Sequence[RpcCall], key: PrivateKey,
              version: int) -> "BatchRequest":
        """Construct and sign a batch request (light-client side)."""
        if not calls:
            raise MessageError("a batch must contain at least one call")
        calls_bytes = cls._calls_bytes(calls)
        h_req = batch_request_digest(alpha, h_b, amount, version, calls_bytes)
        sig_a = key.sign(payment_digest(alpha, amount)).to_bytes()
        sig_req = key.sign(h_req).to_bytes()
        return cls(version=version, alpha=alpha, h_b=h_b, a=amount,
                   calls=tuple(calls), h_req=h_req, sig_a=sig_a,
                   sig_req=sig_req)

    # -- wire ------------------------------------------------------------- #

    def encode_wire(self) -> bytes:
        """227 bytes of metadata followed by rlp([γ_1 … γ_N])."""
        return (
            bytes([self.version]) + self.alpha + self.h_b
            + _encode_amount(self.a) + self.h_req + self.sig_a + self.sig_req
            + self._calls_bytes(self.calls)
        )

    @classmethod
    def decode_wire(cls, raw: bytes) -> "BatchRequest":
        if len(raw) < BATCH_REQUEST_OVERHEAD_BYTES:
            raise MessageError(
                f"batch request too short: {len(raw)} < "
                f"{BATCH_REQUEST_OVERHEAD_BYTES}"
            )
        pos = 0
        version = raw[pos]; pos += 1
        alpha = raw[pos:pos + ALPHA_BYTES]; pos += ALPHA_BYTES
        h_b = raw[pos:pos + HASH_BYTES]; pos += HASH_BYTES
        amount = int.from_bytes(raw[pos:pos + AMOUNT_BYTES], "big"); pos += AMOUNT_BYTES
        h_req = raw[pos:pos + HASH_BYTES]; pos += HASH_BYTES
        sig_a = raw[pos:pos + SIGNATURE_BYTES]; pos += SIGNATURE_BYTES
        sig_req = raw[pos:pos + SIGNATURE_BYTES]; pos += SIGNATURE_BYTES
        try:
            item = rlp.decode(raw[pos:])
        except rlp.RLPError as exc:
            raise MessageError(f"undecodable batch call list: {exc}") from exc
        if not isinstance(item, list) or not item:
            raise MessageError("batch call list must be a non-empty rlp list")
        calls = []
        for encoded in item:
            if not isinstance(encoded, bytes):
                raise MessageError("batch calls must be rlp-encoded byte strings")
            calls.append(RpcCall.decode(encoded))
        return cls(version=version, alpha=alpha, h_b=h_b, a=amount,
                   calls=tuple(calls), h_req=h_req, sig_a=sig_a,
                   sig_req=sig_req)

    # -- verification ------------------------------------------------------ #

    def expected_digest(self) -> bytes:
        return batch_request_digest(
            self.alpha, self.h_b, self.a, self.version,
            self._calls_bytes(self.calls),
        )

    def verify(self, expected_sender: Optional[Address] = None) -> Address:
        """Full-node-side batch verification; mirrors PARPRequest.verify."""
        if self.h_req != self.expected_digest():
            raise MessageError("batch hash does not match batch contents")
        try:
            req_signer = recover_address(self.h_req, Signature.from_bytes(self.sig_req))
            pay_signer = recover_address(
                payment_digest(self.alpha, self.a), Signature.from_bytes(self.sig_a)
            )
        except SignatureError as exc:
            raise MessageError(f"bad batch request signature: {exc}") from exc
        if req_signer != pay_signer:
            raise MessageError("batch and payment signed by different keys")
        if expected_sender is not None and req_signer != expected_sender:
            raise MessageError("batch signer is not the channel's light client")
        return req_signer

    @property
    def wire_overhead(self) -> int:
        return BATCH_REQUEST_OVERHEAD_BYTES

    def __repr__(self) -> str:
        return f"BatchRequest(v{self.version}, {len(self.calls)} calls)"


@dataclass(frozen=True)
class BatchResponse:
    """The signed answer to a :class:`BatchRequest`.

    Carries one status byte and one result payload per call, plus a single
    *shared* proof-node pool: the deduplicated union of every per-call Merkle
    proof (state, storage, transaction, and receipt trie nodes all resolve
    by keccak hash from the same pool).  Signed exactly like a single
    response, over ``payload = rlp([statuses, [R_1 …], [node_1 …]])``.
    """

    status: int                   # whole-batch status
    m_b: int
    a: int
    statuses: tuple[int, ...]     # per-call statuses
    results: tuple[bytes, ...]    # per-call R(γ_i)
    proof: tuple[bytes, ...]      # shared multiproof node pool
    h_req: bytes
    sig_req: bytes
    sig_res: bytes

    @staticmethod
    def _payload(statuses: Sequence[int], results: Sequence[bytes],
                 proof: Sequence[bytes]) -> bytes:
        return rlp.encode([bytes(statuses), list(results), list(proof)])

    @classmethod
    def build(cls, alpha: bytes, request: BatchRequest, m_b: int,
              statuses: Sequence[int], results: Sequence[bytes],
              proof: Sequence[bytes], key: PrivateKey,
              status: int = ResponseStatus.OK) -> "BatchResponse":
        """Construct and sign a batch response (full-node side)."""
        if len(statuses) != len(results):
            raise MessageError("per-call statuses and results disagree in length")
        payload = cls._payload(statuses, results, proof)
        h_res = response_digest(
            alpha, status, m_b, request.a, payload, request.h_req,
            request.sig_req,
        )
        return cls(
            status=status, m_b=m_b, a=request.a, statuses=tuple(statuses),
            results=tuple(results), proof=tuple(proof), h_req=request.h_req,
            sig_req=request.sig_req, sig_res=key.sign(h_res).to_bytes(),
        )

    # -- digests ------------------------------------------------------------ #

    def digest(self, alpha: bytes) -> bytes:
        payload = self._payload(self.statuses, self.results, self.proof)
        return response_digest(
            alpha, self.status, self.m_b, self.a, payload, self.h_req,
            self.sig_req,
        )

    def signer(self, alpha: bytes) -> Address:
        try:
            return recover_address(self.digest(alpha), Signature.from_bytes(self.sig_res))
        except SignatureError as exc:
            raise MessageError(f"bad batch response signature: {exc}") from exc

    # -- per-item view ------------------------------------------------------ #

    @cached_property
    def proof_index(self) -> ProofIndex:
        """The shared pool, every node hashed once for all the items."""
        return ProofIndex(self.proof)

    def item_view(self, index: int) -> PARPResponse:
        """Item ``index`` shaped as a single response over the shared pool.

        This is what lets the client (and any future on-chain batch FDM)
        reuse the per-method verifiers of :mod:`repro.parp.queries`
        unchanged: each item verifies against the same deduplicated node
        pool that authenticated every other item — handed over as the one
        :attr:`proof_index`, so N items cost one hash per pool node, not N.
        """
        return PARPResponse(
            status=self.statuses[index], m_b=self.m_b, a=self.a,
            result=self.results[index], proof=self.proof_index,
            h_req=self.h_req, sig_req=self.sig_req, sig_res=self.sig_res,
        )

    def __len__(self) -> int:
        return len(self.results)

    # -- wire ------------------------------------------------------------- #

    def encode_wire(self) -> bytes:
        """187 bytes of metadata followed by rlp([statuses, results, proof])."""
        return (
            bytes([self.status]) + _encode_height(self.m_b)
            + _encode_amount(self.a) + self.h_req + self.sig_req + self.sig_res
            + self._payload(self.statuses, self.results, self.proof)
        )

    @classmethod
    def decode_wire(cls, raw: bytes) -> "BatchResponse":
        if len(raw) < BATCH_RESPONSE_OVERHEAD_BYTES:
            raise MessageError(
                f"batch response too short: {len(raw)} < "
                f"{BATCH_RESPONSE_OVERHEAD_BYTES}"
            )
        pos = 0
        status = raw[pos]; pos += STATUS_BYTES
        m_b = int.from_bytes(raw[pos:pos + HEIGHT_BYTES], "big"); pos += HEIGHT_BYTES
        amount = int.from_bytes(raw[pos:pos + AMOUNT_BYTES], "big"); pos += AMOUNT_BYTES
        h_req = raw[pos:pos + HASH_BYTES]; pos += HASH_BYTES
        sig_req = raw[pos:pos + SIGNATURE_BYTES]; pos += SIGNATURE_BYTES
        sig_res = raw[pos:pos + SIGNATURE_BYTES]; pos += SIGNATURE_BYTES
        try:
            payload = rlp.decode(raw[pos:])
        except rlp.RLPError as exc:
            raise MessageError(f"undecodable batch payload: {exc}") from exc
        if (not isinstance(payload, list) or len(payload) != 3
                or not isinstance(payload[0], bytes)
                or not isinstance(payload[1], list)
                or not isinstance(payload[2], list)):
            raise MessageError(
                "batch payload must be rlp([statuses, results, proof])"
            )
        statuses = tuple(payload[0])
        results = []
        for result in payload[1]:
            if not isinstance(result, bytes):
                raise MessageError("batch results must be byte strings")
            results.append(result)
        proof_nodes = []
        for node in payload[2]:
            if not isinstance(node, bytes):
                raise MessageError("proof nodes must be byte strings")
            proof_nodes.append(node)
        if len(statuses) != len(results):
            raise MessageError("per-call statuses and results disagree in length")
        return cls(status=status, m_b=m_b, a=amount, statuses=statuses,
                   results=tuple(results), proof=tuple(proof_nodes),
                   h_req=h_req, sig_req=sig_req, sig_res=sig_res)

    # -- sizes (Table II / Fig. 6) ---------------------------------------- #

    @property
    def wire_overhead(self) -> int:
        """Metadata bytes + shared multiproof bytes for the whole batch."""
        proof_bytes = len(rlp.encode(list(self.proof))) if self.proof else 0
        return BATCH_RESPONSE_OVERHEAD_BYTES + proof_bytes

    def with_result(self, index: int, result: bytes) -> "BatchResponse":
        """A tampered copy (tests and the malicious-node examples)."""
        results = list(self.results)
        results[index] = result
        return replace(self, results=tuple(results))
