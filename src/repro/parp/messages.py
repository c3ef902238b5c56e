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
``σ_res`` signs ``h_res = keccak256(α ‖ status ‖ m_B ‖ a ‖ C ‖ h_req ‖
σ_req)`` over the *commitment* ``C = rlp([R, [keccak256(n) for n in π]])``
— the wire payload with every proof node replaced by its hash, in wire
order, duplicates kept.
This is a deliberate departure from Fig. 3, which signs the payload
``rlp([R, π])`` itself: under keccak collision resistance the two bind the
same proof, the bytes on the wire (Table II) are identical, and a response
without a proof signs exactly what Fig. 3 says — but the node hashes are
what every party already holds (the prover fetched each node by its hash,
the verifier's :class:`~repro.trie.proof.ProofIndex` hashes each node once
to walk it), so no party pushes the proof bytes through keccak a second
time to reach σ_res, and a fraud package can name a node it does not need
to open by its 32-byte hash.  The layout of ``C`` and of the ``h_res``
pre-image exists here and nowhere else (:meth:`_SignedResponse.commitment`,
:func:`response_preimage`); the light client, the on-chain FDM and the
misbehaving test servers all sign and check through them.

A batch (this repo's extension; version 2) signs as ``C`` the root of a
fixed-shape 4-ary Merkle tree: leaves ``keccak256(0x00 ‖ status_i ‖ R_i)``
for the N items, then the M pool-node hashes as the index holds them; groups
of four become ``keccak256(0x01 ‖ children)`` until at most four remain;
``C = keccak256(0x02 ‖ u16(N) ‖ u16(M) ‖ remaining children)``.  A level is
independent messages — one ``keccak256_many`` call, six passes of the
permutation for 16 calls where the flat 2.9 KB layout took 22 — and item *i*
opens with its leaf and three sibling hashes a level.  The single wire's 378
bytes and ``h_req`` (five permutations at 16 calls) gain nothing and stay flat.

On the wire the response omits ``α`` (the session is channel-scoped) but
``α`` stays in the signed pre-image, so the 187-byte metadata figure of
Table II is met while fraud proofs remain α-bound; the *fraud blob*
(`encode_for_fraud`) re-attaches α explicitly for on-chain decoding,
mirroring ``decodeResponse`` in Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..crypto import Signature, SignatureError, keccak256, recover_address
from ..crypto.keccak import keccak256_many
from ..crypto.keys import Address, PrivateKey
from ..rlp import codec as rlp
from ..trie.proof import ProofIndex
from .constants import (
    ALPHA_BYTES,
    AMOUNT_BYTES,
    BATCH_PROTOCOL_VERSION,
    BATCH_REQUEST_OVERHEAD_BYTES,
    HASH_BYTES,
    HEIGHT_BYTES,
    MILLIS_BYTES,
    OVERLOAD_OVERHEAD_BYTES,
    REQUEST_OVERHEAD_BYTES,
    RESPONSE_OVERHEAD_BYTES,
    SIGNATURE_BYTES,
    STATUS_BYTES,
)

if TYPE_CHECKING:
    from .pricing import FeeSchedule

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
    "request_preimage",
    "request_digest",
    "batch_request_digest",
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


def _encode_uint(value: int, width: int, what: str) -> bytes:
    if not 0 <= value < (1 << (8 * width)):
        raise MessageError(f"{what} {value} out of u{8 * width} range")
    return value.to_bytes(width, "big")


def _encode_amount(amount: int) -> bytes:
    return _encode_uint(amount, AMOUNT_BYTES, "payment amount")


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
    return light_client.to_bytes() + _encode_uint(expiry, 8, "handshake expiry")


def handshake_digest(light_client: Address, expiry: int) -> bytes:
    return keccak256(handshake_preimage(light_client, expiry))


def request_preimage(alpha: bytes, h_b: bytes, amount: int,
                     call_bytes: bytes) -> bytes:
    """Bytes behind h_req; shared with the on-chain FDM (metered there)."""
    if len(alpha) != ALPHA_BYTES or len(h_b) != HASH_BYTES:
        raise MessageError("bad α or h_B length in request digest")
    return alpha + h_b + _encode_amount(amount) + call_bytes


def request_digest(alpha: bytes, h_b: bytes, amount: int, call_bytes: bytes) -> bytes:
    """``h_req = Hash(α, h_B, a, γ)``."""
    return keccak256(request_preimage(alpha, h_b, amount, call_bytes))


def _versioned(version: int, calls_bytes: bytes) -> bytes:
    """A batch's γ: the version byte is bound into the digest so a server
    cannot silently downgrade the batch semantics the client signed for."""
    return _encode_uint(version, 1, "batch protocol version") + calls_bytes


def batch_request_digest(alpha: bytes, h_b: bytes, amount: int, version: int,
                         calls_bytes: bytes) -> bytes:
    """``h_req = Hash(α, h_B, a, v, rlp([γ_1 … γ_N]))`` for a batch."""
    return request_digest(alpha, h_b, amount, _versioned(version, calls_bytes))


def response_preimage(alpha: bytes, status: int, m_b: int, amount: int,
                      commitment: bytes, h_req: bytes, sig_req: bytes) -> bytes:
    """Bytes behind h_res; shared with the on-chain FDM (metered there).
    ``commitment`` is :meth:`_SignedResponse.commitment`, not the payload."""
    if len(alpha) != ALPHA_BYTES:
        raise MessageError(f"channel id must be {ALPHA_BYTES} bytes")
    return (
        alpha + bytes([status]) + _encode_uint(m_b, HEIGHT_BYTES, "block height")
        + _encode_amount(amount) + commitment + h_req + sig_req
    )


def overload_preimage(m_b: int, load_millis: int, retry_after_millis: int,
                      fee_multiplier_millis: int, h_req: bytes) -> bytes:
    """Bytes behind σ_ovl — the full Overloaded reply, h_req included, so a
    shed of request X cannot be replayed as a shed of request Y."""
    if len(h_req) != HASH_BYTES:
        raise MessageError("bad h_req length in overload digest")
    return (
        bytes([ResponseStatus.OVERLOADED])
        + _encode_uint(m_b, HEIGHT_BYTES, "block height")
        + _encode_uint(load_millis, MILLIS_BYTES, "load factor")
        + _encode_uint(retry_after_millis, MILLIS_BYTES, "retry-after hint")
        + _encode_uint(fee_multiplier_millis, MILLIS_BYTES, "fee multiplier")
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
# The signed envelopes — one codec for the single and the batch wire
# --------------------------------------------------------------------------- #
#
# A request is a 226-byte header followed by its payload, a response a
# 187-byte header followed by its payload.  The two wires differ in the
# payload (one call against a list of calls; one result and proof against
# per-call results over a shared pool), in the version byte a batch request
# leads with, and in how the request digest is formed.  Everything else —
# slicing, signing, the two-recover request check, the response signer — is
# written once, here.

#: (field, width) in wire order; fields in ``_UINTS`` travel big-endian
_REQUEST_HEADER = (
    ("alpha", ALPHA_BYTES), ("h_b", HASH_BYTES), ("a", AMOUNT_BYTES),
    ("h_req", HASH_BYTES), ("sig_a", SIGNATURE_BYTES),
    ("sig_req", SIGNATURE_BYTES),
)
_BATCH_REQUEST_HEADER = (("version", 1), *_REQUEST_HEADER)
_RESPONSE_HEADER = (
    ("status", STATUS_BYTES), ("m_b", HEIGHT_BYTES), ("a", AMOUNT_BYTES),
    ("h_req", HASH_BYTES), ("sig_req", SIGNATURE_BYTES),
    ("sig_res", SIGNATURE_BYTES),
)
_OVERLOAD_REPLY = (
    ("status", STATUS_BYTES), ("m_b", HEIGHT_BYTES),
    ("load_millis", MILLIS_BYTES), ("retry_after_millis", MILLIS_BYTES),
    ("fee_multiplier_millis", MILLIS_BYTES), ("h_req", HASH_BYTES),
    ("sig_ovl", SIGNATURE_BYTES),
)
_UINTS = frozenset({"version", "status", "m_b", "a", "load_millis",
                    "retry_after_millis", "fee_multiplier_millis"})


def _pack(message, layout: Sequence[tuple[str, int]]) -> bytes:
    """The ``layout`` fields of ``message``, back to back."""
    return b"".join(
        _encode_uint(getattr(message, name), width, name) if name in _UINTS
        else getattr(message, name)
        for name, width in layout
    )


def _unpack(raw: bytes, layout: Sequence[tuple[str, int]],
            what: str) -> tuple[dict, bytes]:
    """Slice the ``layout`` fields off the front of ``raw``: the fields as
    constructor arguments, and the payload that follows them."""
    size = sum(width for _, width in layout)
    if len(raw) < size:
        raise MessageError(f"{what} too short: {len(raw)} < {size}")
    fields, pos = {}, 0
    for name, width in layout:
        chunk = raw[pos:pos + width]
        fields[name] = int.from_bytes(chunk, "big") if name in _UINTS else chunk
        pos += width
    return fields, raw[pos:]


def _decode_payload(body: bytes, what: str) -> list:
    try:
        payload = rlp.decode(body)
    except rlp.RLPError as exc:
        raise MessageError(f"undecodable {what}: {exc}") from exc
    if not isinstance(payload, list):
        raise MessageError(f"{what} must be an rlp list")
    return payload


def _byte_strings(items: list, what: str) -> tuple[bytes, ...]:
    if not all(isinstance(item, bytes) for item in items):
        raise MessageError(f"{what} must be byte strings")
    return tuple(items)


def _signed_request_fields(key: PrivateKey, alpha: bytes, h_b: bytes,
                           amount: int, h_req: bytes) -> dict:
    """Step (A): the header of a request whose digest is ``h_req`` — σ_a
    over the payment, σ_req over the digest."""
    return dict(
        alpha=alpha, h_b=h_b, a=amount, h_req=h_req,
        sig_a=key.sign(payment_digest(alpha, amount)).to_bytes(),
        sig_req=key.sign(h_req).to_bytes(),
    )


#: A contract's metered builtins (``CallContext.keccak`` / ``.ecrecover``),
#: handed to a check in place of the native hash and recover — the way a
#: decoder is handed the hash for a proof's nodes.
Keccak = Callable[[bytes], bytes]
Ecrecover = Callable[[bytes, bytes], Optional[Address]]


def _recover(digest: bytes, signature: bytes, what: str,
             expected: Optional[Address] = None,
             ecrecover: Optional[Ecrecover] = None) -> Address:
    """The signer of ``digest``; ``expected`` is who the caller will compare
    it with (cheaper when right, the same answer either way)."""
    if ecrecover is not None:
        signer = ecrecover(digest, signature)
        if signer is None:
            raise MessageError(f"bad {what} signature")
        return signer
    try:
        return recover_address(digest, Signature.from_bytes(signature), expected)
    except SignatureError as exc:
        raise MessageError(f"bad {what} signature: {exc}") from exc


def _verify_signed_request(request, expected_sender: Optional[Address],
                           keccak: Optional[Keccak],
                           ecrecover: Optional[Ecrecover]) -> Address:
    """Full-node-side request verification (step (B) in Fig. 5), either wire
    — and the FDM's check of where a request came from.

    Checks the digest reconstruction and both signatures; returns the
    recovered light-client address.
    """
    noun = request.noun
    if request.h_req != (keccak or keccak256)(request.expected_preimage()):
        raise MessageError(f"{noun} hash does not match {noun} contents")
    req_signer = _recover(request.h_req, request.sig_req, noun,
                          expected_sender, ecrecover)
    h_pay = (request.h_pay if keccak is None
             else keccak(payment_preimage(request.alpha, request.a)))
    pay_signer = _recover(h_pay, request.sig_a, noun, expected_sender,
                          ecrecover)
    if req_signer != pay_signer:
        raise MessageError(f"{noun} and payment signed by different keys")
    if expected_sender is not None and req_signer != expected_sender:
        raise MessageError(f"{noun} signer is not the channel's light client")
    return req_signer


class _SignedRequest:
    """What both request wires derive from their header."""

    @cached_property
    def h_pay(self) -> bytes:
        """``Hash(α, a)`` behind σ_a, hashed once per request object: step (B)
        checks σ_a against it and the channel does again when banking it."""
        return payment_digest(self.alpha, self.a)


def _response_header(request, status: int, m_b: int) -> dict:
    """Step (C): the header of the response to ``request`` before it is
    signed — the request's amount, digest and signature echoed."""
    return dict(status=status, m_b=m_b, a=request.a, h_req=request.h_req,
                sig_req=request.sig_req, sig_res=b"")


def _response_signer(response, alpha: bytes, expected: Optional[Address],
                     keccak: Optional[Keccak],
                     ecrecover: Optional[Ecrecover]) -> Address:
    """Recover the full-node address that signed a response, either wire."""
    return _recover(response.digest(alpha, keccak), response.sig_res,
                    "response", expected, ecrecover)


class _SignedResponse:
    """What both response wires derive from their header and payload."""

    @cached_property
    def proof_index(self) -> ProofIndex:
        """The proof, every node hashed once: ``proof`` itself when the
        response was built or decoded here (it always is an index then),
        else one built on first use.  The signed commitment and every
        Merkle walk read it."""
        return ProofIndex.of(self.proof)

    def payload(self) -> bytes:
        """What travels after the header: results and proof nodes."""
        raise NotImplementedError

    def commitment(self, keccak: Optional[Keccak] = None) -> bytes:
        """``C``, what σ_res signs in the payload's place: built from each
        proof node's hash, not its bytes (layouts in the module docstring).
        What it hashes goes through ``keccak`` when one is given."""
        raise NotImplementedError

    def preimage(self, alpha: bytes, keccak: Optional[Keccak] = None) -> bytes:
        """The exact bytes behind h_res (for metered on-chain recomputation)."""
        return response_preimage(
            alpha, self.status, self.m_b, self.a, self.commitment(keccak),
            self.h_req, self.sig_req,
        )

    def digest(self, alpha: bytes, keccak: Optional[Keccak] = None) -> bytes:
        """Recompute h_res for the given channel id."""
        return (keccak or keccak256)(self.preimage(alpha, keccak))

    def signed(self, key: PrivateKey, alpha: bytes):
        """A copy carrying ``key``'s σ_res over this response's h_res for
        channel ``alpha`` — whatever the fields say, honest or not."""
        return replace(self, sig_res=key.sign(self.digest(alpha)).to_bytes())

    @property
    def wire_overhead(self) -> int:
        """Metadata bytes (187) + Merkle proof bytes, per Table II — for a
        batch, the shared multiproof of the whole batch."""
        proof_bytes = len(rlp.encode(list(self.proof))) if self.proof else 0
        return RESPONSE_OVERHEAD_BYTES + proof_bytes

    # -- fraud blob (on-chain format, α re-attached) ------------------------- #

    def encode_for_fraud(self, alpha: bytes) -> bytes:
        """Serialization submitted to the Fraud Detection Module."""
        if len(alpha) != ALPHA_BYTES:
            raise MessageError(f"channel id must be {ALPHA_BYTES} bytes")
        return alpha + self.encode_wire()

    @classmethod
    def decode_for_fraud(cls, raw: bytes, keccak: Optional[Keccak] = None):
        """``(α, response)`` out of a fraud blob of this wire."""
        if len(raw) < ALPHA_BYTES:
            raise MessageError("fraud blob too short for a channel id")
        return raw[:ALPHA_BYTES], cls.decode_wire(raw[ALPHA_BYTES:], keccak)


# --------------------------------------------------------------------------- #
# Request
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PARPRequest(_SignedRequest):
    """A signed PARP request (Fig. 3, left)."""

    alpha: bytes
    h_b: bytes
    a: int
    call: RpcCall
    h_req: bytes
    sig_a: bytes
    sig_req: bytes

    # -- what the shared server and client pipelines read off the wire type -- #

    noun = "request"
    #: the server method this wire is served by
    endpoint = "serve_request"
    #: the session method that finishes a round on this wire (step (D))
    completion = "process_response"
    #: whether every call is answered from one snapshot — the promise that
    #: makes a wire refuse the methods a ``QuerySpec`` row marks unbatchable
    one_snapshot = False

    @property
    def calls(self) -> tuple[RpcCall, ...]:
        """A single request is a batch of one."""
        return (self.call,)

    @property
    def response_type(self) -> type["PARPResponse"]:
        return PARPResponse

    def price(self, schedule: "FeeSchedule") -> int:
        return schedule.price(self.call)

    def check_version(self) -> None:
        """The single wire carries no version byte: always servable."""

    @classmethod
    def build(cls, alpha: bytes, h_b: bytes, amount: int, call: RpcCall,
              key: PrivateKey) -> "PARPRequest":
        """Construct and sign a request (light-client side, step (A))."""
        h_req = request_digest(alpha, h_b, amount, call.encode())
        return cls(call=call,
                   **_signed_request_fields(key, alpha, h_b, amount, h_req))

    # -- wire ------------------------------------------------------------- #

    def encode_wire(self) -> bytes:
        """226 bytes of PARP metadata followed by the base RPC call γ."""
        return _pack(self, _REQUEST_HEADER) + self.call.encode()

    @classmethod
    def decode_wire(cls, raw: bytes) -> "PARPRequest":
        header, body = _unpack(raw, _REQUEST_HEADER, "request")
        return cls(call=RpcCall.decode(body), **header)

    # -- verification -------------------------------------------------------- #

    def expected_preimage(self) -> bytes:
        """The exact bytes behind h_req."""
        return request_preimage(self.alpha, self.h_b, self.a,
                                self.call.encode())

    def verify(self, expected_sender: Optional[Address] = None,
               keccak: Optional[Keccak] = None,
               ecrecover: Optional[Ecrecover] = None) -> Address:
        """Full-node-side request verification (step (B) in Fig. 5)."""
        return _verify_signed_request(self, expected_sender, keccak, ecrecover)

    @property
    def wire_overhead(self) -> int:
        """PARP metadata bytes added on top of the base RPC call (Table II)."""
        return REQUEST_OVERHEAD_BYTES


# --------------------------------------------------------------------------- #
# Response
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PARPResponse(_SignedResponse):
    """A signed PARP response (Fig. 3, right)."""

    status: int
    m_b: int
    a: int
    result: bytes                 # R(γ): rlp-encoded result payload
    proof: Sequence[bytes]        # π_γ: Merkle proof nodes (may be empty)
    h_req: bytes
    sig_req: bytes                # echo of the request signature
    sig_res: bytes

    @staticmethod
    def _payload(result: bytes, proof: Sequence[bytes]) -> bytes:
        return rlp.encode([result, list(proof)])

    def payload(self) -> bytes:
        return self._payload(self.result, self.proof)

    def commitment(self, keccak: Optional[Keccak] = None) -> bytes:
        return self._payload(self.result, self.proof_index.hashes)

    @classmethod
    def build(cls, alpha: bytes, request: PARPRequest, m_b: int, result: bytes,
              proof: Sequence[bytes], key: PrivateKey,
              status: int = ResponseStatus.OK) -> "PARPResponse":
        """Construct and sign a response (full-node side, step (C))."""
        return cls(result=result, proof=ProofIndex.of(proof),
                   **_response_header(request, status, m_b)).signed(key, alpha)

    @classmethod
    def from_answers(cls, request: PARPRequest, m_b: int,
                     answers: Sequence[tuple[int, bytes, Sequence[bytes]]],
                     key: PrivateKey, status: int) -> "PARPResponse":
        """Sign the one ``(status, result, proof)`` answer of a single
        request; the envelope's status byte *is* the answer's."""
        (status, result, proof), = answers
        return cls.build(request.alpha, request, m_b, result, proof, key,
                         status=status)

    def signer(self, alpha: bytes, expected: Optional[Address] = None,
               keccak: Optional[Keccak] = None,
               ecrecover: Optional[Ecrecover] = None) -> Address:
        """Recover the full-node address that signed this response."""
        return _response_signer(self, alpha, expected, keccak, ecrecover)

    # -- wire ------------------------------------------------------------- #

    def encode_wire(self) -> bytes:
        """187 bytes of metadata followed by rlp([R(γ), π_γ])."""
        return _pack(self, _RESPONSE_HEADER) + self.payload()

    @classmethod
    def decode_wire(cls, raw: bytes,
                    keccak: Optional[Keccak] = None) -> "PARPResponse":
        """``keccak`` hashes the proof nodes, once each: a verifier passes
        the :class:`~repro.trie.proof.HashMemo` it owns, the FDM its metered
        builtin."""
        header, body = _unpack(raw, _RESPONSE_HEADER, "response")
        payload = _decode_payload(body, "response payload")
        if (len(payload) != 2 or not isinstance(payload[0], bytes)
                or not isinstance(payload[1], list)):
            raise MessageError("response payload must be rlp([result, proof])")
        nodes = _byte_strings(payload[1], "proof nodes")
        return cls(result=payload[0], proof=ProofIndex(nodes, keccak),
                   **header)

    # -- a batch of one ----------------------------------------------------- #

    def item_view(self, index: int) -> "PARPResponse":
        """The one item of a single response is the response itself."""
        return self

    def __len__(self) -> int:
        return 1

    def with_result(self, index: int, result: bytes) -> "PARPResponse":
        """A tampered copy (tests and the misbehaving servers)."""
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
        fields, _ = _unpack(raw, _OVERLOAD_REPLY, "overload reply")
        del fields["status"]
        return cls(**fields)

    # -- verification ------------------------------------------------------ #

    def digest(self) -> bytes:
        return overload_digest(self.m_b, self.load_millis,
                               self.retry_after_millis,
                               self.fee_multiplier_millis, self.h_req)

    def signer(self, expected: Optional[Address] = None) -> Address:
        return _recover(self.digest(), self.sig_ovl, "overload", expected)

    def verify(self, expected_signer: Optional[Address] = None,
               expected_h_req: Optional[bytes] = None) -> Address:
        """Client-side checks: the shed is bound to *our* request and signed
        by *our* server — anything else is an invalid response, not a soft
        failure."""
        if expected_h_req is not None and self.h_req != expected_h_req:
            raise MessageError("overload reply answers a different request")
        signer = self.signer(expected_signer)
        if expected_signer is not None and signer != expected_signer:
            raise MessageError(
                "overload reply signed by a key other than the serving node"
            )
        return signer


# --------------------------------------------------------------------------- #
# Batched queries (multiproof extension)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class BatchRequest(_SignedRequest):
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

    # -- what the shared server and client pipelines read off the wire type -- #

    noun = "batch"
    endpoint = "serve_batch"
    completion = "process_batch_response"
    one_snapshot = True

    @property
    def response_type(self) -> type["BatchResponse"]:
        return BatchResponse

    def price(self, schedule: "FeeSchedule") -> int:
        return schedule.batch_price(self.calls)

    def check_version(self) -> None:
        """Refuse a batch whose semantics this node does not implement."""
        if self.version != BATCH_PROTOCOL_VERSION:
            raise MessageError(
                f"unsupported batch protocol version {self.version} "
                f"(this node speaks {BATCH_PROTOCOL_VERSION})"
            )

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
        h_req = batch_request_digest(alpha, h_b, amount, version,
                                     cls._calls_bytes(calls))
        return cls(version=version, calls=tuple(calls),
                   **_signed_request_fields(key, alpha, h_b, amount, h_req))

    # -- wire ------------------------------------------------------------- #

    def encode_wire(self) -> bytes:
        """227 bytes of metadata followed by rlp([γ_1 … γ_N])."""
        return (_pack(self, _BATCH_REQUEST_HEADER)
                + self._calls_bytes(self.calls))

    @classmethod
    def decode_wire(cls, raw: bytes) -> "BatchRequest":
        header, body = _unpack(raw, _BATCH_REQUEST_HEADER, "batch request")
        item = _decode_payload(body, "batch call list")
        if not item:
            raise MessageError("batch call list must be a non-empty rlp list")
        encoded = _byte_strings(item, "batch calls")
        return cls(calls=tuple(RpcCall.decode(call) for call in encoded),
                   **header)

    # -- verification ------------------------------------------------------ #

    def expected_preimage(self) -> bytes:
        return request_preimage(
            self.alpha, self.h_b, self.a,
            _versioned(self.version, self._calls_bytes(self.calls)))

    def verify(self, expected_sender: Optional[Address] = None,
               keccak: Optional[Keccak] = None,
               ecrecover: Optional[Ecrecover] = None) -> Address:
        """Full-node-side batch verification (step (B), once for N calls)."""
        return _verify_signed_request(self, expected_sender, keccak, ecrecover)

    @property
    def wire_overhead(self) -> int:
        return BATCH_REQUEST_OVERHEAD_BYTES

    def __repr__(self) -> str:
        return f"BatchRequest(v{self.version}, {len(self.calls)} calls)"


@dataclass(frozen=True)
class BatchResponse(_SignedResponse):
    """The signed answer to a :class:`BatchRequest`.

    Carries one status byte and one result payload per call, plus a single
    *shared* proof-node pool: the deduplicated union of every per-call Merkle
    proof (state, storage, transaction, and receipt trie nodes all resolve
    by keccak hash from the same pool).  Travels as ``payload =
    rlp([statuses, [R_1 …], [node_1 …]])`` and is signed like a single
    response, over the Merkle root of its items and its nodes' hashes.
    """

    status: int                   # whole-batch status
    m_b: int
    a: int
    statuses: tuple[int, ...]     # per-call statuses
    results: tuple[bytes, ...]    # per-call R(γ_i)
    proof: Sequence[bytes]        # shared multiproof node pool
    h_req: bytes
    sig_req: bytes
    sig_res: bytes

    def payload(self) -> bytes:
        return rlp.encode([bytes(self.statuses), list(self.results),
                           list(self.proof)])

    def commitment(self, keccak: Optional[Keccak] = None) -> bytes:
        """The Merkle root the module docstring defines, a level per call
        (message by message through ``keccak`` when one is given)."""
        many = (keccak256_many if keccak is None
                else lambda messages: list(map(keccak, messages)))
        hashes = self.proof_index.hashes
        items = zip(self.statuses, self.results)
        level = many([bytes((0, s)) + r for s, r in items])
        level += hashes
        while len(level) > 4:
            level = many([b"\x01" + b"".join(level[at:at + 4])
                          for at in range(0, len(level), 4)])
        return (keccak or keccak256)(
            b"\x02" + _encode_uint(len(self.results), 2, "batch size")
            + _encode_uint(len(hashes), 2, "proof pool size") + b"".join(level))

    @classmethod
    def build(cls, alpha: bytes, request: BatchRequest, m_b: int,
              statuses: Sequence[int], results: Sequence[bytes],
              proof: Sequence[bytes], key: PrivateKey,
              status: int = ResponseStatus.OK) -> "BatchResponse":
        """Construct and sign a batch response (full-node side)."""
        if len(statuses) != len(results):
            raise MessageError("per-call statuses and results disagree in length")
        return cls(statuses=tuple(statuses), results=tuple(results),
                   proof=ProofIndex.of(proof),
                   **_response_header(request, status, m_b)).signed(key, alpha)

    @classmethod
    def from_answers(cls, request: BatchRequest, m_b: int,
                     answers: Sequence[tuple[int, bytes, Sequence[bytes]]],
                     key: PrivateKey, status: int) -> "BatchResponse":
        """Sign the per-call ``(status, result, proof)`` answers of a batch
        under the whole-batch ``status``, their proofs merged into one pool
        that holds each node once, in first-use order: the multiproof."""
        statuses, results, proofs = zip(*answers)
        return cls.build(request.alpha, request, m_b, statuses, results,
                         ProofIndex.merge(proofs), key, status=status)

    def signer(self, alpha: bytes, expected: Optional[Address] = None,
               keccak: Optional[Keccak] = None,
               ecrecover: Optional[Ecrecover] = None) -> Address:
        """Recover the full-node address that signed this batch response."""
        return _response_signer(self, alpha, expected, keccak, ecrecover)

    # -- per-item view ------------------------------------------------------ #

    def item_view(self, index: int) -> PARPResponse:
        """Item ``index`` shaped as a single response over the shared pool.

        This is what lets the client and the on-chain FDM (which judges the
        one item a fraud package names) reuse the per-method verifiers of
        :mod:`repro.parp.queries` unchanged: each item verifies against the
        same deduplicated node pool that authenticated every other item —
        handed over as the one :attr:`proof_index`, so N items cost one hash
        per pool node, not N.
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
        return _pack(self, _RESPONSE_HEADER) + self.payload()

    @classmethod
    def decode_wire(cls, raw: bytes,
                    keccak: Optional[Keccak] = None) -> "BatchResponse":
        """``keccak`` as for :meth:`PARPResponse.decode_wire`."""
        header, body = _unpack(raw, _RESPONSE_HEADER, "batch response")
        payload = _decode_payload(body, "batch payload")
        if (len(payload) != 3 or not isinstance(payload[0], bytes)
                or not isinstance(payload[1], list)
                or not isinstance(payload[2], list)):
            raise MessageError(
                "batch payload must be rlp([statuses, results, proof])"
            )
        if len(payload[0]) != len(payload[1]):
            raise MessageError("per-call statuses and results disagree in length")
        nodes = _byte_strings(payload[2], "proof nodes")
        return cls(statuses=tuple(payload[0]),
                   results=_byte_strings(payload[1], "batch results"),
                   proof=ProofIndex(nodes, keccak), **header)

    def with_result(self, index: int, result: bytes) -> "BatchResponse":
        """A tampered copy (tests and the malicious-node examples)."""
        results = list(self.results)
        results[index] = result
        return replace(self, results=tuple(results))
