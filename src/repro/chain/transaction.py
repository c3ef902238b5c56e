"""Signed transactions (legacy Ethereum format, pre-typed-envelope).

A transaction is ``(nonce, gas_price, gas_limit, to, value, data)`` plus a
65-byte recoverable signature.  The write workload of the paper (§VI-A)
consists of exactly these objects, and Figure 6's Merkle proofs are proofs of
a transaction's inclusion in a block's transaction trie, keyed by
``rlp(index)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..crypto import Signature, keccak256, recover_address
from ..crypto.keccak import keccak256_many
from ..crypto.keys import Address, PrivateKey
from ..rlp import codec as rlp

__all__ = ["Transaction", "UnsignedTransaction", "TransactionError"]


class TransactionError(ValueError):
    """Raised for malformed or incorrectly signed transactions."""


@dataclass(frozen=True)
class UnsignedTransaction:
    """Transaction payload before signing."""

    nonce: int
    gas_price: int
    gas_limit: int
    to: Address
    value: int
    data: bytes = b""

    def _payload_items(self) -> list[rlp.Item]:
        return [
            rlp.encode_int(self.nonce),
            rlp.encode_int(self.gas_price),
            rlp.encode_int(self.gas_limit),
            self.to.to_bytes(),
            rlp.encode_int(self.value),
            self.data,
        ]

    @property
    def signing_hash(self) -> bytes:
        """keccak256 of the RLP payload; what the sender actually signs."""
        return keccak256(rlp.encode(self._payload_items()))

    def sign(self, key: PrivateKey) -> "Transaction":
        signature = key.sign(self.signing_hash)
        return Transaction(
            nonce=self.nonce,
            gas_price=self.gas_price,
            gas_limit=self.gas_limit,
            to=self.to,
            value=self.value,
            data=self.data,
            signature=signature,
        )


@dataclass(frozen=True)
class Transaction:
    """A fully signed transaction."""

    nonce: int
    gas_price: int
    gas_limit: int
    to: Address
    value: int
    data: bytes
    signature: Signature

    @property
    def unsigned(self) -> UnsignedTransaction:
        return UnsignedTransaction(
            nonce=self.nonce,
            gas_price=self.gas_price,
            gas_limit=self.gas_limit,
            to=self.to,
            value=self.value,
            data=self.data,
        )

    @cached_property
    def _digests(self) -> list[bytes]:
        """The signing hash and the tx hash, side by side in one pass."""
        return keccak256_many([rlp.encode(self.unsigned._payload_items()),
                               self.encode()])

    @cached_property
    def sender(self) -> Address:
        """Recover the sender address from the signature (cached).  Hint-less
        by design: the sender is whoever the signature names, there is no
        held address to expect.  The signing hash it recovers over is
        hashed beside :attr:`hash`, whichever of the two is read first."""
        try:
            return recover_address(self._digests[0], self.signature)
        except Exception as exc:
            raise TransactionError(f"cannot recover transaction sender: {exc}") from exc

    @property
    def hash(self) -> bytes:
        """keccak256 of the full signed encoding — the canonical tx hash,
        hashed beside the signing hash :attr:`sender` recovers over."""
        return self._digests[1]

    def encode(self) -> bytes:
        """RLP encoding (payload fields + v, r, s), as stored in the tx trie."""
        sig = self.signature
        items = self.unsigned._payload_items() + [
            rlp.encode_int(sig.v),
            rlp.encode_int(sig.r),
            rlp.encode_int(sig.s),
        ]
        return rlp.encode(items)

    @classmethod
    def decode(cls, raw: bytes) -> "Transaction":
        """Parse a signed encoding; anything malformed, a non-canonical
        integer included, is a :class:`TransactionError`."""
        try:
            item = rlp.decode(raw)
        except rlp.RLPError as exc:
            raise TransactionError(f"undecodable transaction: {exc}") from exc
        if not isinstance(item, list) or len(item) != 9 or not all(
                isinstance(field, bytes) for field in item):
            raise TransactionError("transaction must be a 9-string RLP list")
        (nonce_b, gas_price_b, gas_limit_b, to_b, value_b, data,
         v_b, r_b, s_b) = item
        if len(to_b) != 20:
            raise TransactionError("transaction 'to' must be a 20-byte address")
        try:
            nonce, gas_price, gas_limit, value, v, r, s = map(
                rlp.decode_int,
                (nonce_b, gas_price_b, gas_limit_b, value_b, v_b, r_b, s_b))
        except rlp.RLPError as exc:
            raise TransactionError(f"bad transaction integer: {exc}") from exc
        return cls(nonce=nonce, gas_price=gas_price, gas_limit=gas_limit,
                   to=Address(to_b), value=value, data=data,
                   signature=Signature(r=r, s=s, v=v))

    def intrinsic_gas(self) -> int:
        """Base cost charged before any execution (21000 + calldata bytes)."""
        from ..vm.gas import calldata_gas, TX_BASE_GAS

        return TX_BASE_GAS + calldata_gas(self.data)

    def __repr__(self) -> str:
        return (
            f"Transaction(hash={self.hash.hex()[:10]}…, nonce={self.nonce}, "
            f"to={self.to.hex()}, value={self.value})"
        )
