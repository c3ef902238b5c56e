"""Typed serializers ("sedes") on top of raw RLP.

Chain objects (transactions, headers, accounts, receipts) are fixed-shape
lists of typed fields.  A sedes pairs a Python value with its RLP byte form
and validates on decode, so malformed on-chain data is rejected at the
boundary instead of surfacing as deep type errors.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Sequence, TypeVar

from .codec import Item, RLPError, decode, decode_int, encode, encode_int

__all__ = [
    "Sedes",
    "big_endian_int",
    "binary",
    "Binary",
    "address_bytes",
    "hash32",
    "CountableList",
    "ListSedes",
    "serialize",
    "deserialize",
]

T = TypeVar("T")


class Sedes(Generic[T]):
    """Bidirectional converter between Python values and RLP items."""

    def serialize(self, value: T) -> Item:
        raise NotImplementedError

    def deserialize(self, item: Item) -> T:
        raise NotImplementedError


class BigEndianInt(Sedes[int]):
    """Non-negative integer with optional byte-width bound."""

    def __init__(self, max_bytes: int | None = None) -> None:
        self._max_bytes = max_bytes

    def serialize(self, value: int) -> Item:
        if not isinstance(value, int) or isinstance(value, bool):
            raise RLPError(f"expected int, got {type(value).__name__}")
        raw = encode_int(value)
        if self._max_bytes is not None and len(raw) > self._max_bytes:
            raise RLPError(f"integer {value} exceeds {self._max_bytes} bytes")
        return raw

    def deserialize(self, item: Item) -> int:
        if not isinstance(item, bytes):
            raise RLPError("expected RLP string for integer field")
        if self._max_bytes is not None and len(item) > self._max_bytes:
            raise RLPError(f"integer field exceeds {self._max_bytes} bytes")
        return decode_int(item)


class Binary(Sedes[bytes]):
    """Byte string with optional exact length."""

    def __init__(self, exact: int | None = None) -> None:
        self._exact = exact

    def serialize(self, value: bytes) -> Item:
        if not isinstance(value, (bytes, bytearray)):
            raise RLPError(f"expected bytes, got {type(value).__name__}")
        value = bytes(value)
        self._check(value)
        return value

    def deserialize(self, item: Item) -> bytes:
        if not isinstance(item, bytes):
            raise RLPError("expected RLP string for binary field")
        self._check(item)
        return item

    def _check(self, value: bytes) -> None:
        if self._exact is not None and len(value) != self._exact:
            raise RLPError(f"expected exactly {self._exact} bytes, got {len(value)}")


class CountableList(Sedes[list]):
    """Homogeneous variable-length list of a given element sedes."""

    def __init__(self, element: Sedes) -> None:
        self._element = element

    def serialize(self, value: Sequence) -> Item:
        return [self._element.serialize(v) for v in value]

    def deserialize(self, item: Item) -> list:
        if not isinstance(item, list):
            raise RLPError("expected RLP list")
        return [self._element.deserialize(v) for v in item]


class ListSedes(Sedes[tuple]):
    """Fixed-shape heterogeneous list (a struct)."""

    def __init__(self, *fields: Sedes) -> None:
        self._fields = fields

    def serialize(self, value: Sequence) -> Item:
        if len(value) != len(self._fields):
            raise RLPError(
                f"expected {len(self._fields)} fields, got {len(value)}"
            )
        return [f.serialize(v) for f, v in zip(self._fields, value)]

    def deserialize(self, item: Item) -> tuple:
        if not isinstance(item, list):
            raise RLPError("expected RLP list")
        if len(item) != len(self._fields):
            raise RLPError(
                f"expected {len(self._fields)} fields, got {len(item)}"
            )
        return tuple(f.deserialize(v) for f, v in zip(self._fields, item))


big_endian_int = BigEndianInt()
binary = Binary()
address_bytes = Binary(exact=20)
hash32 = Binary(exact=32)


def serialize(sedes: Sedes[T], value: T) -> bytes:
    """Encode ``value`` through ``sedes`` straight to RLP bytes."""
    return encode(sedes.serialize(value))


def deserialize(sedes: Sedes[T], data: bytes) -> T:
    """Decode RLP bytes through ``sedes`` back to a Python value."""
    return sedes.deserialize(decode(data))
