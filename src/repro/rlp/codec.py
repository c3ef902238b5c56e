"""Recursive Length Prefix (RLP) encoding — Ethereum's canonical serialization.

RLP serializes nested structures of byte strings.  It is the encoding used for
transactions, block headers, account records, and — crucially for PARP — the
nodes of Merkle Patricia Tries, whose hashes are ``keccak256(rlp(node))``.
Merkle proof sizes in Figure 6 of the paper are therefore RLP byte counts.

The value domain is ``Item = bytes | list[Item]``.  Integers are encoded via
:func:`encode_int` (big-endian, no leading zeros, ``0 -> b""``), matching the
Ethereum convention.
"""

from __future__ import annotations

from typing import Sequence, Union

__all__ = [
    "Item",
    "RLPError",
    "encode",
    "decode",
    "encode_int",
    "decode_int",
    "encoded_length",
]

Item = Union[bytes, Sequence["Item"]]


class RLPError(ValueError):
    """Raised on malformed RLP input."""


def encode_int(value: int) -> bytes:
    """Encode a non-negative integer as a minimal big-endian byte string."""
    if value < 0:
        raise RLPError(f"cannot RLP-encode negative integer {value}")
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def decode_int(data: bytes) -> int:
    """Decode a minimal big-endian byte string into an integer.

    A decoded item that is a list, empty or not, is no integer: it raises
    ``RLPError`` rather than reading as 0 (a second encoding of the same
    value) or escaping as ``TypeError``."""
    if not isinstance(data, bytes):
        raise RLPError("integer encoding must be a byte string")
    if data and data[0] == 0:
        raise RLPError("integer encoding has leading zero byte")
    return int.from_bytes(data, "big")


def _encode_length(length: int, offset: int) -> bytes:
    if length < 56:
        return bytes([offset + length])
    length_bytes = encode_int(length)
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


_STRINGS = (bytes, bytearray, memoryview)

#: a one-byte string's encoding, by its byte: itself below 0x80
_ONE_BYTE = tuple(bytes([b]) if b < 0x80 else bytes([0x81, b])
                  for b in range(256))
#: the prefix of a string and of a list payload of fewer than 256 bytes (a
#: trie node's, an account's), by its length
_STRING_PREFIX = tuple(_encode_length(n, 0x80) for n in range(256))
_LIST_PREFIX = tuple(_encode_length(n, 0xC0) for n in range(256))


def encode(item: Item) -> bytes:
    """RLP-encode ``item`` (bytes or arbitrarily nested lists of bytes).

    A list's byte strings are encoded in its own loop, prefixes read from
    tables; only a nested list recurses."""
    if isinstance(item, (list, tuple)):
        parts = [b""]   # the list's own prefix goes first
        size = 0
        for element in item:
            if type(element) is not bytes:
                if not isinstance(element, _STRINGS):
                    parts.append(encoded := encode(element))
                    size += len(encoded)
                    continue
                element = bytes(element)
            length = len(element)
            if length == 1:
                parts.append(encoded := _ONE_BYTE[element[0]])
                size += len(encoded)
            elif length < 56:
                parts += (_STRING_PREFIX[length], element)
                size += 1 + length
            else:
                prefix = (_STRING_PREFIX[length] if length < 256
                          else _encode_length(length, 0x80))
                parts += (prefix, element)
                size += len(prefix) + length
        parts[0] = (_LIST_PREFIX[size] if size < 256
                    else _encode_length(size, 0xC0))
        return b"".join(parts)
    if isinstance(item, _STRINGS):
        payload = bytes(item)
        length = len(payload)
        if length == 1:
            return _ONE_BYTE[payload[0]]
        return (_STRING_PREFIX[length] if length < 256
                else _encode_length(length, 0x80)) + payload
    if isinstance(item, int):
        raise RLPError(
            "ints are not directly RLP-encodable; use encode_int() first "
            f"(got {item!r})"
        )
    raise RLPError(f"cannot RLP-encode object of type {type(item).__name__}")


def encoded_length(item: Item) -> int:
    """Return ``len(encode(item))`` without materializing the full encoding."""
    return len(encode(item))


def decode(data: bytes) -> Item:
    """Decode a complete RLP blob; raises :class:`RLPError` on trailing bytes."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise RLPError(f"RLP input must be bytes, got {type(data).__name__}")
    data = bytes(data)
    item, consumed = _decode_at(data, 0)
    if consumed != len(data):
        raise RLPError(f"trailing bytes after RLP item ({len(data) - consumed} left)")
    return item


def _decode_at(data: bytes, pos: int) -> tuple[Item, int]:
    if pos >= len(data):
        raise RLPError("unexpected end of RLP input")
    prefix = data[pos]
    if prefix < 0x80:  # single byte, itself
        return bytes([prefix]), pos + 1
    if prefix <= 0xB7:  # short string
        length = prefix - 0x80
        end = pos + 1 + length
        if end > len(data):
            raise RLPError("RLP string extends past end of input")
        payload = data[pos + 1:end]
        if length == 1 and payload[0] < 0x80:
            raise RLPError("non-canonical single-byte string encoding")
        return payload, end
    if prefix <= 0xBF:  # long string
        len_of_len = prefix - 0xB7
        length, start = _read_length(data, pos, len_of_len, minimum=56)
        end = start + length
        if end > len(data):
            raise RLPError("RLP string extends past end of input")
        return data[start:end], end
    if prefix <= 0xF7:  # short list
        length = prefix - 0xC0
        return _decode_list_payload(data, pos + 1, length)
    # long list
    len_of_len = prefix - 0xF7
    length, start = _read_length(data, pos, len_of_len, minimum=56)
    return _decode_list_payload(data, start, length)


def _read_length(data: bytes, pos: int, len_of_len: int, minimum: int) -> tuple[int, int]:
    start = pos + 1 + len_of_len
    if start > len(data):
        raise RLPError("RLP length field extends past end of input")
    length_bytes = data[pos + 1:start]
    if length_bytes[0] == 0:
        raise RLPError("RLP length field has leading zero")
    length = int.from_bytes(length_bytes, "big")
    if length < minimum:
        raise RLPError("non-canonical RLP long-form length")
    return length, start


def _decode_list_payload(data: bytes, start: int, length: int) -> tuple[list[Item], int]:
    end = start + length
    if end > len(data):
        raise RLPError("RLP list extends past end of input")
    items: list[Item] = []
    pos = start
    while pos < end:
        item, pos = _decode_at(data, pos)
        if pos > end:
            raise RLPError("RLP list element extends past list payload")
        items.append(item)
    return items, end
