"""Reference RLP and hex-prefix encoders: the oracles of the fast codecs.

``repro.rlp.codec.encode`` encodes a list's byte strings in its own loop
with table prefixes, and ``repro.trie.nibbles`` packs nibbles through
``bytes.fromhex``.  The functions below are what they replaced, token for
token: one recursive ``encode`` call through a generator per item, and a
generator that shifts each nibble pair into a byte.
``tests/property/test_prop_codec_oracles.py`` checks old against new.
Move, do not tidy: the point is that nothing here was rewritten.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.rlp.codec import RLPError

__all__ = ["encode", "nibbles_to_bytes", "hp_encode"]

Item = Union[bytes, Sequence["Item"]]
Nibbles = tuple[int, ...]


def encode_int(value: int) -> bytes:
    """Encode a non-negative integer as a minimal big-endian byte string."""
    if value < 0:
        raise RLPError(f"cannot RLP-encode negative integer {value}")
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def _encode_length(length: int, offset: int) -> bytes:
    if length < 56:
        return bytes([offset + length])
    length_bytes = encode_int(length)
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


def encode(item: Item) -> bytes:
    """RLP-encode ``item`` (bytes or arbitrarily nested lists of bytes)."""
    if isinstance(item, (bytes, bytearray, memoryview)):
        payload = bytes(item)
        if len(payload) == 1 and payload[0] < 0x80:
            return payload
        return _encode_length(len(payload), 0x80) + payload
    if isinstance(item, (list, tuple)):
        body = b"".join(encode(element) for element in item)
        return _encode_length(len(body), 0xC0) + body
    if isinstance(item, int):
        raise RLPError(
            "ints are not directly RLP-encodable; use encode_int() first "
            f"(got {item!r})"
        )
    raise RLPError(f"cannot RLP-encode object of type {type(item).__name__}")


def nibbles_to_bytes(nibbles: Nibbles) -> bytes:
    """Pack an even-length nibble sequence back into bytes."""
    if len(nibbles) % 2:
        raise ValueError("cannot pack an odd number of nibbles into bytes")
    return bytes(
        (nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2)
    )


def hp_encode(nibbles: Nibbles, is_leaf: bool) -> bytes:
    """Hex-prefix encode a nibble path with the leaf/extension flag."""
    flag = 2 if is_leaf else 0
    if len(nibbles) % 2:  # odd: flag nibble + first path nibble share a byte
        prefixed = (flag + 1, nibbles[0]) + tuple(nibbles[1:])
    else:
        prefixed = (flag, 0) + tuple(nibbles)
    return nibbles_to_bytes(prefixed)
