"""Nibble paths and hex-prefix (HP) encoding for Merkle Patricia Tries.

Trie keys are sequences of nibbles (4-bit values).  Leaf and extension nodes
store a *compact* encoding of their nibble path that packs two nibbles per
byte and uses the first nibble as a flag carrying (a) whether the node is a
leaf and (b) whether the path length is odd — this is Ethereum's "hex prefix"
encoding from the Yellow Paper, Appendix C.
"""

from __future__ import annotations

__all__ = [
    "bytes_to_nibbles",
    "nibbles_to_bytes",
    "hp_encode",
    "hp_decode",
    "common_prefix_length",
]

Nibbles = tuple[int, ...]


#: a hex digit's ASCII code to the nibble it spells
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def bytes_to_nibbles(data: bytes) -> Nibbles:
    """Expand a byte string into its nibble sequence (big-endian per byte),
    in one C-level pass: hex digits, read back as their values."""
    return tuple(data.hex().encode().translate(_HEX_DIGITS))


#: a nibble's value to the ASCII hex digit that spells it
_NIBBLE_DIGITS = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")


def nibbles_to_bytes(nibbles: Nibbles) -> bytes:
    """Pack an even-length nibble sequence back into bytes, in C-level
    passes: the nibbles as hex digits, read back by ``bytes.fromhex``."""
    if len(nibbles) % 2:
        raise ValueError("cannot pack an odd number of nibbles into bytes")
    return bytes.fromhex(bytes(nibbles).translate(_NIBBLE_DIGITS).decode())


#: the flag nibble's hex digit, by flag (2 for a leaf, plus 1 for an odd
#: path), and an even path's zero padding nibble after it
_HP_PREFIX = ("00", "1", "20", "3")


def hp_encode(nibbles: Nibbles, is_leaf: bool) -> bytes:
    """Hex-prefix encode a nibble path with the leaf/extension flag: an odd
    path's first nibble shares the flag's byte, an even one's is padded."""
    flag = (2 if is_leaf else 0) + len(nibbles) % 2
    return bytes.fromhex(_HP_PREFIX[flag]
                         + bytes(nibbles).translate(_NIBBLE_DIGITS).decode())


def hp_decode(data: bytes) -> tuple[Nibbles, bool]:
    """Decode a hex-prefix path; returns (nibbles, is_leaf)."""
    if not data:
        raise ValueError("empty hex-prefix encoding")
    nibbles = bytes_to_nibbles(data)
    flag = nibbles[0]
    if flag > 3:
        raise ValueError(f"invalid hex-prefix flag nibble {flag}")
    is_leaf = flag >= 2
    if flag % 2:  # odd path length
        return nibbles[1:], is_leaf
    if nibbles[1] != 0:
        raise ValueError("hex-prefix padding nibble must be zero")
    return nibbles[2:], is_leaf


def common_prefix_length(a: Nibbles, b: Nibbles) -> int:
    """Length of the shared prefix of two nibble paths."""
    count = 0
    for x, y in zip(a, b):
        if x != y:
            break
        count += 1
    return count
