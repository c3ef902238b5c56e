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
