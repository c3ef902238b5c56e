"""RLP (Recursive Length Prefix) serialization substrate."""

from .codec import Item, RLPError, decode, decode_int, encode, encode_int, encoded_length

__all__ = [
    "Item",
    "RLPError",
    "encode",
    "decode",
    "encode_int",
    "decode_int",
    "encoded_length",
]
