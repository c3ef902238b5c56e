"""Calldata encoding for native contracts.

A call is ``selector(4 bytes) ‖ rlp([arg, …])`` where the selector is the
first four bytes of ``keccak256(method_name)``.  RLP (instead of the EVM's
32-byte-slot ABI) keeps calldata compact and uniformly meterable; the gas
model charges per byte either way, which matters when comparing Table IV's
calldata costs with the paper's.

Supported argument types: ``int`` (non-negative), ``bytes``, ``bool``,
:class:`~repro.crypto.keys.Address`, and (nested) lists thereof.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..crypto import keccak256
from ..crypto.keys import Address
from ..rlp import codec as rlp

__all__ = [
    "ABIError",
    "selector",
    "encode_call",
    "decode_call",
    "encode_args",
    "as_int",
    "as_bytes",
    "as_bool",
    "as_address",
    "as_list",
]


class ABIError(ValueError):
    """Raised on malformed calldata or argument type mismatches."""


def selector(method_name: str) -> bytes:
    """First 4 bytes of keccak256 of the bare method name."""
    return keccak256(method_name.encode("ascii"))[:4]


def _to_item(value: Any) -> rlp.Item:
    if isinstance(value, bool):  # before int: bool is an int subclass
        return rlp.encode_int(int(value))
    if isinstance(value, int):
        if value < 0:
            raise ABIError("negative integers are not ABI-encodable")
        return rlp.encode_int(value)
    if isinstance(value, Address):
        return value.to_bytes()
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, (list, tuple)):
        return [_to_item(v) for v in value]
    raise ABIError(f"cannot ABI-encode {type(value).__name__}")


def encode_args(args: Sequence[Any]) -> bytes:
    """RLP-encode an argument list (without a selector)."""
    return rlp.encode([_to_item(a) for a in args])


def encode_call(method_name: str, args: Sequence[Any] = ()) -> bytes:
    """Build calldata for ``method_name(*args)``."""
    return selector(method_name) + encode_args(args)


def decode_call(data: bytes) -> tuple[bytes, list[rlp.Item]]:
    """Split calldata into (selector, raw argument items)."""
    if len(data) < 4:
        raise ABIError(f"calldata too short for a selector ({len(data)} bytes)")
    sel, payload = data[:4], data[4:]
    if not payload:
        return sel, []
    try:
        items = rlp.decode(payload)
    except rlp.RLPError as exc:
        raise ABIError(f"undecodable calldata arguments: {exc}") from exc
    if not isinstance(items, list):
        raise ABIError("calldata arguments must be an RLP list")
    return sel, items


# -- typed accessors used inside contract methods -------------------------- #

def as_int(item: rlp.Item) -> int:
    if not isinstance(item, bytes):
        raise ABIError("expected integer argument")
    try:
        return rlp.decode_int(item)
    except rlp.RLPError as exc:
        raise ABIError(str(exc)) from exc


def as_bytes(item: rlp.Item, exact: int | None = None) -> bytes:
    if not isinstance(item, bytes):
        raise ABIError("expected bytes argument")
    if exact is not None and len(item) != exact:
        raise ABIError(f"expected {exact}-byte argument, got {len(item)}")
    return item


def as_bool(item: rlp.Item) -> bool:
    value = as_int(item)
    if value not in (0, 1):
        raise ABIError("expected boolean argument")
    return bool(value)


def as_address(item: rlp.Item) -> Address:
    return Address(as_bytes(item, exact=20))


def as_list(item: rlp.Item) -> list[rlp.Item]:
    if not isinstance(item, list):
        raise ABIError("expected list argument")
    return item
