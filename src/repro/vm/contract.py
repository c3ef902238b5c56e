"""Base class and helpers for native contracts.

A native contract is a Python class whose ``@contract_method``-decorated
methods are callable via calldata (selector + RLP args).  Dispatch, payable
checks, and storage-slot layout helpers live here; the PARP modules in
:mod:`repro.contracts` build on this.
"""

from __future__ import annotations

from typing import Any, Callable

from ..crypto import keccak256
from ..crypto.keys import Address
from . import abi
from .runtime import CallContext, Revert

__all__ = ["NativeContract", "contract_method", "mapping_slot"]


def contract_method(payable: bool = False, view: bool = False) -> Callable:
    """Mark a method as externally callable.

    ``payable=False`` methods revert when sent value, like Solidity.
    ``view=True`` is advisory (used by the RPC layer for eth_call routing).
    """

    def decorate(fn: Callable) -> Callable:
        fn._contract_method = True  # type: ignore[attr-defined]
        fn._payable = payable       # type: ignore[attr-defined]
        fn._view = view             # type: ignore[attr-defined]
        return fn

    return decorate


def mapping_slot(base: int, key: bytes) -> bytes:
    """Storage slot for ``mapping`` entries: keccak256(key ‖ base)."""
    return keccak256(key + base.to_bytes(32, "big"))


class NativeContract:
    """Deployed native contract bound to a fixed address."""

    #: human-readable name (shows up in reprs and gas reports)
    name: str = "NativeContract"

    def __init__(self, address: Address) -> None:
        self.address = address
        self._methods: dict[bytes, Callable] = {}
        for attr in dir(type(self)):
            fn = getattr(type(self), attr)
            if callable(fn) and getattr(fn, "_contract_method", False):
                self._methods[abi.selector(attr)] = getattr(self, attr)

    def dispatch(self, ctx: CallContext) -> Any:
        """Route calldata to the matching method.

        Calldata is the sender's to choose: a call too short for a selector,
        undecodable arguments and a missing or mistyped argument all revert,
        so the transaction is mined and pays for the gas it used.
        """
        try:
            sel, args = abi.decode_call(ctx.calldata)
        except abi.ABIError as exc:
            raise Revert(f"{self.name}: {exc}") from exc
        method = self._methods.get(sel)
        if method is None:
            raise Revert(f"{self.name}: unknown method selector {sel.hex()}")
        if ctx.value and not getattr(method.__func__, "_payable", False):
            raise Revert(f"{self.name}: method is not payable")
        try:
            return method(ctx, args)
        except (abi.ABIError, IndexError) as exc:
            raise Revert(f"{self.name}.{method.__name__}: malformed "
                         f"arguments: {exc}") from exc

    def __repr__(self) -> str:
        return f"{self.name}(address={self.address.hex()})"
