"""The plain JSON-RPC baseline PARP is measured against (Table II, Fig. 7).

This is the permissionless-but-unaccountable endpoint of the paper's §II-D:
anyone may call it, nothing is signed, paid or provable.  Both artefacts
that use it measure one call, so it serves one: ``eth_getBalance`` at a
block tag.  Table II sizes the ``eth_getBalance`` and
``eth_sendRawTransaction`` requests through :meth:`RpcClient.request_size`
(a 118-byte balance query, a 422-byte raw-transaction submission); Fig. 7
polls balances through :class:`RpcServer`.  Input from outside still gets
the JSON-RPC 2.0 error objects: parse error, invalid request, unknown
method and bad params.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Optional, Union

from repro.chain.chain import ChainError
from repro.crypto.keys import Address
from repro.node.fullnode import FullNode

__all__ = [
    "JsonRpcError",
    "RpcRequest",
    "RpcServer",
    "RpcClient",
    "encode_request",
    "decode_request",
    "to_quantity",
    "from_quantity",
    "from_hex_data",
]

# Standard JSON-RPC 2.0 error codes.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
SERVER_ERROR = -32000


class JsonRpcError(Exception):
    """An error that maps to a JSON-RPC error object."""

    def __init__(self, code: int, message: str,
                 data: Optional[Any] = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.data = data

    def to_object(self) -> dict:
        obj: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.data is not None:
            obj["data"] = self.data
        return obj


@dataclass(frozen=True)
class RpcRequest:
    """A JSON-RPC 2.0 request."""

    method: str
    params: tuple = ()
    id: Union[int, str, None] = 1


def _dumps(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def encode_request(request: RpcRequest) -> bytes:
    return _dumps({"jsonrpc": "2.0", "id": request.id,
                   "method": request.method, "params": list(request.params)})


def decode_request(raw: bytes) -> RpcRequest:
    try:
        obj = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise JsonRpcError(PARSE_ERROR, f"parse error: {exc}") from exc
    if not isinstance(obj, dict):
        raise JsonRpcError(INVALID_REQUEST, "request must be an object")
    if obj.get("jsonrpc") != "2.0":
        raise JsonRpcError(INVALID_REQUEST, "missing jsonrpc version")
    method = obj.get("method")
    if not isinstance(method, str):
        raise JsonRpcError(INVALID_REQUEST, "method must be a string")
    params = obj.get("params", [])
    if not isinstance(params, list):
        raise JsonRpcError(INVALID_REQUEST, "params must be an array")
    return RpcRequest(method=method, params=tuple(params), id=obj.get("id"))


def to_quantity(value: int) -> str:
    """Ethereum QUANTITY encoding: minimal hex with 0x prefix."""
    if value < 0:
        raise ValueError("quantities are non-negative")
    return hex(value)


def from_quantity(text: str) -> int:
    if not isinstance(text, str) or not text.startswith("0x"):
        raise JsonRpcError(INVALID_PARAMS, f"not a hex quantity: {text!r}")
    try:
        return int(text, 16)
    except ValueError as exc:
        raise JsonRpcError(INVALID_PARAMS, f"bad hex quantity: {text!r}") from exc


def from_hex_data(text: str) -> bytes:
    if not isinstance(text, str) or not text.startswith("0x"):
        raise JsonRpcError(INVALID_PARAMS, f"not hex data: {text!r}")
    try:
        return bytes.fromhex(text[2:])
    except ValueError as exc:
        raise JsonRpcError(INVALID_PARAMS, f"bad hex data: {text!r}") from exc


class RpcServer:
    """Answers raw JSON-RPC requests against a full node: bytes in, bytes out."""

    def __init__(self, node: FullNode) -> None:
        self.node = node

    def handle_raw(self, raw: bytes) -> bytes:
        request_id = None
        try:
            request = decode_request(raw)
            request_id = request.id
            body = {"result": self._dispatch(request)}
        except JsonRpcError as exc:
            body = {"error": exc.to_object()}
        return _dumps({"jsonrpc": "2.0", "id": request_id, **body})

    def _dispatch(self, request: RpcRequest) -> Any:
        if request.method != "eth_getBalance":
            raise JsonRpcError(METHOD_NOT_FOUND,
                               f"the method {request.method} does not exist")
        try:
            return self.get_balance(*request.params)
        except TypeError as exc:
            raise JsonRpcError(INVALID_PARAMS, str(exc)) from exc
        except ChainError as exc:
            raise JsonRpcError(SERVER_ERROR, str(exc)) from exc

    def get_balance(self, address_hex: str, tag: str = "latest") -> str:
        address = from_hex_data(address_hex)
        if len(address) != 20:
            raise JsonRpcError(INVALID_PARAMS,
                               f"bad address length {len(address)}")
        if tag in ("latest", "safe", "finalized", None):
            number = self.node.head_number()
        elif tag == "earliest":
            number = 0
        else:
            number = from_quantity(tag)
        state = self.node.state_at(number)
        return to_quantity(state.balance_of(Address(address)))


class RpcClient:
    """Issues JSON-RPC calls through ``transport: bytes -> bytes``
    (in process, :meth:`RpcServer.handle_raw`)."""

    def __init__(self, transport: Callable[[bytes], bytes]) -> None:
        self._transport = transport
        self._ids = count(1)

    def call(self, method: str, *params: Any) -> Any:
        """One RPC round trip; raises :class:`JsonRpcError` on an error."""
        request = RpcRequest(method=method, params=params, id=next(self._ids))
        response = json.loads(self._transport(encode_request(request)))
        if response.get("id") != request.id:
            raise JsonRpcError(INTERNAL_ERROR,
                               "response id does not match request id")
        error = response.get("error")
        if error is not None:
            raise JsonRpcError(error.get("code", SERVER_ERROR),
                               error.get("message", "unknown error"),
                               error.get("data"))
        return response.get("result")

    def request_size(self, method: str, *params: Any) -> int:
        """Size in bytes of the encoded request (Table II baseline numbers)."""
        return len(encode_request(RpcRequest(method=method, params=params)))
