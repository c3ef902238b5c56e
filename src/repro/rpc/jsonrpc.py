"""JSON-RPC 2.0 codec — the base serving protocol PARP wraps.

Table II measures PARP's overhead *relative to standard Ethereum JSON-RPC
calls* (a 118-byte balance query, a 422-byte raw-transaction submission), so
the baseline has to exist: this module implements the JSON-RPC 2.0 message
layer (requests, responses, error objects, batches) and the hex-quantity
conventions of the Ethereum wire format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional, Union

__all__ = [
    "JsonRpcError",
    "RpcRequest",
    "RpcResponse",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "to_quantity",
    "from_quantity",
    "to_hex_data",
    "from_hex_data",
    "PARSE_ERROR",
    "INVALID_REQUEST",
    "METHOD_NOT_FOUND",
    "INVALID_PARAMS",
    "INTERNAL_ERROR",
    "SERVER_ERROR",
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

    def to_object(self) -> dict:
        return {
            "jsonrpc": "2.0",
            "id": self.id,
            "method": self.method,
            "params": list(self.params),
        }


@dataclass(frozen=True)
class RpcResponse:
    """A JSON-RPC 2.0 response (exactly one of result/error is set)."""

    id: Union[int, str, None]
    result: Any = None
    error: Optional[dict] = None

    def to_object(self) -> dict:
        obj: dict[str, Any] = {"jsonrpc": "2.0", "id": self.id}
        if self.error is not None:
            obj["error"] = self.error
        else:
            obj["result"] = self.result
        return obj

    def raise_for_error(self) -> Any:
        if self.error is not None:
            raise JsonRpcError(
                self.error.get("code", SERVER_ERROR),
                self.error.get("message", "unknown error"),
                self.error.get("data"),
            )
        return self.result


def encode_request(request: RpcRequest) -> bytes:
    return json.dumps(request.to_object(), separators=(",", ":")).encode("utf-8")


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


def encode_response(response: RpcResponse) -> bytes:
    return json.dumps(response.to_object(), separators=(",", ":")).encode("utf-8")


def decode_response(raw: bytes) -> RpcResponse:
    try:
        obj = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise JsonRpcError(PARSE_ERROR, f"parse error: {exc}") from exc
    if not isinstance(obj, dict):
        raise JsonRpcError(INVALID_REQUEST, "response must be an object")
    return RpcResponse(
        id=obj.get("id"), result=obj.get("result"), error=obj.get("error"),
    )


# --------------------------------------------------------------------------- #
# Ethereum hex conventions
# --------------------------------------------------------------------------- #

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


def to_hex_data(data: bytes) -> str:
    """Ethereum DATA encoding: even-length hex with 0x prefix."""
    return "0x" + data.hex()


def from_hex_data(text: str) -> bytes:
    if not isinstance(text, str) or not text.startswith("0x"):
        raise JsonRpcError(INVALID_PARAMS, f"not hex data: {text!r}")
    try:
        return bytes.fromhex(text[2:])
    except ValueError as exc:
        raise JsonRpcError(INVALID_PARAMS, f"bad hex data: {text!r}") from exc
