"""PARP over the simulated network.

Two layers bridge :class:`~repro.parp.client.ServerEndpoint` to message
passing:

* **Non-blocking transport** — :meth:`SimEndpoint.submit` turns an endpoint
  call into a request event and returns a
  :class:`~repro.net.futures.PendingReply` immediately; the reply resolves
  when the correlated response event is delivered.  N submits to M servers
  can be in flight at once, and :func:`~repro.net.futures.wait_any` /
  :func:`~repro.net.futures.wait_all` race them under simulated time.
* **Blocking facade** — the classic ``ServerEndpoint`` methods are thin
  submit-then-wait adapters over the futures, preserving the original
  synchronous contract (a timeout is how Algorithm 1's ``hsTimer`` and
  general strong-synchrony violations surface).

Server-side failures travel back *typed*: the binding tags every error
reply with the exception's class name, so the client maps serve-layer
errors to :class:`~repro.parp.server.ServeError` and anything else to
:class:`RemoteError` — no string matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Optional

from ..chain.header import BlockHeader
from ..crypto.keys import Address
from ..parp.handshake import Handshake, HandshakeConfirm, OpenChannelReceipt
from ..parp.server import FullNodeServer, ServeError
from .futures import DEFAULT_TIMEOUT, EndpointTimeout, PendingReply, ReplyCancelled
from .network import SimNetwork

__all__ = [
    "ENDPOINT_METHODS",
    "EndpointTimeout",
    "ReplyCancelled",
    "RemoteError",
    "SimServerBinding",
    "SimEndpoint",
]


class RemoteError(ServeError):
    """A non-serve-layer exception escaped the remote handler.

    ``remote_type`` carries the server-side exception class name, so client
    code can branch on the *kind* of failure without parsing messages.
    (Subclasses :class:`ServeError` because, to the protocol, an unhandled
    server bug is still "the server failed to produce a signed response".)
    """

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}" if remote_type else message)
        self.remote_type = remote_type


@dataclass
class _Call:
    request_id: int
    method: str
    args: tuple


@dataclass
class _Reply:
    request_id: int
    ok: bool
    value: Any
    error_kind: str = ""  # exception class name for failed calls


#: Every method of :class:`~repro.parp.client.ServerEndpoint` a client may
#: invoke on a remote server — the one table behind the binding's allow-list
#: and the endpoint's blocking adapters.
ENDPOINT_METHODS = (
    "handshake", "open_channel", "relay_transaction", "get_transaction_count",
    "serve_request", "serve_batch", "serve_head_number",
    "serve_updates_range", "shard_info",
)


def _remote_exception(kind: str, message: str) -> ServeError:
    """Map a tagged error reply onto a typed client-side exception."""
    if not kind or kind == "ServeError":
        return ServeError(message)
    return RemoteError(kind, message)


class SimServerBinding:
    """Network-facing wrapper around a :class:`FullNodeServer`."""

    #: endpoint methods a remote client may invoke
    _ALLOWED = frozenset(ENDPOINT_METHODS)

    def __init__(self, network: SimNetwork, name: str,
                 server: FullNodeServer) -> None:
        self.network = network
        self.name = name
        self.server = server
        #: when True the node silently ignores traffic (crash/fail-stop tests)
        self.offline = False
        network.register(name, self)

    def on_message(self, src: str, payload: Any) -> None:
        if self.offline or not isinstance(payload, _Call):
            return
        if payload.method not in self._ALLOWED:
            reply = _Reply(payload.request_id, False,
                           f"unknown endpoint method {payload.method}",
                           "ServeError")
        else:
            try:
                value = getattr(self.server, payload.method)(*payload.args)
                reply = _Reply(payload.request_id, True, value)
            except ServeError as exc:
                # the serve layer rejected the request: an expected,
                # attributable protocol outcome
                reply = _Reply(payload.request_id, False, str(exc), "ServeError")
            except Exception as exc:  # noqa: BLE001 — faithful RPC edge: an
                # unhandled server bug must surface to the client as a typed
                # remote failure, not kill the event loop
                reply = _Reply(payload.request_id, False, str(exc),
                               type(exc).__name__)
        # Admission-controlled servers model a queueing+service delay for
        # each admitted request; materialize it by scheduling the reply that
        # far into simulated time, so under load responses observably wait
        # behind the backlog instead of returning instantly.
        delay = self._consume_service_delay()
        if delay > 0:
            self.network.schedule(
                delay,
                lambda: self.network.send(self.name, src, reply,
                                          size_bytes=_reply_size(reply)),
            )
            return
        self.network.send(self.name, src, reply, size_bytes=_reply_size(reply))

    def _consume_service_delay(self) -> float:
        consume = getattr(self.server, "consume_service_delay", None)
        if consume is None:
            return 0.0
        return consume()


class SimEndpoint:
    """Client-side endpoint facade.

    Implements both the non-blocking :meth:`submit` transport contract and
    the blocking ``ServerEndpoint`` protocol (as submit-then-wait adapters).
    """

    def __init__(self, network: SimNetwork, name: str, server_name: str,
                 server_address: Address,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.network = network
        self.name = name
        self.server_name = server_name
        self._address = server_address
        self.timeout = timeout
        self._ids = count(1)
        #: in-flight correlations: request id → unresolved future
        self._pending: dict[int, PendingReply] = {}
        #: replies that arrived after their future was cancelled/timed out
        self.late_replies = 0
        network.register(name, self)

    @property
    def address(self) -> Address:
        return self._address

    @property
    def in_flight(self) -> int:
        """How many submitted requests are still awaiting their reply."""
        return len(self._pending)

    def on_message(self, src: str, payload: Any) -> None:
        if not isinstance(payload, _Reply):
            return
        pending = self._pending.pop(payload.request_id, None)
        if pending is None:
            # cancelled, timed out, or never ours: correlation is gone
            self.late_replies += 1
            return
        if payload.ok:
            pending.set_result(payload.value)
        else:
            pending.set_exception(
                _remote_exception(payload.error_kind, str(payload.value)))

    # -- the non-blocking transport --------------------------------------- #

    def submit(self, method: str, *args: Any,
               timeout: Optional[float] = None) -> PendingReply:
        """Issue ``method(*args)`` and return its future immediately.

        The reply resolves when the network delivers the correlated
        response; drive the loop via ``reply.result()``,
        :func:`~repro.net.futures.wait_any`, or ``network.run_until``.
        """
        request_id = next(self._ids)
        call = _Call(request_id, method, args)
        reply = PendingReply(
            method=method, target=self.server_name,
            driver=self.network.run_while,
            default_timeout=timeout if timeout is not None else self.timeout,
            canceller=lambda: self._pending.pop(request_id, None),
        )
        self._pending[request_id] = reply
        self.network.send(self.name, self.server_name, call,
                          size_bytes=_call_size(call))
        return reply

    # -- the blocking facade (submit-then-wait) ---------------------------- #

    def _invoke(self, method: str, *args: Any) -> Any:
        reply = self.submit(method, *args)
        try:
            return reply.result()
        except EndpointTimeout:
            # drop the correlation so a reply limping in later is discarded
            # instead of resolving a future nobody is holding
            reply.cancel()
            raise


def _blocking_adapter(method: str):
    def adapter(self: SimEndpoint, *args: Any) -> Any:
        return self._invoke(method, *args)
    adapter.__name__ = method
    adapter.__qualname__ = f"SimEndpoint.{method}"
    adapter.__doc__ = f"Blocking ``{method}``: submit, then wait for the reply."
    return adapter


# -- the ServerEndpoint protocol, one submit-then-wait adapter per method ---- #
for _method in ENDPOINT_METHODS:
    setattr(SimEndpoint, _method, _blocking_adapter(_method))


def _call_size(call: _Call) -> int:
    size = 40  # envelope
    for arg in call.args:
        if isinstance(arg, (bytes, bytearray)):
            size += len(arg)
        elif isinstance(arg, Handshake):
            size += 20
        else:
            size += 32
    return size


def _reply_size(reply: _Reply) -> int:
    value = reply.value
    if isinstance(value, (bytes, bytearray)):
        return 40 + len(value)
    if isinstance(value, HandshakeConfirm):
        return 40 + 20 + 8 + 65
    if isinstance(value, OpenChannelReceipt):
        return 40 + 16 + 65
    if isinstance(value, (list, tuple)) and value \
            and all(isinstance(v, BlockHeader) for v in value):
        return 40 + sum(len(v.encode()) for v in value)  # UpdatesByRange page
    return 72
