"""Routing PARP queries to state shards.

Which shard serves a call is decided by the *secure-trie key* its proof
walks: ``keccak256(address)`` for the methods whose
:class:`~repro.parp.queries.QuerySpec` row names a ``routes_by`` parameter.
Everything else (transaction/receipt lookups, ``eth_sendRawTransaction``,
the free probes) is unsharded — only the state trie is partitioned; every
serving node follows the full chain, so any shard server answers those.

One function, shared by client-side scatter routing, server-side range
enforcement, and the directory's coverage checks, so the three views can
never disagree about where a key lives (the shard-partitioner property
tests pin this).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..crypto.keccak import keccak256
from ..trie.proof import HashMemo
from .messages import MessageError, RpcCall
from .queries import QUERY_CATALOG

__all__ = ["shard_key_of_call", "shard_keys_of_calls"]


def _routed_address(call: RpcCall) -> Optional[bytes]:
    spec = QUERY_CATALOG.get(call.method)
    if spec is None or spec.routes_by is None:
        return None
    try:
        return call.param_bytes(spec.routes_by, exact=20)
    except MessageError:
        return None


def shard_key_of_call(call: RpcCall,
                      keccak: Optional[Callable[[bytes], bytes]] = None,
                      ) -> Optional[bytes]:
    """The hashed state key that routes ``call``, or None when unsharded.

    A malformed address parameter also yields None: routing must not
    pre-judge a call the serving/verification layers will reject with a
    properly attributable error.

    The key that routes a call is the key its proof walks: a party that
    passes the ``keccak`` memo it serves or verifies with hashes an address
    once (default: plain ``keccak256``).
    """
    raw = _routed_address(call)
    if raw is None:
        return None
    return keccak256(raw) if keccak is None else keccak(raw)


def shard_keys_of_calls(calls: Sequence[RpcCall], keccak: HashMemo,
                        ) -> list[Optional[bytes]]:
    """:func:`shard_key_of_call` of each of ``calls``, the addresses
    ``keccak`` does not hold hashed side by side."""
    raws = [_routed_address(call) for call in calls]
    keys = iter(keccak.many([raw for raw in raws if raw is not None]))
    return [None if raw is None else next(keys) for raw in raws]
