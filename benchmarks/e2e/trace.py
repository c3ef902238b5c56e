"""Outside-in tracer: times calls into each layer's public functions.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces every reference to a target function held in a ``repro.*`` module
or class namespace with a timing wrapper (``from x import f`` copies
included, found by identity); :meth:`Tracer.uninstall` puts the original
objects back.  A span stack gives each span its parent, so a layer's *self
time* is its spans' duration minus the part their child spans cover, and
the layers' self times plus the driver's own (``unattributed``) add up to
the traced wall time.

Spans stay in memory as tuples ``(id, parent, target, query, start, end)``
and are written out as JSON when the workload ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "Target", "Tracer"]

KECCAK_RATE = 136  # bytes absorbed per permutation


def _permutations(args: tuple, kwargs: dict) -> int:
    data = args[0] if args else kwargs["data"]
    return len(data) // KECCAK_RATE + 1


#: (layer, module, qualified name[, measure]) — this repo's module names.
#: A name that no longer resolves is skipped and listed in ``missing``:
#: a later refactor must not have to edit the benchmark to keep it running.
#: Generator functions are left out (a span would time only their creation).
_SPEC: list[tuple] = [
    ("crypto.secp256k1", "repro.crypto.ecdsa", "sign"),
    ("crypto.secp256k1", "repro.crypto.ecdsa", "recover"),
    ("crypto.secp256k1", "repro.crypto.ecdsa", "verify"),
    ("crypto.secp256k1", "repro.crypto.keys", "recover_address"),
    ("crypto.keccak", "repro.crypto.keccak", "keccak256", _permutations),
    ("crypto.keccak", "repro.crypto.keccak", "Keccak256.digest"),
    ("rlp", "repro.rlp.codec", "encode"),
    ("rlp", "repro.rlp.codec", "decode"),
    *[("parp.messages", "repro.parp.messages", f"{cls}.{fn}")
      for cls, fns in (
          ("PARPRequest", ("build", "verify")),
          ("PARPResponse", ("build", "signer")),
          ("BatchRequest", ("build", "verify")),
          ("BatchResponse", ("build", "signer", "item_view")),
          ("OverloadedReply", ("build", "verify")),
      )
      for fn in fns + ("encode_wire", "decode_wire")],
    ("parp.messages", "repro.parp.messages", "RpcCall.create"),
    ("parp.messages", "repro.parp.messages", "RpcCall.encode"),
    ("parp.messages", "repro.parp.messages", "RpcCall.decode"),
    ("trie", "repro.trie.proof", "generate_proof"),
    ("trie", "repro.trie.proof", "verify_proof"),
    ("trie", "repro.trie.proof", "generate_multiproof"),
    ("trie", "repro.trie.proof", "verify_multiproof"),
    ("trie", "repro.trie.mpt", "MerklePatriciaTrie.get"),
    ("trie", "repro.trie.mpt", "MerklePatriciaTrie.put"),
    ("trie", "repro.trie.mpt", "MerklePatriciaTrie.commit"),
    ("trie", "repro.trie.shard", "extract_shard_nodes"),
    ("storage", "repro.storage.nodestore", "MemoryNodeStore.get"),
    ("storage", "repro.storage.nodestore", "MemoryNodeStore.commit"),
    ("storage", "repro.storage.filestore", "AppendOnlyFileStore.get"),
    ("storage", "repro.storage.filestore", "AppendOnlyFileStore.commit"),
    ("storage", "repro.storage.filestore", "AppendOnlyFileStore.compact"),
    ("storage", "repro.storage.blocklog", "BlockLog.append"),
    ("storage", "repro.storage.blocklog", "BlockLog.prune_to"),
    ("chain", "repro.chain.chain", "Blockchain.build_block"),
    ("chain", "repro.chain.chain", "Blockchain.add_transaction"),
    ("chain", "repro.chain.chain", "Blockchain.state_at"),
    ("chain", "repro.chain.chain", "Blockchain.compact"),
    ("chain", "repro.chain.state", "StateDB.commit"),
    ("chain", "repro.chain.state", "StateDB.get_account"),
    ("chain", "repro.chain.state", "StateDB.prove_account"),
    ("chain", "repro.chain.state", "StateDB.prove_storage"),
    ("chain", "repro.chain.state", "StateDB.get_storage"),
    ("chain", "repro.chain.state", "StateDB.shard_slice"),
    ("chain", "repro.vm.runtime", "TransactionExecutor.apply"),
    ("chain", "repro.node.fullnode", "FullNode.submit_transaction"),
    ("chain", "repro.node.fullnode", "FullNode.ensure_mined"),
    ("lightclient", "repro.lightclient.sync", "HeaderSyncer.sync"),
    ("lightclient", "repro.lightclient.sync", "HeaderSyncer.sync_to"),
    ("net", "repro.net.network", "SimNetwork.send"),
    ("net", "repro.net.network", "SimNetwork.run_while"),
    ("net", "repro.net.network", "SimNetwork.run_until"),
    ("net", "repro.net.transport", "SimEndpoint.submit"),
    ("net", "repro.net.transport", "SimEndpoint.on_message"),
    ("net", "repro.net.transport", "SimServerBinding.on_message"),
    ("net", "repro.net.futures", "PendingReply.result"),
    ("net", "repro.net.futures", "wait_any"),
    ("net", "repro.net.futures", "wait_all"),
    ("parp.server", "repro.parp.server", "FullNodeServer.serve_request"),
    ("parp.server", "repro.parp.server", "FullNodeServer.serve_batch"),
    ("parp.server", "repro.parp.queries", "execute_query"),
    ("parp.server", "repro.parp.channel",
     "ServerChannel.accept_request_payment"),
    ("parp.admission", "repro.parp.admission", "AdmissionController.offer"),
    ("parp.client", "repro.parp.client", "LightClientSession.begin_request"),
    ("parp.client", "repro.parp.client", "LightClientSession.begin_batch"),
    ("parp.client", "repro.parp.client", "LightClientSession.collect"),
    ("parp.client", "repro.parp.client",
     "LightClientSession.process_response"),
    ("parp.client", "repro.parp.client",
     "LightClientSession.process_batch_response"),
    ("parp.client", "repro.parp.client", "LightClientSession.request_call"),
    ("parp.client", "repro.parp.client", "LightClientSession.query_batch"),
    ("parp.client", "repro.parp.verification", "classify_response"),
    ("parp.client", "repro.parp.verification", "classify_batch_response"),
    ("parp.client", "repro.parp.queries", "verify_query_result"),
    ("parp.marketplace", "repro.parp.marketplace", "MarketplaceClient.eligible"),
    ("parp.marketplace", "repro.parp.marketplace",
     "MarketplaceClient.request_call"),
    ("parp.marketplace", "repro.parp.marketplace",
     "MarketplaceClient.query_hedged"),
    ("parp.marketplace", "repro.parp.marketplace",
     "MarketplaceClient.query_sharded"),
]

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(spec[0] for spec in _SPEC))

#: recorded only when called from another layer: ``keccak256`` is the span
#: for its own ``Keccak256(...).digest()``
_INNER = frozenset({"Keccak256.digest"})


@dataclass
class Target:
    """One traced function and what calling it cost."""

    layer: str
    module: str
    qualname: str
    #: work done by one call, from its arguments; summed into ``amount``
    measure: Optional[Callable[[tuple, dict], int]] = None
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    amount: int = 0
    depth: int = 0  # re-entrancy guard: recursion stays inside one span

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _namespaces() -> list:
    """Every loaded ``repro`` module and every class defined in one."""
    found: list = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        found.append(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                found.append(value)
    return found


def _function_of(raw: Any) -> Any:
    """The plain function behind a namespace entry (descriptors unwrapped)."""
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__
    return raw


class Tracer:
    """Span recorder.  One instance per traced workload run."""

    def __init__(self) -> None:
        self.targets = [Target(*spec) for spec in _SPEC]
        #: (span id, parent id or -1, target index, query id, start, end)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.enabled = True
        self.query_id = -1
        self._stack: list[list] = []   # [child seconds, span id, layer] per open span
        self._next_id = 0
        #: (namespace, attribute, original entry) for every replaced reference
        self._patched: list[tuple] = []

    # ------------------------------------------------------------------ #
    # instrumenting
    # ------------------------------------------------------------------ #

    def _wrap(self, fn: Callable, index: int) -> Callable:
        target = self.targets[index]
        stack, spans, measure = self._stack, self.spans, target.measure
        layer, inner = target.layer, target.qualname in _INNER

        def traced(*args, **kwargs):
            if target.depth or not self.enabled:
                return fn(*args, **kwargs)
            if inner and stack and stack[-1][2] == layer:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id, layer]
            stack.append(frame)
            target.depth = 1
            start = perf_counter()
            try:
                if measure is not None:
                    target.amount += measure(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                target.depth = 0
                stack.pop()
                elapsed = end - start
                target.calls += 1
                target.inclusive_s += elapsed
                target.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                spans.append((span_id, parent, index, self.query_id,
                              start, end))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    def install(self) -> None:
        """Replace every namespace reference to a target with its wrapper."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, Callable] = {}
        for index, target in enumerate(self.targets):
            try:
                owner: Any = importlib.import_module(target.module)
                *path, attr = target.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = _function_of(vars(owner)[attr])
            except (ImportError, AttributeError, KeyError):
                if target.name not in self.missing:
                    self.missing.append(target.name)
                continue
            wrappers[id(fn)] = self._wrap(fn, index)
        for namespace in _namespaces():
            for attr, raw in list(vars(namespace).items()):
                wrapper = wrappers.get(id(_function_of(raw)))
                if wrapper is None:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    replacement: Any = type(raw)(wrapper)
                else:
                    replacement = wrapper
                setattr(namespace, attr, replacement)
                self._patched.append((namespace, attr, raw))

    def uninstall(self) -> None:
        """Put back the exact objects :meth:`install` replaced."""
        for namespace, attr, raw in reversed(self._patched):
            setattr(namespace, attr, raw)
        self._patched.clear()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def target(self, qualname: str) -> Target:
        for target in self.targets:
            if target.qualname == qualname:
                return target
        raise KeyError(qualname)

    def calls(self, *qualnames: str) -> int:
        return sum(self.target(q).calls for q in qualnames)

    def inclusive_s(self, *qualnames: str) -> float:
        return sum(self.target(q).inclusive_s for q in qualnames)

    def layer_self_s(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for target in self.targets:
            totals[target.layer] += target.self_s
        return totals

    def root_s(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(end - start for _, parent, _, _, start, end in self.spans
                   if parent == -1)

    def dump(self, path, extra: Optional[dict] = None) -> None:
        """Write the spans and per-target totals as one JSON document."""
        document = {
            "fields": ["id", "parent", "target", "query", "start", "end"],
            "targets": [
                {"index": i, "layer": t.layer, "name": t.name,
                 "calls": t.calls, "inclusive_s": t.inclusive_s,
                 "self_s": t.self_s, "amount": t.amount}
                for i, t in enumerate(self.targets)
            ],
            "missing": self.missing,
            "spans": self.spans,
        }
        if extra:
            document.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
