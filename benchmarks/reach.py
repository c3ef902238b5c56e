#!/usr/bin/env python3
"""The reach census: which functions under ``src/`` no producer calls.

    python benchmarks/reach.py

runs every producer (ROADMAP item 13) in a subprocess whose
``sitecustomize`` records the code object of each Python ``call`` event
(``sys.setprofile`` and ``threading.setprofile``, nothing else):

* the four e2e workloads, ``benchmarks/e2e/run.py --trace 0 --seconds 2``;
* ``tests/integration/test_examples.py`` (every example, and the disk
  quickstart twice over one directory);
* ``pytest benchmarks/ --ignore=benchmarks/e2e`` at CI's account counts.

It then writes ``benchmarks/results/reach.json``: one entry per function
defined under ``src/`` (every ``def``, nested ones too) that no producer
called, keyed by file and qualified name, with its length in lines (from
its first decorator to its last line), a ``kind`` and a one-line ``why``.
A function not listed in ``REVIEWED`` below, nor a ``Protocol`` stub, nor a
name the e2e tracer resolves, lands as ``convenience`` with an empty
``why``: ``tests/unit/test_reach_census.py`` fails on it until someone
decides whether it goes or says why it stays.

Two things to know when reading the result.  A code object's
``co_firstlineno`` is its first decorator's line, not the ``def`` line, so
functions are matched on that.  A generator function's body runs only when
it is iterated, so a generator that is created and never iterated counts as
unreached.  A producer's own verdict (a red timing gate) does not matter
here; only what it called does.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "results" / "reach.json"
TRACE_SPEC = ROOT / "benchmarks" / "e2e" / "trace.py"

WORKLOADS = ("read_single", "read_batch16", "market_mix", "write_persist")

PRODUCERS: list[tuple[str, list[str], dict[str, str]]] = [
    *[(f"e2e {name}",
       ["benchmarks/e2e/run.py", "--workload", name, "--trace", "0",
        "--seconds", "2"], {})
      for name in WORKLOADS],
    ("examples", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "tests/integration/test_examples.py"], {}),
    ("tier-2", ["-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks/",
                "--ignore=benchmarks/e2e"],
     {"TRIE_BENCH_ACCOUNTS": "20000", "STORE_BENCH_ACCOUNTS": "20000"}),
]

#: written into a temporary directory put first on each producer's
#: PYTHONPATH; records code objects only and dumps the ones under src/
#: as ``filename<TAB>co_firstlineno`` lines when the process exits
_HOOK = '''\
import atexit, os, sys, threading

_seen = set()


def _record(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    src = os.environ["REACH_SRC"]
    lines = {f"{code.co_filename}\\t{code.co_firstlineno}"
             for code in _seen if code.co_filename.startswith(src)}
    path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "w", encoding="utf-8") as out:
        out.write("\\n".join(sorted(lines)))


atexit.register(_dump)
threading.setprofile(_record)
sys.setprofile(_record)
'''

TRACED = "tracer-pinned, ROADMAP 1(a)"
PAPER = "paper path with no producer yet, ROADMAP 14"
FAULT = "fault-only path, ROADMAP 4"
REPR = "a repr: read by pytest's failure report and at a prompt, not by a producer"
STUB = "an abstract signature: its implementations carry the body"

#: (file under src/repro, qualified name) -> (kind, why) for every
#: unreached function that stays.  Kinds: ``paper`` (a paper path, item
#: 14), ``fault`` (runs only on a failure, item 4), ``traced`` (the e2e
#: tracer resolves it, item 1(a)), ``stub`` (a Protocol or abstract
#: signature), ``branch`` (src/ calls it, on a branch no producer takes)
#: and ``convenience`` (no caller outside tests/, kept for the reason given)
KINDS = ("paper", "fault", "traced", "stub", "branch", "convenience")

REVIEWED: dict[tuple[str, str], tuple[str, str]] = {
    # §IV-E.3 redeem, §IV-F exit and equivocation slashing, §V-C liveness
    ("contracts/deposit.py", "DepositModule.stop_serving"): ("paper", PAPER),
    ("contracts/deposit.py", "DepositModule.withdraw"): ("paper", PAPER),
    ("contracts/fraud.py", "FraudModule.submit_head_equivocation"): ("paper", PAPER),
    ("gossip/heads.py", "HeadEquivocationProof.__post_init__"): ("paper", PAPER),
    ("gossip/heads.py", "HeadEquivocationProof.evidence_digest"): ("paper", PAPER),
    ("gossip/heads.py", "HeadEquivocationProof.height"): ("paper", PAPER),
    ("gossip/heads.py", "HeadGossip._handle_equivocation"): ("paper", PAPER),
    ("parp/fraudproof.py", "WitnessService.submit_equivocation"): ("paper", PAPER),
    ("parp/liveness.py", "LivenessAlert.__init__"): ("paper", PAPER),
    ("parp/liveness.py", "LivenessMonitor.due"): ("paper", PAPER),
    ("parp/liveness.py", "LivenessMonitor.probe"): ("paper", PAPER),
    ("parp/liveness.py", "LivenessObservation.divergent"): ("paper", PAPER),
    ("parp/client.py", "LightClientSession.channel_status_fast"): ("paper", PAPER),
    ("parp/server.py", "FullNodeServer._channel_status"): ("paper", PAPER),
    ("parp/server.py", "FullNodeServer.build_close_transaction"): ("paper", PAPER),
    ("parp/server.py", "FullNodeServer.mark_closed"): ("paper", PAPER),
    ("parp/marketplace.py", "MarketplaceClient.close_all"): ("paper", PAPER),
    ("node/devnet.py", "Devnet.compact"): ("paper", PAPER),
    ("parp/marketplace.py", "Marketplace.withdraw"): (
        "paper", "a full node leaving the directory (§IV-F exit), ROADMAP 14"),
    # failure paths: overload, partitions, refusals, typed errors, recovery
    ("storage/blocklog.py", "BlockLog.rewind"): ("fault", FAULT),
    ("parp/marketplace.py", "MarketplaceClient._await_backoff"): ("fault", FAULT),
    ("parp/marketplace.py", "MarketplaceClient._note_overload"): ("fault", FAULT),
    ("parp/marketplace.py", "MarketplaceClient._failure"): ("fault", FAULT),
    ("parp/marketplace.py", "MarketplaceError.__init__"): ("fault", FAULT),
    ("parp/marketplace.py", "NoServerForKey.__init__"): ("fault", FAULT),
    ("parp/marketplace.py", "ShardScatterError.__init__"): ("fault", FAULT),
    ("parp/client.py", "RequestRefused.__init__"): ("fault", FAULT),
    ("parp/server.py", "_refusal"): ("fault", FAULT),
    # an admitted request that step B refuses gives its backlog back
    ("parp/admission.py", "AdmissionController.release"): ("fault", FAULT),
    ("net/transport.py", "RemoteError.__init__"): ("fault", FAULT),
    ("net/futures.py", "backoff_delay"): ("fault", FAULT),
    ("net/network.py", "SimNetwork.deregister"): ("fault", FAULT),
    ("net/network.py", "SimNetwork.heal"): ("fault", FAULT),
    ("net/network.py", "SimNetwork.isolate"): ("fault", FAULT),
    ("net/network.py", "SimNetwork.partition"): ("fault", FAULT),
    ("net/network.py", "SimNetwork.rejoin"): ("fault", FAULT),
    ("lightclient/sync.py", "is_better_update"): (
        "fault", "runs only when two quorum-attested pages disagree, ROADMAP 4"),
    # the streaming keccak and the verify-only ECDSA ride with the tracer
    ("crypto/keccak.py", "Keccak256.__init__"): ("traced", TRACED),
    ("crypto/keccak.py", "Keccak256.copy"): ("traced", TRACED),
    ("crypto/keccak.py", "Keccak256.hexdigest"): ("traced", TRACED),
    ("crypto/keccak.py", "Keccak256.update"): ("traced", TRACED),
    ("crypto/keys.py", "PublicKey.verify"): ("traced", TRACED),
    # src/ calls these on a branch no producer takes
    ("chain/block.py", "Block.receipt_trie"): (
        "branch", "eth_getTransactionReceipt's proof; no workload asks for one"),
    ("chain/block.py", "Block.transaction_trie"): (
        "branch", "the transaction queries' proofs; no workload asks for one"),
    ("chain/chain.py", "Blockchain.remove_seal_listener"): (
        "branch", "FullNodeServer.enable_gossip on a server that already gossips"),
    ("lightclient/headerchain.py", "HeaderChain.anchor_number"): (
        "branch", "checkpoint bootstrap of a client that already holds headers"),
    ("node/fullnode.py", "FullNode.chain_id"): (
        "branch", "eth_chainId, a served method no workload asks for"),
    ("parp/queries.py", "_execute_chain_id"): (
        "branch", "eth_chainId, a served method no workload asks for"),
    ("rlp/codec.py", "encoded_length"): (
        "branch", "a trie commit of a branch node that holds a value"),
    ("storage/nodestore.py", "NodeStore.pruned_roots"): (
        "branch", "the default for a store that never prunes, read on an unknown root"),
    ("trie/mpt.py", "MerklePatriciaTrie.is_empty"): (
        "branch", "StateDB.set_account and account_exists with pending slot writes"),
    ("storage/blocklog.py", "BlockLog.last_number"): ("branch", "read by BlockLog.__repr__"),
    ("storage/blocklog.py", "BlockLog.path"): ("branch", "read by BlockLog.__repr__"),
    # kept: a public type's protocol hooks and key material
    ("chain/block.py", "Block.__repr__"): ("convenience", REPR),
    ("chain/chain.py", "Blockchain.__repr__"): ("convenience", REPR),
    ("chain/header.py", "BlockHeader.__repr__"): ("convenience", REPR),
    ("chain/transaction.py", "Transaction.__repr__"): ("convenience", REPR),
    ("crypto/keys.py", "Address.__repr__"): ("convenience", REPR),
    ("crypto/keys.py", "PrivateKey.__repr__"): ("convenience", REPR),
    ("crypto/keys.py", "PublicKey.__repr__"): ("convenience", REPR),
    ("gossip/pubsub.py", "GossipNode.__repr__"): ("convenience", REPR),
    ("net/futures.py", "PendingReply.__repr__"): ("convenience", REPR),
    ("net/simclock.py", "SimClock.__repr__"): ("convenience", REPR),
    ("node/fullnode.py", "FullNode.__repr__"): ("convenience", REPR),
    ("parp/marketplace.py", "MarketplaceClient.__repr__"): ("convenience", REPR),
    ("parp/messages.py", "BatchRequest.__repr__"): ("convenience", REPR),
    ("parp/messages.py", "RpcCall.__repr__"): ("convenience", REPR),
    ("parp/server.py", "FullNodeServer.__repr__"): ("convenience", REPR),
    ("storage/blocklog.py", "BlockLog.__repr__"): ("convenience", REPR),
    ("storage/filestore.py", "AppendOnlyFileStore.__repr__"): ("convenience", REPR),
    ("storage/nodestore.py", "MemoryNodeStore.__repr__"): ("convenience", REPR),
    ("vm/contract.py", "NativeContract.__repr__"): ("convenience", REPR),
    ("contracts/channels.py", "ChannelsModule.open_channels_of"): (
        "convenience", "the one reader of the per-node open-channel count the "
        "module keeps in state"),
    ("chain/state.py", "StateDB.node_store"): (
        "convenience", "the store a state view reads through (a shard "
        "slice's pool, a fresh memory store)"),
    ("parp/__init__.py", "__dir__"): (
        "convenience", "module protocol: dir(repro.parp) lists the lazy exports"),
    ("crypto/keys.py", "PublicKey.__eq__"): (
        "convenience", "value semantics of a public type (eq/hash pair)"),
    ("crypto/keys.py", "PublicKey.__hash__"): (
        "convenience", "value semantics of a public type (eq/hash pair)"),
    ("lightclient/headerchain.py", "HeaderChain.__contains__"): (
        "convenience", "container protocol of the header chain"),
    ("lightclient/headerchain.py", "HeaderChain.__iter__"): (
        "convenience", "container protocol of the header chain"),
    ("metrics/cache.py", "LRUCache.__contains__"): (
        "convenience", "a membership probe that moves no hit/miss counter"),
    ("net/transport.py", "SimEndpoint.address"): (
        "convenience", "ServerEndpoint's address member over the network, as "
        "FullNodeServer.address is in process"),
    ("net/transport.py", "SimEndpoint.in_flight"): (
        "convenience", "the endpoint's one view of its outstanding replies"),
    ("parp/client.py", "BatchOutcome.__len__"): (
        "convenience", "container protocol of a batch's items"),
    ("parp/marketplace.py", "Marketplace.__contains__"): (
        "convenience", "container protocol of the directory"),
    ("parp/marketplace.py", "Marketplace.__len__"): (
        "convenience", "container protocol of the directory"),
    ("storage/blocklog.py", "BlockLog.__len__"): (
        "convenience", "container protocol of the block log"),
    ("storage/filestore.py", "AppendOnlyFileStore.__len__"): (
        "convenience", "MutableMapping protocol of a node store"),
    ("storage/filestore.py", "_PackedNodeIndex.__delitem__"): (
        "convenience", "MutableMapping protocol of the packed index"),
    ("storage/filestore.py", "_PackedNodeIndex.__eq__"): (
        "convenience", "MutableMapping protocol of the packed index"),
    ("storage/nodestore.py", "MemoryNodeStore.__delitem__"): (
        "convenience", "MutableMapping protocol of a node store"),
    ("storage/nodestore.py", "MemoryNodeStore.__iter__"): (
        "convenience", "MutableMapping protocol of a node store"),
    ("storage/nodestore.py", "NodeStore.__enter__"): (
        "convenience", "context-manager protocol: a with-block closes the store"),
    ("storage/nodestore.py", "NodeStore.__exit__"): (
        "convenience", "context-manager protocol: a with-block closes the store"),
    ("trie/proof.py", "ProofIndex.__getitem__"): (
        "convenience", "tuple protocol: a slice keeps its node hashes"),
    ("trie/proof.py", "ProofIndex.__ne__"): (
        "convenience", "tuple protocol: != against a list, as == does"),
    ("vm/runtime.py", "ContractRegistry.__contains__"): (
        "convenience", "container protocol of the registry"),
}


# --------------------------------------------------------------------------- #
# what src/ defines
# --------------------------------------------------------------------------- #

def definitions() -> dict[tuple[str, int], dict]:
    """(absolute path, first line) -> the function defined there."""
    found: dict[tuple[str, int], dict] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro").as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _walk(tree, "", rel, str(path), False, found)
    return found


def _walk(node: ast.AST, prefix: str, rel: str, path: str, protocol: bool,
          found: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            bases = {getattr(b, "id", getattr(b, "attr", "")) for b in child.bases}
            _walk(child, f"{prefix}{child.name}.", rel, path,
                  "Protocol" in bases, found)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] +
                        [d.lineno for d in child.decorator_list])
            found[(path, first)] = {
                "file": rel, "qualname": prefix + child.name,
                "lines": child.end_lineno - first + 1,
                "stub": protocol or _abstract(child)}
            _walk(child, f"{prefix}{child.name}.<locals>.", rel, path, False,
                  found)
        else:
            _walk(child, prefix, rel, path, protocol, found)


def _abstract(fn: ast.FunctionDef) -> bool:
    """An ``abstractmethod``, or a body of only a docstring, ``...`` and
    ``raise NotImplementedError``."""
    if any(getattr(d, "attr", getattr(d, "id", "")) == "abstractmethod"
           for d in fn.decorator_list):
        return True
    for stmt in fn.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # a docstring or ``...``
        if (isinstance(stmt, ast.Raise) and stmt.exc is not None
                and "NotImplementedError" in ast.unparse(stmt.exc)):
            continue
        return False
    return True


def traced_names() -> set[tuple[str, str]]:
    """(file under src/repro, qualified name) of every ``trace.py`` target."""
    tree = ast.parse(TRACE_SPEC.read_text(encoding="utf-8"))
    spec = next(node.value for node in tree.body
                if isinstance(node, ast.AnnAssign)
                and getattr(node.target, "id", "") == "_SPEC")
    namespace: dict = {"_permutations": None}
    rows = eval(compile(ast.Expression(spec), str(TRACE_SPEC), "eval"),
                namespace)
    return {(module.removeprefix("repro.").replace(".", "/") + ".py", name)
            for _, module, name, *_ in rows}


# --------------------------------------------------------------------------- #
# what the producers call
# --------------------------------------------------------------------------- #

def run_producers() -> set[tuple[str, int]]:
    reached: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir, out_dir = Path(scratch, "hook"), Path(scratch, "out")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(_HOOK, encoding="utf-8")
        pythonpath = [str(hook_dir), str(SRC), str(ROOT)]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        for label, argv, extra in PRODUCERS:
            env = {**os.environ, **extra,
                   "PYTHONPATH": os.pathsep.join(pythonpath),
                   "PYTHONHASHSEED": "0", "REACH_SRC": str(SRC),
                   "REACH_OUT": str(out_dir)}
            done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, check=False)
            print(f"# {label}: exit {done.returncode}", flush=True)
        for dump in out_dir.iterdir():
            for line in dump.read_text(encoding="utf-8").splitlines():
                filename, first = line.split("\t")
                reached.add((filename, int(first)))
    return reached


def census(reached: set[tuple[str, int]]) -> dict:
    defined = definitions()
    traced = traced_names()
    entries = []
    for key, fn in defined.items():
        if key in reached:
            continue
        name = (fn["file"], fn["qualname"])
        if name in REVIEWED:
            kind, why = REVIEWED[name]
        elif name in traced:
            kind, why = "traced", TRACED
        elif fn["stub"]:
            kind, why = "stub", STUB
        else:
            kind, why = "convenience", ""
        entries.append({"file": fn["file"], "qualname": fn["qualname"],
                        "lines": fn["lines"], "kind": kind, "why": why})
    entries.sort(key=lambda e: (e["file"], e["qualname"]))
    listed = {(e["file"], e["qualname"]) for e in entries}
    for name in sorted(set(REVIEWED) - listed):
        print(f"# stale REVIEWED entry (reached or gone): {name}")
    return {
        "producers": [label for label, _, _ in PRODUCERS],
        "functions": len(defined),
        "lines": sum(fn["lines"] for fn in defined.values()),
        "unreached": len(entries),
        "unreached_lines": sum(e["lines"] for e in entries),
        "entries": entries,
    }


def write(result: dict) -> None:
    """JSON with one entry per line, so a new or moved entry is a one-line diff."""
    head = {k: v for k, v in result.items() if k != "entries"}
    body = ",\n".join("  " + json.dumps(e) for e in result["entries"])
    text = json.dumps(head, indent=1)[:-2] + ',\n "entries": [\n' + body + "\n ]\n}\n"
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text, encoding="utf-8")


def main() -> int:
    result = census(run_producers())
    write(result)
    print(f"{result['unreached']} of {result['functions']} functions under "
          f"src/, {result['unreached_lines']} of {result['lines']} lines, "
          f"reached by no producer -> {OUT.relative_to(ROOT)}")
    kinds = Counter(entry["kind"] for entry in result["entries"])
    print("# " + ", ".join(f"{kind} {n}" for kind, n in sorted(kinds.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
