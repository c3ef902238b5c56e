"""Public-API surface checks: imports, lazy loading, versioning."""

import pathlib

import pytest

REPO = pathlib.Path(__file__).parents[2]


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_subpackages_importable(self):
        import importlib

        for name in ("crypto", "rlp", "trie", "chain", "vm", "contracts",
                     "net", "lightclient", "node", "parp",
                     "workloads", "metrics"):
            module = importlib.import_module(f"repro.{name}")
            assert module is not None

    @pytest.mark.parametrize("package", [
        "crypto", "rlp", "trie", "chain", "vm", "contracts", "net",
        "lightclient", "node", "storage", "gossip", "metrics", "workloads"])
    def test_every_export_resolves(self, package):
        """A stale ``__all__`` entry is a failure here, not an ImportError
        in someone's notebook (``repro.parp``'s lazy table has its own test
        below)."""
        import importlib

        module = importlib.import_module(f"repro.{package}")
        assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert getattr(module, name) is not None, f"repro.{package}.{name}"

    def test_removed_names_stay_removed(self, tmp_path):
        """What left the shipped package: the trie oracle (now
        ``tests/reference_trie.py``), the typed-RLP layer, PR 15's aliases,
        batch-version negotiation, the single-wire reshaping of hedged
        and sharded legs, the demo CLI (now ``examples/``), the benchmark
        harness (now under ``benchmarks/``), the dead read workload, the
        serving paths only tests reached, and every retention, fsync and
        node-store option outside the chain."""
        import importlib
        import inspect

        import repro.metrics
        import repro.parp
        import repro.rlp
        import repro.trie
        import repro.workloads

        for module, name in ((repro.trie, "NaiveMerklePatriciaTrie"),
                             (repro.rlp, "Sedes"),
                             (repro.parp, "PendingRequest"),
                             (repro.parp, "EVENT_VERSION_MISMATCH")):
            assert name not in module.__all__
            assert not hasattr(module, name)

        # batch-version negotiation: every server speaks one version
        import dataclasses

        from repro.net.transport import ENDPOINT_METHODS
        from repro.parp import reputation
        from repro.parp.client import LightClientSession
        from repro.parp.marketplace import MarketplaceStats, ServerAdvertisement
        from repro.parp.server import FullNodeServer

        assert "EVENT_VERSION_MISMATCH" not in reputation.__all__
        assert "batch_protocol_version" not in ENDPOINT_METHODS
        assert not hasattr(FullNodeServer, "batch_protocol_version")
        assert not hasattr(LightClientSession, "batch_supported")
        for cls, name in ((ServerAdvertisement, "batch_version"),
                          (MarketplaceStats, "version_mismatches")):
            assert name not in {f.name for f in dataclasses.fields(cls)}

        # single-wire detours that existed only while batch fraud was not
        # slashable: every hedged and sharded leg rides the batch wire
        from repro.parp import marketplace
        from repro.parp.client import BatchOutcome

        assert not hasattr(marketplace, "_as_batch")
        for cls in (BatchOutcome, marketplace.ScatterOutcome):
            assert "batched" not in {f.name for f in dataclasses.fields(cls)}
            assert not hasattr(cls, "batched")

        # src/ ships a node and a client: the demos are examples/*.py, the
        # harness (tables, probes, the Table I study, the write workload)
        # lives under benchmarks/, and the read workload had no caller
        package = REPO / "src" / "repro"
        for name in ("cli", "analysis", "workloads/read", "workloads/write",
                     "workloads/dapp_traffic", "metrics/timers",
                     "metrics/resources", "metrics/tables"):
            assert not (package / f"{name}.py").exists(), name
            assert not list((package / name).glob("*.py")), name
        assert repro.workloads.__all__ == ["AccountSet", "ZipfSelector"]
        assert repro.metrics.__all__ == ["CacheStats", "LRUCache"]

        # a diagnostic nothing read: the most recent scatter's outcome
        assert "last_scatter" not in inspect.getsource(
            marketplace.MarketplaceClient)

        # paths only tests reached.  The models only a benchmark runs moved
        # under benchmarks/: the JSON-RPC baseline (benchmarks/jsonrpc.py,
        # eth_getBalance alone) and PCN routing (benchmarks/pcn.py)
        for name in ("repro.rpc", "repro.parp.pcn"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(name)
        assert not (package / "rpc").exists()
        # surge re-quotes: an ad carries the schedule the server enforces
        from repro.parp import pricing, server
        for name in ("RepricedFeeSchedule", "MULTIPLIER_SCALE"):
            assert name not in repro.parp.__all__
            assert not hasattr(pricing, name)
        assert not hasattr(FullNodeServer, "quoted_fee_schedule")
        assert not hasattr(server, "RepricedFeeSchedule")
        # directory expiry: Marketplace() takes no arguments
        from repro.parp.marketplace import Marketplace
        assert list(inspect.signature(Marketplace).parameters) == []
        for name in ("republish", "sweep", "_now", "ad_ttl"):
            assert not hasattr(Marketplace, name)
            assert not hasattr(Marketplace(), name)
        assert "published_at" not in {
            f.name for f in dataclasses.fields(ServerAdvertisement)}
        # the billable header page: checkpoint sync pages the free
        # serve_updates_range
        from repro.lightclient.checkpoint import RangeUpdate
        from repro.parp import queries
        from repro.parp.pricing import DEFAULT_FEE_SCHEDULE
        assert "parp_updatesByRange" not in queries.QUERY_CATALOG
        assert "parp_updatesByRange" not in DEFAULT_FEE_SCHEDULE.prices
        for name in ("_execute_updates_range", "_at_anchor",
                     "_verify_updates_range", "decode_header_range"):
            assert not hasattr(queries, name)
        assert not hasattr(RangeUpdate, "encode")
        assert not hasattr(RangeUpdate, "decode")
        # cross-network waits: one wait drives one event loop
        import repro.net
        from repro.net import futures
        assert "as_completed" not in repro.net.__all__
        for name in ("as_completed", "_driver_key", "_driver_groups"):
            assert not hasattr(futures, name)
            assert not hasattr(repro.net, name)
        # the duplicate light-client verifiers: parp/queries.py walks
        # proofs through walk_account / walk_storage
        import repro.lightclient
        from repro.lightclient import verify
        for name in ("verify_account", "verify_balance",
                     "verify_storage_slot", "verify_transaction_at",
                     "verify_receipt_at"):
            assert not hasattr(verify, name)
            assert name not in repro.lightclient.__all__
        # counters nothing incremented
        from repro.node import FullNode
        node_source = inspect.getsource(FullNode)
        assert "bytes_in" not in node_source
        assert "bytes_out" not in node_source
        # retention is the chain's decision: stores carry no policy and
        # compact only through Blockchain.compact, nothing turns fsync off,
        # and a node-store input is None or a NodeStore
        import repro.storage
        from repro.chain import Blockchain
        from repro.chain.state import StateDB
        from repro.storage import (
            AppendOnlyFileStore,
            BlockLog,
            RetentionPolicy,
            compact_node_store,
            compaction,
            nodestore,
            open_state_dir,
        )
        from repro.storage.logfile import LogFile
        for name in ("as_node_store", "RetentionSpec", "open_node_store",
                     "open_block_log"):
            assert name not in repro.storage.__all__
            assert not hasattr(repro.storage, name)
        assert not hasattr(nodestore, "as_node_store")
        assert not hasattr(compaction, "RetentionSpec")
        assert not hasattr(RetentionPolicy, "parse")
        assert not hasattr(RetentionPolicy, "retained_roots")
        assert not hasattr(StateDB, "compact")
        assert not hasattr(AppendOnlyFileStore, "retention")
        log = tmp_path / "never-created.log"
        for refused in (
                lambda: LogFile(log, b"PARPTEST", "log", None, sync=True),
                lambda: AppendOnlyFileStore(log, sync=True),
                lambda: BlockLog(log, sync=True),
                lambda: StateDB(retention=RetentionPolicy.last(1)),
                lambda: AppendOnlyFileStore(
                    log, retention=RetentionPolicy.last(1))):
            with pytest.raises(TypeError):
                refused()
        assert not log.exists()
        assert list(inspect.signature(open_state_dir).parameters) == [
            "state_dir"]
        assert list(inspect.signature(compact_node_store).parameters) == [
            "store", "retain_roots"]
        assert list(inspect.signature(Blockchain.compact).parameters) == [
            "self", "force"]

    def test_retention_has_one_owner_and_fsync_one_home(self):
        """Which heights stay provable is decided in one place: under
        ``src/`` only its definition, its export, the chain that owns it and
        the devnet that passes it through name ``RetentionPolicy``.  Only
        ``storage/logfile.py`` calls ``os.fsync`` / ``os.replace``."""
        import ast

        package = REPO / "src" / "repro"
        naming, syscalls = set(), set()
        for path in sorted(package.rglob("*.py")):
            where = path.relative_to(package).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                name = (node.id if isinstance(node, ast.Name)
                        else node.name if isinstance(node, (ast.alias,
                                                            ast.ClassDef))
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.value if isinstance(node, ast.Constant)
                        else None)
                if name == "RetentionPolicy":
                    naming.add(where)
                if (isinstance(node, ast.Attribute)
                        and node.attr in ("fsync", "replace")
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "os"):
                    syscalls.add(where)
        assert naming == {"storage/compaction.py", "storage/__init__.py",
                          "chain/chain.py", "node/devnet.py"}
        assert syscalls == {"storage/logfile.py"}

    def test_src_imports_only_the_standard_library(self):
        """``pyproject.toml`` declares no runtime dependency, so every
        absolute import under ``src/repro`` is the stdlib or ``repro``; a
        new dependency is a ``pyproject.toml`` change first."""
        import ast
        import sys

        allowed = sys.stdlib_module_names | {"repro"}
        foreign = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                foreign += [
                    f"{path.relative_to(REPO)}:{node.lineno} imports {name}"
                    for name in names if name.split(".")[0] not in allowed]
        assert not foreign, foreign

    def test_src_has_no_unused_imports(self):
        """Every module-level import under ``src/repro`` (``__init__``
        re-export files aside) is used as a name or attribute root, listed
        in ``__all__``, or named in a string annotation."""
        import ast

        def annotation_names(tree):
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    notes = [a.annotation for a in (
                        node.args.posonlyargs + node.args.args
                        + node.args.kwonlyargs
                        + [node.args.vararg, node.args.kwarg]) if a]
                    notes.append(node.returns)
                elif isinstance(node, ast.AnnAssign):
                    notes = [node.annotation]
                else:
                    continue
                for note in filter(None, notes):
                    for leaf in ast.walk(note):
                        if (isinstance(leaf, ast.Constant)
                                and isinstance(leaf.value, str)):
                            for name in ast.walk(ast.parse(leaf.value,
                                                           mode="eval")):
                                if isinstance(name, ast.Name):
                                    yield name.id

        unused = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            imported = {}
            for stmt in tree.body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Import):
                        for alias in node.names:
                            bound = alias.asname or alias.name.split(".")[0]
                            imported[bound] = node.lineno
                    elif (isinstance(node, ast.ImportFrom)
                          and node.module != "__future__"):
                        for alias in node.names:
                            imported[alias.asname or alias.name] = node.lineno
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            used |= set(annotation_names(tree))
            for stmt in tree.body:
                if (isinstance(stmt, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__all__"
                                for t in stmt.targets)):
                    used |= set(ast.literal_eval(stmt.value))
            unused += [f"{path.relative_to(REPO)}:{line} {name}"
                       for name, line in imported.items() if name not in used]
        assert not unused, unused

    def test_readme_names_only_what_exists(self):
        """Every backticked repository path in README.md exists (a
        ``::member`` suffix is dropped, a ``*`` must match something)."""
        import re

        readme = (REPO / "README.md").read_text()
        named = set(re.findall(
            r"`((?:src|tests|benchmarks|examples)/[^`\s:]*)", readme))
        assert named, "README.md names no path at all"
        missing = sorted(path for path in named if not list(REPO.glob(path)))
        assert not missing, missing


class TestLazyParpNamespace:
    """repro.parp resolves attributes lazily (PEP 562) to break the
    contracts <-> parp import cycle; the facade must still behave like a
    normal module."""

    def test_exports_resolve(self):
        import repro.parp as parp

        for name in parp.__all__:
            assert getattr(parp, name) is not None, name

    def test_unknown_attribute_raises(self):
        import repro.parp as parp

        with pytest.raises(AttributeError):
            parp.NoSuchThing

    def test_dir_lists_exports(self):
        import repro.parp as parp

        listing = dir(parp)
        assert "LightClientSession" in listing
        assert "FullNodeServer" in listing

    def test_resolution_is_cached(self):
        import repro.parp as parp

        first = parp.LightClientSession
        assert parp.__dict__.get("LightClientSession") is first

    def test_no_circular_import_from_contracts_first(self):
        """Importing contracts before parp must not explode (the original
        cycle trigger)."""
        import importlib
        import sys

        saved = {k: v for k, v in sys.modules.items()
                 if k.startswith("repro")}
        for k in list(sys.modules):
            if k.startswith("repro"):
                del sys.modules[k]
        try:
            contracts = importlib.import_module("repro.contracts")
            parp = importlib.import_module("repro.parp")
            assert contracts.ChannelsModule is not None
            assert parp.LightClientSession is not None
        finally:
            sys.modules.update(saved)


class TestDocstrings:
    """Every public module carries real documentation (deliverable (e))."""

    def test_module_docstrings(self):
        import importlib
        import pathlib

        root = pathlib.Path(__file__).parents[2] / "src" / "repro"
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root.parent)
            module_name = str(rel.with_suffix("")).replace("/", ".")
            if module_name.endswith("__init__"):
                module_name = module_name[: -len(".__init__")]
            module = importlib.import_module(module_name)
            assert module.__doc__ and len(module.__doc__.strip()) > 20, \
                f"{module_name} lacks a docstring"

    def test_key_classes_documented(self):
        from repro.parp.client import LightClientSession
        from repro.parp.server import FullNodeServer
        from repro.trie import MerklePatriciaTrie

        for cls in (LightClientSession, FullNodeServer, MerklePatriciaTrie):
            assert cls.__doc__ and len(cls.__doc__.strip()) > 20
