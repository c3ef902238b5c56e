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
        serving paths only tests reached, every retention, fsync and
        node-store option outside the chain, the second header pull path
        (``serve_header``, ``serve_bootstrap``, ``RangeUpdate``), Proof of
        Serving, private state taken as a constructor keyword, the
        second and third walks of a state's node set, the reputation
        ledger's event list, a session clock no check could use, the ten
        ``*Stats`` counter classes and the admission controller's copy of
        the server's admitted/shed counts."""
        import importlib
        import inspect
        import threading
        from collections import OrderedDict

        import repro.metrics
        import repro.parp
        import repro.rlp
        import repro.trie
        import repro.workloads

        for module, name in ((repro.trie, "NaiveMerklePatriciaTrie"),
                             (repro.trie, "ShardSlice"),
                             (repro.trie, "collect_subtree"),
                             (repro.rlp, "Sedes"),
                             (repro.parp, "PendingRequest"),
                             (repro.parp, "ReputationEvent"),
                             (repro.parp, "EVENT_VERSION_MISMATCH")):
            assert name not in module.__all__
            assert not hasattr(module, name)

        # batch-version negotiation: every server speaks one version
        import dataclasses

        from repro.net.transport import ENDPOINT_METHODS
        from repro.parp import reputation
        from repro.parp.client import LightClientSession
        from repro.parp.marketplace import ServerAdvertisement
        from repro.parp.server import FullNodeServer

        assert "EVENT_VERSION_MISMATCH" not in reputation.__all__
        assert "batch_protocol_version" not in ENDPOINT_METHODS
        assert not hasattr(FullNodeServer, "batch_protocol_version")
        assert not hasattr(LightClientSession, "batch_supported")
        assert "batch_version" not in {
            f.name for f in dataclasses.fields(ServerAdvertisement)}
        assert "version_mismatches" not in inspect.getsource(
            importlib.import_module("repro.parp.marketplace"))

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
        assert repro.metrics.__all__ == ["Counters", "LRUCache"]

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
        from repro.parp import queries
        from repro.parp.pricing import DEFAULT_FEE_SCHEDULE
        assert "parp_updatesByRange" not in queries.QUERY_CATALOG
        assert "parp_updatesByRange" not in DEFAULT_FEE_SCHEDULE.prices
        for name in ("_execute_updates_range", "_at_anchor",
                     "_verify_updates_range", "decode_header_range"):
            assert not hasattr(queries, name)
        # one header pull path: every pulled header rides the free
        # serve_updates_range through HeaderSyncer's one page quorum
        import repro.lightclient
        from repro.lightclient import checkpoint
        from repro.parp import states
        for module, name in ((repro.lightclient, "RangeUpdate"),
                             (repro.lightclient, "CheckpointSource"),
                             (repro.parp, "FullNodeState")):
            assert name not in module.__all__
            assert not hasattr(module, name)
        for module, name in ((checkpoint, "RangeUpdate"),
                             (checkpoint, "CheckpointSource"),
                             (states, "FullNodeState")):
            assert not hasattr(module, name)
        assert len(ENDPOINT_METHODS) == 9
        assert "serve_header" not in ENDPOINT_METHODS
        assert "serve_bootstrap" not in ENDPOINT_METHODS
        # cross-network waits: one wait drives one event loop
        import repro.net
        from repro.net import futures
        assert "as_completed" not in repro.net.__all__
        for name in ("as_completed", "_driver_key", "_driver_groups"):
            assert not hasattr(futures, name)
            assert not hasattr(repro.net, name)
        # the duplicate light-client verifiers: parp/queries.py walks
        # proofs through walk_account / walk_storage
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
                     "open_block_log", "live_state_nodes"):
            assert name not in repro.storage.__all__
            assert not hasattr(repro.storage, name)
        assert not hasattr(nodestore, "as_node_store")
        assert not hasattr(compaction, "RetentionSpec")
        # one walk of a state's node set: slices and compaction share
        # repro.trie.walk_state_nodes, and a cut walk leaves a pool usable
        from repro.trie import shard
        assert not hasattr(compaction, "live_state_nodes")
        for name in ("ShardSlice", "collect_subtree"):
            assert not hasattr(shard, name)
        assert not hasattr(shard.ShardPool, "clear")
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
        # what the reach census (benchmarks/results/reach.json) found no
        # producer for: the conveniences went, the one oracle of shard
        # masking moved to tests/reference_shard.py and Fig. 3's one-call
        # request digests to tests/reference_digests.py
        from repro.chain.block import Block
        from repro.contracts import channels
        from repro.crypto.keys import Address, PrivateKey
        from repro.gossip.heads import HeadGossip
        from repro.gossip.pubsub import GossipNode
        from repro.gossip.repshare import ReputationGossip, ReputationShare
        from repro.lightclient import CheckpointSyncer, HeaderSyncer
        from repro.net.network import SimNetwork
        from repro.net.futures import PendingReply
        from repro.net.simclock import SimClock
        from repro.parp import admission, messages
        from repro.parp.channel import ClientChannel, ServerChannel
        from repro.parp.client import ServerEndpoint
        from repro.parp.marketplace import MarketplaceClient, ShardScatterError
        from repro.parp.pricing import (CallBasedFeeSchedule, FeeSchedule,
                                        FlatFeeSchedule)
        from repro.parp.reputation import ReputationLedger
        from repro.trie import MerklePatriciaTrie, shard
        from repro.vm import abi, contract, runtime
        from repro.workloads import ZipfSelector
        removed = {
            admission.AdmissionController: ("snapshot",),
            FullNodeServer: ("load_info", "disable_gossip",
                             "open_channel_count", "node_store",
                             "serve_header", "serve_bootstrap",
                             "serving_receipt"),
            ServerEndpoint: ("load_info", "serve_header", "serve_bootstrap"),
            FullNode: ("node_store", "serve_header", "serve_bootstrap",
                       "get_header_by_hash"),
            LightClientSession: ("adopt_channel", "get_balances",
                                 "get_transaction", "send_transaction",
                                 "alpha"),
            MarketplaceClient: ("query_batch", "get_balances",
                                "selection_score"),
            ShardScatterError: ("failed_legs",),
            MerklePatriciaTrie: ("items", "_iter", "_nibbles_to_key",
                                 "__len__", "__contains__", "snapshot"),
            Address: ("hex_checksum",),
            PrivateKey: ("generate",),
            GossipNode: ("unsubscribe", "remove_peer", "subscribed",
                         "peer_score"),
            HeadGossip: ("resubscribe",),
            ReputationShare: ("resubscribe",),
            ReputationGossip: ("time",),
            # one decayed standing per address: no event is kept, and a
            # reply is observed through done(), ok and result()
            ReputationLedger: ("events_of",),
            reputation: ("ReputationEvent",),
            PendingReply: ("cancelled", "exception", "state"),
            StateDB: ("shard_head", "accounts"),
            shard.ShardRange: ("full",),
            Block: ("transaction_index",),
            channels.ChannelsModule: ("channel_status",),
            runtime.CallContext: ("origin", "meter", "balance"),
            runtime.ContractRegistry: ("addresses",),
            runtime.GasMeter: ("remaining",),
            HeaderSyncer: ("push_enabled", "ensure_height",
                           "_fetch_checked"),
            CheckpointSyncer: ("sync_to", "_fetch_page", "_valid_prefix"),
            ClientChannel: ("remaining",),
            ServerChannel: ("earned",),
            BlockLog: ("last_hash",),
            SimNetwork: ("node",),
            SimClock: ("advance",),
            ZipfSelector: ("stream",),
            FeeSchedule: ("describe",),
            FlatFeeSchedule: ("describe",),
            CallBasedFeeSchedule: ("describe",),
            messages.BatchRequest: ("wire_overhead",),
            queries: ("is_verifiable",),
            shard: ("combine_shard_heads",),
            repro.trie: ("combine_shard_heads",),
            channels: ("channel_budget_slot",),
            abi: ("as_bool", "as_list"),
            contract: ("field_slot",),
            messages: ("request_digest", "batch_request_digest"),
        }
        for owner, names in removed.items():
            for name in names:
                assert name not in vars(owner), f"{owner.__name__}.{name}"
        from repro.node import Devnet
        assert not hasattr(Devnet, "result_of")
        assert not hasattr(admission.AdmissionConfig(), "ewma_alpha")
        assert "load_info" not in ENDPOINT_METHODS
        # options no caller set to anything but their default are module
        # constants holding that default, and the off-by-default reward
        # heuristics are gone: each factory builds with no keyword and
        # refuses the removed one
        from repro.chain import GenesisConfig
        from repro.lightclient.checkpoint import Checkpoint
        from repro.lightclient.headerchain import HeaderChain
        from repro.metrics import Counters, LRUCache
        from repro.parp import fraudproof
        from repro.parp.constants import DEFAULT_SELECTION_THRESHOLD
        from repro.parp.client import DEFAULT_GAS_PRICE
        from repro.parp.liveness import LivenessMonitor
        from repro.parp.reputation import EVENT_SERVED_OK, ReputationLedger
        devnet = Devnet(GenesisConfig())
        node = FullNode(devnet.chain, name="census")
        network = SimNetwork()
        gossip = GossipNode(network, "census")
        genesis = Checkpoint.of(devnet.chain.head.header)
        key = PrivateKey.from_seed("unit:api:census")
        session = LightClientSession(key, FullNodeServer(node),
                                     HeaderSyncer([node]))
        factories = {
            "ReputationLedger": lambda **kw: ReputationLedger(**kw),
            "ReputationLedger.record": lambda **kw: ReputationLedger().record(
                key.address, EVENT_SERVED_OK, 0.0, **kw),
            "MarketplaceClient": lambda **kw: MarketplaceClient(
                key, Marketplace(), **kw),
            "CallBasedFeeSchedule": lambda **kw: CallBasedFeeSchedule(**kw),
            "AdmissionConfig": lambda **kw: admission.AdmissionConfig(**kw),
            "WitnessService": lambda **kw: fraudproof.WitnessService(
                node, **kw),
            "HeadGossip": lambda **kw: HeadGossip(
                gossip, HeaderSyncer([node]), **kw),
            "ReputationShare": lambda **kw: ReputationShare(
                gossip, ReputationLedger(), key, **kw),
            "HeaderSyncer": lambda **kw: HeaderSyncer([node], **kw),
            "CheckpointSyncer": lambda **kw: CheckpointSyncer(
                [node], genesis, **kw),
            "SimNetwork": lambda **kw: SimNetwork(**kw),
            "LRUCache": lambda **kw: LRUCache(**kw),
            "LivenessMonitor": lambda **kw: LivenessMonitor(session, **kw),
            "LightClientSession": lambda **kw: LightClientSession(
                key, FullNodeServer(node), HeaderSyncer([node]), **kw),
        }
        removed_keywords = {
            "ReputationLedger": {"half_life": 86_400.0, "newcomer_score": 0.1,
                                 "saturation": 100.0, "soft_floor": 0.05,
                                 "remote_budget": 30.0},
            "ReputationLedger.record": {"weight": 1.0},
            "MarketplaceClient": {
                "reputation": ReputationLedger(),
                "headers": HeaderSyncer([node]),
                "selection_threshold": DEFAULT_SELECTION_THRESHOLD,
                "gas_price": DEFAULT_GAS_PRICE},
            "CallBasedFeeSchedule": {"batch_rebate": pricing.GWEI},
            "AdmissionConfig": {"batch_item_cost": 0.25},
            "WitnessService": {"gas_price": 12 * 10 ** 9,
                               "gas_limit": 2_000_000},
            "HeadGossip": {"clock": network.clock.now},
            "ReputationShare": {"clock": network.clock.now},
            "HeaderSyncer": {"chain": HeaderChain()},
            "CheckpointSyncer": {"chain": HeaderChain()},
            "SimNetwork": {"clock": SimClock()},
            # private state is no constructor's to take
            "LRUCache": {"stats": Counters(), "_entries": OrderedDict(a=1),
                         "_lock": threading.Lock()},
            "LivenessMonitor": {"_probes": 1},
            # a handshake expiry is chain time: the session reads the tip
            "LightClientSession": {"clock": network.clock.now},
        }
        assert sum(map(len, removed_keywords.values())) == 24
        for owner, keywords in removed_keywords.items():
            factories[owner]()
            for keyword, value in keywords.items():
                with pytest.raises(TypeError, match=keyword):
                    factories[owner](**{keyword: value})
        # ...and each constant holds the default it replaced
        from repro.parp import reputation as rep
        assert (rep.HALF_LIFE, rep.NEWCOMER_SCORE, rep.SATURATION,
                rep.SOFT_FLOOR, rep.REMOTE_BUDGET) == (
                    86_400.0, 0.1, 100.0, 0.05, 30.0)
        assert pricing.BATCH_REBATE == pricing.GWEI
        assert admission.BATCH_ITEM_COST == 0.25
        assert (fraudproof.WITNESS_GAS_PRICE,
                fraudproof.WITNESS_GAS_LIMIT) == (12 * 10 ** 9, 2_000_000)
        assert LRUCache().stats.snapshot() == dict(hits=0, misses=0,
                                                   evictions=0)
        # options nothing outside tests/ set (benchmarks/surface.py): each
        # became a module constant or went with its branch, and each
        # signature refuses the keyword
        from repro.chain import chain as chain_module
        from repro.contracts import gascost
        from repro.gossip import pubsub
        from repro.net import futures, latency, transport
        from repro.crypto.keccak import Keccak256
        from repro.lightclient.headerchain import HeaderChain
        from repro.net.simclock import SimClock
        from repro.parp import liveness
        from repro.parp import marketplace as routing
        from repro.parp.liveness import LivenessMonitor
        from repro.storage import compaction as retention
        dropped = {
            LightClientSession.__init__: ("gas_price",),
            LightClientSession.connect: ("gas_limit",),
            LightClientSession.request: ("tip",),
            LightClientSession.request_call: ("tip",),
            LightClientSession.begin_request: ("tip",),
            LightClientSession.query_batch: ("tip",),
            LightClientSession.begin_batch: ("tip",),
            LightClientSession.build_close_transaction: ("gas_limit",),
            LightClientSession.confirm_close: ("relay",),
            MarketplaceClient.__init__: ("min_sessions",),
            MarketplaceClient.request: ("tip",),
            MarketplaceClient.request_call: ("tip",),
            MarketplaceClient.query_hedged: ("tip",),
            MarketplaceClient.query_sharded: ("tip", "fanout"),
            MarketplaceClient.eligible: ("now",),
            MarketplaceClient.join_gossip: ("staleness",),
            FullNodeServer.__init__: ("clock",),
            FullNodeServer.build_close_transaction: ("gas_price",
                                                     "gas_limit"),
            server._SnapshotViewBackend.__init__: ("capacity",),
            server._ShardSliceBackend.__init__: ("capacity",),
            fraudproof.WitnessService.__init__: ("key",),
            FeeSchedule.reference_price: ("methods",),
            pricing.load_multiplier: ("knee", "cap"),
            gascost.gas_to_usd: ("eth_price_usd",),
            GossipNode.__init__: ("ttl", "seen_cache_size", "rate_limit",
                                  "rate_window"),
            HeaderSyncer.push_fresh: ("now",),
            SimNetwork.run: ("max_events",),
            latency.FixedLatency.__init__: ("bytes_per_second",),
            futures.PendingReply.completed: ("target",),
            futures.PendingReply.failed: ("target",),
            futures.PendingReply.wait: ("timeout",),
            futures.PendingReply.result: ("timeout",),
            futures.wait_all: ("timeout",),
            transport.SimEndpoint.submit: ("timeout",),
            Devnet.__init__: ("db",),
            Devnet.mine: ("coinbase",),
            Devnet.call_view: ("caller",),
            Devnet.stake_full_node: ("amount",),
            Devnet.send_transaction: ("gas_price",),
            FullNode.__init__: ("auto_mine",),
            RetentionPolicy: ("compact_growth",),
            runtime.CallContext.call: ("value",),
            repro.workloads.AccountSet.genesis: ("base",),
            LivenessMonitor: ("period", "verify_every"),
            SimClock.__init__: ("start",),
            HeaderChain.__init__: ("anchor",),
            Keccak256.__init__: ("data",),
        }
        assert sum(map(len, dropped.values())) == 54
        for function, names in dropped.items():
            signature = inspect.signature(function)
            for name in names:
                with pytest.raises(TypeError):
                    signature.bind_partial(**{name: None})
        # attach_shard_cluster passes what it does not name on to the
        # server constructor, which takes no name prefix
        with pytest.raises(TypeError, match="name_prefix"):
            devnet.attach_shard_cluster([key], 1, stake=False,
                                        name_prefix="shard")
        # every producer states a message's size: none is guessed
        with pytest.raises(TypeError, match="size_bytes"):
            network.send("census", "census", b"payload")
        # ...and each constant holds the default it replaced
        assert (pubsub.DEFAULT_TTL, pubsub.DEFAULT_SEEN_CACHE,
                pubsub.DEFAULT_RATE_LIMIT, pubsub.DEFAULT_RATE_WINDOW) == (
                    4, 4096, 64, 1.0)
        assert (futures.BACKOFF_BASE, futures.BACKOFF_CAP,
                futures.BACKOFF_FACTOR, futures.BACKOFF_JITTER) == (
                    0.05, 5.0, 2.0, 0.5)
        assert routing.SHARD_FANOUT == 1
        # the routing engine keeps one record per leg (ShardLeg) and one per
        # launch (HedgeAttempt); the retry backoff is backoff_delay(n, seed)
        for name in ("_LegRace", "_HedgeEntry"):
            assert not hasattr(routing, name)
        assert not hasattr(futures, "ExponentialBackoff")
        assert not hasattr(repro.net, "ExponentialBackoff")
        assert liveness.VERIFY_EVERY == 2
        assert chain_module.COMPACT_GROWTH == 2.0
        assert not hasattr(retention.RetentionPolicy(), "compact_growth")
        assert not hasattr(importlib.import_module("repro.net.network"),
                           "_estimate_size")
        # Proof of Serving (§VIII) left src/: a node that funds its own fake
        # light clients gets their budgets back on close, so its receipts
        # cost it only gas
        for name in ("ServingReceipt", "ReceiptValidator", "EpochClaim",
                     "RewardPool"):
            with pytest.raises(AttributeError):
                getattr(repro.parp, name)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.parp.proof_of_serving")
        # one counter type: the ten *Stats dataclasses are Counters values
        # their owners declare, and the admission controller keeps no copy
        # of the server's admitted/shed counts
        stats_classes = {
            "repro.net": ("LinkStats", "NetworkStats"),
            "repro.net.network": ("LinkStats", "NetworkStats"),
            "repro.metrics": ("CacheStats",),
            "repro.metrics.cache": ("CacheStats",),
            "repro.parp.marketplace": ("MarketplaceStats",),
            "repro.parp.server": ("ServerStats",),
            "repro.storage": ("BlockLogStats", "FileStoreStats"),
            "repro.storage.blocklog": ("BlockLogStats",),
            "repro.storage.filestore": ("FileStoreStats",),
            "repro.gossip": ("GossipStats", "ReputationShareStats",
                             "HeadGossipStats"),
            "repro.gossip.pubsub": ("GossipStats",),
            "repro.gossip.repshare": ("ReputationShareStats",),
            "repro.gossip.heads": ("HeadGossipStats",),
        }
        for name, classes in stats_classes.items():
            module = importlib.import_module(name)
            for cls in classes:
                assert cls not in getattr(module, "__all__", ())
                assert not hasattr(module, cls), f"{name}.{cls}"
        for name in ("ServerStats", "MarketplaceStats"):
            with pytest.raises(AttributeError):
                getattr(repro.parp, name)
        assert not hasattr(network.stats, "links")
        assert not hasattr(network.stats, "link")
        controller = admission.AdmissionController()
        assert controller.offer(1.0).admitted
        assert not hasattr(controller, "admitted")
        assert not hasattr(controller, "shed")

    def test_no_private_dataclass_field_is_a_constructor_keyword(self):
        """A dataclass field named ``_x`` is the object's own state: a
        caller that passed ``_entries=`` once seeded a cache with entries
        it never put.  Every such field in the package is ``init=False``."""
        import dataclasses
        import importlib
        import inspect
        import pkgutil

        import repro

        checked, taken = 0, []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for cls in vars(module).values():
                if not (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                        and cls.__module__ == module.__name__):
                    continue
                checked += 1
                taken += [f"{cls.__qualname__}.{f.name}"
                          for f in dataclasses.fields(cls)
                          if f.name.startswith("_") and f.init]
        assert checked > 50 and taken == []

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
