"""The committed settable-surface census is this tree's, and every value in
it is set by something outside ``tests/`` or says why it stays.

``benchmarks/results/surface.json`` is what ``benchmarks/surface.py``
writes: every defaulted ``def`` parameter and every defaulted dataclass
field ``__init__`` accepts under ``src/``, with the functions in ``src/``,
``benchmarks/`` and ``examples/`` that set it.  The census reads the AST
only, so tier-1 regenerates it and compares: an option added, removed or
newly set without a fresh census fails here, and so does a value nothing
outside ``tests/`` sets unless ``REVIEWED`` gives it one of the three
reasons in ``WHYS``.  Counters and protocol state are the object's own:
counters are the ``Counters`` their owner declares, protocol state is
``field(init=False)``, and neither is a value a caller sets.
"""

import ast
import dataclasses
import inspect
import json
import textwrap

import pytest

from benchmarks.surface import (
    OUT,
    REVIEWED,
    ROOT,
    WHYS,
    _Calls,
    _Census,
    _Defs,
    _modules,
    census,
)
from repro.chain import GenesisConfig
from repro.crypto import PrivateKey
from repro.gossip import GossipNode, HeadGossip, ReputationShare
from repro.gossip.pubsub import _PeerScore
from repro.lightclient import HeaderSyncer
from repro.metrics import Counters, LRUCache
from repro.net import SimNetwork
from repro.node import Devnet, FullNode
from repro.parp.channel import ClientChannel, ServerChannel
from repro.parp.client import PendingQuery
from repro.parp.liveness import LivenessMonitor
from repro.parp.marketplace import (
    HedgeAttempt,
    Marketplace,
    MarketplaceClient,
    ShardLeg,
)
from repro.parp.reputation import ReputationLedger
from repro.parp.server import FullNodeServer
from repro.storage import AppendOnlyFileStore, BlockLog
from repro.vm.runtime import _TxState

CURRENT = census()
COMMITTED = json.loads(OUT.read_text(encoding="utf-8"))
UNSET = [e for e in CURRENT["entries"] if not e["set"]]

#: every class that builds a ``Counters`` under src/
COUNTER_OWNERS = (LRUCache, SimNetwork, MarketplaceClient, FullNodeServer,
                  BlockLog, AppendOnlyFileStore, GossipNode, ReputationShare,
                  HeadGossip)
STATE = {
    ClientChannel: ("spent", "acked", "requests_sent"),
    ServerChannel: ("latest_amount", "latest_sig", "requests_served",
                    "queries_served", "closed"),
    HedgeAttempt: ("outcome", "detail", "ad", "session", "deadline", "cost"),
    ShardLeg: ("outcome", "winner", "error", "cost", "attempts", "single",
               "tried", "sheds", "active", "failures"),
    PendingQuery: ("collected",),
    LivenessMonitor: ("observations",),
    _PeerScore: ("window_start", "in_window", "accepted", "dropped"),
    _TxState: ("warm_addresses", "warm_slots", "logs"),
}


def test_committed_census_is_this_trees():
    assert COMMITTED == CURRENT, (
        "benchmarks/results/surface.json is stale: re-run "
        "python benchmarks/surface.py and review the diff")


def test_totals_match_the_entries():
    entries = CURRENT["entries"]
    assert CURRENT["values"] == len(entries)
    assert CURRENT["unset"] == len(UNSET)
    keys = {(e["file"], e["owner"], e["name"]) for e in entries}
    assert len(keys) == len(entries)
    assert set(REVIEWED) <= keys


@pytest.mark.parametrize("entry", UNSET,
                         ids=[f"{e['file']}::{e['owner']}.{e['name']}"
                              for e in UNSET])
def test_a_value_nothing_outside_tests_sets_says_why(entry):
    assert entry["why"] in WHYS, (
        f"{entry['file']}::{entry['owner']}.{entry['name']} is set by "
        "nothing outside tests/: make it a module constant, delete it, or "
        "give it a reason from WHYS in REVIEWED (benchmarks/surface.py)")


def test_a_set_value_carries_no_reason():
    assert all(not e["why"] for e in CURRENT["entries"] if e["set"])


def _classes_building_counters() -> set[str]:
    """The name of each class under src/ whose body calls ``Counters``."""
    owners = set()
    for path in (ROOT / "src").rglob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef) and any(
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "Counters"
                    for node in ast.walk(cls)):
                owners.add(cls.name)
    return owners


@pytest.fixture
def fresh_counters(tmp_path):
    """Each owner's counters, read off a freshly built owner."""
    devnet = Devnet(GenesisConfig())
    node = FullNode(devnet.chain, name="census")
    network = SimNetwork()
    gossip = GossipNode(network, "census")
    key = PrivateKey.from_seed("unit:surface:counters")
    blocks = BlockLog(tmp_path / "blocks.log")
    nodes = AppendOnlyFileStore(tmp_path / "nodes.log")
    yield {
        LRUCache: [LRUCache().stats],
        SimNetwork: [network.stats, network.link("census", "peer")],
        MarketplaceClient: [MarketplaceClient(key, Marketplace()).stats],
        FullNodeServer: [FullNodeServer(node).stats],
        BlockLog: [blocks.stats],
        AppendOnlyFileStore: [nodes.stats],
        GossipNode: [gossip.stats],
        ReputationShare: [
            ReputationShare(gossip, ReputationLedger(), key).stats],
        HeadGossip: [HeadGossip(gossip, HeaderSyncer([node])).stats],
    }
    blocks.close()
    nodes.close()


def test_counters_and_protocol_state_are_not_constructor_keywords(
        fresh_counters):
    """A caller could once open a channel already holding a banked σ_a
    (``ServerChannel(latest_amount=…, latest_sig=…)``) or a cache with
    hits it never served.  Every owner of counters declares their names in
    one ``Counters(...)``: each counter starts at 0, ``Counters`` takes
    names and no value, and no owner's constructor takes its counters or
    one of them.  Each mutable-state field starts at its default and is
    only moved by the object itself."""
    assert {cls.__name__ for cls in COUNTER_OWNERS} \
        == _classes_building_counters()
    assert list(fresh_counters) == list(COUNTER_OWNERS)
    for owner, counters in fresh_counters.items():
        parameters = set(inspect.signature(owner).parameters)
        for stats in counters:
            assert isinstance(stats, Counters)
            snapshot = stats.snapshot()
            assert snapshot and set(snapshot.values()) == {0}, owner
            assert not parameters & {"stats", *snapshot}, owner
    assert [p.kind for p in inspect.signature(Counters).parameters.values()] \
        == [inspect.Parameter.VAR_POSITIONAL]
    with pytest.raises(TypeError):
        Counters("hits", hits=1)

    taken = [f"{cls.__name__}.{name}" for cls, names in STATE.items()
             for f in dataclasses.fields(cls)
             if f.name in names and f.init]
    assert taken == []
    assert sum(map(len, STATE.values())) == 33
    light_client = PrivateKey.from_seed("unit:surface:lc").address
    with pytest.raises(TypeError, match="latest_amount"):
        ServerChannel(b"\x01" * 16, light_client, budget=10,
                      latest_amount=5, latest_sig=b"\x00" * 65)
    with pytest.raises(TypeError, match="spent"):
        ClientChannel(b"\x01" * 16, light_client, budget=10, spent=3)
    fresh = ServerChannel(b"\x01" * 16, light_client, budget=10)
    assert (fresh.latest_amount, fresh.latest_sig, fresh.closed) == (
        0, None, False)


#: four definitions under src/, each a value a name-only match once
#: credited to a call that cannot reach it
PROBE_DEFS = {
    "net/simclock.py": """
        class SimClock:
            def __init__(self, start=0.0): ...
    """,
    "parp/client.py": """
        class LightClientSession:
            def close(self, relay=None): ...
    """,
    "parp/messages.py": """
        class PARPRequest:
            def verify(self, expected_sender=None, keccak=None,
                       ecrecover=None): ...
    """,
    "crypto/ecdsa.py": """
        def verify(digest, signature, key, strict=False): ...
    """,
}

PROBE_CALLER = """
    import os
    from repro.crypto import ecdsa
    from repro.net.simclock import SimClock

    class JsonRpcError(Exception):
        def __init__(self, message):
            super().__init__(message)

    class SlowClock(SimClock):
        def __init__(self):
            super().__init__(5.0)

    def close_and_check(fd, digest, signature, key):
        os.close(fd)
        ecdsa.verify(digest, signature, key)
        ecdsa.verify(digest, signature, key, True)
"""


def test_a_call_credits_only_what_it_can_reach():
    """``super().__init__`` in a class whose bases are outside ``src/``
    reaches no ``__init__`` under it, and a call on an imported module is
    that module's function: ``os.close(fd)`` is no
    ``LightClientSession.close(relay)`` and ``ecdsa.verify(...)`` no
    ``PARPRequest.verify``.  A benchmark's subclass still sets its base's
    value through ``super()``."""
    defs = _Defs({rel: ast.parse(textwrap.dedent(code))
                  for rel, code in PROBE_DEFS.items()})
    tally = _Census(defs)
    tree = ast.parse(textwrap.dedent(PROBE_CALLER))
    _Calls(defs, "benchmarks/probe.py", None, tally,
           _modules(ROOT / "benchmarks" / "probe.py", tree)).visit(tree)
    tally.drain()
    setters = {f"{owner}.{name}": sorted(found)
               for (_, owner, name), found in tally.setters.items()}
    assert setters == {
        "SimClock.__init__.start": ["benchmarks/probe.py::SlowClock.__init__"],
        "LightClientSession.close.relay": [],
        "PARPRequest.verify.expected_sender": [],
        "PARPRequest.verify.keccak": [],
        "PARPRequest.verify.ecrecover": [],
        "verify.strict": ["benchmarks/probe.py::close_and_check"],
    }
