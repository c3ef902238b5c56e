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
they are ``field(init=False)``, not values a caller sets.
"""

import ast
import dataclasses
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
from repro.crypto import PrivateKey
from repro.gossip.heads import HeadGossipStats
from repro.gossip.pubsub import GossipStats, _PeerScore
from repro.gossip.repshare import ReputationShareStats
from repro.metrics import CacheStats
from repro.net.network import LinkStats, NetworkStats
from repro.parp.channel import ClientChannel, ServerChannel
from repro.parp.client import PendingQuery
from repro.parp.liveness import LivenessMonitor
from repro.parp.marketplace import (
    HedgeAttempt,
    MarketplaceStats,
    ShardLeg,
)
from repro.parp.server import ServerStats
from repro.storage.blocklog import BlockLogStats
from repro.storage.filestore import FileStoreStats
from repro.vm.runtime import _TxState

CURRENT = census()
COMMITTED = json.loads(OUT.read_text(encoding="utf-8"))
UNSET = [e for e in CURRENT["entries"] if not e["set"]]

STATS = (LinkStats, NetworkStats, CacheStats, MarketplaceStats, ServerStats,
         BlockLogStats, FileStoreStats, GossipStats, ReputationShareStats,
         HeadGossipStats)
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


def test_counters_and_protocol_state_are_not_constructor_keywords():
    """A caller could once open a channel already holding a banked σ_a
    (``ServerChannel(latest_amount=…, latest_sig=…)``) or a cache with
    hits it never served.  Every counter of the ten ``*Stats`` classes and
    each mutable-state field starts at its default and is only moved by
    the object itself."""
    taken = [f"{cls.__name__}.{f.name}" for cls in STATS
             for f in dataclasses.fields(cls) if f.init]
    taken += [f"{cls.__name__}.{name}" for cls, names in STATE.items()
              for f in dataclasses.fields(cls)
              if f.name in names and f.init]
    assert taken == []
    assert sum(len(dataclasses.fields(cls)) for cls in STATS) == 79
    assert sum(map(len, STATE.values())) == 33
    for cls in STATS:
        with pytest.raises(TypeError):
            cls(**{dataclasses.fields(cls)[0].name: 1})
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
