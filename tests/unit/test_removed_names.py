"""What left the shipped package stays gone: one row per removed thing.

``tests/data/removed_names.json`` holds the rows, sorted, each naming how
its thing must fail.  ``of`` is a dotted path from an importable module; a
part ending in ``()`` is called with no arguments.  ``name``: nothing
called ``name`` resolves on ``of`` (an attribute, a dataclass field, a
container's member, a module's ``__all__`` entry or submodule).
``member``: the class ``of`` does not define ``name`` itself, though a base
may.  ``keyword``: ``inspect.signature(of).bind_partial`` refuses it.
``parameters``: ``of.name`` takes exactly ``value``.  ``file``: under
``of`` there is neither ``name.py`` nor ``name/*.py``.  ``source``: the
source of ``of`` does not contain ``name``.  ``constant``: ``of.name``
holds ``value``, the default of the option it replaced.  Pinning the next
removal is one row.
"""

import importlib
import importlib.util
import inspect
import json
import pathlib
import types

import pytest

from repro.chain import GenesisConfig
from repro.chain.state import StateDB
from repro.crypto import PrivateKey
from repro.net.network import SimNetwork
from repro.node import Devnet
from repro.parp.admission import AdmissionController
from repro.storage import AppendOnlyFileStore, BlockLog, RetentionPolicy
from repro.storage.logfile import LogFile

REPO = pathlib.Path(__file__).parents[2]
ROWS = json.loads((REPO / "tests" / "data" / "removed_names.json").read_text())


def key(row) -> tuple:
    return row["kind"], row["of"], row["name"]


def resolve(path: str):
    head, *parts = path.split(".")
    obj = importlib.import_module(head)
    for part in parts:
        name = part.removesuffix("()")
        try:
            obj = getattr(obj, name)
        except AttributeError:
            obj = importlib.import_module(f"{obj.__name__}.{name}")
        if part.endswith("()"):
            obj = obj()
    return obj


def violation(row):
    """How ``row`` is broken, or None."""
    kind, of, name = key(row)
    if kind == "file":
        found = (REPO / of / f"{name}.py").exists() or any(
            (REPO / of / name).glob("*.py"))
        return f"{of}/{name} exists" if found else None
    try:
        owner = resolve(of)
    except (ImportError, AttributeError) as exc:
        return f"{of} does not resolve: {exc}"
    fields = getattr(owner, "__dataclass_fields__", ())
    if kind == "member":
        found = name in vars(owner) or name in fields
    elif kind == "name" and isinstance(owner, types.ModuleType):
        found = (hasattr(owner, name) or name in getattr(owner, "__all__", ())
                 or hasattr(owner, "__path__")
                 and importlib.util.find_spec(f"{of}.{name}") is not None)
    elif kind == "name" and isinstance(owner, (dict, list, tuple, set)):
        found = name in owner
    elif kind == "name":
        found = hasattr(owner, name) or name in fields
    elif kind == "keyword":
        try:
            inspect.signature(owner).bind_partial(**{name: None})
        except TypeError as exc:
            return None if name in str(exc) else f"refused: {exc}"
        found = True
    elif kind == "source":
        found = name in inspect.getsource(owner)
    elif kind == "parameters":
        found = list(inspect.signature(resolve(f"{of}.{name}")).parameters)
        return None if found == row["value"] else f"takes {found}"
    elif kind == "constant":
        found = json.loads(json.dumps(resolve(f"{of}.{name}")))
        return None if found == row["value"] else f"holds {found!r}"
    else:
        return f"unknown kind {kind}"
    return f"{of} still has {name}" if found else None


def file_faults(rows) -> list[str]:
    keys = [key(row) for row in rows]
    return (["a duplicate row"] * (len(set(keys)) != len(keys))
            + ["rows out of order"] * (keys != sorted(keys)))


@pytest.mark.parametrize("row", ROWS, ids=lambda row: ":".join(key(row)))
def test_removed_thing_stays_removed(row):
    assert violation(row) is None


def test_the_file_is_sorted_and_has_no_duplicate():
    assert file_faults(ROWS) == []
    assert file_faults(ROWS[:1] + ROWS) == ["a duplicate row"]
    assert file_faults(ROWS[::-1]) == ["rows out of order"]


@pytest.mark.parametrize("row", [
    {"kind": "member", "of": "repro.parp.server.FullNodeServer",
     "name": "serve_batch"},
    {"kind": "keyword", "of": "repro.parp.client.LightClientSession",
     "name": "hash_memo"},
    {"kind": "constant", "of": "repro.parp.reputation", "name": "HALF_LIFE",
     "value": 1.0},
    {"kind": "name", "of": "repro.parp.no_such_module", "name": "anything"},
    {"kind": "nmae", "of": "repro.parp", "name": "anything"},
], ids=lambda row: row["kind"])
def test_a_live_thing_is_reported(row):
    """The checker can fail: a live member, a live keyword, a wrong value,
    an owner that does not resolve and a kind it does not know are each a
    violation."""
    assert violation(row) is not None


def test_removed_calls_are_refused(tmp_path):
    """What only a live call shows: a refused store or log keyword creates
    no file, ``attach_shard_cluster`` forwards what it does not name to the
    server constructor (which takes no name prefix), every producer states
    a message's size, and the admission controller keeps no copy of the
    server's admitted/shed counts, even after an offer."""
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
    operator = PrivateKey.from_seed("unit:api:census")
    with pytest.raises(TypeError, match="name_prefix"):
        Devnet(GenesisConfig()).attach_shard_cluster(
            [operator], 1, stake=False, name_prefix="shard")
    with pytest.raises(TypeError, match="size_bytes"):
        SimNetwork().send("census", "census", b"payload")
    controller = AdmissionController()
    assert controller.offer(1.0).admitted
    assert not hasattr(controller, "admitted")
    assert not hasattr(controller, "shed")
