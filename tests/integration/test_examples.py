"""Every script under ``examples/`` runs, in process, and says what it shows.

Each example is executed as ``__main__`` through :func:`runpy.run_path`
with its own ``sys.argv``, so a broken import, a renamed API or a demo that
stops demonstrating fails tier-1 instead of the first reader who tries it.
The disk-backed quickstart runs twice over one directory: the second run
must reattach to the persisted chain and, the first run having compacted to
the state of the newest two blocks, checkpoint-sync its light client.
"""

import argparse
import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parents[2] / "examples"

#: example -> lines its output must contain
EXPECTED = {
    "quickstart.py": ("channel open", "verified balance", "channel settled"),
    "fraud_detection.py": ("fraud detected", "slashed",
                           "node still eligible to serve? False"),
    "gossip_reputation.py": ("reached the client without polling",
                             "gossip alone can never hard-ban"),
    "channel_dispute.py": ("the stale-state underpayment attempt failed",),
    "hedged_query.py": ("(slashed: True)",),
    "sharded_cluster.py": ("survived the failover",),
    "wallet_dapp.py": ("reputation after the session",),
}


def run_example(name, monkeypatch, capsys, *args) -> str:
    path = EXAMPLES / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def test_every_example_is_listed():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_example_runs(name, monkeypatch, capsys):
    out = run_example(name, monkeypatch, capsys)
    for line in EXPECTED[name]:
        assert line in out, f"{name} no longer prints {line!r}"


def test_disk_backed_quickstart_reattaches(tmp_path, monkeypatch, capsys):
    args = ("--state-dir", str(tmp_path), "--retain", "last:2")
    first = run_example("quickstart.py", monkeypatch, capsys, *args)
    assert "disk-backed" in first and "compacted to the last 2 blocks" in first
    assert "reattached" not in first

    second = run_example("quickstart.py", monkeypatch, capsys, *args)
    assert "reattached" in second
    assert "checkpoint-syncs" in second
    assert "channel settled" in second


@pytest.mark.parametrize("spec, k", [("archive", 0), ("last:1", 1),
                                     ("last:4", 4)])
def test_quickstart_retain_grammar_accepts(spec, k):
    retention_policy = runpy.run_path(
        str(EXAMPLES / "quickstart.py"))["retention_policy"]
    policy = retention_policy(spec)
    assert (policy.prunes, policy.k) == (k > 0, k)


@pytest.mark.parametrize("spec", ["4", "last-4", "last:0", "last:", "lru"])
def test_quickstart_retain_grammar_refuses(spec):
    retention_policy = runpy.run_path(
        str(EXAMPLES / "quickstart.py"))["retention_policy"]
    with pytest.raises(argparse.ArgumentTypeError, match="last:K"):
        retention_policy(spec)


def test_quickstart_refuses_pruning_without_a_state_dir(monkeypatch, capsys):
    """A memory store cannot compact: the chain refuses last-K rather than
    report it and never prune."""
    with pytest.raises(SystemExit) as exited:
        run_example("quickstart.py", monkeypatch, capsys, "--retain", "last:2")
    assert exited.value.code == 1
    assert "can compact" in capsys.readouterr().err
