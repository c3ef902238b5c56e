"""The committed reach census names real functions, each with its reason.

``benchmarks/results/reach.json`` is what ``benchmarks/reach.py`` writes:
one entry per ``src/`` function that no producer (the e2e workloads, the
examples, tier-2) calls.  Running the producers takes minutes, so tier-1
checks only what the AST can: every entry still names a function of that
length, and carries a kind and a non-empty why.  A function that moved,
grew or went away without a fresh census fails here; so does a new
unreached function nobody has reviewed (the census writes it with an
empty why).
"""

import json

import pytest

from benchmarks.reach import KINDS, OUT, definitions

CENSUS = json.loads(OUT.read_text(encoding="utf-8"))
ENTRIES = CENSUS["entries"]
FUNCTIONS = definitions()
DEFINED = {(fn["file"], fn["qualname"]): fn["lines"]
           for fn in FUNCTIONS.values()}


def test_totals_match_the_entries():
    assert CENSUS["functions"] == len(FUNCTIONS)
    assert CENSUS["lines"] == sum(fn["lines"] for fn in FUNCTIONS.values())
    assert CENSUS["unreached"] == len(ENTRIES)
    assert CENSUS["unreached_lines"] == sum(e["lines"] for e in ENTRIES)
    assert len({(e["file"], e["qualname"]) for e in ENTRIES}) == len(ENTRIES)


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[f"{e['file']}::{e['qualname']}" for e in ENTRIES])
def test_entry_names_a_function_of_its_length(entry):
    key = (entry["file"], entry["qualname"])
    assert key in DEFINED, f"{key} is not a function under src/repro"
    assert DEFINED[key] == entry["lines"], (
        f"{key} is {DEFINED[key]} lines, the census says {entry['lines']}: "
        "re-run benchmarks/reach.py")


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[f"{e['file']}::{e['qualname']}" for e in ENTRIES])
def test_entry_says_why_it_stays(entry):
    assert entry["kind"] in KINDS
    assert entry["why"].strip(), (
        f"{entry['file']}::{entry['qualname']} is reached by no producer: "
        "delete it, or give it a kind and a why in benchmarks/reach.py")
