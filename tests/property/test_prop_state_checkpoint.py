"""``StateDB.snapshot`` / ``revert`` against a replay without the reverted span.

A checkpoint is an O(1) token over the tries' persistent overlays; nothing
is hashed or staged when it is taken.  The property: run a random program of
account writes, account deletions, storage writes and zeroings, mid-span
root reads (staging commits) and full commits, with checkpointed spans
nested to any depth, each either kept or reverted — and the state must be
observably equal (every read, then the root) to a fresh state that replays
the same program *without* the reverted spans and without any intermediate
commit.  Runs over the memory store and the append-only file store; on disk
the final root must also survive close and reopen.
"""

import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.state import StateDB
from repro.crypto.keys import Address
from repro.storage import AppendOnlyFileStore, MemoryNodeStore

ADDRESSES = [Address(bytes([0xA0 + i]) * 20) for i in range(5)]
SLOTS = [bytes(31) + bytes([i]) for i in range(4)]

addresses = st.sampled_from(ADDRESSES)
writes = st.one_of(
    st.tuples(st.just("credit"), addresses, st.integers(1, 10 ** 6)),
    st.tuples(st.just("nonce"), addresses),
    # zero the balance: an account with no nonce or storage left is deleted
    st.tuples(st.just("drain"), addresses),
    # b"" zeroes the slot; a short value keeps leaves inlined, a long one
    # pushes them past 32 bytes into hashed nodes
    st.tuples(st.just("store"), addresses, st.sampled_from(SLOTS),
              st.one_of(st.just(b""), st.binary(min_size=1, max_size=32))),
    st.tuples(st.just("root")),
    st.tuples(st.just("commit")),
)
#: a program is a list of writes and spans; a span is (reverted?, program)
programs = st.lists(st.recursive(
    writes,
    lambda inner: st.tuples(st.booleans(), st.lists(inner, max_size=6)),
    max_leaves=24,
), max_size=12)


def _write(state: StateDB, op: tuple, hashing: bool) -> None:
    tag = op[0]
    if tag == "credit":
        state.add_balance(op[1], op[2])
    elif tag == "nonce":
        state.increment_nonce(op[1])
    elif tag == "drain":
        state.sub_balance(op[1], state.balance_of(op[1]))
    elif tag == "store":
        state.set_storage(op[1], op[2], op[3])
    elif hashing and tag == "root":
        state.root_hash
    elif hashing and tag == "commit":
        state.commit()


def run(state: StateDB, program: list) -> None:
    """The program with its checkpoints: spans snapshot, then maybe revert."""
    for item in program:
        if isinstance(item[0], bool):
            reverted, body = item
            token = state.snapshot()
            run(state, body)
            if reverted:
                state.revert(token)
        else:
            _write(state, item, hashing=True)


def replay(state: StateDB, program: list) -> None:
    """The same program with reverted spans left out and nothing hashed."""
    for item in program:
        if isinstance(item[0], bool):
            reverted, body = item
            if not reverted:
                replay(state, body)
        else:
            _write(state, item, hashing=False)


def observe(state: StateDB) -> list:
    """Every read the state offers — taken before the root, so pending
    (unhashed) writes are what is read."""
    seen = []
    for address in ADDRESSES:
        account = state.get_account(address)
        seen.append((state.account_exists(address), account.balance,
                     account.nonce,
                     [state.get_storage(address, slot) for slot in SLOTS]))
    seen.append(state.root_hash)
    seen.append([state.get_account(a).storage_root for a in ADDRESSES])
    return seen


class TestCheckpointEqualsReplay:
    @given(programs)
    @settings(max_examples=150, deadline=None)
    def test_memory_store(self, program):
        state = StateDB(MemoryNodeStore())
        run(state, program)
        fresh = StateDB(MemoryNodeStore())
        replay(fresh, program)
        assert observe(state) == observe(fresh)

    @given(programs)
    @settings(max_examples=30, deadline=None)
    def test_file_store_and_reopen(self, program):
        fresh = StateDB(MemoryNodeStore())
        replay(fresh, program)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "nodes.log"
            store = AppendOnlyFileStore(path)
            try:
                state = StateDB(store)
                run(state, program)
                assert observe(state) == observe(fresh)
                sealed = state.commit()
            finally:
                store.close()
            reopened = AppendOnlyFileStore(path)
            try:
                assert reopened.last_root == sealed
                assert observe(StateDB(reopened, sealed)) == observe(fresh)
            finally:
                reopened.close()


class TestCheckpointContract:
    def test_checkpoint_hashes_and_stages_nothing(self):
        store = MemoryNodeStore()
        state = StateDB(store)
        state.add_balance(ADDRESSES[0], 5)
        state.set_storage(ADDRESSES[1], SLOTS[0], b"\x01" * 32)
        token = state.snapshot()
        assert len(store) == 0 and state.storage_trie_commits == 0
        state.revert(token)
        assert len(store) == 0 and state.storage_trie_commits == 0

    def test_commit_between_checkpoint_and_revert_is_legal(self):
        state = StateDB()
        state.add_balance(ADDRESSES[0], 5)
        state.set_storage(ADDRESSES[1], SLOTS[0], b"\x07")
        before = state.snapshot()
        state.set_storage(ADDRESSES[1], SLOTS[0], b"\x08")
        state.add_balance(ADDRESSES[0], 1)
        committed = state.commit()
        state.revert(before)
        assert state.balance_of(ADDRESSES[0]) == 5
        assert state.get_storage(ADDRESSES[1], SLOTS[0]) == b"\x07"
        assert state.root_hash != committed
        # …and the committed state it rewound from is still a valid view
        assert state.at_root(committed).balance_of(ADDRESSES[0]) == 6

    def test_a_token_can_be_reverted_to_twice(self):
        state = StateDB()
        state.add_balance(ADDRESSES[0], 5)
        token = state.snapshot()
        for amount in (1, 2):
            state.add_balance(ADDRESSES[0], amount)
            state.set_storage(ADDRESSES[0], SLOTS[1], bytes([amount]))
            state.revert(token)
            assert state.balance_of(ADDRESSES[0]) == 5
            assert state.get_storage(ADDRESSES[0], SLOTS[1]) == b""

    @pytest.mark.parametrize("hash_first", [False, True])
    def test_nested_inner_revert_keeps_outer_span(self, hash_first):
        state = StateDB()
        outer = state.snapshot()
        state.set_storage(ADDRESSES[2], SLOTS[0], b"\x01")
        if hash_first:
            state.root_hash
        inner = state.snapshot()
        state.set_storage(ADDRESSES[2], SLOTS[0], b"\x02")
        state.set_storage(ADDRESSES[3], SLOTS[0], b"\x03")
        state.revert(inner)
        assert state.get_storage(ADDRESSES[2], SLOTS[0]) == b"\x01"
        assert not state.account_exists(ADDRESSES[3])
        state.revert(outer)
        assert not state.account_exists(ADDRESSES[2])
