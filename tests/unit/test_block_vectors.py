"""Golden roots and hashes of sealed blocks.

``tests/data/block_vectors.json`` was produced by ``Blockchain.build_block``
at commit d055d7f, when every transaction boundary was a hashing commit.
Sealing now hashes once per block over O(1) checkpoints, and a header
outlives the code that sealed it: the fixed script below (fixed keys, fixed
timestamps, fixed coinbase — RFC 6979 makes the signatures deterministic
too) must reproduce every block's state root, transactions root, receipts
root and hash, on the memory store and on a state dir alike.  The script
walks the shapes where a revert point matters: a bad nonce and an
unfunded sender (dropped by ``build_block``), an over-limit deferral with a
same-sender successor, an out-of-gas, a contract revert with pending
``set_storage`` from an earlier transaction of the same block, a reverted
value transfer, a block whose last transaction fails, storage zeroed back
to an empty account (which a later transaction of the same block must pay
new-account gas to fund), and an empty block.

Regenerate — deliberately, when a consensus change is the point of the PR —
with ``PYTHONPATH=src python tests/unit/test_block_vectors.py`` and review
the diff.
"""

import json
from pathlib import Path

from repro.chain import GenesisConfig, UnsignedTransaction
from repro.chain.state import StateDB
from repro.crypto import PrivateKey, keccak256
from repro.crypto.keys import Address
from repro.node import Devnet
from repro.storage import open_state_dir
from repro.vm import NativeContract, Revert, abi, contract_method

VECTORS_PATH = Path(__file__).parent.parent / "data" / "block_vectors.json"
TOKEN = 10 ** 18
GAS_PRICE = 10 ** 9
ALICE = PrivateKey.from_seed("blockvec:alice")
BOB = PrivateKey.from_seed("blockvec:bob")
CAROL = PrivateKey.from_seed("blockvec:carol")
PAUPER = PrivateKey.from_seed("blockvec:pauper")
MINER = Address(keccak256(b"blockvec:miner")[:20])
PROBE_ADDRESS = Address.from_hex("0x00000000000000000000000000000000000000B7")
VAULT_ADDRESS = Address.from_hex("0x00000000000000000000000000000000000000B8")


class Probe(NativeContract):
    name = "Probe"

    @contract_method()
    def store(self, ctx, args):
        ctx.storage.set(abi.as_int(args[0]), abi.as_bytes(args[1]))

    @contract_method()
    def fail(self, ctx, args):
        ctx.storage.set(abi.as_int(args[0]), b"\xaa")  # must be rolled back
        raise Revert("deliberate failure")

    @contract_method(payable=True)
    def forward(self, ctx, args):
        ctx.transfer(abi.as_address(args[0]), ctx.value)

    @contract_method()
    def burn(self, ctx, args):
        ctx.storage.set(9, b"\xbb")  # must be rolled back
        while True:
            ctx.charge(10_000, "spin")


class _Script:
    """Signs the script's transactions, tracking each sender's nonce."""

    def __init__(self) -> None:
        self.nonces = {key.address: 0 for key in (ALICE, BOB, CAROL, PAUPER)}

    def tx(self, key, to, value=0, data=b"", gas_limit=100_000, gap=None):
        """``gap`` marks a transaction build_block will drop: it is signed
        that far past the sender's nonce and does not advance it."""
        nonce = self.nonces[key.address] + (gap or 0)
        if gap is None:
            self.nonces[key.address] += 1
        return UnsignedTransaction(
            nonce=nonce, gas_price=GAS_PRICE, gas_limit=gas_limit, to=to,
            value=value, data=data).sign(key)

    def call(self, key, method, args=(), to=PROBE_ADDRESS, **kwargs):
        return self.tx(key, to, data=abi.encode_call(method, args), **kwargs)


def seal_blocks(net: Devnet) -> list:
    """Run the fixed script on ``net``; returns the sealed blocks 1..N."""
    net.registry.deploy(Probe(PROBE_ADDRESS))
    net.registry.deploy(Probe(VAULT_ADDRESS))
    chain, script = net.chain, _Script()
    blocks = []

    def seal(txs):
        blocks.append(chain.build_block(
            coinbase=MINER, timestamp=1_700_000_000 + len(blocks),
            transactions=txs))
        return txs  # what build_block deferred

    # plain transfers and first storage writes
    seal([script.tx(ALICE, BOB.address, value=100),
          script.tx(BOB, CAROL.address, value=7),
          script.call(ALICE, "store", [1, b"\x11"]),
          script.call(CAROL, "store", [1, b"\x77"], to=VAULT_ADDRESS)])
    # a bad nonce and an unfunded sender, dropped between good transactions
    seal([script.tx(ALICE, CAROL.address, value=5),
          script.tx(BOB, ALICE.address, value=1, gap=5),
          script.tx(PAUPER, ALICE.address, value=1, gap=0),
          script.tx(CAROL, BOB.address, value=3)])
    # over-limit deferral: bob's first send does not fit, his second rides
    # along, carol's still fits; the deferred pair seals in the next block
    limit = chain.config
    chain.config = GenesisConfig(allocations=limit.allocations,
                                 gas_limit=150_000)
    deferred = seal([script.tx(ALICE, BOB.address, value=9),
                     script.tx(BOB, ALICE.address, value=2, gas_limit=140_000),
                     script.tx(BOB, CAROL.address, value=4, gas_limit=21_000),
                     script.tx(CAROL, ALICE.address, value=6,
                               gas_limit=21_000)])
    assert len(deferred) == 2
    chain.config = limit
    seal(deferred)
    # out of gas after a storage write
    seal([script.call(ALICE, "store", [2, b"\x22"]),
          script.call(BOB, "burn", gas_limit=120_000),
          script.tx(CAROL, MINER, value=1)])
    # a contract revert with set_storage pending from the transaction before
    # it, and more writes to the same account after it
    seal([script.call(ALICE, "store", [3, b"\x33"]),
          script.call(BOB, "fail", [3]),
          script.call(CAROL, "store", [4, b"\x44"]),
          script.call(ALICE, "fail", [5])])
    # a value transfer the (non-payable) callee reverts
    seal([script.call(BOB, "store", [6, b"\x66"], value=12),
          script.tx(ALICE, BOB.address, value=1)])
    # the last transaction of the block fails
    seal([script.tx(ALICE, CAROL.address, value=8),
          script.call(CAROL, "fail", [1])])
    # storage zeroed back: the contract accounts empty and are deleted —
    # the vault's by the time the last transaction funds it, which
    # therefore pays for a new account
    seal([script.call(ALICE, "store", [slot, b""]) for slot in (1, 2, 3, 4)]
         + [script.call(BOB, "store", [1, b""], to=VAULT_ADDRESS),
            script.call(CAROL, "forward", [VAULT_ADDRESS], value=5)])
    seal([])
    # the only transaction of the block is dropped
    seal([script.tx(BOB, ALICE.address, value=1, gap=3)])
    return blocks


def _genesis() -> GenesisConfig:
    return GenesisConfig(allocations={
        ALICE.address: 10 * TOKEN, BOB.address: TOKEN, CAROL.address: TOKEN})


def describe(block) -> dict:
    header = block.header
    return {
        "number": header.number,
        "state_root": header.state_root.hex(),
        "transactions_root": header.transactions_root.hex(),
        "receipts_root": header.receipts_root.hex(),
        "hash": block.hash.hex(),
        "gas_used": header.gas_used,
        "statuses": [receipt.status for receipt in block.receipts],
    }


def _vectors() -> list:
    return json.loads(VECTORS_PATH.read_text())["blocks"]


def test_memory_chain_seals_the_golden_blocks():
    net = Devnet(_genesis())
    assert [describe(block) for block in seal_blocks(net)] == _vectors()
    # what was sealed is what is served: every header's roots resolve
    for block in net.chain._blocks:
        block.validate_roots()
        assert net.chain.state_at(block.number).root_hash == (
            block.header.state_root)


def test_disk_chain_seals_the_golden_blocks_and_reopens_on_them(tmp_path):
    net = Devnet(_genesis(), state_dir=tmp_path)
    try:
        sealed = [describe(block) for block in seal_blocks(net)]
    finally:
        net.close()
    assert sealed == _vectors()
    store, log = open_state_dir(tmp_path)
    try:
        assert [describe(block) for block in log.blocks[1:]] == _vectors()
        assert store.last_root.hex() == sealed[-1]["state_root"]
        for block in log.blocks:
            block.validate_roots()  # decoded blocks rebuild their body tries
            StateDB(store, block.header.state_root)
    finally:
        store.close()
        log.close()


def test_script_covers_the_shapes_it_names():
    by_number = {entry["number"]: entry for entry in _vectors()}
    assert by_number[2]["statuses"] == [1, 1]          # two of four dropped
    assert by_number[3]["statuses"] == [1, 1]          # two deferred
    assert by_number[4]["statuses"] == [1, 1]          # …and sealed next
    assert by_number[5]["statuses"] == [1, 0, 1]       # out of gas
    assert by_number[6]["statuses"] == [1, 0, 1, 0]    # contract reverts
    assert by_number[7]["statuses"] == [0, 1]          # reverted value send
    assert by_number[8]["statuses"] == [1, 0]          # last tx fails
    assert by_number[10]["statuses"] == by_number[11]["statuses"] == []
    assert by_number[9]["state_root"] != by_number[8]["state_root"]
    assert by_number[11]["state_root"] == by_number[10]["state_root"]


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    blocks = [describe(block) for block in seal_blocks(Devnet(_genesis()))]
    VECTORS_PATH.write_text(json.dumps({
        "comment": "State root, transactions root, receipts root and hash of "
                   "each block sealed by seal_blocks() in "
                   "tests/unit/test_block_vectors.py, as "
                   f"Blockchain.build_block sealed them at {commit}.",
        "blocks": blocks,
    }, indent=1) + "\n")
    print(f"wrote {VECTORS_PATH}")
