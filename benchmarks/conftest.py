"""Shared benchmark fixtures: standard PARP environments and block builders."""

from __future__ import annotations

import pytest

from repro.chain import GenesisConfig
from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.lightclient import HeaderSyncer
from repro.node import Devnet, FullNode
from repro.parp import (
    FullNodeServer,
    LightClientSession,
    MIN_FULL_NODE_DEPOSIT,
    WitnessService,
)
from repro.workloads import AccountSet

from .reporting import drain_reports, reset_results_file
from .write_workload import WriteWorkload, build_block_with_size

TOKEN = 10 ** 18


def pytest_configure(config):
    reset_results_file()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = drain_reports()
    if not reports:
        return
    terminalreporter.section("paper reproduction tables")
    for title, body in reports:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"== {title} ==")
        for line in body.splitlines():
            terminalreporter.write_line(line)


class BenchWorld:
    """A devnet with a staked PARP server, a bonded client, and a witness."""

    def __init__(self, accounts: int = 32, history_blocks: int = 2,
                 budget: int = 10 ** 16) -> None:
        self.fn_key = PrivateKey.from_seed("bench:fn")
        self.lc_key = PrivateKey.from_seed("bench:lc")
        self.wn_key = PrivateKey.from_seed("bench:wn")
        self.accounts = AccountSet(accounts, seed="bench", balance=10 * TOKEN)
        genesis = self.accounts.genesis(extra={
            self.fn_key.address: 1_000 * TOKEN,
            self.lc_key.address: 1_000 * TOKEN,
            self.wn_key.address: 1_000 * TOKEN,
        })
        self.net = Devnet(genesis)
        self.net.execute(self.fn_key, DEPOSIT_MODULE_ADDRESS, "deposit",
                         value=MIN_FULL_NODE_DEPOSIT)
        self.net.advance_blocks(history_blocks)
        self.node = FullNode(self.net.chain, key=self.fn_key, name="bench-fn")
        self.server = FullNodeServer(self.node)
        self.witness_node = FullNode(self.net.chain, key=self.wn_key,
                                     name="bench-wn")
        self.witness = WitnessService(self.witness_node)
        self.syncer = HeaderSyncer([self.server, self.witness_node])
        self.session = LightClientSession(self.lc_key, self.server, self.syncer)
        self.alpha = self.session.connect(budget=budget)

    def block_with(self, num_transactions: int):
        """Mine a block holding exactly N transfer transactions."""
        return build_block_with_size(self.net.chain, self.accounts,
                                     num_transactions)

    def paid_write_in_block_of(self, total_txs: int):
        """The paper's write workload: a PARP-submitted transaction that
        lands in a block with ``total_txs`` transactions.  Pre-fills the
        mempool with ``total_txs - 1`` transfers so the node's auto-miner
        packs them together with the client's transaction."""
        workload = WriteWorkload(self.accounts)
        workload.fill_mempool(self.net.chain, total_txs - 1)
        tx = workload.make_transfer(self.net.chain, total_txs + 1,
                                    total_txs + 2)
        outcome = self.session.request("eth_sendRawTransaction", tx.encode())
        self.syncer.sync()
        return outcome


@pytest.fixture(scope="module")
def world() -> BenchWorld:
    return BenchWorld()


@pytest.fixture(scope="module")
def world_with_200tx_block():
    """The paper's reference write scenario: a block with 200 transactions."""
    world = BenchWorld(accounts=64)
    block = world.block_with(200)
    world.syncer.sync()
    return world, block
