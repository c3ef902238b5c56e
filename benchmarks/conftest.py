"""Shared benchmark fixtures: standard PARP environments and block builders."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.crypto import PrivateKey
from repro.node import Devnet
from repro.workloads import AccountSet

from .reporting import drain_reports, reset_results_file
from .worlds import TOKEN, Keys, ParpEnv, make_parp_env
from .write_workload import WriteWorkload, build_block_with_size


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


@dataclass
class BenchWorld(ParpEnv):
    """``make_parp_env``'s staked server, bonded client and witness, on a
    chain that also funds ``accounts`` (``bench_world``)."""

    accounts: AccountSet

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


def bench_world(accounts: int = 32, budget: int = 10 ** 16) -> BenchWorld:
    keys = Keys(*(PrivateKey.from_seed(f"bench:{tag}")
                  for tag in ("fn", "lc", "wn")))
    account_set = AccountSet(accounts, seed="bench", balance=10 * TOKEN)
    devnet = Devnet(account_set.genesis(extra={
        key.address: 1_000 * TOKEN for key in (keys.fn, keys.lc, keys.wn)}))
    env = make_parp_env(devnet, keys, budget=budget)
    return BenchWorld(**vars(env), accounts=account_set)


@pytest.fixture(scope="module")
def world() -> BenchWorld:
    return bench_world()


@pytest.fixture(scope="module")
def world_with_200tx_block():
    """The paper's reference write scenario: a block with 200 transactions."""
    world = bench_world(accounts=64)
    block = world.block_with(200)
    world.syncer.sync()
    return world, block
