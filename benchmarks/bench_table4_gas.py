"""Table IV — on-chain gas costs of every PARP action (§VI-E).

Executes each action on the devnet and reads the *metered* gas from the
receipt — the costs emerge from EVM-style accounting (21k intrinsic,
calldata, EIP-2929 storage, ecrecover, keccak, logs), not from constants.
USD conversion uses the paper's assumptions: ETH $4,000, 12 Gwei mainnet,
0.1 Gwei Arbitrum.

Reference fraud-proof scenario: tampered write response for a transaction
in a 200-tx block — the heaviest evidence (the paper's 762,508 figure).  The
FDM charges its proof walk by the nodes the walk reads, so the lie is one
only the walk convicts: the write acknowledged at its neighbour's slot, with
that slot's proof.
"""

from dataclasses import replace

import pytest

from repro.chain import GenesisConfig
from repro.chain.block import index_key
from repro.contracts import (
    CHANNELS_MODULE_ADDRESS,
    DEPOSIT_MODULE_ADDRESS,
    cost_row,
)
from repro.contracts.gascost import MEDIAN_TX_FEE_USD
from repro.crypto import PrivateKey
from repro.node import Devnet, FullNode
from repro.lightclient import HeaderSyncer
from repro.parp import (
    FraudDetected,
    FullNodeServer,
    LightClientSession,
    MIN_FULL_NODE_DEPOSIT,
    WitnessService,
)
from repro.parp.adversary import MaliciousFullNodeServer
from repro.parp.constants import DISPUTE_WINDOW_BLOCKS
from repro.parp.messages import RpcCall, handshake_digest, payment_digest
from repro.parp.queries import decode_inclusion
from repro.rlp import codec as rlp
from repro.trie import generate_proof
from repro.workloads import AccountSet

from .reporting import add_report, render_table
from .write_workload import WriteWorkload

PAPER_GAS = {
    "Deposit funds": 45_238,
    "Open a channel": 196_183,
    "Close a channel": 110_118,
    "Confirm closure": 87_128,
    "Submit a fraud proof": 762_508,
}

TOKEN = 10 ** 18
BATCH_CALLS = 16
BATCH_ROW = f"Submit a fraud proof (batch item, {BATCH_CALLS} calls)"


class MisplacedAck(FullNodeServer):
    """Acknowledges a write at its neighbour's slot of the block, with that
    slot's proof: the acknowledged hash is the write's own, and only the
    walk down the block's transaction trie shows another transaction
    there."""

    def _execute_and_sign(self, request):
        honest = super()._execute_and_sign(request)
        number, index, tx_hash = decode_inclusion(honest.result)
        slot = index ^ 1
        block = self.node.get_block(number)
        return replace(
            honest,
            result=rlp.encode([rlp.encode_int(number), rlp.encode_int(slot),
                               tx_hash]),
            proof=generate_proof(block.transaction_trie, index_key(slot)),
        ).signed(self.key, request.alpha)


def run_gas_scenario() -> dict[str, int]:
    """One full pass over every on-chain PARP action; returns gas by action."""
    fn = PrivateKey.from_seed("gas:fn")
    lc = PrivateKey.from_seed("gas:lc")
    wn = PrivateKey.from_seed("gas:wn")
    accounts = AccountSet(64, seed="gas", balance=10 * TOKEN)
    net = Devnet(accounts.genesis(extra={
        fn.address: 1_000 * TOKEN, lc.address: 1_000 * TOKEN,
        wn.address: 1_000 * TOKEN,
    }))
    gas: dict[str, int] = {}

    # 1. deposit
    result = net.execute(fn, DEPOSIT_MODULE_ADDRESS, "deposit",
                         value=MIN_FULL_NODE_DEPOSIT)
    assert result.succeeded
    gas["Deposit funds"] = result.gas_used

    # 2. open a channel
    expiry = net.chain.head.header.timestamp + 600
    confirmation = fn.sign(handshake_digest(lc.address, expiry)).to_bytes()
    result = net.execute(lc, CHANNELS_MODULE_ADDRESS, "open_channel",
                         [fn.address, expiry, confirmation], value=TOKEN)
    assert result.succeeded
    gas["Open a channel"] = result.gas_used
    alpha = result.return_value

    # 3. close it with a signed state
    amount = 40_000 * 10 ** 9
    sig_a = lc.sign(payment_digest(alpha, amount)).to_bytes()
    result = net.execute(fn, CHANNELS_MODULE_ADDRESS, "close_channel",
                         [alpha, amount, sig_a])
    assert result.succeeded
    gas["Close a channel"] = result.gas_used

    # 4. confirm closure after the dispute window
    net.advance_blocks(DISPUTE_WINDOW_BLOCKS + 1)
    result = net.execute(fn, CHANNELS_MODULE_ADDRESS, "confirm_closure",
                         [alpha])
    assert result.succeeded
    gas["Confirm closure"] = result.gas_used

    # 5. fraud proof for a tampered write response in a 200-tx block
    evil = MisplacedAck(FullNode(net.chain, key=fn, name="evil"))
    witness_node = FullNode(net.chain, key=wn, name="wn")
    session = LightClientSession(lc, evil,
                                 HeaderSyncer([evil, witness_node]))
    session.connect(budget=10 ** 16)
    workload = WriteWorkload(accounts)
    workload.fill_mempool(net.chain, 199)
    tx = workload.make_transfer(net.chain, 199, 200)
    try:
        session.send_raw_transaction(tx.encode())
    except FraudDetected as exc:
        witness = WitnessService(witness_node)
        tx_hash = witness.submit(exc.package)
        gas["Submit a fraud proof"] = net.chain.get_receipt(tx_hash).gas_used
    else:
        raise AssertionError("the malicious node was not caught")

    # 6. a doctored account record, the last item of a 16-balance batch: the
    #    package carries the whole signed batch, the FDM folds its root and
    #    walks the one item it names, under the witness's default gas limit
    #    (measured only; the paper has no batch wire)
    net.execute(fn, DEPOSIT_MODULE_ADDRESS, "deposit",
                value=MIN_FULL_NODE_DEPOSIT)
    evil = MaliciousFullNodeServer(FullNode(net.chain, key=fn, name="evil"),
                                   attack="inflate_balance")
    session = LightClientSession(lc, evil,
                                 HeaderSyncer([evil, witness_node]))
    session.connect(budget=10 ** 16)
    try:
        session.query_batch([RpcCall.create("eth_getBalance", address)
                             for address in accounts.addresses[:BATCH_CALLS]])
    except FraudDetected as exc:
        assert exc.package.item == BATCH_CALLS - 1
        tx_hash = WitnessService(witness_node).submit(exc.package)
        gas[BATCH_ROW] = net.chain.get_receipt(tx_hash).gas_used
    else:
        raise AssertionError("the malicious batch was not caught")
    return gas


def test_table4_gas_costs(benchmark):
    gas = benchmark.pedantic(run_gas_scenario, rounds=1, iterations=1)

    rows = []
    for action, paper in PAPER_GAS.items():
        measured = gas[action]
        row = cost_row(action, measured)
        deviation = (measured - paper) / paper * 100
        rows.append((
            action, f"{measured:,}", f"{paper:,}", f"{deviation:+.1f}%",
            f"${row.mainnet_usd:.3f}", f"${row.arbitrum_usd:.3f}",
        ))
    batch = cost_row(BATCH_ROW, gas[BATCH_ROW])
    rows.append((
        BATCH_ROW, f"{gas[BATCH_ROW]:,}", "-", "-",
        f"${batch.mainnet_usd:.3f}", f"${batch.arbitrum_usd:.3f}",
    ))
    rows.append((
        "Median tx fee (2024-12-09, cited)", "-", "-", "-",
        f"${MEDIAN_TX_FEE_USD['mainnet']:.3f}",
        f"${MEDIAN_TX_FEE_USD['arbitrum']:.3f}",
    ))
    add_report(
        "Table IV: on-chain costs (measured gas; USD at $4000/ETH, "
        "12 / 0.1 Gwei)",
        render_table(
            ["action", "gas (measured)", "gas (paper)", "dev",
             "mainnet USD", "arbitrum USD"],
            rows,
        ),
    )

    # Shape: the orderings the paper's table exhibits.
    assert (gas["Submit a fraud proof"] > gas["Open a channel"]
            > gas["Close a channel"] > gas["Confirm closure"]
            > gas["Deposit funds"])
    # Zone: each action within 2x of the paper's absolute figure.
    for action, paper in PAPER_GAS.items():
        assert paper / 2 < gas[action] < paper * 2, (action, gas[action])
