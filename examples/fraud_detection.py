#!/usr/bin/env python3
"""Fraud detection end to end: catching and slashing a lying full node.

A malicious PARP node returns a doctored account record next to the real
proof while keeping everything else — signatures, payments, proofs —
perfectly honest-looking.  The light client's §V-D checks catch the lie,
build a fraud proof, and hand it to a *witness* full node, which submits it
to the on-chain Fraud Detection Module.  Algorithm 2 re-verifies the
evidence and confiscates the malicious node's deposit: 50% to the serving-
layer treasury, 25% to the defrauded client, 25% to the witness.

Run:  python examples/fraud_detection.py
"""

from repro.chain import GenesisConfig
from repro.contracts import DEPOSIT_MODULE_ADDRESS, TREASURY_ADDRESS
from repro.crypto import PrivateKey
from repro.lightclient import HeaderSyncer
from repro.node import Devnet, FullNode
from repro.parp import (
    FraudDetected,
    LightClientSession,
    MIN_FULL_NODE_DEPOSIT,
    WitnessService,
)
from repro.parp.adversary import MaliciousFullNodeServer

TOKEN = 10 ** 18


def main() -> None:
    evil_operator = PrivateKey.from_seed("fraud:evil-fn")
    light_client = PrivateKey.from_seed("fraud:lc")
    witness_operator = PrivateKey.from_seed("fraud:witness")
    alice = PrivateKey.from_seed("fraud:alice")

    net = Devnet(GenesisConfig(allocations={
        evil_operator.address: 100 * TOKEN,
        light_client.address: 10 * TOKEN,
        witness_operator.address: 10 * TOKEN,
        alice.address: 2 * TOKEN,
    }))

    # the soon-to-be-slashed node stakes like any honest one
    net.execute(evil_operator, DEPOSIT_MODULE_ADDRESS, "deposit",
                value=MIN_FULL_NODE_DEPOSIT)
    print(f"malicious node staked {MIN_FULL_NODE_DEPOSIT / TOKEN:.0f} tokens")

    evil = MaliciousFullNodeServer(
        FullNode(net.chain, key=evil_operator, name="evil"),
        attack="inflate_balance",
    )
    witness_node = FullNode(net.chain, key=witness_operator, name="witness")

    session = LightClientSession(
        light_client, evil, HeaderSyncer([evil, witness_node]),
    )
    session.connect(budget=10 ** 15)
    print("channel open with the malicious node")

    print(f"\nreal balance of alice: {2.0:.1f} tokens")
    print("querying eth_getBalance through the malicious node…")
    try:
        session.get_balance(alice.address)
        raise SystemExit("BUG: the lie was not detected")
    except FraudDetected as fraud:
        print(f"fraud detected by the '{fraud.report.check}' check:")
        print(f"  {fraud.report.detail}")

        print("\nhanding the evidence to a witness full node…")
        witness = WitnessService(witness_node)
        lc_before = net.balance_of(light_client.address)
        wn_before = net.balance_of(witness_operator.address)

        tx_hash = witness.submit(fraud.package)
        receipt = net.chain.get_receipt(tx_hash)
        print(f"fraud proof accepted on-chain (gas: {receipt.gas_used:,})")

        deposit_left = net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of",
                                     [evil_operator.address])
        print("\n-- the deposit is slashed --")
        print(f"malicious node's deposit:   {deposit_left / TOKEN:.0f} tokens"
              f" (was {MIN_FULL_NODE_DEPOSIT / TOKEN:.0f})")
        print(f"light client awarded:       "
              f"{(net.balance_of(light_client.address) - lc_before) / TOKEN:.0f}"
              " tokens")
        wn_gain = net.balance_of(witness_operator.address) - wn_before
        print(f"witness awarded (net gas):  {wn_gain / TOKEN:.2f} tokens")
        print(f"serving-layer treasury:     "
              f"{net.balance_of(TREASURY_ADDRESS) / TOKEN:.0f} tokens")
        eligible = net.call_view(DEPOSIT_MODULE_ADDRESS, "is_eligible",
                                 [evil_operator.address])
        print(f"node still eligible to serve? {eligible}")


if __name__ == "__main__":
    main()
