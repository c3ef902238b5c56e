"""Malformed calldata to a native contract is mined and pays for its gas.

Calldata is the sender's to choose.  Whatever its shape — too short for a
selector, undecodable arguments, missing arguments, a list where bytes
belong — the call reverts inside the transaction: the block includes it
with status 0, the sender's nonce moves by one and it pays
``gas_used × gas_price`` to the coinbase, and nothing else in the state
changes.  (A call the block drops instead pays nothing, which would make
a spurious fraud submission free.)
"""

from dataclasses import replace

import pytest

from repro.chain import GenesisConfig
from repro.contracts import (
    CHANNELS_MODULE_ADDRESS,
    DEPOSIT_MODULE_ADDRESS,
    FRAUD_MODULE_ADDRESS,
)
from repro.contracts.channels import ChannelsModule
from repro.contracts.deposit import DepositModule
from repro.contracts.fraud import FraudModule
from repro.crypto import PrivateKey
from repro.crypto.keys import Address
from repro.node import Devnet
from repro.rlp import encode
from repro.vm import abi

KEY = PrivateKey.from_seed("calldata:sender")
COINBASE = Address.from_hex("0x00000000000000000000000000000000000000CB")

MODULES = ((DepositModule, DEPOSIT_MODULE_ADDRESS),
           (ChannelsModule, CHANNELS_MODULE_ADDRESS),
           (FraudModule, FRAUD_MODULE_ADDRESS))

METHODS = [pytest.param(address, name, id=f"{cls.name}.{name}")
           for cls, address in MODULES for name in sorted(dir(cls))
           if getattr(getattr(cls, name), "_contract_method", False)]

#: shape -> calldata for a method name
SHAPES = {
    "two-bytes": lambda method: b"\x01\x02",
    "rlp-garbage": lambda method: abi.selector(method) + b"\xc5\x01",
    "no-arguments": lambda method: abi.selector(method),
    "one-list": lambda method: abi.selector(method) + encode([[b"\x01"]]),
}


def test_hostile_header_in_an_equivocation_is_mined_and_pays():
    """A header whose gas_used is an RLP list once escaped the FDM's header
    decoder as TypeError, and the block dropped the call unpaid; it is an
    undecodable header, so the call reverts and pays for its gas."""
    net = Devnet(GenesisConfig(allocations={KEY.address: 10 ** 18}))
    net.advance_blocks(1)
    items = net.chain.head.header._rlp_items()
    items[6] = [items[6]]
    blob = encode(items)
    balance = net.balance_of(KEY.address)
    tx = net.send_transaction(KEY, FRAUD_MODULE_ADDRESS, data=abi.encode_call(
        "submit_head_equivocation",
        [blob, b"\x01" * 65, blob, b"\x02" * 65, KEY.address, KEY.address]))

    block = net.chain.build_block(coinbase=COINBASE)

    assert tx in block.transactions, "the call was dropped from the block"
    receipt = net.chain.get_receipt(tx.hash)
    assert receipt.status == 0
    fee = receipt.gas_used * tx.gas_price
    assert fee > 0
    assert net.balance_of(KEY.address) == balance - fee
    assert net.chain.mempool == []


@pytest.mark.parametrize("arity, reason", [
    (6, "recovers to no identity"),
    (5, "head equivocation takes (header a, signature a, header b, "
        "signature b, reporter, witness)"),
], ids=["unsigned", "short"])
def test_an_unsigned_or_short_equivocation_reverts_by_name(arity, reason):
    """Two announcement signatures that recover to nobody once passed the
    same-signer check as ``None == None`` and reached the slash, and a
    call one argument short read past its arguments: each reverts with its
    own reason, is mined, and pays for its gas."""
    net = Devnet(GenesisConfig(allocations={KEY.address: 10 ** 18}))
    net.advance_blocks(1)
    header = net.chain.head.header
    junk = b"\x00" * 65
    fork = replace(header, extra_data=b"fork")
    args = [header.encode(), junk, fork.encode(), junk, KEY.address,
            KEY.address][:arity]
    balance = net.balance_of(KEY.address)

    result = net.execute(KEY, FRAUD_MODULE_ADDRESS,
                         "submit_head_equivocation", args)

    assert reason in result.error
    (tx,) = net.chain.head.transactions
    assert net.chain.get_receipt(tx.hash).status == 0
    fee = result.gas_used * tx.gas_price
    assert fee > 0
    assert net.balance_of(KEY.address) == balance - fee


def test_every_module_method_is_covered():
    assert len(METHODS) == 14
    assert "FraudModule.submit_fraud_proof" in {p.id for p in METHODS}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("address, method", METHODS)
def test_malformed_call_is_mined_and_pays(address, method, shape):
    net = Devnet(GenesisConfig(allocations={KEY.address: 10 ** 18}))
    before = net.chain.height
    nonce = net.chain.state.nonce_of(KEY.address)
    balance = net.balance_of(KEY.address)
    tx = net.send_transaction(KEY, address, data=SHAPES[shape](method))

    block = net.chain.build_block(coinbase=COINBASE)

    assert tx in block.transactions, "the call was dropped from the block"
    receipt = net.chain.get_receipt(tx.hash)
    assert receipt.status == 0
    assert net.chain.state.nonce_of(KEY.address) == nonce + 1
    fee = receipt.gas_used * tx.gas_price
    assert fee > 0
    assert net.balance_of(KEY.address) == balance - fee
    assert net.balance_of(COINBASE) == fee
    # nothing else moved: the fee and the nonce bump alone, applied to the
    # parent state, give the sealed root
    expected = net.chain.state_at(before)
    expected.sub_balance(KEY.address, fee)
    expected.increment_nonce(KEY.address)
    expected.add_balance(COINBASE, fee)
    assert expected.commit(flush_store=False) == block.header.state_root
