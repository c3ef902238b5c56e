"""Contract runtime: gas metering, revert semantics, events, dispatch."""

import pytest

from repro.chain import GenesisConfig, StateDB, UnsignedTransaction
from repro.crypto import PrivateKey, keccak256
from repro.crypto.keys import Address
from repro.node import Devnet
from repro.vm import (
    ContractRegistry,
    GasMeter,
    NativeContract,
    OutOfGas,
    Revert,
    TransactionExecutor,
    abi,
    contract_method,
    gas,
)

KEY = PrivateKey.from_seed("vm:sender")
TOKEN = 10 ** 18
PROBE_ADDRESS = Address.from_hex("0x00000000000000000000000000000000000000F1")


class ProbeContract(NativeContract):
    """Minimal contract exercising every runtime facility."""

    name = "Probe"

    @contract_method(payable=True)
    def store(self, ctx, args):
        slot = abi.as_int(args[0])
        value = abi.as_bytes(args[1])
        ctx.storage.set(slot, value)
        ctx.emit("Stored", topics=[value[:32]], data=value)
        return len(value)

    @contract_method()
    def load(self, ctx, args):
        return ctx.storage.get(abi.as_int(args[0]))

    @contract_method()
    def fail(self, ctx, args):
        ctx.storage.set(1, b"\xaa")  # must be rolled back
        raise Revert("deliberate failure")

    @contract_method()
    def burn(self, ctx, args):
        while True:
            ctx.charge(10_000, "spin")

    @contract_method()
    def clear(self, ctx, args):
        ctx.storage.set(abi.as_int(args[0]), b"")

    @contract_method(payable=True)
    def forward(self, ctx, args):
        ctx.transfer(abi.as_address(args[0]), ctx.value)


@pytest.fixture
def env():
    net = Devnet(GenesisConfig(allocations={KEY.address: 100 * TOKEN}))
    probe = ProbeContract(PROBE_ADDRESS)
    net.registry.deploy(probe)
    return net


class TestGasMeter:
    def test_charges_accumulate_with_breakdown(self):
        meter = GasMeter(100_000)
        meter.charge(21_000, "intrinsic")
        meter.charge(100, "sload")
        meter.charge(100, "sload")
        assert meter.used == 21_200
        assert meter.breakdown == {"intrinsic": 21_000, "sload": 200}
        assert meter.limit - meter.used == 78_800

    def test_out_of_gas_consumes_everything(self):
        meter = GasMeter(1_000)
        with pytest.raises(OutOfGas):
            meter.charge(2_000, "big")
        assert meter.used == 1_000

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            GasMeter(10).charge(-1)

    def test_calldata_gas(self):
        assert gas.calldata_gas(b"") == 0
        assert gas.calldata_gas(b"\x00\x00") == 8
        assert gas.calldata_gas(b"\x01\x02") == 32

    def test_keccak_gas_words(self):
        assert gas.keccak_gas(0) == 30
        assert gas.keccak_gas(1) == 36
        assert gas.keccak_gas(32) == 36
        assert gas.keccak_gas(33) == 42


class TestExecution:
    def test_plain_transfer_costs_21000(self, env):
        other = PrivateKey.from_seed("vm:other").address
        tx = env.send_transaction(KEY, other, value=123)
        env.mine()
        assert env.chain.get_receipt(tx.hash).gas_used == 21_000
        assert env.balance_of(other) == 123

    def test_contract_call_and_return(self, env):
        result = env.execute(KEY, PROBE_ADDRESS, "store", [5, b"hello"], value=1)
        assert result.succeeded
        assert result.return_value == 5
        assert env.call_view(PROBE_ADDRESS, "load", [5]) == b"hello"

    def test_value_reaches_contract(self, env):
        env.execute(KEY, PROBE_ADDRESS, "store", [1, b"x"], value=777)
        assert env.balance_of(PROBE_ADDRESS) == 777

    def test_revert_rolls_back_state_but_charges_gas(self, env):
        env.execute(KEY, PROBE_ADDRESS, "store", [1, b"\x11"])
        balance_before = env.balance_of(KEY.address)
        result = env.execute(KEY, PROBE_ADDRESS, "fail")
        assert not result.succeeded
        assert result.error is not None and "deliberate" in result.error
        # storage rolled back
        assert env.call_view(PROBE_ADDRESS, "load", [1]) == b"\x11"
        # but gas was paid
        assert env.balance_of(KEY.address) < balance_before

    def test_revert_drops_logs(self, env):
        result = env.execute(KEY, PROBE_ADDRESS, "fail")
        assert result.receipt.logs == ()

    def test_out_of_gas_consumes_limit(self, env):
        result = env.execute(KEY, PROBE_ADDRESS, "burn", gas_limit=100_000)
        assert not result.succeeded
        assert result.gas_used == 100_000

    def test_nonpayable_rejects_value(self, env):
        result = env.execute(KEY, PROBE_ADDRESS, "load", [1], value=5)
        assert not result.succeeded
        assert "not payable" in result.error

    def test_unknown_selector_reverts(self, env):
        result = env.execute(KEY, PROBE_ADDRESS, "no_such_method")
        assert not result.succeeded

    def test_nonce_increments_even_on_revert(self, env):
        env.execute(KEY, PROBE_ADDRESS, "fail")
        assert env.chain.state.nonce_of(KEY.address) == 1

    def test_contract_to_eoa_transfer(self, env):
        target = PrivateKey.from_seed("vm:target").address
        env.execute(KEY, PROBE_ADDRESS, "forward", [target], value=500)
        assert env.balance_of(target) == 500
        assert env.balance_of(PROBE_ADDRESS) == 0


class TestStorageGasAccounting:
    def test_fresh_sstore_costs_set(self, env):
        result = env.execute(KEY, PROBE_ADDRESS, "store", [9, b"\x01"])
        # cold sload surcharge + 20k set must be present in the breakdown
        assert result.gas_breakdown.get("sstore", 0) >= gas.SSTORE_SET_GAS

    def test_update_cheaper_than_set(self, env):
        first = env.execute(KEY, PROBE_ADDRESS, "store", [9, b"\x01"])
        second = env.execute(KEY, PROBE_ADDRESS, "store", [9, b"\x02"])
        assert second.gas_used < first.gas_used

    def test_clearing_earns_refund(self, env):
        env.execute(KEY, PROBE_ADDRESS, "store", [9, b"\x01"])
        write = env.execute(KEY, PROBE_ADDRESS, "store", [8, b"\x01"])
        clear = env.execute(KEY, PROBE_ADDRESS, "clear", [9])
        assert clear.gas_used < write.gas_used

    def test_warm_second_access_cheaper(self, env):
        class DoubleRead(NativeContract):
            name = "DoubleRead"

            @contract_method()
            def once(self, ctx, args):
                ctx.storage.get(3)

            @contract_method()
            def twice(self, ctx, args):
                ctx.storage.get(3)
                ctx.storage.get(3)

        addr = Address.from_hex("0x00000000000000000000000000000000000000F2")
        env.registry.deploy(DoubleRead(addr))
        once = env.execute(KEY, addr, "once")
        twice = env.execute(KEY, addr, "twice")
        extra = twice.gas_used - once.gas_used
        assert extra < gas.SLOAD_COLD_GAS  # second read was warm


class TestAbi:
    def test_selector_is_keccak_prefix(self):
        assert abi.selector("deposit") == keccak256(b"deposit")[:4]

    def test_encode_decode_roundtrip(self):
        data = abi.encode_call("m", [1, b"bytes", KEY.address, True, [2, 3]])
        selector, args = abi.decode_call(data)
        assert selector == abi.selector("m")
        assert abi.as_int(args[0]) == 1
        assert abi.as_bytes(args[1]) == b"bytes"
        assert abi.as_address(args[2]) == KEY.address
        assert abi.as_int(args[3]) == 1  # True encodes as 1
        assert [abi.as_int(x) for x in args[4]] == [2, 3]

    def test_too_short_calldata(self):
        with pytest.raises(abi.ABIError):
            abi.decode_call(b"\x01\x02")

    def test_negative_int_rejected(self):
        with pytest.raises(abi.ABIError):
            abi.encode_args([-5])

    def test_typed_accessor_errors(self):
        with pytest.raises(abi.ABIError):
            abi.as_address(b"short")
        with pytest.raises(abi.ABIError):
            abi.as_int([b"list"])
