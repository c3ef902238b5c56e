"""FullNodeServer and LightClientSession unit behaviour (direct transport)."""

import pytest

import repro.parp
from repro.parp import (
    ChannelError,
    FraudDetected,
    Handshake,
    HandshakeError,
    InvalidResponse,
    LightClientState,
    RequestRefused,
    ServeError,
    SessionError,
)
from repro.parp.client import served_result
from repro.parp.messages import PARPRequest, ResponseStatus, RpcCall
from repro.parp.pricing import (
    CallBasedFeeSchedule,
    DEFAULT_FEE_SCHEDULE,
    FlatFeeSchedule,
)
from repro.parp.queries import QueryFraud
from repro.rlp import codec as rlp

from ..conftest import make_parp_env


class TestPricing:
    def test_flat(self):
        schedule = FlatFeeSchedule(flat_price=500)
        assert schedule.price(RpcCall.create("eth_getBalance", b"\x00" * 20)) == 500
        assert schedule.price(RpcCall.create("anything")) == 500

    def test_call_based_differentiates(self):
        schedule = CallBasedFeeSchedule()
        read = schedule.price(RpcCall.create("eth_getBalance", b"\x00" * 20))
        write = schedule.price(RpcCall.create("eth_sendRawTransaction", b"tx"))
        assert write > read

    def test_call_based_default_for_unknown(self):
        schedule = CallBasedFeeSchedule(prices={}, default_price=77)
        assert schedule.price(RpcCall.create("eth_whatever")) == 77


class TestServer:
    def test_handshake_has_future_expiry(self, devnet, keys):
        env = make_parp_env(devnet, keys, connect=False)
        confirm = env.server.handshake(Handshake(keys.lc.address))
        confirm.verify(keys.lc.address)
        assert confirm.expiry > devnet.chain.head.header.timestamp

    def test_unknown_channel_rejected(self, parp_env):
        request = PARPRequest.build(
            b"\x00" * 16, parp_env.net.chain.head.hash, 100,
            RpcCall.create("eth_blockNumber"), parp_env.keys.lc,
        )
        with pytest.raises(ServeError):
            parp_env.server.serve_request(request.encode_wire())
        assert parp_env.server.stats.requests_rejected == 1

    def test_underpaid_request_rejected(self, parp_env):
        request = PARPRequest.build(
            parp_env.alpha, parp_env.net.chain.head.hash, 1,  # 1 wei << price
            RpcCall.create("eth_getBalance", parp_env.keys.alice.address),
            parp_env.keys.lc,
        )
        with pytest.raises(ServeError):
            parp_env.server.serve_request(request.encode_wire())

    def test_foreign_signer_rejected(self, parp_env):
        request = PARPRequest.build(
            parp_env.alpha, parp_env.net.chain.head.hash, 10 ** 12,
            RpcCall.create("eth_blockNumber"), parp_env.keys.alice,  # not LC
        )
        with pytest.raises(ServeError):
            parp_env.server.serve_request(request.encode_wire())

    def test_garbage_wire_rejected(self, parp_env):
        with pytest.raises(ServeError):
            parp_env.server.serve_request(b"\x00" * 300)

    def test_unknown_reference_block_signed_error(self, parp_env):
        session = parp_env.session
        call = RpcCall.create("eth_blockNumber")
        amount = session.channel.next_amount(10 ** 10)
        request = PARPRequest.build(parp_env.alpha, b"\x77" * 32, amount,
                                    call, parp_env.keys.lc)
        raw = parp_env.server.serve_request(request.encode_wire())
        from repro.parp.messages import PARPResponse

        response = PARPResponse.decode_wire(raw)
        assert response.status == 1  # signed error
        assert response.signer(parp_env.alpha) == parp_env.server.address

    def test_unsupported_method_signed_error(self, parp_env):
        session = parp_env.session
        outcome = session.request("eth_gasPrice")  # not in the catalog
        assert outcome.report.is_error_response

    def test_relay_restricted_to_parp_modules(self, parp_env):
        from repro.chain import UnsignedTransaction

        tx = UnsignedTransaction(
            nonce=parp_env.net.chain.state.nonce_of(parp_env.keys.alice.address),
            gas_price=10 ** 9, gas_limit=21_000,
            to=parp_env.keys.bob.address, value=1,
        ).sign(parp_env.keys.alice)
        with pytest.raises(ServeError):
            parp_env.server.relay_transaction(tx.encode())

    def test_fees_accumulate(self, parp_env):
        before = parp_env.server.stats.fees_earned
        parp_env.session.get_balance(parp_env.keys.alice.address)
        assert parp_env.server.stats.fees_earned > before

    def test_open_channel_rejects_non_cmm_target(self, parp_env):
        from repro.chain import UnsignedTransaction

        tx = UnsignedTransaction(
            nonce=0, gas_price=10 ** 9, gas_limit=21_000,
            to=parp_env.keys.bob.address, value=1,
        ).sign(parp_env.keys.lc)
        with pytest.raises(ServeError):
            parp_env.server.open_channel(tx.encode())


class TestSession:
    def test_connect_transitions_to_bonded(self, parp_env):
        assert parp_env.session.state is LightClientState.BONDED
        assert parp_env.session.channel.alpha == parp_env.alpha

    def test_cannot_connect_twice(self, parp_env):
        with pytest.raises(SessionError):
            parp_env.session.connect(budget=1_000)

    def test_request_requires_bond(self, devnet, keys):
        env = make_parp_env(devnet, keys, connect=False)
        with pytest.raises(SessionError):
            env.session.request("eth_blockNumber")

    def test_budget_exhaustion_surfaces(self, devnet, keys):
        env = make_parp_env(devnet, keys, budget=15 * 10 ** 9)
        env.session.get_balance(keys.alice.address)  # 10 gwei
        with pytest.raises(SessionError):
            env.session.get_balance(keys.alice.address)  # would exceed budget

    def test_spend_tracked_per_request(self, parp_env):
        session = parp_env.session
        session.block_number()
        first = session.channel.spent
        session.get_balance(parp_env.keys.alice.address)
        assert session.channel.spent > first
        assert session.channel.requests_sent == 2

    def test_history_records_outcomes(self, parp_env):
        parp_env.session.block_number()
        assert len(parp_env.session.history) == 1
        assert parp_env.session.history[0].report.valid

    def test_history_keeps_only_the_newest_outcomes(self, devnet, keys,
                                                    monkeypatch):
        from repro.parp import client
        monkeypatch.setattr(client, "HISTORY_LIMIT", 3)
        session = make_parp_env(devnet, keys).session
        paid = [session.request("eth_blockNumber").amount_paid
                for _ in range(5)]
        assert [o.amount_paid for o in session.history] == paid[-3:]

    def test_a_failed_connect_returns_to_idle_and_the_retry_bonds(
            self, devnet, keys, monkeypatch):
        env = make_parp_env(devnet, keys, connect=False)
        honest = env.server.get_transaction_count
        failures = [TimeoutError("nonce lookup timed out")]

        def flaky(address):
            if failures:
                raise failures.pop()
            return honest(address)

        monkeypatch.setattr(env.server, "get_transaction_count", flaky)
        with pytest.raises(TimeoutError):
            env.session.connect(budget=10 ** 15)
        assert env.session.state is LightClientState.IDLE
        env.session.connect(budget=10 ** 15)
        assert env.session.state is LightClientState.BONDED

    def test_a_junk_handshake_reply_is_a_handshake_error(self, devnet, keys,
                                                         monkeypatch):
        env = make_parp_env(devnet, keys, connect=False)
        monkeypatch.setattr(env.server, "handshake", lambda msg: b"junk")
        with pytest.raises(HandshakeError, match="bytes"):
            env.session.connect(budget=10 ** 15)
        assert env.session.state is LightClientState.IDLE

    def test_channel_status_probe_answers_channel_constants(self, parp_env):
        from repro.contracts.channels import (
            CHANNEL_CLOSED,
            CHANNEL_NONE,
            CHANNEL_OPEN,
        )
        from repro.parp.queries import decode_int_result

        server, alpha = parp_env.server, parp_env.alpha

        def probe(channel):
            result, proof = server._channel_status(
                RpcCall.create("parp_channelStatus", channel))
            assert proof == []
            return decode_int_result(result)

        assert parp_env.session.channel_status_fast() == CHANNEL_OPEN
        assert probe(b"\x00" * 16) == CHANNEL_NONE
        server.mark_closed(alpha)
        assert probe(alpha) == CHANNEL_CLOSED

    def test_tip_adds_extra_payment(self, parp_env):
        session = parp_env.session
        outcome = session.request("eth_blockNumber", tip=5_000)
        base_price = DEFAULT_FEE_SCHEDULE.price(RpcCall.create("eth_blockNumber"))
        assert outcome.amount_paid == base_price + 5_000


class TestServedResult:
    """A typed wrapper's payload, or the server's signed refusal."""

    def test_ok_passes_the_payload_through(self):
        assert served_result(ResponseStatus.OK, b"\x82\x01\x02") == b"\x82\x01\x02"

    def test_signed_error_raises_with_the_servers_reason(self):
        payload = rlp.encode([b"error", "nonce gap: 99 > 0".encode()])
        with pytest.raises(RequestRefused) as refused:
            served_result(ResponseStatus.ERROR, payload)
        assert refused.value.reason == "nonce gap: 99 > 0"
        assert isinstance(refused.value, SessionError)

    def test_hostile_error_payload_is_reported_as_hex(self):
        with pytest.raises(RequestRefused) as refused:
            served_result(ResponseStatus.ERROR, b"\x05")
        assert refused.value.reason == "05"

    def test_a_refusal_is_neither_fraud_nor_an_invalid_response(self):
        assert "RequestRefused" in repro.parp.__all__
        assert issubclass(RequestRefused, SessionError)
        for other in (FraudDetected, InvalidResponse, QueryFraud):
            assert not issubclass(RequestRefused, other)
