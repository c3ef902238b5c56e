"""Unit tests for overload survival: admission control, the signed
``Overloaded`` reply, the load→fee multiplier, and the soft reputation path.

The invariants under test are the ones the e2e overload matrix and the
bench build on: the virtual-backlog gate bounds queueing delay, a shed is
cheaper than a serve and cryptographically attributable, and honest
shedding can demote but never ban a server.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import PrivateKey, keccak256
from repro.crypto.keys import Address
from repro.net import futures
from repro.net.futures import ExponentialBackoff
from repro.net.latency import UniformLatency
from repro.parp.admission import (
    BATCH_ITEM_COST,
    AdmissionConfig,
    AdmissionController,
)
from repro.parp.constants import OVERLOAD_OVERHEAD_BYTES
from repro.parp.messages import MessageError, OverloadedReply, ResponseStatus
from repro.parp.pricing import load_multiplier
from repro.parp.reputation import (
    EVENT_INVALID_RESPONSE,
    EVENT_OVERLOADED,
    EVENT_SERVED_OK,
    HALF_LIFE,
    SOFT_EVENT_KINDS,
    SOFT_FLOOR,
    ReputationLedger,
)

KEY = PrivateKey.from_seed("unit:overload:server")
OTHER = PrivateKey.from_seed("unit:overload:other")
H_REQ = keccak256(b"unit:overload:h_req")


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def controller(max_queue_cost=4.0, service_time=0.1, **kwargs):
    clock = FakeClock()
    cfg = AdmissionConfig(max_queue_cost=max_queue_cost,
                          service_time=service_time, **kwargs)
    return AdmissionController(cfg, clock=clock), clock


class TestAdmissionController:
    def test_idle_server_admits_at_zero_load(self):
        ctrl, _ = controller()
        decision = ctrl.offer(1.0)
        assert decision.admitted
        assert decision.load == 0.0
        assert decision.queue_delay == pytest.approx(0.1)
        assert ctrl.admitted == 1 and ctrl.shed == 0

    def test_backlog_fills_then_sheds(self):
        ctrl, _ = controller(max_queue_cost=3.0, service_time=0.1)
        for _ in range(3):
            assert ctrl.offer(1.0).admitted
        decision = ctrl.offer(1.0)   # 3 + 1 > 3: over the bound
        assert not decision.admitted
        assert decision.retry_after > 0.0
        assert ctrl.shed == 1

    def test_queue_delay_is_bounded_by_the_configured_budget(self):
        """The whole point of admission: every admitted request's modeled
        delay stays ≤ max_queue_cost × service_time, no matter the load."""
        ctrl, _ = controller(max_queue_cost=5.0, service_time=0.2)
        bound = 5.0 * 0.2
        delays = []
        for _ in range(50):
            decision = ctrl.offer(1.0)
            if decision.admitted:
                delays.append(decision.queue_delay)
        assert delays and max(delays) <= bound + 1e-9

    def test_backlog_drains_with_the_clock(self):
        ctrl, clock = controller(max_queue_cost=2.0, service_time=0.5)
        assert ctrl.offer(1.0).admitted
        assert ctrl.offer(1.0).admitted
        assert not ctrl.offer(1.0).admitted     # full
        clock.advance(0.5)                       # one unit of work drains
        assert ctrl.offer(1.0).admitted
        clock.advance(10.0)                      # fully idle again
        assert ctrl.load_factor() == 0.0
        assert ctrl.offer(1.0).load == 0.0

    def test_batch_cost_is_marginal_not_linear(self):
        ctrl, _ = controller()
        assert BATCH_ITEM_COST == 0.25
        assert ctrl.cost_of(1) == 1.0
        assert ctrl.cost_of(5) == pytest.approx(1.0 + 0.25 * 4)
        assert ctrl.cost_of(5) < 5 * ctrl.cost_of(1)

    def test_shed_leaves_backlog_untouched(self):
        ctrl, _ = controller(max_queue_cost=1.0, service_time=0.1)
        assert ctrl.offer(1.0).admitted
        before = ctrl.load_factor()
        ctrl.offer(1.0)   # shed
        assert ctrl.load_factor() == pytest.approx(before)

    def test_retry_after_is_jittered_but_deterministic_per_seed(self):
        a1, _ = controller(max_queue_cost=1.0, seed=7)
        a2, _ = controller(max_queue_cost=1.0, seed=7)
        b, _ = controller(max_queue_cost=1.0, seed=8)
        for ctrl in (a1, a2, b):
            ctrl.offer(1.0)
        hints_a1 = [a1.offer(1.0).retry_after for _ in range(5)]
        hints_a2 = [a2.offer(1.0).retry_after for _ in range(5)]
        hints_b = [b.offer(1.0).retry_after for _ in range(5)]
        assert hints_a1 == hints_a2         # reproducible
        assert hints_a1 != hints_b          # decorrelated across servers
        assert len(set(hints_a1)) > 1       # actually jittered

    @pytest.mark.parametrize("bad", [{"service_time": -0.5},
                                     {"service_time": 0.0},
                                     {"max_queue_cost": 0.0},
                                     {"max_queue_cost": -1.0},
                                     {"max_queue_cost": 0.5}])
    def test_nonsense_configs_are_refused(self, bad):
        """A negative service time once admitted with a negative queue delay
        and moved ``busy_until`` backwards; a queue bound below one query's
        cost shed every request while the load read 0.0 and the fee
        multiplier 1.0."""
        with pytest.raises(ValueError):
            AdmissionConfig(**bad)

    def test_load_and_counters_track_the_backlog(self):
        ctrl, _ = controller(max_queue_cost=4.0, service_time=0.1)
        for _ in range(2):
            ctrl.offer(1.0)
        assert ctrl.load_factor() == pytest.approx(0.5)
        assert ctrl.admitted == 2 and ctrl.shed == 0
        assert ctrl.fee_multiplier() == load_multiplier(0.5)

    def test_one_query_queue_admits_one_and_shows_its_load(self):
        """The smallest valid bound holds exactly one single query, and the
        shed that follows is visible in the load and the quote."""
        ctrl, _ = controller(max_queue_cost=1.0, service_time=0.1)
        first = ctrl.offer(ctrl.cost_of(1))
        assert first.admitted and first.load == 0.0
        second = ctrl.offer(ctrl.cost_of(1))
        assert not second.admitted and second.load == 1.0
        assert ctrl.load_factor() == 1.0
        assert ctrl.fee_multiplier() == load_multiplier(1.0) > 1.0

    def test_frozen_full_queue_sheds_every_request(self):
        """A one-query queue holding one unit on a clock that never moves
        drains nothing: every single query and every batch is shed, and the
        backlog stays where it was."""
        ctrl = AdmissionController(AdmissionConfig(max_queue_cost=1.0),
                                   clock=lambda: 0.0)
        assert ctrl.offer(ctrl.cost_of(1)).admitted
        for queries in range(1, 17):
            decision = ctrl.offer(ctrl.cost_of(queries))
            assert not decision.admitted and decision.load == 1.0
        assert (ctrl.admitted, ctrl.shed) == (1, 16)
        assert ctrl.load_factor() == 1.0

    def test_idle_server_admits_a_batch_larger_than_its_queue(self):
        """A batch costing more than ``max_queue_cost`` waits behind nothing
        on an idle server, so it is admitted — shedding it would shed it on
        every retry, forever.  It then fills the queue like any request."""
        ctrl = AdmissionController(AdmissionConfig(max_queue_cost=1.0),
                                   clock=lambda: 0.0)
        cost = ctrl.cost_of(2)
        assert cost > ctrl.config.max_queue_cost
        decision = ctrl.offer(cost)
        assert decision.admitted and decision.load == 0.0
        assert decision.queue_delay == cost * ctrl.config.service_time
        assert not ctrl.offer(1.0).admitted
        assert (ctrl.admitted, ctrl.shed) == (1, 1)

    def test_released_work_leaves_the_backlog(self):
        """What an admitted request gives back (it was refused unserved)
        no longer holds up the queue: the next request is admitted as if
        it had never come."""
        ctrl = AdmissionController(AdmissionConfig(max_queue_cost=1.0),
                                   clock=lambda: 0.0)
        cost = ctrl.cost_of(40)
        assert ctrl.offer(cost).admitted
        ctrl.release(cost)
        assert ctrl.load_factor() == 0.0
        decision = ctrl.offer(1.0)
        assert decision.admitted
        assert decision.queue_delay == ctrl.config.service_time

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                     exclude_max=True))
    @settings(max_examples=50, deadline=None)
    def test_every_bound_below_one_query_is_refused(self, bound):
        with pytest.raises(ValueError, match="max_queue_cost"):
            AdmissionConfig(max_queue_cost=bound)

    @given(st.floats(min_value=1.0, max_value=1e6),
           st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                              st.booleans()), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_a_single_query_is_never_shed_at_zero_load(self, bound, steps):
        """Under every accepted bound, an idle queue admits a single query,
        and a shed single query always reports a load above zero."""
        ctrl, clock = controller(max_queue_cost=bound, service_time=0.1)
        for dt, offer in steps:
            clock.advance(dt)
            if offer:
                decision = ctrl.offer(ctrl.cost_of(1))
                assert decision.admitted or decision.load > 0.0
        clock.advance(bound * 0.1 + 1.0)                 # fully drained
        decision = ctrl.offer(ctrl.cost_of(1))
        assert decision.admitted and decision.load == 0.0


class TestOverloadedReply:
    def build(self, key=KEY, h_req=H_REQ):
        return OverloadedReply.build(m_b=42, load=0.83, retry_after=0.125,
                                     fee_multiplier=2.5, h_req=h_req, key=key)

    def test_wire_roundtrip(self):
        reply = self.build()
        wire = reply.encode_wire()
        assert len(wire) == OVERLOAD_OVERHEAD_BYTES
        assert wire[0] == ResponseStatus.OVERLOADED
        decoded = OverloadedReply.decode_wire(wire)
        assert decoded == reply
        assert decoded.load == pytest.approx(0.83)
        assert decoded.retry_after == pytest.approx(0.125)
        assert decoded.fee_multiplier == pytest.approx(2.5)

    def test_is_overload_wire_discriminates(self):
        wire = self.build().encode_wire()
        assert OverloadedReply.is_overload_wire(wire)
        assert not OverloadedReply.is_overload_wire(wire[:-1])
        assert not OverloadedReply.is_overload_wire(b"\x00" + wire[1:])
        assert not OverloadedReply.is_overload_wire(b"")

    def test_verify_binds_signer_and_request(self):
        reply = self.build()
        assert reply.signer() == KEY.address
        reply.verify(expected_signer=KEY.address, expected_h_req=H_REQ)
        with pytest.raises(MessageError):
            reply.verify(expected_signer=OTHER.address, expected_h_req=H_REQ)
        with pytest.raises(MessageError):
            reply.verify(expected_signer=KEY.address,
                         expected_h_req=keccak256(b"someone else's request"))

    def test_forged_fields_break_the_signature(self):
        """A relay cannot inflate retry_after (grief) or the repriced fee
        (steal) without invalidating σ_ovl."""
        wire = bytearray(self.build().encode_wire())
        wire[10] ^= 0x01   # inside the millis fields
        tampered = OverloadedReply.decode_wire(bytes(wire))
        with pytest.raises(MessageError):
            tampered.verify(expected_signer=KEY.address, expected_h_req=H_REQ)

    def test_shed_is_cheaper_than_any_served_response(self):
        from repro.parp.constants import RESPONSE_OVERHEAD_BYTES
        assert OVERLOAD_OVERHEAD_BYTES < RESPONSE_OVERHEAD_BYTES


class TestSoftReputation:
    NODE = Address(keccak256(b"unit:overload:node")[-20:])

    def test_overloaded_is_soft(self):
        assert EVENT_OVERLOADED in SOFT_EVENT_KINDS
        assert EVENT_INVALID_RESPONSE not in SOFT_EVENT_KINDS

    def test_shedding_alone_never_bans(self):
        """The no-death-spiral property: any volume of honest sheds sinks a
        server to the soft floor, never to banned."""
        ledger = ReputationLedger()
        for i in range(500):
            ledger.record(self.NODE, EVENT_OVERLOADED, time=float(i))
        now = 500.0
        assert ledger.raw_score(self.NODE, now) < 0.0
        assert not ledger.is_banned(self.NODE, now)
        assert ledger.score(self.NODE, now) == SOFT_FLOOR

    def test_hard_negative_still_bans(self):
        ledger = ReputationLedger()
        ledger.record(self.NODE, EVENT_INVALID_RESPONSE, time=0.0)
        assert ledger.has_hard_negative(self.NODE)
        assert ledger.is_banned(self.NODE, 0.0)
        assert ledger.score(self.NODE, 0.0) == 0.0

    def test_recovered_server_scores_normally_again(self):
        ledger = ReputationLedger()
        tick = HALF_LIFE / 10     # a tenth of a half-life
        ledger.record(self.NODE, EVENT_OVERLOADED, time=0.0)
        ledger.record(self.NODE, EVENT_SERVED_OK, time=tick)
        assert ledger.raw_score(self.NODE, tick) > 0.0
        assert ledger.score(self.NODE, tick) > 0.0
        assert not ledger.is_banned(self.NODE, tick)


class TestExponentialBackoff:
    def test_delays_grow_then_cap(self, monkeypatch):
        monkeypatch.setattr(futures, "BACKOFF_JITTER", 0.0)
        assert futures.BACKOFF_FACTOR == 2.0
        policy = ExponentialBackoff(base=0.1, cap=1.0)
        delays = [policy.delay(n) for n in range(1, 8)]
        assert delays[:4] == pytest.approx([0.1, 0.2, 0.4, 0.8])
        assert all(d == 1.0 for d in delays[4:])

    def test_jitter_stays_within_the_band_and_is_deterministic(self):
        assert (futures.BACKOFF_FACTOR, futures.BACKOFF_JITTER) == (2.0, 0.5)
        policy = ExponentialBackoff(base=0.1, cap=10.0, seed=3)
        again = ExponentialBackoff(base=0.1, cap=10.0, seed=3)
        for n in range(1, 10):
            raw = min(10.0, 0.1 * 2.0 ** (n - 1))
            d = policy.delay(n)
            assert raw * 0.5 - 1e-12 <= d <= raw * 1.5 + 1e-12
            assert d == again.delay(n)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ExponentialBackoff(base=-1.0)
        with pytest.raises(ValueError):
            ExponentialBackoff(base=2.0, cap=1.0)


class TestPerLinkJitter:
    def test_each_link_draws_an_independent_deterministic_stream(self):
        """Two runs drawing in *different interleavings* must still give
        each link the same delay sequence (per-link streams, not one shared
        RNG whose draws depend on global order)."""
        a = UniformLatency(0.01, 0.05, seed=42)
        b = UniformLatency(0.01, 0.05, seed=42)
        # run A: alternate links; run B: all of x first, then y
        run_a = {"x": [], "y": []}
        for _ in range(5):
            run_a["x"].append(a.delay("c", "x", 100))
            run_a["y"].append(a.delay("c", "y", 100))
        run_b = {"x": [b.delay("c", "x", 100) for _ in range(5)],
                 "y": [b.delay("c", "y", 100) for _ in range(5)]}
        assert run_a == run_b

    def test_links_and_directions_are_decorrelated(self):
        lat = UniformLatency(0.01, 0.05, seed=1)
        forward = [lat.delay("a", "b", 1) for _ in range(8)]
        reverse = [lat.delay("b", "a", 1) for _ in range(8)]
        assert forward != reverse

    def test_seed_still_controls_reproducibility(self):
        one = UniformLatency(0.01, 0.05, seed=9)
        two = UniformLatency(0.01, 0.05, seed=10)
        assert [one.delay("a", "b", 1) for _ in range(4)] != \
               [two.delay("a", "b", 1) for _ in range(4)]
