"""Discrete-event network: clocks, latency, delivery, loss, partitions."""

import pytest

from repro.net import (
    FixedLatency,
    NetworkError,
    PairwiseLatency,
    SimClock,
    SimNetwork,
    UniformLatency,
)


class Recorder:
    def __init__(self):
        self.received = []

    def on_message(self, src, payload):
        self.received.append((src, payload))


class TestSimClock:
    def test_advances(self):
        clock = SimClock()
        clock.advance_to(1.5)
        assert clock.now() == 1.5
        clock.advance_to(3.0)
        assert clock() == 3.0

    def test_rejects_rewind(self):
        clock = SimClock()
        clock.advance_to(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(0.02)
        assert model.delay("a", "b", 100) == 0.02

    def test_uniform_bounds_and_determinism(self):
        model = UniformLatency(0.01, 0.05, seed=3)
        samples = [model.delay("a", "b", 0) for _ in range(50)]
        assert all(0.01 <= s <= 0.05 for s in samples)
        again = UniformLatency(0.01, 0.05, seed=3)
        assert samples[0] == again.delay("a", "b", 0)

    def test_pairwise(self):
        model = PairwiseLatency({("eu", "us"): 0.08}, default=0.01)
        assert model.delay("eu", "us", 0) == 0.08
        assert model.delay("us", "eu", 0) == 0.08  # symmetric fallback
        assert model.delay("eu", "asia", 0) == 0.01


class TestDelivery:
    def test_message_arrives_after_latency(self):
        net = SimNetwork(latency=FixedLatency(0.5))
        sink = Recorder()
        net.register("a", Recorder())
        net.register("b", sink)
        net.send("a", "b", "hello", size_bytes=8)
        net.run_until(0.4)
        assert sink.received == []
        net.run_until(0.6)
        assert sink.received == [("a", "hello")]

    def test_fifo_per_link_with_fixed_latency(self):
        net = SimNetwork(latency=FixedLatency(0.1))
        sink = Recorder()
        net.register("a", Recorder())
        net.register("b", sink)
        for i in range(5):
            net.send("a", "b", i, size_bytes=8)
        net.run()
        assert [p for _, p in sink.received] == [0, 1, 2, 3, 4]

    def test_unknown_destination_is_dropped_not_fatal(self):
        """A never-registered destination looks like an unreachable host:
        the message is counted and dropped so clients hit their timeout
        path instead of crashing mid-failover."""
        net = SimNetwork()
        net.register("a", Recorder())
        net.send("a", "ghost", "x", size_bytes=8)
        net.run()
        assert net.stats.messages_sent == 1
        assert net.stats.messages_dropped == 1
        assert net.stats.link("a", "ghost").dropped == 1

    def test_deregistered_destination_drops_in_flight_traffic(self):
        net = SimNetwork(latency=FixedLatency(0.1))
        sink = Recorder()
        net.register("a", Recorder())
        net.register("b", sink)
        net.send("a", "b", "in-flight", size_bytes=8)  # scheduled before the deregister
        net.deregister("b")
        net.send("a", "b", "post-mortem", size_bytes=8)
        net.run()
        assert sink.received == []
        assert net.stats.messages_dropped == 2
        assert net.stats.link("a", "b").dropped == 2

    def test_duplicate_registration(self):
        net = SimNetwork()
        net.register("a", Recorder())
        with pytest.raises(NetworkError):
            net.register("a", Recorder())

    def test_stats(self):
        net = SimNetwork(latency=FixedLatency(0.01))
        net.register("a", Recorder())
        net.register("b", Recorder())
        net.send("a", "b", b"x" * 100, size_bytes=100)
        net.run()
        assert net.stats.messages_sent == 1
        assert net.stats.messages_delivered == 1
        assert net.stats.bytes_sent == 100

    def test_per_link_stats(self):
        """Counters are kept per directed (src, dst) link, so the fan-out
        bench can price redundant hedge traffic link by link."""
        net = SimNetwork(latency=FixedLatency(0.01))
        net.register("a", Recorder())
        net.register("b", Recorder())
        net.register("c", Recorder())
        net.partition("a", "c")
        net.send("a", "b", b"x" * 10, size_bytes=10)
        net.send("a", "b", b"y" * 20, size_bytes=20)
        net.send("a", "c", b"z" * 30, size_bytes=30)
        net.run()
        ab = net.stats.link("a", "b")
        assert (ab.sent, ab.delivered, ab.dropped, ab.bytes_sent) == (2, 2, 0, 30)
        ac = net.stats.link("a", "c")
        assert (ac.sent, ac.delivered, ac.dropped, ac.bytes_sent) == (1, 0, 1, 30)
        # the aggregate view is the sum of the links
        assert net.stats.messages_sent == 3
        assert net.stats.messages_dropped == 1


class TestFailures:
    def test_partition_drops(self):
        net = SimNetwork()
        sink = Recorder()
        net.register("a", Recorder())
        net.register("b", sink)
        net.partition("a", "b")
        net.send("a", "b", "lost", size_bytes=8)
        net.run()
        assert sink.received == []
        assert net.stats.messages_dropped == 1
        net.heal("a", "b")
        net.send("a", "b", "found", size_bytes=8)
        net.run()
        assert sink.received == [("a", "found")]

    def test_random_loss_is_deterministic_per_seed(self):
        def run(seed):
            net = SimNetwork(drop_rate=0.5, seed=seed)
            sink = Recorder()
            net.register("a", Recorder())
            net.register("b", sink)
            for i in range(100):
                net.send("a", "b", i, size_bytes=8)
            net.run()
            return len(sink.received)

        assert run(1) == run(1)
        assert 20 < run(1) < 80  # roughly half survive

    def test_run_while_timeout(self):
        net = SimNetwork()
        net.register("a", Recorder())
        done = net.run_while(lambda: True, timeout=0.25)
        assert done is False
        assert net.clock.now() == pytest.approx(0.25)

    def test_scheduled_actions(self):
        net = SimNetwork()
        fired = []
        net.schedule(1.0, lambda: fired.append("late"))
        net.schedule(0.5, lambda: fired.append("early"))
        net.run()
        assert fired == ["early", "late"]
        with pytest.raises(NetworkError):
            net.schedule(-1, lambda: None)
