"""The gossip transport: topics, dedup, TTL, fanout, and flood control."""

import pytest

from repro.gossip import (
    GossipError,
    GossipMessage,
    GossipNode,
    connect_mesh,
)
from repro.net import FixedLatency, SimNetwork


def make_mesh(n: int, latency: float = 0.01, **kwargs):
    network = SimNetwork(latency=FixedLatency(latency))
    nodes = [GossipNode(network, f"g{i}", **kwargs) for i in range(n)]
    connect_mesh(nodes)
    return network, nodes


class Collector:
    def __init__(self) -> None:
        self.messages: list[GossipMessage] = []

    def __call__(self, message: GossipMessage) -> None:
        self.messages.append(message)


class TestMessage:
    def test_msg_id_commits_to_identity(self):
        a = GossipMessage("t", b"p", "n", 0, 4)
        assert a.msg_id == GossipMessage("t", b"p", "n", 0, 2).msg_id
        assert a.msg_id != GossipMessage("t", b"p", "n", 1, 4).msg_id
        assert a.msg_id != GossipMessage("t", b"q", "n", 0, 4).msg_id
        assert a.msg_id != GossipMessage("u", b"p", "n", 0, 4).msg_id
        assert a.msg_id != GossipMessage("t", b"p", "m", 0, 4).msg_id

    def test_field_confusion_does_not_collide(self):
        # topic/origin shifting bytes into each other must change the id
        a = GossipMessage("ab", b"", "c", 0, 4)
        b = GossipMessage("a", b"", "bc", 0, 4)
        assert a.msg_id != b.msg_id

    def test_hop_decrements_ttl_only(self):
        msg = GossipMessage("t", b"p", "n", 7, 3)
        hopped = msg.hop()
        assert hopped.ttl == 2
        assert hopped.msg_id == msg.msg_id


class TestPubSub:
    def test_publish_reaches_every_subscriber(self):
        network, nodes = make_mesh(4)
        sinks = [Collector() for _ in nodes]
        for node, sink in zip(nodes, sinks):
            node.subscribe("demo", sink)
        nodes[0].publish("demo", b"hello")
        network.run()
        for sink in sinks:
            assert [m.payload for m in sink.messages] == [b"hello"]

    def test_unsubscribed_topics_are_not_delivered_but_still_relayed(self):
        # a sparse line topology: g0 - g1 - g2; g1 is not subscribed but
        # must still carry the flood so g2 hears it
        network = SimNetwork(latency=FixedLatency(0.01))
        nodes = [GossipNode(network, f"g{i}") for i in range(3)]
        nodes[0].add_peer("g1"); nodes[1].add_peer("g0")
        nodes[1].add_peer("g2"); nodes[2].add_peer("g1")
        sink = Collector()
        nodes[2].subscribe("demo", sink)
        nodes[0].publish("demo", b"x")
        network.run()
        assert len(sink.messages) == 1
        assert nodes[1].stats.delivered == 0
        assert nodes[1].stats.relayed >= 1

    def test_duplicate_floods_deliver_once(self):
        network, nodes = make_mesh(5)
        sink = Collector()
        nodes[4].subscribe("demo", sink)
        nodes[0].publish("demo", b"once")
        network.run()
        assert len(sink.messages) == 1
        # a full mesh floods every node from several directions
        assert nodes[4].stats.duplicates_dropped >= 1

    def test_replayed_publication_is_distinct(self):
        network, nodes = make_mesh(2)
        sink = Collector()
        nodes[1].subscribe("demo", sink)
        nodes[0].publish("demo", b"same")
        nodes[0].publish("demo", b"same")   # new seq ⇒ new message
        network.run()
        assert len(sink.messages) == 2

    def test_publisher_delivers_to_itself(self):
        network, nodes = make_mesh(2)
        sink = Collector()
        nodes[0].subscribe("demo", sink)
        nodes[0].publish("demo", b"self")
        assert len(sink.messages) == 1      # local delivery is synchronous

    def test_bad_usage_raises(self):
        network, nodes = make_mesh(2)
        with pytest.raises(GossipError):
            nodes[0].publish("", b"x")
        with pytest.raises(GossipError):
            nodes[0].subscribe("", lambda m: None)
        with pytest.raises(GossipError):
            nodes[0].add_peer(nodes[0].name)
        with pytest.raises(GossipError):
            GossipNode(network, "bad", fanout=0)


class TestRelayBounds:
    def test_ttl_bounds_propagation_on_a_line(self):
        # line of 6 nodes, ttl=2: the publisher's flood reaches hop 0 (g1),
        # hop 1 (g2), hop 2 (g3, delivered, not relayed) and stops
        network = SimNetwork(latency=FixedLatency(0.01))
        nodes = [GossipNode(network, f"g{i}", ttl=2) for i in range(6)]
        for i in range(5):
            nodes[i].add_peer(f"g{i + 1}")
            nodes[i + 1].add_peer(f"g{i}")
        sinks = [Collector() for _ in nodes]
        for node, sink in zip(nodes, sinks):
            node.subscribe("demo", sink)
        nodes[0].publish("demo", b"x")
        network.run()
        reached = [i for i, s in enumerate(sinks) if s.messages]
        assert reached == [0, 1, 2, 3]
        assert nodes[3].stats.ttl_exhausted == 1

    def test_fanout_bounds_forwards_per_message(self):
        network, nodes = make_mesh(8, **{"fanout": 2})
        nodes[0].publish("demo", b"x")
        assert nodes[0].stats.relayed == 2   # not 7

    def test_seen_cache_is_bounded(self):
        network, nodes = make_mesh(2, **{"seen_cache_size": 8})
        for i in range(50):
            nodes[0].publish("demo", f"m{i}".encode())
        network.run()
        assert len(nodes[0]._seen) <= 8
        assert len(nodes[1]._seen) <= 8

    def test_relay_excludes_arrival_hop_and_origin(self):
        # triangle: g0 publishes; g1 must not bounce the message back to
        # g0 (origin) — its only other peer is g2
        network, nodes = make_mesh(3)
        nodes[0].publish("demo", b"x")
        network.run()
        # g0 never receives its own message back as a non-duplicate
        assert nodes[0].stats.delivered == 0
        assert nodes[0].stats.received == nodes[0].stats.duplicates_dropped


class TestRateLimiting:
    def test_flooding_peer_is_dropped(self):
        network, nodes = make_mesh(
            2, **{"rate_limit": 5, "rate_window": 10.0})
        sink = Collector()
        nodes[1].subscribe("demo", sink)
        for i in range(20):
            nodes[0].publish("demo", f"m{i}".encode())
        network.run()
        assert len(sink.messages) == 5
        assert nodes[1].stats.rate_limited == 15

    def test_window_resets_admission(self):
        network, nodes = make_mesh(
            2, **{"rate_limit": 2, "rate_window": 0.5})
        sink = Collector()
        nodes[1].subscribe("demo", sink)
        for i in range(4):
            nodes[0].publish("demo", f"a{i}".encode())
        network.run()
        assert len(sink.messages) == 2
        network.run_until(network.clock.now() + 1.0)   # window expires
        for i in range(2):
            nodes[0].publish("demo", f"b{i}".encode())
        network.run()
        assert len(sink.messages) == 4

    def test_undecodable_payloads_are_counted_not_raised(self):
        network, nodes = make_mesh(2)
        network.send("g0", "g1", b"not-a-gossip-message", size_bytes=10)
        network.run()
        assert nodes[1].stats.undecodable == 1


class TestPartitionHealing:
    def test_heal_receives_new_messages(self):
        network, nodes = make_mesh(2)
        sink = Collector()
        nodes[1].subscribe("demo", sink)
        network.partition("g0", "g1")
        nodes[0].publish("demo", b"lost")
        network.run()
        assert sink.messages == []
        network.heal("g0", "g1")   # the subscription outlives the partition
        nodes[0].publish("demo", b"after-heal")
        network.run()
        assert [m.payload for m in sink.messages] == [b"after-heal"]
