"""The two gossip domains: signed head announcements and shared reputation."""

from dataclasses import replace

import pytest

from repro.chain import GenesisConfig
from repro.crypto import PrivateKey
from repro.gossip import (
    GossipNode,
    HeadAnnouncement,
    HeadEquivocationProof,
    HeadGossip,
    ReputationGossip,
    ReputationShare,
    TOPIC_NEW_HEADS,
    TOPIC_REPUTATION,
    connect_mesh,
)
from repro.lightclient import HeaderSyncer
from repro.net import FixedLatency, SimNetwork
from repro.node import Devnet, FullNode
from repro.parp.messages import MessageError
from repro.rlp import encode
from repro.parp.reputation import (
    EVENT_EQUIVOCATION,
    EVENT_FRAUD_SLASHED,
    EVENT_INVALID_RESPONSE,
    EVENT_SERVED_OK,
    REMOTE_BUDGET,
    SOFT_FLOOR,
    ReputationLedger,
)

from ..conftest import LedgerRecorder

STAKE = 32 * 10 ** 18


def build_devnet(blocks: int = 4) -> Devnet:
    net = Devnet(GenesisConfig())
    net.advance_blocks(blocks)
    return net


class TestHeadAnnouncement:
    def test_round_trip_and_signer(self):
        net = build_devnet()
        key = PrivateKey.from_seed("ha:op")
        ann = HeadAnnouncement.build(net.chain.head.header, key)
        decoded = HeadAnnouncement.decode(ann.encode())
        assert decoded == ann
        assert decoded.signer() == key.address

    def test_decode_rejects_garbage(self):
        with pytest.raises(MessageError):
            HeadAnnouncement.decode(b"\x01\x02\x03")

    def test_tampered_header_changes_signer(self):
        net = build_devnet()
        key = PrivateKey.from_seed("ha:op")
        ann = HeadAnnouncement.build(net.chain.head.header, key)
        forged = HeadAnnouncement(
            header=replace(ann.header, timestamp=ann.header.timestamp + 1),
            signature=ann.signature)
        # signature no longer binds: recovers to some other address (or fails)
        try:
            assert forged.signer() != key.address
        except MessageError:
            pass


class TestHeadEquivocationProof:
    def _pair(self):
        net = build_devnet()
        key = PrivateKey.from_seed("eq:op")
        h = net.chain.head.header
        h2 = replace(h, timestamp=h.timestamp + 1)
        return (HeadAnnouncement.build(h, key),
                HeadAnnouncement.build(h2, key), key)

    def test_requires_one_height_two_hashes(self):
        a, b, key = self._pair()
        proof = HeadEquivocationProof(first=a, second=b, announcer=key.address)
        assert proof.height == a.header.number
        with pytest.raises(MessageError):
            HeadEquivocationProof(first=a, second=a, announcer=key.address)

    def test_evidence_digest_is_order_free(self):
        a, b, key = self._pair()
        p1 = HeadEquivocationProof(first=a, second=b, announcer=key.address)
        p2 = HeadEquivocationProof(first=b, second=a, announcer=key.address)
        assert p1.evidence_digest() == p2.evidence_digest()


def make_head_world(n_announcers: int = 3, quorum: int = 2,
                    stake_of=None, **head_kwargs):
    """A devnet, a pull-synced client syncer, and a gossip star around it."""
    net = build_devnet(3)
    network = SimNetwork(latency=FixedLatency(0.01))
    source = FullNode(net.chain, key=PrivateKey.from_seed("hw:src"))
    syncer = HeaderSyncer([source])
    syncer.sync()
    announcer_keys = [PrivateKey.from_seed(f"hw:an{i}")
                      for i in range(n_announcers)]
    nodes = [GossipNode(network, f"an-{i}") for i in range(n_announcers)]
    client_node = GossipNode(network, "client")
    connect_mesh(nodes + [client_node])
    head = HeadGossip(client_node, syncer, stake_of=stake_of, quorum=quorum,
                      **head_kwargs)
    return net, network, syncer, announcer_keys, nodes, head


def hostile_header(header) -> bytes:
    """``header``'s encoding with its gas_used field an RLP list."""
    items = header._rlp_items()
    items[6] = [items[6]]
    return encode(items)


class TestHeadGossip:
    def test_hostile_header_bytes_are_counted_not_raised(self):
        """An announcement whose header carries a list where an integer
        belongs once raised TypeError out of the subscriber's handler and
        stopped the whole network.  It is one more undecodable message."""
        net, network, syncer, keys, nodes, head = make_head_world(quorum=1)
        base = syncer.chain.tip_number
        net.advance_blocks(1)
        header = net.chain.head.header
        signature = HeadAnnouncement.build(header, keys[0]).signature
        nodes[0].publish(TOPIC_NEW_HEADS,
                         encode([hostile_header(header), signature]))
        network.run()
        assert head.stats.undecodable == 1
        assert syncer.chain.tip_number == base
        nodes[1].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(header, keys[1]).encode())
        network.run()
        assert syncer.chain.tip_number == base + 1

    def test_quorum_gates_application(self):
        net, network, syncer, keys, nodes, head = make_head_world(quorum=2)
        base = syncer.chain.tip_number
        net.advance_blocks(1)
        header = net.chain.head.header
        nodes[0].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(header, keys[0]).encode())
        network.run()
        assert syncer.chain.tip_number == base          # one vote < quorum
        nodes[1].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(header, keys[1]).encode())
        network.run()
        assert syncer.chain.tip_number == base + 1
        assert head.stats.quorum_applied == 1
        assert head.stats.heads_appended == 1
        assert syncer.headers_pushed == 1

    def test_same_announcer_cannot_self_quorum(self):
        net, network, syncer, keys, nodes, head = make_head_world(quorum=2)
        base = syncer.chain.tip_number
        net.advance_blocks(1)
        header = net.chain.head.header
        ann = HeadAnnouncement.build(header, keys[0])
        nodes[0].publish(TOPIC_NEW_HEADS, ann.encode())
        nodes[1].publish(TOPIC_NEW_HEADS, ann.encode())   # same signer, relayed
        network.run()
        assert syncer.chain.tip_number == base            # 1 distinct voter

    def test_understaked_announcers_are_ignored(self):
        staked = PrivateKey.from_seed("hw:an0").address
        stake_of = lambda a: STAKE if a == staked else 0  # noqa: E731
        net, network, syncer, keys, nodes, head = make_head_world(
            quorum=1, stake_of=stake_of)
        base = syncer.chain.tip_number
        net.advance_blocks(1)
        header = net.chain.head.header
        nodes[1].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(header, keys[1]).encode())
        network.run()
        assert head.stats.understaked == 1
        assert syncer.chain.tip_number == base
        nodes[0].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(header, keys[0]).encode())
        network.run()
        assert syncer.chain.tip_number == base + 1

    def test_gap_triggers_pull(self):
        net, network, syncer, keys, nodes, head = make_head_world(quorum=1)
        base = syncer.chain.tip_number
        net.advance_blocks(3)                  # client missed two seals
        header = net.chain.head.header
        nodes[0].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(header, keys[0]).encode())
        network.run()
        assert syncer.chain.tip_number == base + 3
        assert head.stats.heads_pulled == 1

    def test_equivocation_detected_and_recorded(self):
        ledger = ReputationLedger()
        told = LedgerRecorder(ledger)
        proofs = []
        net, network, syncer, keys, nodes, head = make_head_world(
            quorum=2, reputation=ledger, on_equivocation=proofs.append)
        net.advance_blocks(1)
        header = net.chain.head.header
        forged = replace(header, timestamp=header.timestamp + 9)
        nodes[0].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(header, keys[0]).encode())
        nodes[0].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(forged, keys[0]).encode())
        network.run()
        assert head.stats.equivocations == 1
        assert keys[0].address in head.equivocators
        assert len(proofs) == 1 and proofs[0].announcer == keys[0].address
        kinds = [e.kind for e in told.of(keys[0].address)]
        assert kinds == [EVENT_EQUIVOCATION]
        assert not told.of(keys[0].address)[0].remote  # first-hand

    def test_equivocator_votes_are_purged_and_future_ignored(self):
        net, network, syncer, keys, nodes, head = make_head_world(quorum=2)
        base = syncer.chain.tip_number
        net.advance_blocks(1)
        header = net.chain.head.header
        forged = replace(header, timestamp=header.timestamp + 9)
        # announcer 0 votes, then equivocates: its vote must not count
        nodes[0].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(header, keys[0]).encode())
        nodes[0].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(forged, keys[0]).encode())
        nodes[1].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(header, keys[1]).encode())
        network.run()
        assert syncer.chain.tip_number == base          # 1 honest vote < 2
        # equivocator's later announcements are dropped at the door
        nodes[0].publish(TOPIC_NEW_HEADS,
                         HeadAnnouncement.build(header, keys[0]).encode())
        network.run()
        assert syncer.chain.tip_number == base

    def test_vote_books_prune_below_applied_height(self):
        net, network, syncer, keys, nodes, head = make_head_world(quorum=1)
        for _ in range(3):
            net.advance_blocks(1)
            header = net.chain.head.header
            nodes[0].publish(TOPIC_NEW_HEADS,
                             HeadAnnouncement.build(header, keys[0]).encode())
            network.run()
        tip = syncer.chain.tip_number
        assert all(h >= tip for (h, _) in head._votes)
        assert all(h >= tip for (_, h) in head._by_announcer)


class TestServerAnnouncesOnSeal:
    def test_enable_gossip_announces_each_seal(self):
        net = build_devnet(1)
        network = SimNetwork(latency=FixedLatency(0.01))
        op = PrivateKey.from_seed("seal:op")
        server = net.attach_server(op, name="srv", stake=False)
        node = GossipNode(network, "srv-g")
        listener = GossipNode(network, "lc-g")
        connect_mesh([node, listener])
        seen = []
        listener.subscribe(TOPIC_NEW_HEADS, seen.append)
        server.enable_gossip(node)
        net.advance_blocks(2)
        network.run()
        assert server.stats.heads_announced == 2
        assert len(seen) == 2
        ann = HeadAnnouncement.decode(seen[-1].payload)
        assert ann.signer() == op.address
        assert ann.header.hash == net.chain.head.header.hash
        muted = GossipNode(network, "muted-g")     # peers with nobody
        server.enable_gossip(muted)    # re-pointing replaces the seal listener
        net.advance_blocks(1)
        network.run()
        assert server.stats.heads_announced == 3
        assert len(seen) == 2                          # srv-g announces no more


class TestReputationGossipWire:
    def test_round_trip(self):
        key = PrivateKey.from_seed("rg:rep")
        subject = PrivateKey.from_seed("rg:sub").address
        ev = ReputationGossip.build(subject, EVENT_FRAUD_SLASHED,
                                    b"\x42" * 32, 12.5, key)
        decoded = ReputationGossip.decode(ev.encode())
        assert decoded == ev
        assert decoded.signer() == key.address
        assert decoded.time_millis == 12_500

    def test_build_rejects_ungossipable_and_bad_evidence(self):
        key = PrivateKey.from_seed("rg:rep")
        subject = PrivateKey.from_seed("rg:sub").address
        with pytest.raises(MessageError):
            ReputationGossip.build(subject, EVENT_SERVED_OK, b"\x42" * 32,
                                   1.0, key)
        with pytest.raises(MessageError):
            ReputationGossip.build(subject, EVENT_FRAUD_SLASHED, b"short",
                                   1.0, key)

    def test_decode_rejects_bad_lengths(self):
        key = PrivateKey.from_seed("rg:rep")
        subject = PrivateKey.from_seed("rg:sub").address
        wire = ReputationGossip.build(subject, EVENT_FRAUD_SLASHED,
                                      b"\x42" * 32, 1.0, key).encode()
        with pytest.raises(MessageError):
            ReputationGossip.decode(wire[:-1])
        with pytest.raises(MessageError):
            ReputationGossip.decode(wire + b"\x00")
        with pytest.raises(MessageError):
            ReputationGossip.decode(b"")


def make_share_world(stakes=None):
    network = SimNetwork(latency=FixedLatency(0.01))
    reporter_key = PrivateKey.from_seed("sw:reporter")
    receiver_key = PrivateKey.from_seed("sw:receiver")
    stakes = stakes if stakes is not None else {reporter_key.address: STAKE}
    stake_of = stakes.get if hasattr(stakes, "get") else stakes
    a = GossipNode(network, "a")
    b = GossipNode(network, "b")
    connect_mesh([a, b])
    reporter = ReputationShare(a, ReputationLedger(), reporter_key,
                               stake_of=lambda addr: stakes.get(addr, 0))
    ledger = ReputationLedger()
    receiver = ReputationShare(b, ledger, receiver_key,
                               stake_of=lambda addr: stakes.get(addr, 0))
    return network, reporter, receiver, ledger, reporter_key


class TestReputationShare:
    def test_merge_is_discounted_and_flagged_remote(self):
        network, reporter, receiver, ledger, rep_key = make_share_world()
        told = LedgerRecorder(ledger)
        evil = PrivateKey.from_seed("sw:evil").address
        reporter.publish(evil, EVENT_INVALID_RESPONSE, b"ev")
        network.run()
        assert receiver.stats.merged == 1
        (event,) = told.of(evil)
        assert event.remote and event.reporter == rep_key.address
        # full stake ⇒ foreign_discount × native weight
        assert event.weight == pytest.approx(-10.0 * 0.5)

    def test_partial_stake_scales_weight(self):
        key = PrivateKey.from_seed("sw:reporter")
        network, reporter, receiver, ledger, _ = make_share_world(
            stakes={key.address: STAKE // 4})
        told = LedgerRecorder(ledger)
        evil = PrivateKey.from_seed("sw:evil").address
        reporter.publish(evil, EVENT_INVALID_RESPONSE, b"ev")
        network.run()
        (event,) = told.of(evil)
        assert event.weight == pytest.approx(-10.0 * 0.5 * 0.25)

    def test_unstaked_reporter_is_dropped(self):
        network, reporter, receiver, ledger, _ = make_share_world(stakes={})
        told = LedgerRecorder(ledger)
        evil = PrivateKey.from_seed("sw:evil").address
        reporter.publish(evil, EVENT_FRAUD_SLASHED, b"ev")
        network.run()
        assert receiver.stats.understaked == 1
        assert told.of(evil) == []

    def test_replayed_accusation_merges_once(self):
        network, reporter, receiver, ledger, _ = make_share_world()
        evil = PrivateKey.from_seed("sw:evil").address
        reporter.publish(evil, EVENT_INVALID_RESPONSE, b"same-evidence")
        reporter.publish(evil, EVENT_INVALID_RESPONSE, b"same-evidence")
        network.run()
        assert receiver.stats.merged == 1
        assert receiver.stats.duplicates == 1

    def test_own_events_are_not_remerged(self):
        network, reporter, receiver, ledger, _ = make_share_world()
        told = LedgerRecorder(reporter.ledger)
        evil = PrivateKey.from_seed("sw:evil").address
        reporter.publish(evil, EVENT_INVALID_RESPONSE, b"ev")
        network.run()
        # the local delivery of our own publication is recognized and skipped
        assert reporter.stats.own_echoes == 1
        assert reporter.stats.merged == 0
        assert told.of(evil) == []

    def test_non_gossipable_kind_stays_local(self):
        network, reporter, receiver, ledger, _ = make_share_world()
        good = PrivateKey.from_seed("sw:good").address
        assert reporter.publish(good, EVENT_SERVED_OK, b"ev") is None
        network.run()
        assert receiver.stats.received == 0


class TestMergeRemoteLedger:
    def test_budget_caps_one_reporters_influence(self):
        assert REMOTE_BUDGET == 30.0
        ledger = ReputationLedger()
        subject = PrivateKey.from_seed("mr:sub").address
        reporter = PrivateKey.from_seed("mr:rep").address
        first = ledger.merge_remote(subject, EVENT_FRAUD_SLASHED, 0.0,
                                    reporter, discount=1.0)
        assert first == -30.0                                # capped
        second = ledger.merge_remote(subject, EVENT_INVALID_RESPONSE, 1.0,
                                     reporter, discount=1.0)
        assert second is None                                # budget spent
        # a different reporter has its own budget
        other = PrivateKey.from_seed("mr:rep2").address
        third = ledger.merge_remote(subject, EVENT_INVALID_RESPONSE, 2.0,
                                    other, discount=1.0)
        assert third == -10.0

    def test_gossip_alone_never_hard_bans(self):
        ledger = ReputationLedger()
        subject = PrivateKey.from_seed("mr:sub").address
        for i in range(40):
            reporter = PrivateKey.from_seed(f"mr:rep{i}").address
            ledger.merge_remote(subject, EVENT_FRAUD_SLASHED, float(i),
                                reporter, discount=1.0)
        now = 50.0
        assert not ledger.has_hard_negative(subject)
        assert not ledger.is_banned(subject, now)
        assert ledger.score(subject, now) == SOFT_FLOOR

    def test_first_hand_evidence_still_bans(self):
        ledger = ReputationLedger()
        subject = PrivateKey.from_seed("mr:sub").address
        ledger.record(subject, EVENT_FRAUD_SLASHED, 0.0)
        assert ledger.has_hard_negative(subject)
        assert ledger.is_banned(subject, 1.0)

    def test_zero_discount_and_unknown_kind(self):
        ledger = ReputationLedger()
        subject = PrivateKey.from_seed("mr:sub").address
        reporter = PrivateKey.from_seed("mr:rep").address
        assert ledger.merge_remote(subject, EVENT_INVALID_RESPONSE, 0.0,
                                   reporter, discount=0.0) is None
        with pytest.raises(ValueError):
            ledger.merge_remote(subject, "nonsense", 0.0, reporter)
