"""Range-aware marketplace selection and the shard-info probe — unit level.

The directory half of sharded serving: advertisements carry a
:class:`~repro.trie.shard.ShardRange`, coverage gates candidate selection
(a shard server is never even a candidate for keys outside its slice), and
a coverage hole surfaces as the typed :class:`NoServerForKey` *before* any
payment is signed.
"""

import pytest

from repro.chain import GenesisConfig
from repro.crypto import keccak256
from repro.crypto.keys import Address, PrivateKey
from repro.net import SimEndpoint, SimNetwork, SimServerBinding
from repro.node import Devnet
from repro.parp import NoServerForKey, shard_key_of_call
from repro.parp.marketplace import (
    Marketplace,
    MarketplaceClient,
    ServerAdvertisement,
)
from repro.parp.messages import RpcCall
from repro.parp.pricing import GWEI, FlatFeeSchedule
from repro.trie.shard import ShardRange, shard_of_key

LC = PrivateKey.from_seed("unit:shardsel:lc")
TOKEN = 10 ** 18


def addr(tag: str) -> Address:
    return Address(keccak256(tag.encode())[-20:])


def address_in_shard(index: int, count: int) -> Address:
    """An address whose secure-trie key lands in the given shard."""
    for i in range(4096):
        candidate = addr(f"probe{i}")
        if shard_of_key(keccak256(bytes(candidate)), count) == index:
            return candidate
    raise AssertionError("no address found for shard")  # pragma: no cover


def ad_for(tag: str, shard: ShardRange | None = None,
           price_gwei: int = 10) -> ServerAdvertisement:
    return ServerAdvertisement(
        address=addr(tag), endpoint=object(),
        fee_schedule=FlatFeeSchedule(flat_price=price_gwei * GWEI),
        name=tag, shard=shard,
    )


def client_with(*ads: ServerAdvertisement) -> MarketplaceClient:
    marketplace = Marketplace()
    for ad in ads:
        marketplace.advertise(ad)
    return MarketplaceClient(LC, marketplace, clock=lambda: 0.0)


class TestAdvertisementCoverage:
    def test_full_range_ad_covers_everything(self):
        ad = ad_for("full")
        for tag in range(32):
            assert ad.covers(keccak256(b"%d" % tag))

    def test_shard_ad_covers_exactly_its_slice(self):
        ad = ad_for("half", shard=ShardRange.of(0, 2))
        for tag in range(64):
            key = keccak256(b"%d" % tag)
            assert ad.covers(key) == (shard_of_key(key, 2) == 0)

    def test_full_is_normalized_to_unsharded(self):
        # a full-width range and "no shard" must behave identically
        ad = ad_for("wide", shard=ShardRange(0, 16))
        assert all(ad.covers(keccak256(b"%d" % t)) for t in range(32))

    def test_for_server_picks_up_the_shard_range(self):
        class FakeShardServer:
            address = addr("fake")
            fee_schedule = FlatFeeSchedule(flat_price=GWEI)
            shard_range = ShardRange.of(3, 4)

        ad = ServerAdvertisement.for_server(FakeShardServer(), name="fake")
        assert ad.shard == ShardRange.of(3, 4)


class TestDirectoryCoverage:
    def test_covering_lists_only_matching_ads(self):
        lo = ad_for("lo", shard=ShardRange.of(0, 2))
        hi = ad_for("hi", shard=ShardRange.of(1, 2))
        full = ad_for("full")
        marketplace = Marketplace()
        for ad in (lo, hi, full):
            marketplace.advertise(ad)
        key = keccak256(bytes(address_in_shard(0, 2)))
        names = {ad.name for ad in marketplace.covering(key)}
        assert names == {"lo", "full"}

    def test_coverage_hole_is_an_empty_list(self):
        marketplace = Marketplace()
        marketplace.advertise(ad_for("lo", shard=ShardRange.of(0, 2)))
        key = keccak256(bytes(address_in_shard(1, 2)))
        assert marketplace.covering(key) == []


class TestRangeAwareSelection:
    def test_keys_filter_out_non_covering_shards(self):
        lo = ad_for("lo", shard=ShardRange.of(0, 2), price_gwei=1)
        hi = ad_for("hi", shard=ShardRange.of(1, 2), price_gwei=1)
        full = ad_for("full", price_gwei=50)
        client = client_with(lo, hi, full)
        key = keccak256(bytes(address_in_shard(1, 2)))
        names = [ad.name for ad in client.eligible(keys=(key,))]
        # the cheap shard-0 server is not even a candidate for a shard-1 key
        assert "lo" not in names
        assert set(names) == {"hi", "full"}

    def test_keys_spanning_shards_leave_only_full_range(self):
        lo = ad_for("lo", shard=ShardRange.of(0, 2))
        hi = ad_for("hi", shard=ShardRange.of(1, 2))
        full = ad_for("full")
        client = client_with(lo, hi, full)
        keys = (keccak256(bytes(address_in_shard(0, 2))),
                keccak256(bytes(address_in_shard(1, 2))))
        assert [ad.name for ad in client.eligible(keys=keys)] \
            == ["full"]

    def test_no_keys_means_no_filtering(self):
        lo = ad_for("lo", shard=ShardRange.of(0, 2), price_gwei=1)
        full = ad_for("full", price_gwei=50)
        client = client_with(lo, full)
        assert [ad.name for ad in client.eligible()] == ["lo", "full"]


class TestCoverageGate:
    def test_request_call_raises_typed_error_on_a_hole(self):
        client = client_with(ad_for("lo", shard=ShardRange.of(0, 2)))
        victim = address_in_shard(1, 2)
        with pytest.raises(NoServerForKey) as err:
            client.request_call(RpcCall.create("eth_getBalance", victim))
        assert err.value.key == keccak256(bytes(victim))
        assert err.value.method == "eth_getBalance"
        assert "coverage hole" in str(err.value)

    def test_batch_with_one_uncovered_key_raises_before_serving(self):
        client = client_with(ad_for("lo", shard=ShardRange.of(0, 2)))
        calls = [
            RpcCall.create("eth_getBalance", address_in_shard(0, 2)),
            RpcCall.create("eth_getBalance", address_in_shard(1, 2)),
        ]
        with pytest.raises(NoServerForKey):
            client.query_hedged(calls, fanout=1)

    def test_unsharded_calls_need_no_state_coverage(self):
        assert shard_key_of_call(RpcCall.create("eth_blockNumber")) is None
        assert shard_key_of_call(
            RpcCall.create("eth_getTransactionByHash", b"\x00" * 32)) is None
        # malformed address params also route nowhere (serving rejects them
        # attributably; routing must not pre-judge)
        assert shard_key_of_call(
            RpcCall.create("eth_getBalance", b"short")) is None

    def test_state_keyed_call_routes_by_hashed_address(self):
        owner = addr("someone")
        call = RpcCall.create("eth_getBalance", owner)
        assert shard_key_of_call(call) == keccak256(bytes(owner))


class TestShardInfoProbe:
    def make_cluster(self, shard_count: int, replicas: int = 1):
        ops = [PrivateKey.from_seed(f"unit:shardsel:op{i}")
               for i in range(shard_count * replicas)]
        devnet = Devnet(GenesisConfig(
            allocations={k.address: 100 * TOKEN for k in ops}))
        servers = devnet.attach_shard_cluster(ops, shard_count)
        devnet.advance_blocks(1)
        return devnet, servers

    def test_probe_reports_range_commitment_and_height(self):
        _, servers = self.make_cluster(2)
        for j, server in enumerate(servers):
            lo, hi, commitment, height = server.shard_info()
            assert (lo, hi) == (ShardRange.of(j, 2).lo, ShardRange.of(j, 2).hi)
            assert isinstance(commitment, bytes) and len(commitment) == 32
            assert height == server.serve_head_number()

    def test_replicas_of_one_shard_agree_on_the_commitment(self):
        _, servers = self.make_cluster(2, replicas=2)
        by_shard = {}
        for server in servers:
            lo, hi, commitment, _ = server.shard_info()
            by_shard.setdefault((lo, hi), set()).add(commitment)
        assert len(by_shard) == 2
        assert all(len(seen) == 1 for seen in by_shard.values())
        # distinct shards commit to distinct slices
        (a,), (b,) = (tuple(s) for s in by_shard.values())
        assert a != b

    def test_full_range_server_probes_as_none(self):
        op = PrivateKey.from_seed("unit:shardsel:full-op")
        devnet = Devnet(GenesisConfig(allocations={op.address: 100 * TOKEN}))
        server = devnet.attach_server(op, name="full")
        assert server.shard_info() is None

    def test_probe_travels_over_the_wire(self):
        _, servers = self.make_cluster(2)
        net = SimNetwork()
        SimServerBinding(net, "srv", servers[0])
        endpoint = SimEndpoint(net, "lc", "srv", Address.zero(), timeout=2.0)
        assert endpoint.shard_info() == servers[0].shard_info()
