"""Measurement utilities, the serving cache and workload generators."""

import inspect

import pytest

from benchmarks.probes import ResourceProbe, StepTimer
from benchmarks.reporting import render_series, render_table
from benchmarks.table1 import PUBLISHED_SHARES, TOTAL_RPC_DAPPS, generate_dataset
from repro.metrics import CacheStats, LRUCache
from repro.workloads import AccountSet, ZipfSelector


class TestStepTimer:
    def test_measure_context(self):
        timer = StepTimer()
        with timer.measure("step"):
            sum(range(1000))
        stats = timer.stats("step")
        assert stats.count == 1
        assert stats.mean > 0

    def test_statistics(self):
        timer = StepTimer()
        for value in (0.001, 0.002, 0.003, 0.010):
            timer.add_sample("s", value)
        stats = timer.stats("s")
        assert stats.count == 4
        assert stats.minimum == 0.001 and stats.maximum == 0.010
        assert stats.median == pytest.approx(0.0025)
        assert 0.001 <= stats.p95 <= 0.010

    def test_paper_style_formatting(self):
        timer = StepTimer()
        timer.add_sample("ms", 0.0123)
        timer.add_sample("us", 0.000714)
        assert timer.stats("ms").format_paper_style().endswith("ms")
        assert timer.stats("us").format_paper_style().endswith("µs")

    def test_unknown_step(self):
        with pytest.raises(KeyError):
            StepTimer().stats("ghost")

    def test_reset(self):
        timer = StepTimer()
        timer.add_sample("x", 1.0)
        timer.reset()
        assert timer.samples == {}


class TestResourceProbe:
    def test_measures_cpu_and_memory(self):
        with ResourceProbe() as probe:
            # bytes([i]) defeats constant folding so each buffer is distinct
            data = [bytes([i % 251]) * 1000 for i in range(500)]
            sum(len(d) for d in data)
        sample = probe.sample
        assert sample.cpu_seconds >= 0
        assert sample.wall_seconds > 0
        assert sample.peak_memory_bytes > 100_000  # the 500 KB of buffers

    def test_cpu_only_mode(self):
        with ResourceProbe(trace_memory=False) as probe:
            sum(range(10_000))
        assert probe.sample.peak_memory_bytes == 0
        assert probe.sample.cpu_seconds >= 0

    def test_utilization(self):
        with ResourceProbe(trace_memory=False) as probe:
            sum(range(2_000_000))  # long enough to dominate clock granularity
        assert probe.sample.cpu_utilization >= 0
        assert probe.sample.wall_seconds > 0


class TestTableRendering:
    def test_alignment(self):
        text = render_table(["a", "long-header"], [[1, "x"], [22, "yy"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_title(self):
        assert render_table(["h"], [[1]], title="T").startswith("T\n")

    def test_series(self):
        text = render_series("s", [1, 2], [10, 20], "x", "y")
        assert "10" in text and "x" in text


class TestLRUCache:
    def test_constructor_takes_only_capacity(self):
        """Counters, entries and the lock start fresh in every cache."""
        assert list(inspect.signature(LRUCache).parameters) == ["capacity"]
        cache = LRUCache(capacity=2)
        assert len(cache) == 0 and cache.stats == CacheStats()

    def test_instances_share_no_state(self):
        a, b = LRUCache(capacity=2), LRUCache(capacity=2)
        a.put("k", 1)
        assert b.get("k") is None and "k" in a
        assert a.stats.misses == 0 and b.stats.misses == 1
        assert a._entries is not b._entries and a._lock is not b._lock

    def test_evicts_the_least_recently_used_and_counts(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1        # "b" is now least recent
        cache.put("c", 3)
        assert "b" not in cache and len(cache) == 2
        assert cache.get("b") is None
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.evictions) == (1, 1, 1)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_below_one_is_refused(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(capacity=capacity)


class TestZipf:
    def test_skew(self):
        selector = ZipfSelector(population=100, exponent=1.2, seed=1)
        picks = [selector.pick() for _ in range(2_000)]
        assert all(0 <= p < 100 for p in picks)
        # rank 0 must dominate rank 50 under a Zipf law
        assert picks.count(0) > picks.count(50) * 3

    def test_deterministic(self):
        first, second = ZipfSelector(10, seed=7), ZipfSelector(10, seed=7)
        a = [first.pick() for _ in range(50)]
        b = [second.pick() for _ in range(50)]
        assert a == b

    def test_bad_population(self):
        with pytest.raises(ValueError):
            ZipfSelector(0)


class TestAccountSet:
    def test_deterministic_keys(self):
        a = AccountSet(5, seed="s")
        b = AccountSet(5, seed="s")
        assert a.addresses == b.addresses
        assert AccountSet(5, seed="t").addresses != a.addresses

    def test_genesis_funds_everyone(self):
        accounts = AccountSet(3, balance=123)
        genesis = accounts.genesis()
        assert all(genesis.allocations[addr] == 123
                   for addr in accounts.addresses)

    def test_genesis_extra_merge(self):
        from repro.crypto import PrivateKey

        accounts = AccountSet(2, balance=5)
        vip = PrivateKey.from_seed("vip").address
        genesis = accounts.genesis(extra={vip: 999})
        assert genesis.allocations[vip] == 999


class TestDappDataset:
    def test_marginals_match_published(self):
        records = generate_dataset(seed=42)
        by_provider = {}
        for record in records:
            by_provider.setdefault(record.provider, set()).add(record.dapp_id)
        for provider, (count, _share) in PUBLISHED_SHARES.items():
            assert len(by_provider[provider]) == count, provider

    def test_every_dapp_covered(self):
        records = generate_dataset(seed=42)
        assert {r.dapp_id for r in records} == set(range(TOTAL_RPC_DAPPS))

    def test_multi_homing_exists(self):
        records = generate_dataset(seed=42)
        providers_per_dapp = {}
        for record in records:
            providers_per_dapp.setdefault(record.dapp_id, set()).add(record.provider)
        assert any(len(p) > 1 for p in providers_per_dapp.values())

    def test_deterministic_per_seed(self):
        assert generate_dataset(seed=1) == generate_dataset(seed=1)
        assert generate_dataset(seed=1) != generate_dataset(seed=2)

    def test_records_well_formed(self):
        for record in generate_dataset(seed=3)[:50]:
            assert record.call_count > 0
            assert record.endpoint_host
            assert record.method.startswith("eth_")
