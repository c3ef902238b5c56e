"""Benchmark-support modules: gas→USD conversion and report collection."""

import pytest

from repro.contracts.gascost import (
    ARBITRUM_GAS_PRICE_GWEI,
    ETH_PRICE_USD,
    MAINNET_GAS_PRICE_GWEI,
    MEDIAN_TX_FEE_USD,
    cost_row,
    gas_to_usd,
)


class TestGasToUsd:
    def test_paper_conversion_deposit(self):
        """Paper: 45,238 gas -> $2.171 on mainnet at 12 Gwei/$4000."""
        usd = gas_to_usd(45_238, MAINNET_GAS_PRICE_GWEI)
        assert usd == pytest.approx(2.171, abs=0.001)

    def test_paper_conversion_fraud_proof(self):
        """Paper: 762,508 gas -> $36.6 mainnet, $0.305 arbitrum."""
        assert gas_to_usd(762_508, MAINNET_GAS_PRICE_GWEI) == pytest.approx(
            36.6, abs=0.05)
        assert gas_to_usd(762_508, ARBITRUM_GAS_PRICE_GWEI) == pytest.approx(
            0.305, abs=0.001)

    def test_linear_in_gas_and_price(self):
        assert gas_to_usd(2_000, 10) == 2 * gas_to_usd(1_000, 10)
        assert gas_to_usd(1_000, 20) == 2 * gas_to_usd(1_000, 10)

    def test_cost_row(self):
        row = cost_row("Open a channel", 196_183)
        assert row.gas == 196_183
        assert row.mainnet_usd == pytest.approx(9.417, abs=0.001)
        assert row.arbitrum_usd == pytest.approx(0.078, abs=0.001)

    def test_paper_constants(self):
        assert ETH_PRICE_USD == 4_000
        assert MEDIAN_TX_FEE_USD["mainnet"] == 1.606
        assert MEDIAN_TX_FEE_USD["arbitrum"] == 0.350


class TestBenchmarkDiscovery:
    """Each paper artifact must have a bench file that pytest can collect."""

    EXPECTED_BENCHES = [
        "bench_table1_providers.py",
        "bench_table2_message_overhead.py",
        "bench_table3_latency.py",
        "bench_table4_gas.py",
        "bench_fig6_proof_size.py",
        "bench_fig7_scalability.py",
        "bench_ablation_proof_modes.py",
        "bench_ablation_pricing.py",
        "bench_ablation_pcn.py",
        "bench_ablation_dispute.py",
    ]

    def test_all_bench_files_exist(self):
        import pathlib

        bench_dir = pathlib.Path(__file__).parents[2] / "benchmarks"
        present = {p.name for p in bench_dir.glob("bench_*.py")}
        for expected in self.EXPECTED_BENCHES:
            assert expected in present, f"missing {expected}"

    def test_examples_exist_and_are_scripts(self):
        import pathlib

        examples = pathlib.Path(__file__).parents[2] / "examples"
        names = {p.name for p in examples.glob("*.py")}
        for expected in ("quickstart.py", "fraud_detection.py",
                         "channel_dispute.py", "wallet_dapp.py",
                         "gossip_reputation.py"):
            assert expected in names
            text = (examples / expected).read_text()
            assert "__main__" in text, f"{expected} is not runnable"
