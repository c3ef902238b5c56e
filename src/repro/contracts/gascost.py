"""Gas→USD cost model for Table IV.

Uses the paper's stated conversion assumptions (§VI-E): ETH at $4,000, gas
at 12 Gwei on Ethereum mainnet and 0.1 Gwei on Arbitrum, plus the cited
median transaction fees of 2024-12-09 for the table's reference row.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ETH_PRICE_USD",
    "MAINNET_GAS_PRICE_GWEI",
    "ARBITRUM_GAS_PRICE_GWEI",
    "MEDIAN_TX_FEE_USD",
    "gas_to_usd",
    "CostRow",
    "cost_row",
]

ETH_PRICE_USD = 4_000.0
MAINNET_GAS_PRICE_GWEI = 12.0
ARBITRUM_GAS_PRICE_GWEI = 0.1
GWEI = 10 ** 9
WEI_PER_ETH = 10 ** 18

#: Median network transaction fees quoted by the paper for 2024-12-09.
MEDIAN_TX_FEE_USD = {"mainnet": 1.606, "arbitrum": 0.350}


def gas_to_usd(gas: int, gas_price_gwei: float) -> float:
    """Convert a gas amount to USD at a given gas price and ETH_PRICE_USD."""
    fee_wei = gas * gas_price_gwei * GWEI
    return fee_wei / WEI_PER_ETH * ETH_PRICE_USD


@dataclass(frozen=True)
class CostRow:
    """One row of Table IV."""

    action: str
    gas: int
    mainnet_usd: float
    arbitrum_usd: float


def cost_row(action: str, gas: int) -> CostRow:
    """Build a Table IV row from a measured gas amount."""
    return CostRow(
        action=action,
        gas=gas,
        mainnet_usd=round(gas_to_usd(gas, MAINNET_GAS_PRICE_GWEI), 3),
        arbitrum_usd=round(gas_to_usd(gas, ARBITRUM_GAS_PRICE_GWEI), 3),
    )
