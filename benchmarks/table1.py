"""Table I (§II): the synthetic dApp traffic dataset, the traffic-share
analysis over it, and the node-provider feature matrix.

The paper analyzes the Torres et al. (USENIX Security '23) web-traffic
dataset: of 1572 dApps, 383 issue JSON-RPC calls straight from their
frontend to node providers; mapping those calls to providers yields the
traffic shares of Table I (Infura 47.52%, Alchemy 31.07%, Binance 12.01%,
Ankr 9.4%, Cloudflare 6.79%, …).

We cannot ship the Zenodo dataset, so :func:`generate_dataset`
*synthesizes* a record set with the same schema (dApp id, provider, endpoint
URL, call count) whose aggregate marginals match the published numbers; the
analysis (:func:`compute_traffic_shares`) then runs unchanged on either real
or synthetic records.  A dApp may connect to several providers, exactly like
the paper notes ("a single dApp can connect to multiple providers").

The analysis mirrors the paper's pipeline: take per-dApp JSON-RPC call
records, map each call's endpoint to a provider, count *distinct dApps* per
provider (a dApp may use several providers), and express shares over the
383 frontend-RPC dApps.

The feature matrix is the §II-C survey: the paper inspects five top
providers' registration requirements, pricing, and payment methods ("all
the data was collected before December 2024").  This is cited survey data,
reproduced as structured constants (:data:`PROVIDER_PROFILES`) so the
Table I bench can render the matrix next to the measured traffic shares.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "PUBLISHED_SHARES",
    "TOTAL_RPC_DAPPS",
    "TOTAL_DATASET_DAPPS",
    "RpcCallRecord",
    "generate_dataset",
    "ProviderProfile",
    "PROVIDER_PROFILES",
    "ProviderShare",
    "compute_traffic_shares",
    "compare_with_published",
]

#: Provider shares published in Table I: provider -> (dApps connecting, share).
PUBLISHED_SHARES: dict[str, tuple[int, float]] = {
    "infura": (182, 0.4752),
    "alchemy": (119, 0.3107),
    "binance": (46, 0.1201),
    "ankr": (36, 0.0940),
    "cloudflare": (26, 0.0679),
    "quicknode": (16, 0.0418),
    "chainstack": (5, 0.0131),
}

#: dApps that send JSON-RPC calls directly from their frontend.
TOTAL_RPC_DAPPS = 383
#: all dApps in the Torres et al. crawl.
TOTAL_DATASET_DAPPS = 1572

_PROVIDER_HOSTS = {
    "infura": "mainnet.infura.io",
    "alchemy": "eth-mainnet.g.alchemy.com",
    "binance": "bsc-dataseed.binance.org",
    "ankr": "rpc.ankr.com",
    "cloudflare": "cloudflare-eth.com",
    "quicknode": "solitary-little-glitter.quiknode.pro",
    "chainstack": "nd-123-456-789.p2pify.com",
}

_COMMON_METHODS = (
    "eth_call", "eth_getBalance", "eth_blockNumber", "eth_chainId",
    "eth_getLogs", "eth_estimateGas", "eth_gasPrice", "eth_sendRawTransaction",
)


@dataclass(frozen=True)
class RpcCallRecord:
    """One observed frontend JSON-RPC flow: a dApp talking to a provider."""

    dapp_id: int
    provider: str
    endpoint_host: str
    method: str
    call_count: int


def generate_dataset(seed: int = 42) -> list[RpcCallRecord]:
    """Synthesize records whose per-provider dApp counts equal Table I's.

    Each provider ``p`` must end up with exactly ``PUBLISHED_SHARES[p][0]``
    distinct dApps.  dApps are assigned greedily with overlap (multi-provider
    dApps), mirroring how 430 connections fold into 383 dApps.
    """
    rng = random.Random(seed)
    connection_counts = {p: n for p, (n, _) in PUBLISHED_SHARES.items()}
    providers = list(connection_counts)

    # Assign each provider a set of dApp ids from the 383-dApp pool such that
    # every dApp gets at least one provider and counts match exactly.
    dapp_ids = list(range(TOTAL_RPC_DAPPS))
    assignments: dict[str, set[int]] = {p: set() for p in providers}

    # Pass 1: guarantee coverage — every dApp connects to one provider,
    # drawn proportionally to the remaining quota.
    quotas = dict(connection_counts)
    shuffled = dapp_ids[:]
    rng.shuffle(shuffled)
    for dapp in shuffled:
        open_providers = [p for p in providers if quotas[p] > len(assignments[p])]
        if not open_providers:
            open_providers = providers
        weights = [quotas[p] - len(assignments[p]) + 1e-9 for p in open_providers]
        choice = rng.choices(open_providers, weights=weights)[0]
        assignments[choice].add(dapp)

    # Pass 2: fill each provider's remaining quota with extra (multi-homed)
    # dApps that are not yet connected to it.
    for provider in providers:
        missing = connection_counts[provider] - len(assignments[provider])
        candidates = [d for d in dapp_ids if d not in assignments[provider]]
        rng.shuffle(candidates)
        for dapp in candidates[:max(0, missing)]:
            assignments[provider].add(dapp)

    records: list[RpcCallRecord] = []
    for provider, dapps in assignments.items():
        host = _PROVIDER_HOSTS[provider]
        for dapp in sorted(dapps):
            method = rng.choice(_COMMON_METHODS)
            records.append(RpcCallRecord(
                dapp_id=dapp,
                provider=provider,
                endpoint_host=host,
                method=method,
                call_count=rng.randint(1, 500),
            ))
    rng.shuffle(records)
    return records


@dataclass(frozen=True)
class ProviderProfile:
    """One provider row of Table I."""

    name: str
    free_public_no_signup: bool
    login_via_wallet: bool          # wallet-based identity supported
    signup_email: bool              # email required at sign-up
    signup_full_name: bool
    signup_org_name: bool
    call_based_pricing: bool
    plan_tiers: int
    free_usage: str                 # provider-defined free-tier metric
    pays_credit_card: bool
    pays_crypto: bool
    notes: str = ""


PROVIDER_PROFILES: dict[str, ProviderProfile] = {
    "infura": ProviderProfile(
        name="Infura", free_public_no_signup=False, login_via_wallet=False,
        signup_email=True, signup_full_name=True, signup_org_name=False,
        call_based_pricing=False, plan_tiers=5,
        free_usage="3 million credits (daily)",
        pays_credit_card=True, pays_crypto=False,
    ),
    "alchemy": ProviderProfile(
        name="Alchemy", free_public_no_signup=False, login_via_wallet=False,
        signup_email=True, signup_full_name=True, signup_org_name=False,
        call_based_pricing=True, plan_tiers=4,
        free_usage="300 million compute units (monthly)",
        pays_credit_card=True, pays_crypto=False,
    ),
    "ankr": ProviderProfile(
        name="Ankr", free_public_no_signup=True, login_via_wallet=True,
        signup_email=False, signup_full_name=False, signup_org_name=False,
        call_based_pricing=False, plan_tiers=4,
        free_usage="30 requests (per sec)",
        pays_credit_card=True, pays_crypto=True,
        notes="wallets must have prior activity to be supported",
    ),
    "quicknode": ProviderProfile(
        name="Quicknode", free_public_no_signup=False, login_via_wallet=False,
        signup_email=True, signup_full_name=True, signup_org_name=True,
        call_based_pricing=True, plan_tiers=5,
        free_usage="10 million API credits (monthly)",
        pays_credit_card=True, pays_crypto=False,
    ),
    "chainstack": ProviderProfile(
        name="Chainstack", free_public_no_signup=False, login_via_wallet=False,
        signup_email=True, signup_full_name=True, signup_org_name=True,
        call_based_pricing=True, plan_tiers=4,
        free_usage="3 million request units (monthly)",
        pays_credit_card=True, pays_crypto=True,
    ),
}


@dataclass(frozen=True)
class ProviderShare:
    """One provider's measured share."""

    provider: str
    dapps: int
    total_dapps: int
    share: float

    def format_paper_style(self) -> str:
        """Render like Table I: '182/383 (47.52%)'."""
        return f"{self.dapps}/{self.total_dapps} ({self.share * 100:.2f}%)"


def compute_traffic_shares(records: list[RpcCallRecord],
                           total_dapps: int = TOTAL_RPC_DAPPS) -> list[ProviderShare]:
    """Distinct-dApp counts per provider, sorted by descending share."""
    dapps_by_provider: dict[str, set[int]] = {}
    for record in records:
        dapps_by_provider.setdefault(record.provider, set()).add(record.dapp_id)
    shares = [
        ProviderShare(
            provider=provider,
            dapps=len(dapps),
            total_dapps=total_dapps,
            share=len(dapps) / total_dapps,
        )
        for provider, dapps in dapps_by_provider.items()
    ]
    return sorted(shares, key=lambda s: s.share, reverse=True)


def compare_with_published(shares: list[ProviderShare]) -> list[tuple[str, float, float, float]]:
    """(provider, measured %, published %, abs diff in points) rows."""
    rows = []
    published = {p: pct for p, (_, pct) in PUBLISHED_SHARES.items()}
    for share in shares:
        paper = published.get(share.provider)
        if paper is None:
            continue
        rows.append((
            share.provider,
            round(share.share * 100, 2),
            round(paper * 100, 2),
            round(abs(share.share - paper) * 100, 2),
        ))
    return rows
