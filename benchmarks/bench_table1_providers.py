"""Table I — node-provider traffic shares and the feature matrix (§II-B/C).

The paper maps frontend JSON-RPC calls of 383 dApps to providers.  We run
the identical analysis pipeline over the synthetic Torres-calibrated record
set and regenerate both halves of Table I.
"""

from .reporting import add_report, render_table
from .table1 import (
    PROVIDER_PROFILES,
    compare_with_published,
    compute_traffic_shares,
    generate_dataset,
)


def test_table1_traffic_shares(benchmark):
    records = generate_dataset(seed=42)
    shares = benchmark(compute_traffic_shares, records)

    rows = []
    for share in shares:
        measured = share.format_paper_style()
        rows.append((share.provider, measured))
    add_report(
        "Table I (traffic share): measured over synthetic dataset",
        render_table(["provider", "dApps (share)"], rows),
    )

    comparison = compare_with_published(shares)
    add_report(
        "Table I: measured vs published shares",
        render_table(
            ["provider", "measured %", "paper %", "abs diff (pts)"],
            comparison,
        ),
    )
    # the calibrated generator must reproduce the published marginals exactly
    assert all(diff == 0.0 for _, _, _, diff in comparison)
    assert shares[0].provider == "infura"
    assert abs(shares[0].share - 0.4752) < 1e-4


def test_table1_feature_matrix(benchmark):
    def build_matrix():
        rows = []
        for key in ("infura", "alchemy", "ankr", "quicknode", "chainstack"):
            profile = PROVIDER_PROFILES[key]
            rows.append((
                profile.name,
                "yes" if profile.free_public_no_signup else "-",
                "yes" if profile.login_via_wallet else "-",
                "yes" if profile.signup_email else "-",
                "yes" if profile.call_based_pricing else "-",
                profile.plan_tiers,
                profile.free_usage,
                "yes" if profile.pays_crypto else "-",
            ))
        return rows

    rows = benchmark(build_matrix)
    add_report(
        "Table I (feature matrix, survey constants from the paper)",
        render_table(
            ["provider", "no-signup", "wallet-login", "email-signup",
             "call-based", "tiers", "free usage", "crypto-pay"],
            rows,
        ),
    )
    # structural checks the paper's prose states
    assert sum(1 for r in rows if r[1] == "yes") == 1      # only Ankr
    assert sum(1 for r in rows if r[4] == "yes") == 3      # 3/5 call-based
    assert sum(1 for r in rows if r[7] == "yes") == 2      # 2/5 take crypto
