"""Ablation — per-pair channels vs a payment-channel network (§VIII).

The paper's limitation: a light client must open (and pay gas for) one
on-chain channel per full node.  The PCN extension reaches N nodes through
one funded channel plus routed micro-payments.  This bench compares the
crossing point: on-chain gas outlay for N direct channels vs one channel +
cumulative routing fees for the same payment volume.
"""

from repro.crypto import PrivateKey

from .pcn import ChannelGraph
from .reporting import add_report, render_table

OPEN_CHANNEL_GAS = 191_061          # measured in bench_table4
CLOSE_CONFIRM_GAS = 105_915 + 81_797
GAS_PRICE = 12 * 10 ** 9
GWEI = 10 ** 9

SERVER_COUNTS = (1, 2, 5, 10, 20)
PAYMENTS_PER_SERVER = 50
PAYMENT_WEI = 15 * GWEI             # a typical per-request fee
HUB_FEE_PPM = 5_000                  # 0.5% per routed hop


def direct_cost(n_servers: int) -> int:
    """Wei spent on gas to open+settle one channel per server."""
    return n_servers * (OPEN_CHANNEL_GAS + CLOSE_CONFIRM_GAS) * GAS_PRICE


def pcn_cost(n_servers: int) -> int:
    """Wei spent with one on-chain channel + routed payments via a hub."""
    lc = PrivateKey.from_seed("pcn-bench:lc").address
    hub = PrivateKey.from_seed("pcn-bench:hub").address
    graph = ChannelGraph()
    graph.add_channel(lc, hub, capacity=10 ** 18, fee_ppm=HUB_FEE_PPM)
    servers = []
    for i in range(n_servers):
        server = PrivateKey.from_seed(f"pcn-bench:fn{i}").address
        graph.add_channel(hub, server, capacity=10 ** 18, fee_ppm=HUB_FEE_PPM)
        servers.append(server)

    fees = 0
    for server in servers:
        for _ in range(PAYMENTS_PER_SERVER):
            route = graph.pay(lc, server, PAYMENT_WEI)
            fees += route.fees
    onchain = (OPEN_CHANNEL_GAS + CLOSE_CONFIRM_GAS) * GAS_PRICE  # 1 channel
    return onchain + fees


def test_ablation_pcn_vs_direct(benchmark):
    rows = []
    for n in SERVER_COUNTS:
        direct = direct_cost(n)
        routed = pcn_cost(n)
        rows.append((
            n,
            f"{direct / 10 ** 15:.2f}m gwei",
            f"{routed / 10 ** 15:.2f}m gwei",
            f"{direct / routed:.1f}x" if routed else "-",
        ))

    benchmark.pedantic(lambda: pcn_cost(5), rounds=3, iterations=1)

    add_report(
        "Ablation: N direct channels vs 1 channel + PCN routing "
        f"({PAYMENTS_PER_SERVER} payments of {PAYMENT_WEI // GWEI} gwei per "
        "server; 0.5%/hop)",
        render_table(
            ["servers", "direct (gas wei)", "PCN (gas+fees wei)",
             "direct/PCN"],
            rows,
        ),
    )

    # With one server the two are equal-ish (PCN still pays one open);
    # from two servers on, PCN must win and the gap must widen with N.
    assert direct_cost(1) <= pcn_cost(1) * 1.01
    assert direct_cost(2) > pcn_cost(2)
    gap_5 = direct_cost(5) / pcn_cost(5)
    gap_20 = direct_cost(20) / pcn_cost(20)
    assert gap_20 > gap_5 > 1.0
