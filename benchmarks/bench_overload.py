"""Open-loop overload sweep: goodput and tail latency across saturation.

Closed-loop clients can never overload a server — they wait for each reply
before sending the next request, so the backlog self-limits.  This bench
drives the admission pipeline the way the paper's adversarial regime does:
a seeded **Poisson arrival process** fires requests at 0.5× / 1× / 2× / 3×
the cluster's aggregate modeled capacity without waiting for anything, and
every arrival is resolved to exactly one of

* a **verified response** (proof checked, §V-D payment semantics), or
* a **verified signed shed** (`Overloaded`, signature + h_req binding
  checked) — never a timeout, never an unsigned drop.

Two gates, both on simulated time and therefore machine-independent:

* **goodput** — verified responses must stay ≥90% of what the cluster
  could sustainably serve at every sweep point (every arrival below
  saturation; a full window at capacity plus the allowed queue budget past
  it): the cluster keeps serving at capacity instead of collapsing under
  its own queue;
* **bounded p99** — the verified-response p99 latency at 3× capacity must
  stay inside the configured queue bound (``max_queue_cost × service_time``
  plus the network round trip): admission control converts overload into
  sheds, not into unbounded queueing delay.

Honest sheds are also replayed into a reputation ledger as
``EVENT_OVERLOADED`` to pin the no-death-spiral property at bench scale:
thousands of sheds, zero bans, zero hard negatives.

Emits ``results/BENCH_overload.json`` (uploaded by the tier-2 CI job) and
enforces a >30% regression check against the committed baseline
(``baselines/BENCH_overload_baseline.json``).
"""

from __future__ import annotations

import json
import pathlib
import random

from repro.net import FixedLatency
from repro.parp import AdmissionConfig
from repro.parp.client import ServerOverloaded
from repro.parp.messages import RpcCall
from repro.parp.reputation import EVENT_OVERLOADED

from .reporting import add_report, percentile, render_table, write_json_series
from .worlds import flat, make_market

N_SERVERS = 2
#: modeled seconds of serving work per unit request cost
SERVICE_TIME = 0.02
#: queue budget per server, in request-cost units → 0.5 s of queue
MAX_QUEUE_COST = 25.0
#: aggregate modeled capacity of the cluster, requests/second
CAPACITY = N_SERVERS / SERVICE_TIME
#: offered-load multiples of CAPACITY swept by the bench
RATES = (0.5, 1.0, 2.0, 3.0)
#: seconds of Poisson arrivals per sweep point
WINDOW = 1.5
LATENCY = 0.005
TIMEOUT = 10.0
QUEUE_BOUND = MAX_QUEUE_COST * SERVICE_TIME

GOODPUT_GATE = 0.90
REGRESSION_TOLERANCE = 0.30
BASELINE_PATH = (pathlib.Path(__file__).parent / "baselines"
                 / "BENCH_overload_baseline.json")


def build_world():
    world = make_market(
        "bench:ovl", flat(*[10] * N_SERVERS), latency=FixedLatency(LATENCY),
        timeout=TIMEOUT, funds=1_000, witness=False, budget=10 ** 16,
        admission=[AdmissionConfig(max_queue_cost=MAX_QUEUE_COST,
                                   service_time=SERVICE_TIME, seed=i)
                   for i in range(N_SERVERS)])
    world.connect()
    return world.network, world.client, world.servers, world.alice


def poisson_arrivals(rate_rps: float, window: float, seed: int) -> list[float]:
    rng = random.Random(f"bench:ovl:poisson:{seed}")
    t, out = 0.0, []
    while True:
        t += rng.expovariate(rate_rps)
        if t >= window:
            return out
        out.append(t)


def run_sweep_point(multiple: float) -> dict:
    network, client, servers, alice = build_world()
    call = RpcCall.create("eth_getBalance", alice.address)
    sessions = [client.sessions[s.address] for s in servers]

    # warm-up: one closed-loop request per session pays first-use setup
    # (channel already open from connect) outside the measured window
    for session in sessions:
        session.collect(session.begin_request(call))

    rate = multiple * CAPACITY
    arrivals = poisson_arrivals(rate, WINDOW, seed=int(multiple * 10))
    base = network.clock.now()
    pendings: list = [None] * len(arrivals)
    completions: list = [None] * len(arrivals)

    def fire(idx: int, session):
        pending = session.begin_request(call)

        def done(_reply, idx=idx):
            completions[idx] = network.clock.now()

        pending.reply.add_done_callback(done)
        pendings[idx] = (session, pending)

    # open loop: every arrival fires regardless of what came back so far;
    # round-robin spreads the stream evenly over the cluster
    for idx, offset in enumerate(arrivals):
        network.schedule(offset, lambda idx=idx: fire(
            idx, sessions[idx % N_SERVERS]))
    # sample the surge price while the backlog is at its fullest — by the
    # time the run drains, the quote is back at base
    peak_multiplier = [1.0]
    network.schedule(WINDOW, lambda: peak_multiplier.__setitem__(0, max(
        peak_multiplier[0],
        max(s.current_fee_multiplier() for s in servers))))
    network.run_until(base + WINDOW + QUEUE_BOUND + 1.0)

    served, shed, latencies = 0, 0, []
    for idx, entry in enumerate(pendings):
        assert entry is not None, "arrival never fired"
        session, pending = entry
        try:
            outcome = session.collect(pending)
            assert outcome.report.classification.value == "valid"
            served += 1
            latencies.append(completions[idx] - (base + arrivals[idx]))
        except ServerOverloaded as exc:
            shed += 1
            client.reputation.record(exc.reply.signer(), EVENT_OVERLOADED,
                                     time=network.clock.now())

    # every shed is honest-signed soft evidence: no bans, no hard negatives
    now = network.clock.now()
    for server in servers:
        assert not client.reputation.has_hard_negative(server.address)
        assert not client.reputation.is_banned(server.address, now)

    # what the cluster could possibly have served: every arrival below
    # saturation; past it, a full window at capacity plus draining the
    # queue budget each server is allowed to hold at the window's edge
    sustainable = min(len(arrivals),
                      CAPACITY * WINDOW + MAX_QUEUE_COST * N_SERVERS)
    return {
        "rate_multiple": multiple,
        "offered": len(arrivals),
        "offered_rps": len(arrivals) / WINDOW,
        "served": served,
        "shed": shed,
        "goodput_rps": served / WINDOW,
        "goodput_ratio": served / sustainable,
        "p50_s": percentile(latencies, 50),
        "p99_s": percentile(latencies, 99),
        "admitted_by_server": [s.stats.admitted for s in servers],
        "shed_by_server": [s.stats.shed for s in servers],
        "peak_fee_multiplier": peak_multiplier[0],
    }


def test_overload_goodput_and_tail():
    series = [run_sweep_point(multiple) for multiple in RATES]

    # gate 1: goodput tracks min(offered, capacity) at every sweep point —
    # no sheds below saturation, no collapse past it
    for entry in series:
        assert entry["goodput_ratio"] >= GOODPUT_GATE, (
            f"goodput at {entry['rate_multiple']}x capacity is "
            f"{entry['goodput_ratio']:.2%} of sustainable "
            f"(gate {GOODPUT_GATE:.0%})"
        )

    # gate 2: past saturation the verified-response p99 stays inside the
    # configured queue bound + round trip — overload becomes sheds, not
    # unbounded queueing delay
    p99_bound = QUEUE_BOUND + 4 * LATENCY
    saturated = [e for e in series if e["rate_multiple"] >= 1.0]
    for entry in saturated:
        assert entry["p99_s"] <= p99_bound, (
            f"p99 at {entry['rate_multiple']}x is {entry['p99_s']:.3f}s, "
            f"queue bound is {p99_bound:.3f}s"
        )
    # sanity: the sweep actually crossed saturation (sheds happened)
    at_three = next(e for e in series if e["rate_multiple"] == 3.0)
    assert at_three["shed"] > 0
    assert at_three["peak_fee_multiplier"] > 1.0

    rows = [[f"{e['rate_multiple']:.1f}x", str(e["offered"]),
             str(e["served"]), str(e["shed"]),
             f"{e['goodput_rps']:.0f}", f"{e['goodput_ratio']:.2%}",
             f"{e['p99_s'] * 1e3:.0f}ms"]
            for e in series]
    add_report(
        f"Open-loop overload sweep ({N_SERVERS} servers, capacity "
        f"{CAPACITY:.0f} rps, queue bound {QUEUE_BOUND:.2f}s, "
        f"{WINDOW:.1f}s Poisson windows)",
        render_table(
            ["rate", "offered", "served", "shed", "goodput", "of sustainable",
             "p99"],
            rows,
        ),
    )
    write_json_series("BENCH_overload", {
        "servers": N_SERVERS,
        "capacity_rps": CAPACITY,
        "service_time_s": SERVICE_TIME,
        "max_queue_cost": MAX_QUEUE_COST,
        "queue_bound_s": QUEUE_BOUND,
        "window_s": WINDOW,
        "series": series,
        "gates": {
            "goodput_gate": GOODPUT_GATE,
            "min_goodput_ratio": min(e["goodput_ratio"] for e in series),
            "p99_bound_s": p99_bound,
            "p99_at_3x_s": at_three["p99_s"],
        },
    })

    # -- regression check against the committed baseline ------------------- #
    # simulated time and count ratios: deterministic given the seeds, so the
    # 30% band is pure headroom against intentional retunes drifting
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    goodput_floor = (baseline["goodput_ratio_at_3x"]
                     * (1 - REGRESSION_TOLERANCE))
    assert at_three["goodput_ratio"] >= goodput_floor, (
        f"goodput at 3x regressed: {at_three['goodput_ratio']:.2%} vs "
        f"committed baseline {baseline['goodput_ratio_at_3x']:.2%} "
        f"(floor {goodput_floor:.2%})"
    )
    p99_ceiling = baseline["p99_s_at_3x"] * (1 + REGRESSION_TOLERANCE)
    assert at_three["p99_s"] <= p99_ceiling, (
        f"p99 at 3x regressed: {at_three['p99_s']:.3f}s vs committed "
        f"baseline {baseline['p99_s_at_3x']:.3f}s (ceiling {p99_ceiling:.3f}s)"
    )
