"""Figure 7 — full-node resource usage vs number of concurrent light clients.

Paper setup: N light clients each send 2 requests/second for two minutes to
one PARP node (4 vCPU / 8 GB); at N = 20 the PARP node used 3.43x the CPU
and 2.38x the memory of a plain Geth node under the same workload.

Substitution (DESIGN.md §2): we run the *real serving code* — the PARP
engine vs the plain JSON-RPC server — on the same chain and workload shape,
and measure the real Python process: CPU seconds via ``time.process_time``
and allocation peaks via ``tracemalloc`` — in two passes, because
``tracemalloc`` resolves a line number per allocation and so multiplies the
CPU of big-int crypto by ~10 (a CPU figure taken under it measures the
tracer).  Reported series: absolute usage per N and the PARP/plain ratio
(the reproduction target is the ratio's scale and its growth with N, not
Geth's absolute percentages).
"""

import time

import pytest

from repro.chain import GenesisConfig
from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.lightclient import HeaderSyncer
from repro.node import Devnet, FullNode
from repro.parp import (
    FullNodeServer,
    LightClientSession,
    MIN_FULL_NODE_DEPOSIT,
)
from repro.workloads import AccountSet

from .jsonrpc import RpcClient, RpcServer
from .probes import ResourceProbe
from .reporting import add_report, render_table

#: raised to 50 once the overlay trie engine removed the per-request
#: hashing/decoding bottleneck (PR 3) — the paper's sweep tops out at 20
CLIENT_COUNTS = (1, 5, 10, 20, 50)
#: requests per client per simulated second (the paper's rate)
RATE = 2
#: scaled-down duration (the paper used 120 s; the pipeline per request is
#: identical, so the per-request cost — and hence the ratio — is unchanged;
#: the memory pass runs under tracemalloc, so keep this small)
DURATION = 1
TOKEN = 10 ** 18


def build_world(n_clients: int):
    fn = PrivateKey.from_seed("fig7:fn")
    accounts = AccountSet(max(n_clients, 8), seed="fig7", balance=100 * TOKEN)
    client_keys = [PrivateKey.from_seed(f"fig7:lc{i}") for i in range(n_clients)]
    extra = {key.address: 100 * TOKEN for key in client_keys}
    extra[fn.address] = 1_000 * TOKEN
    net = Devnet(accounts.genesis(extra=extra))
    net.execute(fn, DEPOSIT_MODULE_ADDRESS, "deposit",
                value=MIN_FULL_NODE_DEPOSIT)
    net.advance_blocks(1)
    node = FullNode(net.chain, key=fn, name="fig7")
    return net, node, accounts, client_keys


def run_parp_serving(n_clients: int,
                     trace_memory: bool) -> tuple[float, int, int]:
    """N bonded PARP sessions polling balances; returns (cpu, peak_mem, reqs)
    — cpu is meaningful without ``trace_memory``, peak_mem only with it."""
    net, node, accounts, client_keys = build_world(n_clients)
    server = FullNodeServer(node)
    sessions = []
    for key in client_keys:
        session = LightClientSession(key, server, HeaderSyncer([server]))
        session.connect(budget=10 ** 16)
        sessions.append(session)

    requests = 0
    with ResourceProbe(trace_memory) as probe:
        for tick in range(DURATION * RATE):
            for i, session in enumerate(sessions):
                target = accounts.addresses[(tick + i) % len(accounts)]
                session.get_balance(target)
                requests += 1
    return probe.sample.cpu_seconds, probe.sample.peak_memory_bytes, requests


def run_plain_serving(n_clients: int,
                      trace_memory: bool) -> tuple[float, int, int]:
    """The same workload shape against the plain JSON-RPC baseline."""
    net, node, accounts, client_keys = build_world(n_clients)
    server = RpcServer(node)
    clients = [RpcClient(server.handle_raw) for _ in client_keys]

    requests = 0
    with ResourceProbe(trace_memory) as probe:
        for tick in range(DURATION * RATE):
            for i, client in enumerate(clients):
                target = accounts.addresses[(tick + i) % len(accounts)]
                client.call("eth_getBalance", target.hex(), "latest")
                requests += 1
    return probe.sample.cpu_seconds, probe.sample.peak_memory_bytes, requests


@pytest.fixture(scope="module")
def sweep() -> dict:
    """Both passes over every N: ``{n: (requests, parp_cpu, plain_cpu,
    parp_mem, plain_mem)}`` plus the wall seconds each pass took."""
    measured, seconds = {}, {}
    for name, trace_memory in (("cpu", False), ("memory", True)):
        started = time.perf_counter()
        measured[name] = {
            n: (run_parp_serving(n, trace_memory),
                run_plain_serving(n, trace_memory))
            for n in CLIENT_COUNTS
        }
        seconds[name] = time.perf_counter() - started
    series = {
        n: (measured["cpu"][n][0][2],
            measured["cpu"][n][0][0], measured["cpu"][n][1][0],
            measured["memory"][n][0][1], measured["memory"][n][1][1])
        for n in CLIENT_COUNTS
    }
    return {"series": series, "seconds": seconds}


def test_fig7_scalability(benchmark, sweep):
    rows = []
    for n, (requests, parp_cpu, plain_cpu, parp_mem, plain_mem) in (
            sweep["series"].items()):
        rows.append((
            n, requests,
            f"{parp_cpu:.3f}s", f"{plain_cpu:.4f}s",
            f"{parp_cpu / plain_cpu:.1f}x",
            f"{parp_mem / 1024:.0f}KiB", f"{plain_mem / 1024:.0f}KiB",
            f"{parp_mem / plain_mem:.2f}x",
        ))

    benchmark.pedantic(lambda: run_parp_serving(1, False),
                       rounds=1, iterations=1)

    add_report(
        "Fig. 7: serving-node resources vs concurrent light clients "
        f"({RATE} req/s each; paper @N=20: CPU 3.43x, memory 2.38x vs plain; "
        f"cpu pass {sweep['seconds']['cpu']:.1f}s, memory pass under "
        f"tracemalloc {sweep['seconds']['memory']:.1f}s)",
        render_table(
            ["clients", "requests", "PARP cpu", "plain cpu", "cpu ratio",
             "PARP mem", "plain mem", "mem ratio"],
            rows,
        ),
    )

    # -- shape assertions ------------------------------------------------- #
    series = sweep["series"]
    _, _, _, parp_mem, plain_mem = series[CLIENT_COUNTS[-1]]  # N=50 since PR 3
    assert parp_mem / plain_mem > 1.0
    # work scales with the number of clients (absolute CPU grows with N)
    assert series[10][1] > series[1][1] * 3


def test_fig7_cpu_ratio_at_paper_scale(sweep):
    """Its own test, so that it cannot mask the assertions above.  Fails at
    every commit so far: pure-Python secp256k1 makes a PARP read three
    signatures and four recovers (~10 ms cold) against a plain read's 50 us
    dict walk — ~190x at N=50 with tracemalloc off, ~2000x under it.  The
    bound is the paper's scale and is not this file's to move."""
    # PARP costs more than plain serving, but only by a small factor:
    # the paper reports 3.43x CPU / 2.38x memory at its N=20 top end
    _, parp_cpu, plain_cpu, _, _ = sweep["series"][CLIENT_COUNTS[-1]]
    assert 1.0 < parp_cpu / plain_cpu < 30.0
