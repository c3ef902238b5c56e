"""Ablation — fee-schedule design (§VIII "designing a fee schedule").

Table I notes that 3 of 5 surveyed providers price per call type "for a
fairer fee calculation".  This bench runs the same mixed workload under a
flat schedule and a call-based schedule and compares what the client pays
and how the charge distributes across call types.
"""

from repro.lightclient import HeaderSyncer
from repro.parp import LightClientSession
from repro.parp.pricing import CallBasedFeeSchedule, FlatFeeSchedule, GWEI

from .reporting import add_report, render_table
from .write_workload import WriteWorkload

#: mixed workload: mostly cheap reads, a few expensive writes — the shape
#: provider "compute unit" schedules are designed around.
MIX = (["eth_getBalance"] * 8 + ["eth_blockNumber"] * 4
       + ["eth_sendRawTransaction"] * 1)


def run_mix(world, schedule) -> tuple[int, dict[str, int]]:
    # fee schedules are a connection parameter: both sides must agree
    world.server.fee_schedule = schedule
    session = LightClientSession(
        world.lc_key, world.server,
        HeaderSyncer([world.server, world.witness_node]),
        fee_schedule=schedule,
    )
    session.connect(budget=10 ** 16)
    workload = WriteWorkload(world.accounts)
    per_method: dict[str, int] = {}
    for i, method in enumerate(MIX):
        before = session.channel.spent
        if method == "eth_getBalance":
            session.get_balance(world.accounts.addresses[i % 8])
        elif method == "eth_blockNumber":
            session.block_number()
        else:
            tx = workload.make_transfer(world.net.chain, i + 40, i + 41)
            session.send_raw_transaction(tx.encode())
        per_method[method] = (per_method.get(method, 0)
                              + session.channel.spent - before)
    return session.channel.spent, per_method


def test_ablation_fee_schedules(benchmark, world):
    flat = FlatFeeSchedule(flat_price=15 * GWEI)
    call_based = CallBasedFeeSchedule()

    flat_total, flat_split = run_mix(world, flat)
    cb_total, cb_split = run_mix(world, call_based)

    benchmark(call_based.price,
              __import__("repro.parp.messages", fromlist=["RpcCall"])
              .RpcCall.create("eth_getBalance", b"\x00" * 20))

    rows = []
    for method in sorted(set(MIX)):
        count = MIX.count(method)
        rows.append((
            method, count,
            f"{flat_split[method] / GWEI:.0f} gwei",
            f"{cb_split[method] / GWEI:.0f} gwei",
        ))
    rows.append(("TOTAL", len(MIX), f"{flat_total / GWEI:.0f} gwei",
                 f"{cb_total / GWEI:.0f} gwei"))
    add_report(
        "Ablation: flat vs call-based fee schedule on a mixed workload "
        "(8 reads, 4 head polls, 1 write)",
        render_table(["method", "calls", "flat schedule", "call-based"],
                     rows),
    )

    # call-based pricing shifts cost toward the expensive write...
    write = "eth_sendRawTransaction"
    assert cb_split[write] > flat_split[write]
    # ...and away from trivial head polls
    assert cb_split["eth_blockNumber"] < flat_split["eth_blockNumber"]
