"""Ablation — how much of PARP's cost is Merkle proving?

DESIGN.md calls out proof-per-response as a design choice: the server
attaches π_γ to *every* verifiable response.  The alternative is
proof-on-demand (respond with bare results; clients request proofs only
when suspicious), which trades bandwidth and server time against the
window during which a client acts on unverified data.  This bench
quantifies the per-request cost of always-proving, for both workloads.
"""

import time

from repro.parp.messages import RpcCall
from repro.parp.queries import execute_query

from .probes import StepTimer
from .reporting import add_report, render_table

ROUNDS = 60


def test_ablation_proof_generation_share(benchmark, world_with_200tx_block):
    world, block = world_with_200tx_block
    node, fn_key = world.node, world.keys.fn
    timer = StepTimer()

    read_call = RpcCall.create("eth_getBalance", world.accounts.addresses[3])
    write_call = RpcCall.create(
        "eth_getTransactionByBlockNumberAndIndex", block.number, 100,
    )

    proof_bytes = {}
    for label, call in (("read", read_call), ("write", write_call)):
        m_b = node.head_number()
        for _ in range(ROUNDS):
            start = time.perf_counter()
            result, proof = execute_query(node, call, m_b)
            timer.add_sample(f"with-proof/{label}", time.perf_counter() - start)
        proof_bytes[label] = sum(len(n) for n in proof)

        # proof-on-demand: execute the query, skip proof generation
        for _ in range(ROUNDS):
            start = time.perf_counter()
            if label == "read":
                state = node.state_at(m_b)
                from repro.crypto.keys import Address

                state.get_account(Address(read_call.param_bytes(0, exact=20)))
            else:
                block_obj = node.get_block(block.number)
                block_obj.transactions[100].encode()
            timer.add_sample(f"no-proof/{label}", time.perf_counter() - start)

    benchmark(lambda: execute_query(node, read_call, node.head_number()))

    rows = []
    for label in ("read", "write"):
        with_proof = timer.stats(f"with-proof/{label}")
        without = timer.stats(f"no-proof/{label}")
        overhead = with_proof.mean - without.mean
        share = overhead / with_proof.mean * 100 if with_proof.mean else 0
        rows.append((
            label, with_proof.format_paper_style(),
            without.format_paper_style(),
            f"{share:.0f}%", f"{proof_bytes[label]} B",
        ))
    add_report(
        "Ablation: proof-per-response vs proof-on-demand "
        f"(server-side execution, mean of {ROUNDS})",
        render_table(
            ["workload", "with proof", "bare result", "proving share",
             "proof bytes saved/request"],
            rows,
        ),
    )

    # proving must be a real, measurable share of execution for both loads
    for label in ("read", "write"):
        assert (timer.stats(f"with-proof/{label}").mean
                > timer.stats(f"no-proof/{label}").mean)
