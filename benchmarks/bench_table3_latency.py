"""Table III — per-step computational latency of the PARP pipeline (§VI-D).

The paper times four steps of Fig. 5, averaged over 100 requests:

* light client: (A) request generation, (D) response verification
  (proof-only and total),
* full node: (B) request verification, (C) response generation (proof-only
  and total).

Write workload = a transaction inside a 200-tx block; read workload =
``eth_getBalance``.  Absolute times differ from the paper's Go prototype
(pure-Python crypto); the reproduction target is the structure — write >
read, proof work dominating response generation/verification — recorded
side by side with the paper's numbers.
"""

import time

from repro.metrics import StepTimer, render_table
from repro.parp.messages import PARPRequest, PARPResponse, RpcCall
from repro.parp.queries import execute_query, verify_query_result
from repro.parp.verification import classify_response

from .reporting import add_report

PAPER_ROWS = {
    ("A", "write"): "10.91 ms", ("A", "read"): "4.82 ms",
    ("D-proof", "write"): "7.13 ms", ("D-proof", "read"): "5.78 ms",
    ("D-total", "write"): "8.11 ms", ("D-total", "read"): "1.01 ms",
    ("B", "write"): "714 µs", ("B", "read"): "703 µs",
    ("C-proof", "write"): "3.08 ms", ("C-proof", "read"): "477 µs",
    ("C-total", "write"): "3.37 ms", ("C-total", "read"): "1.29 ms",
}

REQUESTS = 100


def _measure_workload(world, call_factory, timer: StepTimer, label: str,
                      requests: int = REQUESTS) -> None:
    """Run the full pipeline ``requests`` times, timing each step."""
    session, server = world.session, world.server
    for i in range(requests):
        call = call_factory(i)
        price = session.fee_schedule.price(call)
        amount = session.channel.next_amount(price)

        start = time.perf_counter()                      # (A) request gen
        request = session.build_request(call, amount)
        timer.add_sample(f"A/{label}", time.perf_counter() - start)
        session.channel.record_request(amount)
        wire = request.encode_wire()

        start = time.perf_counter()                      # (B) request verify
        server.verify_and_bill(PARPRequest.decode_wire(wire))
        timer.add_sample(f"B/{label}", time.perf_counter() - start)

        start = time.perf_counter()                      # (C-proof)
        m_b = server.node.head_number()
        result, proof = execute_query(server.node, call, m_b)
        proof_elapsed = time.perf_counter() - start
        timer.add_sample(f"C-proof/{label}", proof_elapsed)
        start = time.perf_counter()
        response = PARPResponse.build(
            alpha=request.alpha, request=request, m_b=m_b,
            result=result, proof=proof, key=server.key,
        )
        timer.add_sample(f"C-total/{label}",
                         proof_elapsed + (time.perf_counter() - start))
        raw = response.encode_wire()

        decoded = PARPResponse.decode_wire(raw)
        request_height = session.headers.height_of(request.h_b)
        start = time.perf_counter()                      # (D-proof)
        verify_query_result(call, decoded, session.headers.get_header)
        timer.add_sample(f"D-proof/{label}", time.perf_counter() - start)

        start = time.perf_counter()                      # (D-total)
        report = classify_response(
            request, decoded, session.channel.alpha, session.full_node,
            request_height, session.headers.get_header,
        )
        timer.add_sample(f"D-total/{label}", time.perf_counter() - start)
        assert report.valid, report


def test_table3_latency_breakdown(benchmark, world_with_200tx_block):
    world, block = world_with_200tx_block
    timer = StepTimer()

    # READ workload: balance queries over the funded accounts.
    addresses = world.accounts.addresses

    def read_call(i):
        return RpcCall.create("eth_getBalance", addresses[i % len(addresses)])

    _measure_workload(world, read_call, timer, "read")

    # WRITE workload: proofs for transactions inside the 200-tx block.
    def write_call(i):
        return RpcCall.create(
            "eth_getTransactionByBlockNumberAndIndex",
            block.number, i % len(block.transactions),
        )

    _measure_workload(world, write_call, timer, "write")

    # benchmark fixture: one full read round (request gen -> verify)
    def one_round():
        call = read_call(0)
        amount = world.session.channel.next_amount(
            world.session.fee_schedule.price(call))
        request = world.session.build_request(call, amount)
        world.session.channel.record_request(amount)
        return world.server.serve_request(request.encode_wire())

    benchmark.pedantic(one_round, rounds=10, iterations=1)

    rows = []
    for step in ("A", "D-proof", "D-total", "B", "C-proof", "C-total"):
        for workload in ("write", "read"):
            stats = timer.stats(f"{step}/{workload}")
            rows.append((
                step, workload, stats.format_paper_style(),
                PAPER_ROWS[(step, workload)],
            ))
    add_report(
        f"Table III: added latency per step (mean of {REQUESTS} requests)",
        render_table(["step", "workload", "measured (this impl)",
                      "paper (Go prototype)"], rows),
    )

    # Shape assertions.  Two caveats vs the Go prototype, recorded in
    # README "Departures from the paper": (1) steps bound by ECDSA public-key recovery (B and
    # D-total) carry a larger constant in pure Python, and (2) our node keeps
    # per-block tries cached, so write-proof generation is a walk rather
    # than Geth's rebuild-then-prove.  The following structure holds in both
    # implementations:
    for step in ("A", "B", "C-proof", "C-total", "D-proof", "D-total"):
        for workload in ("write", "read"):
            # every step is millisecond-scale — "minor latency" (§VI-G)
            assert timer.stats(f"{step}/{workload}").mean < 0.1
    # total response generation includes and exceeds the proof share
    assert (timer.stats("C-total/write").mean
            >= timer.stats("C-proof/write").mean)
    # total response verification includes and exceeds the proof share
    assert (timer.stats("D-total/write").mean
            >= timer.stats("D-proof/write").mean)
    # request verification cost is workload-independent (714 vs 703 µs in
    # the paper): both are three signature recoveries (σ_req, σ_a, and σ_a
    # again in accept_request_payment) plus a digest check
    b_write = timer.stats("B/write").mean
    b_read = timer.stats("B/read").mean
    assert abs(b_write - b_read) / max(b_write, b_read) < 0.5
