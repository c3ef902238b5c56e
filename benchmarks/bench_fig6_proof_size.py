"""Figure 6 — Merkle proof size vs transaction index across block sizes.

Paper: "Merkle proof sizes vary not only with the number of transactions
included in one block but also with the transaction index within those
blocks (explaining the sudden drop in the figure).  For instance, for a
transaction located in a block containing 200 transactions, the average
Merkle proof size is approximately 1150 bytes."

We rebuild the sweep: for blocks of 50–400 transfers, prove every index and
report the series (plus the index-boundary effect around 0x80, where the
RLP key encoding changes width — the paper's "sudden drop").
"""

import statistics

from repro.chain import index_key
from repro.trie import generate_proof, proof_size
from repro.workloads import AccountSet
from repro.node import Devnet

from .reporting import add_report, render_series, render_table
from .write_workload import build_block_with_size

BLOCK_SIZES = (50, 100, 200, 300, 400)
TOKEN = 10 ** 18


def build_blocks():
    accounts = AccountSet(64, seed="fig6", balance=100 * TOKEN)
    net = Devnet(accounts.genesis())
    blocks = {}
    for size in BLOCK_SIZES:
        blocks[size] = build_block_with_size(net.chain, accounts, size)
    return blocks


def test_fig6_proof_size_sweep(benchmark):
    blocks = build_blocks()

    series: dict[int, list[int]] = {}
    for size, block in blocks.items():
        trie = block.transaction_trie
        series[size] = [
            proof_size(generate_proof(trie, index_key(i))) for i in range(size)
        ]

    # benchmark: proving one mid-block transaction at the reference size
    trie_200 = blocks[200].transaction_trie
    benchmark(lambda: generate_proof(trie_200, index_key(100)))

    rows = []
    for size in BLOCK_SIZES:
        sizes = series[size]
        rows.append((
            size,
            round(statistics.fmean(sizes)),
            min(sizes),
            max(sizes),
        ))
    add_report(
        "Fig. 6: tx inclusion proof size by block size "
        "(paper: ~1150 B avg at 200 txs)",
        render_table(["block txs", "mean proof B", "min", "max"], rows),
    )

    # the index-boundary effect ("sudden drop"): rlp(index) changes width at
    # index 128 (0x80), reshaping the trie around those keys
    at_200 = series[200]
    boundary = [(i, at_200[i]) for i in (0, 1, 63, 64, 127, 128, 129, 199)]
    add_report(
        "Fig. 6 detail: proof size vs tx index in the 200-tx block",
        render_series("index -> proof bytes",
                      [b[0] for b in boundary], [b[1] for b in boundary],
                      x_label="tx index", y_label="proof bytes"),
    )

    # -- shape assertions ------------------------------------------------- #
    means = {size: statistics.fmean(series[size]) for size in BLOCK_SIZES}
    # proof size grows with block size
    assert means[50] < means[200] < means[400]
    # the 200-tx average is in the paper's zone (~1150 B; our transfers are
    # minimal-size legacy txs, so slightly below is expected)
    assert 700 <= means[200] <= 1500
    # proof size varies with the index within one block (the paper's point)
    assert max(at_200) - min(at_200) > 200
    # index 0 has a shorter key path than mid-block indexes
    assert at_200[0] < statistics.fmean(at_200)
