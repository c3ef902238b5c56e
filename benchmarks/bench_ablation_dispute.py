"""Ablation — dispute-window length: settlement latency vs challenge safety.

The CMM's dispute window (paper §IV-E.4) trades closure latency against the
time an honest counterparty has to challenge a stale state.  This bench
sweeps the window length and reports (a) blocks until funds settle in the
cooperative case and (b) whether a late challenger still wins.
"""

from repro.chain import GenesisConfig
from repro.contracts import CHANNELS_MODULE_ADDRESS, DEPOSIT_MODULE_ADDRESS
from repro.crypto import PrivateKey
from repro.node import Devnet
from repro.parp import MIN_FULL_NODE_DEPOSIT
from repro.parp.messages import handshake_digest, payment_digest

from .reporting import add_report, render_table

TOKEN = 10 ** 18
WINDOWS = (2, 5, 10, 20)


def channel_scenario(window: int, challenge_delay: int):
    """Open a channel, close with a stale state, challenge after ``delay``.

    Returns (challenge_succeeded, blocks_to_settlement).
    """
    import repro.contracts.channels as channels_module

    fn = PrivateKey.from_seed("disp:fn")
    lc = PrivateKey.from_seed("disp:lc")
    net = Devnet(GenesisConfig(allocations={
        fn.address: 100 * TOKEN, lc.address: 100 * TOKEN,
    }))
    net.execute(fn, DEPOSIT_MODULE_ADDRESS, "deposit",
                value=MIN_FULL_NODE_DEPOSIT)
    expiry = net.chain.head.header.timestamp + 600
    sig = fn.sign(handshake_digest(lc.address, expiry)).to_bytes()
    result = net.execute(lc, CHANNELS_MODULE_ADDRESS, "open_channel",
                         [fn.address, expiry, sig], value=TOKEN)
    alpha = result.return_value

    original_window = channels_module.DISPUTE_WINDOW_BLOCKS
    channels_module.DISPUTE_WINDOW_BLOCKS = window
    try:
        stale, newest = 1_000, 9_000
        stale_sig = lc.sign(payment_digest(alpha, stale)).to_bytes()
        newest_sig = lc.sign(payment_digest(alpha, newest)).to_bytes()

        close_block = net.chain.height + 1
        net.execute(lc, CHANNELS_MODULE_ADDRESS, "close_channel",
                    [alpha, stale, stale_sig])
        if challenge_delay:
            net.advance_blocks(challenge_delay)
        challenge = net.execute(fn, CHANNELS_MODULE_ADDRESS, "submit_state",
                                [alpha, newest, newest_sig])
        # settle as soon as allowed
        deadline = net.call_view(CHANNELS_MODULE_ADDRESS, "get_channel",
                                 [alpha])[5]
        while net.chain.height <= deadline:
            net.advance_blocks(1)
        settle = net.execute(fn, CHANNELS_MODULE_ADDRESS, "confirm_closure",
                             [alpha])
        assert settle.succeeded
        final = net.call_view(CHANNELS_MODULE_ADDRESS, "get_channel", [alpha])
        return challenge.succeeded, net.chain.height - close_block, final[3]
    finally:
        channels_module.DISPUTE_WINDOW_BLOCKS = original_window


def test_ablation_dispute_window(benchmark):
    rows = []
    for window in WINDOWS:
        in_time, blocks, settled_amount = channel_scenario(
            window, challenge_delay=max(0, window - 2))
        too_late, _, late_amount = channel_scenario(
            window, challenge_delay=window + 2)
        rows.append((
            window, blocks,
            "won" if in_time and settled_amount == 9_000 else "lost",
            "rejected" if not too_late else "accepted",
        ))

    benchmark.pedantic(lambda: channel_scenario(2, 0), rounds=1, iterations=1)

    add_report(
        "Ablation: dispute-window length vs settlement latency and "
        "challenge safety",
        render_table(
            ["window (blocks)", "blocks to settle",
             "challenge inside window", "challenge after window"],
            rows,
        ),
    )

    # inside-window challenges always win; after-window ones never land
    assert all(r[2] == "won" for r in rows)
    assert all(r[3] == "rejected" for r in rows)
    # settlement latency grows with the window
    latencies = [r[1] for r in rows]
    assert latencies == sorted(latencies)
