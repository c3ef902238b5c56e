"""Table II — PARP message-size overhead vs standard Ethereum JSON-RPC.

Paper: "A PARP request includes two 65-byte signatures … total overhead per
request is 226 bytes.  A PARP response adds 187 bytes of metadata … plus
variable-sized proof verification data."  Reference base-layer sizes: 118 B
for a balance query, 422 B for a raw-transaction call (an OpenChannel tx).
"""

from repro.parp.constants import REQUEST_OVERHEAD_BYTES, RESPONSE_OVERHEAD_BYTES
from repro.vm.abi import encode_call

from .jsonrpc import RpcClient, RpcServer
from .reporting import add_report, render_table


def test_table2_parp_overheads(benchmark, world_with_200tx_block):
    world, block = world_with_200tx_block
    session = world.session

    # read: verified balance query
    read_outcome = session.request("eth_getBalance",
                                   world.accounts.addresses[0])
    # write: raw transfer through PARP, landing in a 200-tx block
    write_outcome = world.paid_write_in_block_of(200)

    def encode_round():
        return (read_outcome.request.encode_wire(),
                read_outcome.response.encode_wire())

    benchmark(encode_round)

    read_req = read_outcome.request
    read_res = read_outcome.response
    write_res = write_outcome.response
    from repro.rlp import encode

    read_proof_bytes = len(encode(list(read_res.proof)))
    write_proof_bytes = len(encode(list(write_res.proof)))

    rows = [
        ("PARP request overhead", f"{read_req.wire_overhead} B", "226 B"),
        ("PARP response overhead (metadata)", f"{RESPONSE_OVERHEAD_BYTES} B",
         "187 B"),
        ("+ Merkle proof (read: account)", f"{read_proof_bytes} B",
         "variable"),
        ("+ Merkle proof (write: tx in 200-tx block)",
         f"{write_proof_bytes} B", "~1150 B avg"),
    ]
    add_report(
        "Table II: PARP message size overhead (measured vs paper)",
        render_table(["quantity", "measured", "paper"], rows),
    )

    assert read_req.wire_overhead == REQUEST_OVERHEAD_BYTES == 226
    assert read_res.wire_overhead == 187 + read_proof_bytes
    # the write proof must be in the paper's ballpark for a 200-tx block
    assert 700 <= write_proof_bytes <= 1700


def test_table2_base_rpc_reference_sizes(benchmark, world):
    """The base-layer sizes PARP's overhead is compared against."""
    server = RpcServer(world.node)
    client = RpcClient(server.handle_raw)

    balance_size = client.request_size(
        "eth_getBalance", world.accounts.addresses[0].hex(), "latest",
    )

    # the paper's 422-byte raw-tx example is an OpenChannel transaction
    from repro.chain import UnsignedTransaction
    from repro.contracts import CHANNELS_MODULE_ADDRESS
    from repro.parp.messages import handshake_digest

    expiry = world.net.chain.head.header.timestamp + 600
    confirmation = world.keys.fn.sign(
        handshake_digest(world.keys.lc.address, expiry)).to_bytes()
    open_tx = UnsignedTransaction(
        nonce=world.net.chain.state.nonce_of(world.keys.lc.address),
        gas_price=12 * 10 ** 9, gas_limit=300_000,
        to=CHANNELS_MODULE_ADDRESS, value=10 ** 15,
        data=encode_call("open_channel",
                         [world.keys.fn.address, expiry, confirmation]),
    ).sign(world.keys.lc)
    open_tx_size = client.request_size(
        "eth_sendRawTransaction", "0x" + open_tx.encode().hex(),
    )

    benchmark(client.request_size, "eth_getBalance",
              world.accounts.addresses[0].hex(), "latest")

    add_report(
        "Table II context: base JSON-RPC request sizes",
        render_table(
            ["request", "measured", "paper"],
            [("eth_getBalance", f"{balance_size} B", "118 B"),
             ("raw OpenChannel transaction", f"{open_tx_size} B", "422 B")],
        ),
    )
    assert 100 <= balance_size <= 140
    assert 330 <= open_tx_size <= 520
