"""The four workloads: what each sends, and how each answer is checked.

A workload plans its queries from an RNG before the clock starts (the
program under test sees only the generated inputs), issues them one at a
time, and checks every op of every answer against ground truth read
directly from ``devnet.chain`` at the response's ``m_b``.

Sizes are in *units* so that every count divides evenly into the timed
segments: one query (``read_single``), one batch of 16 (``read_batch16``),
one 12-query cycle (``market_mix``), four paid sends plus one balance read
(``write_persist``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.chain.transaction import Transaction
from repro.contracts.addresses import CHANNELS_MODULE_ADDRESS
from repro.contracts.channels import channel_status_slot
from repro.crypto.keys import Address
from repro.parp.messages import ResponseStatus, RpcCall
from repro.parp.queries import decode_balance, decode_inclusion, decode_int_result
from repro.rlp import codec as rlp
from repro.workloads import ZipfSelector

from .worlds import (ACCOUNTS, World, build_market_world, build_read_world,
                     build_write_world)

__all__ = ["BATCH", "Query", "Checked", "Workload", "WORKLOADS"]

BATCH = 16
ZIPF_EXPONENT = 1.1
HEDGE_FANOUT = 2


@dataclass
class Query:
    """One client API invocation and the inputs it was planned with."""

    kind: str                       # which client entry point serves it
    ops: int                        # RPC calls it carries
    calls: tuple[RpcCall, ...] = ()
    tx: Optional[Transaction] = None            # paid send
    fillers: tuple[Transaction, ...] = ()       # other users' traffic
    lookup: str = ""                # "tx"/"receipt": built from the last send


@dataclass
class Checked:
    """What checking one answer found."""

    ok_ops: int = 0
    proof_nodes: int = 0
    proof_bytes: int = 0


def _balance_call(world: World, zipf: ZipfSelector) -> RpcCall:
    return RpcCall.create("eth_getBalance", world.addresses[zipf.pick()])


def _send_query(world: World, rng: random.Random, recipient: Address,
                kind: str, fillers: tuple[Transaction, ...] = ()) -> Query:
    tx = world.sign_transfer("payer", recipient, 1 + rng.randrange(99))
    call = RpcCall.create("eth_sendRawTransaction", tx.encode())
    return Query(kind, 1, (call,), tx=tx, fillers=fillers)


# --------------------------------------------------------------------------- #
# ground truth
# --------------------------------------------------------------------------- #

def op_is_correct(world: World, call: RpcCall, status: int, result: bytes,
                  m_b: int) -> bool:
    """Compare one decoded result with the chain's own record at ``m_b``."""
    if status != ResponseStatus.OK:
        return False
    chain, method = world.chain, call.method
    if method == "eth_getBalance":
        address = Address(call.param_bytes(0, exact=20))
        return decode_balance(result) == world.balance_at(address, m_b)
    if method == "eth_getStorageAt":
        address = Address(call.param_bytes(0, exact=20))
        value = rlp.decode(result)[0]
        return value == world.storage_at(address, call.param_bytes(1), m_b)
    if method == "eth_blockNumber":
        return decode_int_result(result) == m_b <= chain.height
    number, index, payload = decode_inclusion(result)
    if number is None:
        return False
    block = chain.get_block_by_number(number)
    if block is None or index >= len(block.transactions):
        return False
    if method == "eth_getTransactionByBlockNumberAndIndex":
        return payload == block.transactions[index].encode()
    if method == "eth_getTransactionReceipt":
        return payload == block.receipts[index].encode()
    if method == "eth_sendRawTransaction":
        return (payload == block.transactions[index].hash
                and block.transactions[index].encode() == call.param_bytes(0))
    return False


def _answers(world: World, outcome: Any) -> Iterator[tuple[list, Any]]:
    """``([(call, status, result), ...], wire response)`` per verified leg."""
    legs = getattr(outcome, "legs", None)
    if legs is not None:                                  # ScatterOutcome
        for leg in legs:
            yield from _leg_answers(world, leg.outcome, leg.winner)
        return
    if hasattr(outcome, "items"):                         # BatchOutcome
        winner = next((attempt.address
                       for attempt in getattr(world.client, "last_hedge", ())
                       if attempt.outcome == "won"), None)
        yield from _leg_answers(world, outcome, winner)
        return
    response = outcome.response                           # RequestOutcome
    yield [(outcome.request.call, response.status, response.result)], response


def _leg_answers(world: World, outcome: Any, winner: Optional[Address],
                 ) -> Iterator[tuple[list, Any]]:
    response = outcome.response
    if response is None:
        # a one-call leg rode the single-request wire path; its response is
        # the newest entry in the winning session's history
        response = world.client.sessions[winner].history[-1].response
    yield [(item.call, item.status, item.result)
           for item in outcome.items], response


def check(world: World, outcome: Any) -> Checked:
    """Count the ops of ``outcome`` that match ground truth."""
    checked = Checked()
    with world.truth():
        for items, response in _answers(world, outcome):
            checked.proof_nodes += len(response.proof)
            checked.proof_bytes += sum(map(len, response.proof))
            for call, status, result in items:
                if op_is_correct(world, call, status, result, response.m_b):
                    checked.ok_ops += 1
    return checked


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, Path], World]
    #: plan(world, rng, units) -> the queries of that many units, in order
    plan: Callable[[World, random.Random, int], list[Query]]
    issue: Callable[[World, Query], Any]
    queries_per_unit: int
    #: timed units per second of ``--seconds`` at the speed of the commit
    #: that added the benchmark; fixes the op count, not the duration
    units_per_second: float
    warm_units: int


# -- read_single / read_batch16 ------------------------------------------------ #

def _plan_reads(ops_per_query: int) -> Callable:
    def plan(world: World, rng: random.Random, units: int) -> list[Query]:
        zipf = ZipfSelector(ACCOUNTS, ZIPF_EXPONENT, seed=rng.getrandbits(32))
        kind = "single" if ops_per_query == 1 else "batch"
        return [Query(kind, ops_per_query,
                      tuple(_balance_call(world, zipf)
                            for _ in range(ops_per_query)))
                for _ in range(units)]
    return plan


def _issue_read(world: World, query: Query) -> Any:
    if query.kind == "single":
        return world.client.request_call(query.calls[0])
    return world.client.query_batch(query.calls)


# -- market_mix ------------------------------------------------------------------ #

#: the fixed 12-query cycle: 6 serial reads, 3 hedged balances, 1 sharded
#: batch-16, 1 paid send, 1 block number — spread so every engine alternates
_CYCLE = ("balance", "hedged", "storage", "balance", "hedged", "tx",
          "sharded", "receipt", "balance", "hedged", "send", "block_number")


def _plan_market(world: World, rng: random.Random, units: int) -> list[Query]:
    zipf = ZipfSelector(ACCOUNTS, ZIPF_EXPONENT, seed=rng.getrandbits(32))
    alpha = min(session.channel.alpha for session in world.sessions)
    status_call = RpcCall.create("eth_getStorageAt", CHANNELS_MODULE_ADDRESS,
                                 channel_status_slot(alpha))
    queries = []
    for _ in range(units):
        for step in _CYCLE:
            if step == "balance":
                queries.append(Query("serial", 1, (_balance_call(world, zipf),)))
            elif step == "hedged":
                queries.append(Query("hedged", 1, (_balance_call(world, zipf),)))
            elif step == "sharded":
                queries.append(Query("sharded", BATCH, tuple(
                    _balance_call(world, zipf) for _ in range(BATCH))))
            elif step == "storage":
                queries.append(Query("serial", 1, (status_call,)))
            elif step == "block_number":
                queries.append(Query(
                    "serial", 1, (RpcCall.create("eth_blockNumber"),)))
            elif step == "send":
                queries.append(_send_query(
                    world, rng, world.addresses[zipf.pick()], "serial"))
            else:
                queries.append(Query("serial", 1, lookup=step))
    return queries


def _issue_market(world: World, query: Query) -> Any:
    client = world.client
    if query.kind == "hedged":
        return client.query_hedged(query.calls, fanout=HEDGE_FANOUT)
    if query.kind == "sharded":
        return client.query_sharded(query.calls)
    if query.lookup:
        number, index, tx = world.last_sent
        call = (RpcCall.create("eth_getTransactionReceipt", tx.hash)
                if query.lookup == "receipt" else RpcCall.create(
                    "eth_getTransactionByBlockNumberAndIndex", number, index))
        query.calls = (call,)
    outcome = client.request_call(query.calls[0])
    if query.tx is not None:
        _note_sent(world, query, outcome)
    return outcome


def _note_sent(world: World, query: Query, outcome: Any) -> None:
    number, index, _ = decode_inclusion(outcome.response.result)
    world.last_sent = (number, index, query.tx)
    world.submitted.extend((number, tx) for tx in (*query.fillers, query.tx))


def _build_market(rng: random.Random, workdir: Path) -> World:
    world = build_market_world(rng, workdir)
    # the tx/receipt lookups of the first cycle need a transaction to find
    _issue_market(world, _send_query(world, rng, world.addresses[0], "serial"))
    return world


# -- write_persist --------------------------------------------------------------- #

SENDS_PER_UNIT = 4


def _plan_writes(world: World, rng: random.Random, units: int) -> list[Query]:
    queries = []
    for _ in range(units):
        for _ in range(SENDS_PER_UNIT):
            fillers = tuple(
                world.sign_transfer(f"filler{i}",
                                    world.addresses[rng.randrange(ACCOUNTS)],
                                    1 + rng.randrange(99))
                for i in range(3))
            recipient = world.addresses[rng.randrange(ACCOUNTS)]
            queries.append(_send_query(world, rng, recipient, "send", fillers))
        queries.append(Query(
            "single", 1, (RpcCall.create("eth_getBalance", recipient),)))
    return queries


def _issue_write(world: World, query: Query) -> Any:
    if query.tx is None:
        return world.client.request_call(query.calls[0])
    for filler in query.fillers:
        world.chain.add_transaction(filler)
    outcome = world.client.request_call(query.calls[0])
    _note_sent(world, query, outcome)
    return outcome


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "read_single",
        "single-wire eth_getBalance reads in process, the paper's Table III "
        "path: ECDSA carries it, keccak the rest; net, marketplace and storage "
        "are bypassed",
        build_read_world, _plan_reads(1), _issue_read,
        queries_per_unit=1,
        units_per_second=400 / 15, warm_units=20),
    Workload(
        "read_batch16",
        "query_batch of 16 Zipf balances: signatures amortise 16x so keccak, "
        "multiproof and codec carry it; the control for any ECDSA change",
        build_read_world, _plan_reads(BATCH), _issue_read,
        queries_per_unit=1,
        units_per_second=24 / 15, warm_units=2),
    Workload(
        "market_mix",
        "Table-I dApp mix via MarketplaceClient over SimNetwork, 4 shards x 2 "
        "replicas + admission: serial, hedged and sharded engines, writes "
        "beside reads",
        _build_market, _plan_market, _issue_market,
        queries_per_unit=len(_CYCLE),
        units_per_second=16 / 15, warm_units=2),
    Workload(
        "write_persist",
        "paid sends into 4-tx blocks on a disk store with last-32 retention: "
        "the only workload where storage, chain and trie commit do real work",
        build_write_world, _plan_writes, _issue_write,
        queries_per_unit=SENDS_PER_UNIT + 1,
        units_per_second=32 / 15, warm_units=2),
)}
