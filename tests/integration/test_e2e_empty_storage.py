"""``eth_getStorageAt`` on an account with an empty storage trie (any EOA).

The response carries the account-path nodes only — there is no storage trie
to walk.  The verifier used to hand those nodes to a second walk against
``EMPTY_TRIE_ROOT``, which ``verify_proof`` (rightly, for a stand-alone
proof) rejects, so an honest answer classified as FRAUD and, because the
on-chain FDM runs the same verifier, the package slashed an honest node.
"""

import pytest

from repro.contracts import CHANNELS_MODULE_ADDRESS, DEPOSIT_MODULE_ADDRESS
from repro.contracts.channels import channel_status_slot
from repro.lightclient.verify import walk_account, walk_storage
from repro.parp import FraudProofError, MIN_FULL_NODE_DEPOSIT
from repro.parp.fraudproof import build_fraud_package
from repro.parp.messages import PARPResponse, RpcCall
from repro.parp.queries import QueryFraud, verify_query_result
from repro.rlp import decode, encode
from repro.trie import EMPTY_TRIE_ROOT, ProofError, ProofIndex, verify_proof

SLOT = b"\x00" * 32


def storage_call(address, slot=SLOT):
    return RpcCall.create("eth_getStorageAt", address, slot)


def served_pair(env, call):
    """One honest round driven by hand: (request, decoded response)."""
    session = env.session
    amount = session.channel.next_amount(session.fee_schedule.price(call))
    request = session.build_request(call, amount)
    session.channel.record_request(amount)
    response = PARPResponse.decode_wire(
        env.server.serve_request(request.encode_wire()))
    if response.m_b > session.headers.chain.tip_number:
        session.headers.sync_to(response.m_b)
    return request, response


class TestEmptyStorageIsHonest:
    def test_single_wire_reads_vacant(self, parp_env):
        env = parp_env
        assert env.session.get_storage_at(env.keys.alice.address, SLOT) == b""
        report = env.session.history[-1].report
        assert report.valid and report.check == "all-checks"
        assert env.session.channel.acked == env.session.channel.spent

    def test_batch_of_mixed_eoa_and_contract_slots(self, parp_env):
        env = parp_env
        open_slot = channel_status_slot(env.alpha)
        calls = [
            storage_call(env.keys.alice.address),
            storage_call(CHANNELS_MODULE_ADDRESS, open_slot),
            storage_call(env.keys.bob.address, b"\x07" * 32),
            storage_call(CHANNELS_MODULE_ADDRESS, b"\x77" * 32),
        ]
        outcome = env.session.query_batch(calls)
        assert outcome.request.noun == "batch" and outcome.report.valid
        values = [decode(item.result)[0] for item in outcome.items]
        assert values == [b"", b"\x01", b"", b""]
        assert all(item.ok and item.report.check == "all-checks"
                   for item in outcome.items)

    def test_fdm_rejects_a_package_built_from_the_honest_response(
            self, parp_env):
        env = parp_env
        request, response = served_pair(
            env, storage_call(env.keys.alice.address))
        headers = env.session.headers
        package = build_fraud_package(
            request, response, env.alpha, headers.get_header,
            get_by_hash=headers.chain.get_by_hash)
        with pytest.raises(FraudProofError, match="reverted"):
            env.witness.submit(package)
        assert env.net.call_view(
            DEPOSIT_MODULE_ADDRESS, "deposit_of",
            [env.keys.fn.address]) == MIN_FULL_NODE_DEPOSIT

    def test_standalone_verifier_reads_vacant(self, parp_env):
        env = parp_env
        head = env.net.chain.head
        state = env.net.chain.state_at(head.number)
        eoa = env.keys.alice.address
        proof = ProofIndex.of(state.prove_account(eoa)
                              + state.prove_storage(eoa, SLOT))
        account = walk_account(head.header.state_root, eoa.to_bytes(), proof)
        assert account is not None
        assert walk_storage(account, SLOT, proof) is None


class TestEmptyStorageStillCatchesLies:
    def test_value_claimed_for_an_empty_storage_trie_is_fraud(self, parp_env):
        env = parp_env
        call = storage_call(env.keys.alice.address)
        _, response = served_pair(env, call)
        _, account = decode(response.result)
        forged = response.with_result(0, encode([b"\x01", account]))
        with pytest.raises(QueryFraud, match="differs from proven value"):
            verify_query_result(call, forged, env.session.headers.get_header)

    def test_standalone_proofs_keep_the_empty_root_guard(self, parp_env):
        env = parp_env
        head = env.net.chain.head
        nodes = env.net.chain.state_at(head.number).prove_account(
            env.keys.alice.address)
        with pytest.raises(ProofError, match="empty trie root"):
            verify_proof(EMPTY_TRIE_ROOT, b"\x11" * 32, nodes)
