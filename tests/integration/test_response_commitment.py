"""The one response digest, end to end: who may sign what, who hashes what.

σ_res signs ``h_res`` over the proof's node *hashes* (see
:mod:`repro.parp.messages`).  A server still signing the Fig. 3 digest over
the proof *bytes* is unattributable under it — INVALID, never FRAUD, never
fined — and so is one that answers a version-2 batch but still signs the
flat commitment batches had before they signed a Merkle root.  The memo a
verifier hashes through is its own: a server in the same process cannot warm
it.
"""

from dataclasses import replace

import pytest

from repro.contracts import DEPOSIT_MODULE_ADDRESS
from repro.crypto import keccak256
from repro.lightclient import HeaderSyncer
from repro.parp import (
    FullNodeServer,
    InvalidResponse,
    LightClientSession,
    MIN_FULL_NODE_DEPOSIT,
    RpcCall,
)
from repro.parp.fraudproof import FraudProofError, build_fraud_package
from repro.parp.messages import BatchResponse, response_preimage
from repro.parp.states import ResponseClass
from repro.rlp import codec as rlp
from repro.trie import HashMemo

from ..conftest import counted_keccak, make_parp_env


class Fig3DigestServer(FullNodeServer):
    """Honest in every field, but σ_res signs the payload with the proof
    bytes in it — the digest this repo used before it signed node hashes."""

    def _execute_and_sign(self, request):
        response = super()._execute_and_sign(request)
        old = keccak256(response_preimage(
            request.alpha, response.status, response.m_b, response.a,
            response.payload(), response.h_req, response.sig_req))
        return replace(response, sig_res=self.key.sign(old).to_bytes())


class FlatBatchCommitmentServer(FullNodeServer):
    """Advertises the current batch version and answers honestly, but σ_res
    of a batch signs ``C = rlp([statuses, results, [H(n) …]])`` — what a
    batch committed to before version 2."""

    def _execute_and_sign(self, request):
        response = super()._execute_and_sign(request)
        if not isinstance(response, BatchResponse):
            return response
        flat = rlp.encode([bytes(response.statuses), list(response.results),
                           list(response.proof_index.hashes)])
        old = keccak256(response_preimage(
            request.alpha, response.status, response.m_b, response.a,
            flat, response.h_req, response.sig_req))
        return replace(response, sig_res=self.key.sign(old).to_bytes())


def deposit_of(env):
    return env.net.call_view(DEPOSIT_MODULE_ADDRESS, "deposit_of",
                             [env.keys.fn.address])


class TestOldDigestServer:
    def test_single_wire_is_invalid_not_fraud_and_not_fined(self, devnet, keys):
        env = make_parp_env(devnet, keys, server_cls=Fig3DigestServer)
        call = RpcCall.create("eth_getBalance", keys.alice.address)
        with pytest.raises(InvalidResponse) as excinfo:
            env.session.request_call(call)
        report = excinfo.value.report
        assert report.classification is ResponseClass.INVALID
        assert report.check == "response-signature"
        # even handed to a witness as if it were fraud, the FDM recovers a
        # stranger from σ_res and reverts: the deposit is untouched
        outcome = env.session.history[-1]
        package = build_fraud_package(
            outcome.request, outcome.response, env.alpha,
            env.session.headers.get_header,
            get_by_hash=env.session.headers.chain.get_by_hash)
        with pytest.raises(FraudProofError):
            env.witness.submit(package)
        assert deposit_of(env) == MIN_FULL_NODE_DEPOSIT

    def test_batch_wire_is_invalid_not_fraud(self, devnet, keys):
        env = make_parp_env(devnet, keys, server_cls=Fig3DigestServer)
        calls = [RpcCall.create("eth_getBalance", key.address)
                 for key in (keys.alice, keys.bob)]
        with pytest.raises(InvalidResponse) as excinfo:
            env.session.query_batch(calls)
        assert excinfo.value.report.check == "response-signature"
        assert deposit_of(env) == MIN_FULL_NODE_DEPOSIT

    def test_flat_batch_commitment_is_invalid_not_fraud(self, devnet, keys):
        env = make_parp_env(devnet, keys, server_cls=FlatBatchCommitmentServer)
        calls = [RpcCall.create("eth_getBalance", key.address)
                 for key in (keys.alice, keys.bob)]
        with pytest.raises(InvalidResponse) as excinfo:
            env.session.query_batch(calls)
        report = excinfo.value.report
        assert report.classification is ResponseClass.INVALID
        assert report.check == "response-signature"
        assert deposit_of(env) == MIN_FULL_NODE_DEPOSIT
        # the single wire did not change: the same server is VALID on it
        outcome = env.session.request_call(calls[0])
        assert outcome.report.classification is ResponseClass.VALID

    def test_a_proofless_response_signs_what_fig3_says(self, devnet, keys):
        """No proof, nothing to replace: the two digests coincide, so the
        same server is VALID on an unverifiable call."""
        env = make_parp_env(devnet, keys, server_cls=Fig3DigestServer)
        outcome = env.session.request_call(RpcCall.create("eth_blockNumber"))
        assert outcome.report.classification is ResponseClass.VALID
        assert outcome.response.commitment() == outcome.response.payload()


class TestTheMemoBelongsToTheVerifier:
    def test_a_session_owns_one_and_a_fresh_session_starts_cold(
            self, parp_env, monkeypatch):
        """The server has just hashed every node of the new state root (a
        trie commit, in this very process); a verifier that has not seen
        them must still hash each one it receives."""
        env = parp_env
        call = RpcCall.create("eth_getBalance", env.keys.alice.address)
        env.session.request_call(call)
        env.net.send_transaction(env.keys.bob, env.keys.alice.address, value=1,
                                 gas_limit=21_000)
        env.net.advance_blocks(1)   # server side: commit hashes the new path

        fresh = LightClientSession(env.keys.wn, env.server,
                                   HeaderSyncer([env.server, env.witness_node]))
        assert fresh.hash_memo is not env.session.hash_memo
        fresh.connect(budget=10 ** 15)
        with counted_keccak(monkeypatch) as hashed:
            outcome = fresh.request_call(call)
        assert outcome.report.classification is ResponseClass.VALID
        proof = outcome.response.proof
        assert len(proof) >= 2
        assert all(hashed.count(node) == 1 for node in proof)
        assert all(node in fresh.hash_memo.cache for node in proof)

        # the same verifier asking again hashes none of them
        with counted_keccak(monkeypatch) as hashed:
            again = fresh.request_call(call)
        assert again.response.proof == proof
        assert not set(hashed) & set(proof)

    def test_sessions_share_a_memo_only_when_handed_one(self, parp_env):
        env = parp_env
        shared = HashMemo()
        sessions = [
            LightClientSession(key, env.server, HeaderSyncer([env.server]),
                               hash_memo=shared)
            for key in (env.keys.alice, env.keys.bob)]
        assert all(session.hash_memo is shared for session in sessions)
        assert env.session.hash_memo is not shared

    def test_a_marketplace_client_shares_one_across_its_sessions(self):
        """Replicas of one chain answer with the same upper nodes: what the
        client hashed for one server's response it does not hash again for
        the next server's."""
        from .test_e2e_marketplace import make_market_world

        world = make_market_world(n_servers=2)
        client = world.client
        opened = client.connect(min_sessions=2)
        assert len(opened) == 2
        sessions = list(client.sessions.values())
        assert all(s.hash_memo is client.hash_memo for s in sessions)
        call = RpcCall.create("eth_getBalance", world.alice.address)
        first = sessions[0].request_call(call).response.proof
        misses = client.hash_memo.cache.stats.misses
        second = sessions[1].request_call(call).response.proof
        assert tuple(first) == tuple(second)
        assert client.hash_memo.cache.stats.misses == misses
