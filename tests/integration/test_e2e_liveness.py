"""§V-C liveness: catching channels that are closed behind the client's back."""

import dataclasses
import inspect

import pytest

from repro.contracts import CHANNELS_MODULE_ADDRESS
from repro.parp import InvalidResponse, RequestRefused, RpcCall
from repro.parp import liveness, queries
from repro.parp.liveness import LivenessAlert, LivenessMonitor
from repro.parp.sharding import shard_key_of_call
from repro.parp.states import ChannelStatus
from repro.trie import ShardRange

from ..conftest import make_parp_env


@pytest.fixture
def verify_every(monkeypatch):
    """Set how often a probe of an open channel is proof-checked."""
    return lambda k: monkeypatch.setattr(liveness, "VERIFY_EVERY", k)


class TestLiveness:
    def test_healthy_channel_probes_clean(self, parp_env):
        monitor = LivenessMonitor(parp_env.session)
        observation = monitor.probe(now=0.0)
        assert observation.claimed_status == ChannelStatus.OPEN.value
        # second probe takes the verified path too (VERIFY_EVERY = 2)
        observation = monitor.probe(now=30.0)
        assert observation.verified_status == ChannelStatus.OPEN.value
        assert not observation.divergent

    def test_due_schedule(self, parp_env):
        assert liveness.LIVENESS_PERIOD_SECONDS == 30.0
        monitor = LivenessMonitor(parp_env.session)
        assert monitor.due(0.0)
        monitor.probe(now=0.0)
        assert not monitor.due(10.0)
        assert monitor.due(31.0)

    def test_secret_close_detected_via_verified_probe(self, devnet, keys,
                                                      verify_every):
        """The FN closes the channel on-chain but keeps answering 'open'."""
        env = make_parp_env(devnet, keys)
        # FN secretly closes on-chain (with its latest — here zero — state).
        result = devnet.execute(keys.fn, CHANNELS_MODULE_ADDRESS,
                                "close_channel", [env.alpha, 0, b""])
        assert result.succeeded
        # The malicious server keeps its local record open, so the fast
        # (unverified) probe still says OPEN…
        assert env.session.channel_status_fast() == ChannelStatus.OPEN.value
        # …but the verified storage-proof probe exposes CLOSING.
        verified = env.session.channel_status_verified()
        assert verified == ChannelStatus.CLOSING.value

        verify_every(1)
        monitor = LivenessMonitor(env.session)
        with pytest.raises(LivenessAlert) as excinfo:
            monitor.probe(now=0.0)
        assert excinfo.value.observation.divergent

    def test_monitor_alerts_when_channel_closing(self, devnet, keys,
                                                 verify_every):
        env = make_parp_env(devnet, keys)
        devnet.execute(keys.lc, CHANNELS_MODULE_ADDRESS, "close_channel",
                       [env.alpha, 0, b""])
        env.server.mark_closed(env.alpha)  # honest server updates its view
        verify_every(1)
        monitor = LivenessMonitor(env.session)
        with pytest.raises(LivenessAlert):
            monitor.probe(now=0.0)

    def test_every_kth_probe_is_verified(self, parp_env, verify_every):
        """The probe count starts at zero in every monitor, so with
        ``VERIFY_EVERY = 3`` an open channel is proof-checked on the third
        probe and the sixth, and only claimed on the others."""
        assert list(inspect.signature(LivenessMonitor).parameters) == [
            "session"]
        verify_every(3)
        monitor = LivenessMonitor(parp_env.session)
        verified = [monitor.probe(now=float(t)).verified_status is not None
                    for t in range(6)]
        assert verified == [False, False, True, False, False, True]
        assert all(o.claimed_status == ChannelStatus.OPEN.value
                   for o in monitor.observations)

    def test_the_shipped_schedule_is_sound(self):
        """A probe every zero periods would divide by zero and a period of
        zero or less would make every probe due; neither is settable now,
        and the constants are neither."""
        assert liveness.VERIFY_EVERY >= 1
        assert liveness.LIVENESS_PERIOD_SECONDS > 0

    def test_verified_status_is_proof_backed(self, parp_env):
        """The status read is an eth_getStorageAt with a storage proof — the
        response verification (classification VALID) is what makes it
        trustworthy even from an untrusted node."""
        status = parp_env.session.channel_status_verified()
        assert status == ChannelStatus.OPEN.value
        last = parp_env.session.history[-1]
        assert last.report.valid
        assert last.request.call.method == "eth_getStorageAt"
        assert len(last.response.proof) > 0


def refuse(reason):
    def probe():
        raise RequestRefused(reason)
    return probe


class TestRefusedProbes:
    """A signed refusal is a failed probe, never a verdict on the channel."""

    def test_a_refused_fast_probe_falls_back_to_the_verified_read(
            self, parp_env, monkeypatch):
        monkeypatch.setattr(parp_env.session, "channel_status_fast",
                            refuse("busy"))
        monitor = LivenessMonitor(parp_env.session)
        observation = monitor.probe(now=0.0)
        assert observation.claimed_status is None
        assert observation.verified_status == ChannelStatus.OPEN.value

    def test_both_probes_refused_raise_an_alert(self, parp_env, monkeypatch,
                                                verify_every):
        for probe in ("channel_status_fast", "channel_status_verified"):
            monkeypatch.setattr(parp_env.session, probe, refuse("busy"))
        verify_every(1)
        monitor = LivenessMonitor(parp_env.session)
        with pytest.raises(LivenessAlert, match="both liveness probes failed"):
            monitor.probe(now=0.0)

    def test_a_shard_server_that_cannot_prove_the_slot_is_judged_by_its_claim(
            self, devnet, keys, verify_every):
        """The CMM's storage lies outside this server's shard, so the
        verified read comes back as a signed refusal; the claim decides."""
        key = shard_key_of_call(
            RpcCall.create("eth_getStorageAt", CHANNELS_MODULE_ADDRESS, b""))
        elsewhere = next(half for half in (ShardRange.of(0, 2),
                                           ShardRange.of(1, 2))
                         if not half.covers(key))
        env = make_parp_env(devnet, keys, shard_range=elsewhere)
        verify_every(1)
        monitor = LivenessMonitor(env.session)
        observation = monitor.probe(now=0.0)
        assert observation.claimed_status == ChannelStatus.OPEN.value
        assert observation.verified_status is None
        assert env.server.stats.out_of_range_rejected == 1


#: signed answers to an unverifiable call that are no integer: a list, an
#: integer with a leading zero byte, a truncated long-string header
JUNK = (b"\xc0", b"\x82\x00\x01", b"\xb8")


class TestJunkUnverifiedAnswers:
    """Nothing authenticates an unverifiable answer, so one that does not
    decode is an INVALID response, never a crash of the monitor: the
    verified storage-proof probe still runs."""

    @pytest.mark.parametrize("junk", JUNK)
    def test_a_junk_claim_falls_back_to_the_verified_read(
            self, parp_env, monkeypatch, junk):
        monkeypatch.setattr(parp_env.server, "_channel_status",
                            lambda call: (junk, []))
        observation = LivenessMonitor(parp_env.session).probe(now=0.0)
        assert observation.claimed_status is None
        assert observation.verified_status == ChannelStatus.OPEN.value

    @pytest.mark.parametrize("junk", JUNK)
    def test_a_junk_block_number_is_an_invalid_response(
            self, parp_env, monkeypatch, junk):
        spec = queries.QUERY_CATALOG["eth_blockNumber"]
        monkeypatch.setitem(
            queries.QUERY_CATALOG, "eth_blockNumber",
            dataclasses.replace(spec, execute=lambda *_: (junk, [])))
        with pytest.raises(InvalidResponse) as excinfo:
            parp_env.session.block_number()
        assert excinfo.value.report.check == "decode"
