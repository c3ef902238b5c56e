"""§V-C liveness: catching channels that are closed behind the client's back."""

import pytest

from repro.contracts import CHANNELS_MODULE_ADDRESS
from repro.parp import RequestRefused, RpcCall
from repro.parp.liveness import LivenessAlert, LivenessMonitor
from repro.parp.sharding import shard_key_of_call
from repro.parp.states import ChannelStatus
from repro.trie import ShardRange

from ..conftest import make_parp_env


class TestLiveness:
    def test_healthy_channel_probes_clean(self, parp_env):
        monitor = LivenessMonitor(parp_env.session, period=30.0)
        observation = monitor.probe(now=0.0)
        assert observation.claimed_status == ChannelStatus.OPEN.value
        # second probe takes the verified path too (verify_every=2)
        observation = monitor.probe(now=30.0)
        assert observation.verified_status == ChannelStatus.OPEN.value
        assert not observation.divergent

    def test_due_schedule(self, parp_env):
        monitor = LivenessMonitor(parp_env.session, period=30.0)
        assert monitor.due(0.0)
        monitor.probe(now=0.0)
        assert not monitor.due(10.0)
        assert monitor.due(31.0)

    def test_secret_close_detected_via_verified_probe(self, devnet, keys):
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

        monitor = LivenessMonitor(env.session, period=1.0, verify_every=1)
        with pytest.raises(LivenessAlert) as excinfo:
            monitor.probe(now=0.0)
        assert excinfo.value.observation.divergent

    def test_monitor_alerts_when_channel_closing(self, devnet, keys):
        env = make_parp_env(devnet, keys)
        devnet.execute(keys.lc, CHANNELS_MODULE_ADDRESS, "close_channel",
                       [env.alpha, 0, b""])
        env.server.mark_closed(env.alpha)  # honest server updates its view
        monitor = LivenessMonitor(env.session, verify_every=1)
        with pytest.raises(LivenessAlert):
            monitor.probe(now=0.0)

    @pytest.mark.parametrize("bad", [{"verify_every": 0},
                                     {"verify_every": -1},
                                     {"period": 0.0}, {"period": -30.0}])
    def test_nonsense_schedules_are_refused_at_construction(self, parp_env,
                                                            bad):
        """``verify_every=0`` used to pass construction and divide by zero
        on the first probe; a non-positive period made every probe due."""
        with pytest.raises(ValueError):
            LivenessMonitor(parp_env.session, **bad)

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
        monitor = LivenessMonitor(parp_env.session, period=30.0)
        observation = monitor.probe(now=0.0)
        assert observation.claimed_status is None
        assert observation.verified_status == ChannelStatus.OPEN.value

    def test_both_probes_refused_raise_an_alert(self, parp_env, monkeypatch):
        for probe in ("channel_status_fast", "channel_status_verified"):
            monkeypatch.setattr(parp_env.session, probe, refuse("busy"))
        monitor = LivenessMonitor(parp_env.session, verify_every=1)
        with pytest.raises(LivenessAlert, match="both liveness probes failed"):
            monitor.probe(now=0.0)

    def test_a_shard_server_that_cannot_prove_the_slot_is_judged_by_its_claim(
            self, devnet, keys):
        """The CMM's storage lies outside this server's shard, so the
        verified read comes back as a signed refusal; the claim decides."""
        key = shard_key_of_call(
            RpcCall.create("eth_getStorageAt", CHANNELS_MODULE_ADDRESS, b""))
        elsewhere = next(half for half in (ShardRange.of(0, 2),
                                           ShardRange.of(1, 2))
                         if not half.covers(key))
        env = make_parp_env(devnet, keys, shard_range=elsewhere)
        monitor = LivenessMonitor(env.session, verify_every=1)
        observation = monitor.probe(now=0.0)
        assert observation.claimed_status == ChannelStatus.OPEN.value
        assert observation.verified_status is None
        assert env.server.stats.out_of_range_rejected == 1
