"""``recover`` with a hint is ``recover``: the known-key path has no behaviour
of its own.

``ecdsa.recover(h, sig, hint=table)`` checks ``sig`` against the key whose
fixed-base table it is given by walking two tables and falls through to the
full recovery when the check fails.  Everything the callers rely on follows
from one property — for every input the hinted call returns the same point or
raises the same error as the plain one — so that is what is tested, on the
inputs that separate a recovery from a plain ``verify``: another signer, the
recovery bit flipped, high ``s``, an ``r`` that is no abscissa, a digest of
the wrong length.  The cache in front of it (``keys.recover_address(...,
expected)``) may only ever make a call cheaper: a wrong ``expected`` plants
nothing, the cache is bounded, a key gets its table only once full recoveries
have cost what the table does, and keys that cycle through faster than they
recur cost what they did without the cache.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ecdsa, keys, secp256k1
from repro.crypto.ecdsa import Signature, SignatureError, recover
from repro.crypto.keys import (KNOWN_KEY_CAPACITY, PrivateKey, PublicKey,
                               recover_address)
from repro.crypto.secp256k1 import N, P, Gx, Gy, Point, fixed_base_table, lift_x
from repro.metrics.cache import LRUCache

VECTORS = json.loads(
    (Path(__file__).parent.parent / "data" / "ecdsa_vectors.json").read_text()
)["vectors"]

SIGNERS = [PrivateKey.from_seed(f"known-key:{i}") for i in range(4)]
#: full-width tables at three widths: each is a valid hint, though ``keys``
#: builds only the 5-bit one over ``SPLIT_BITS`` (a half of the split)
HINTS = {width: [fixed_base_table(key.public_key.point, width)
                 for key in SIGNERS]
         for width in (4, 5, 8)}

digests = st.binary(min_size=32, max_size=32)
signer_index = st.integers(min_value=0, max_value=len(SIGNERS) - 1)
widths = st.sampled_from(sorted(HINTS))


def outcome(call):
    """What a call did, comparably: the point, or the error and its text."""
    try:
        return call()
    except SignatureError as exc:
        return ("SignatureError", str(exc))


def assert_hint_changes_nothing(digest, signature, hint):
    plain = outcome(lambda: recover(digest, signature))
    assert outcome(lambda: recover(digest, signature, hint)) == plain
    assert outcome(lambda: recover(digest, signature, hint=hint)) == plain
    return plain


def no_curve_point_r() -> int:
    r = 5
    while lift_x(r, odd_y=False) is not None:
        r += 1
    return r


class TestHintedRecoverIsRecover:
    @settings(max_examples=40, deadline=None)
    @given(digests, signer_index, signer_index, widths)
    def test_signed_by_the_hinted_key_or_by_another(self, digest, signer,
                                                    hinted, width):
        signature = SIGNERS[signer].sign(digest)
        plain = assert_hint_changes_nothing(digest, signature,
                                            HINTS[width][hinted])
        assert plain == SIGNERS[signer].public_key.point

    @settings(max_examples=40, deadline=None)
    @given(digests, signer_index, widths)
    def test_recovery_bit_flipped(self, digest, signer, width):
        """A plain ``verify`` accepts this signature; ``ecrecover`` (and the
        contract that will one day see it) recovers somebody else."""
        r, s, v = SIGNERS[signer].sign(digest)
        flipped = Signature(r, s, v ^ 1)
        assert ecdsa.verify(digest, flipped, SIGNERS[signer].public_key.point)
        plain = assert_hint_changes_nothing(digest, flipped,
                                            HINTS[width][signer])
        assert plain != SIGNERS[signer].public_key.point

    @settings(max_examples=25, deadline=None)
    @given(digests, signer_index, widths, st.booleans())
    def test_high_s(self, digest, signer, width, flip_v):
        r, s, v = SIGNERS[signer].sign(digest)
        malleated = Signature(r, N - s, v ^ flip_v)
        plain = assert_hint_changes_nothing(digest, malleated,
                                            HINTS[width][signer])
        assert plain == ("SignatureError",
                         "signature s is not low-s (malleable)")

    @settings(max_examples=25, deadline=None)
    @given(digests, signer_index, widths, st.integers(0, 1))
    def test_r_with_no_curve_point(self, digest, signer, width, v):
        _, s, _ = SIGNERS[signer].sign(digest)
        plain = assert_hint_changes_nothing(
            digest, Signature(no_curve_point_r(), s, v), HINTS[width][signer])
        assert plain == ("SignatureError",
                         "signature r does not correspond to a curve point")

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(st.binary(min_size=31, max_size=31),
                     st.binary(min_size=33, max_size=33)),
           signer_index, widths)
    def test_digest_of_the_wrong_length(self, digest, signer, width):
        signature = SIGNERS[signer].sign(digest[:32].ljust(32, b"\0"))
        plain = assert_hint_changes_nothing(digest, signature,
                                            HINTS[width][signer])
        assert plain[0] == "SignatureError"

    @settings(max_examples=40, deadline=None)
    @given(digests, st.integers(1, N - 1), st.integers(1, N // 2),
           st.integers(0, 1), signer_index, widths)
    def test_arbitrary_signature_fields(self, digest, r, s, v, hinted, width):
        assert_hint_changes_nothing(digest, Signature(r, s, v),
                                    HINTS[width][hinted])

    @pytest.mark.parametrize("vector", VECTORS, ids=lambda v: v["address"][:10])
    def test_golden_vectors_with_and_without_a_hint(self, vector):
        digest = bytes.fromhex(vector["digest"])
        signature = Signature.from_bytes(bytes.fromhex(vector["signature"]))
        public = PublicKey.from_bytes(bytes.fromhex(vector["public_key"]))
        own = fixed_base_table(public.point, 4)
        for hint in (None, own, HINTS[4][0]):
            assert recover(digest, signature, hint) == public.point
        for expected in (None, public.address, SIGNERS[0].address):
            # cold, counted, and (for its own address) from its table
            for _ in range(keys._BUILD_AFTER + 1):
                assert (recover_address(digest, signature, expected).hex()
                        == vector["address"])


class TestOneTableBuilder:
    def test_width_eight_on_g_is_the_generator_table(self):
        table = fixed_base_table(Point(Gx, Gy), 8)
        assert len(table) == len(secp256k1._G_TABLE) == 32
        for built, held in zip(table, secp256k1._G_TABLE):
            assert built == held and len(built) == 255

    @pytest.mark.parametrize("width", sorted(HINTS))
    def test_rows_hold_the_window_multiples(self, width):
        point, table = SIGNERS[0].public_key.point, HINTS[width][0]
        assert len(table) == -(-256 // width)
        assert all(len(row) == (1 << width) - 1 for row in table)
        for i in (0, 1, len(table) - 1):
            for j in (1, 2, (1 << width) - 1):
                assert Point(*table[i][j - 1]) == secp256k1.point_mul(
                    j << (width * i), point)

    @pytest.mark.parametrize("point", [
        secp256k1.INFINITY, Point(Gx, Gy + 1), Point(Gx + P, Gy)])
    def test_refuses_what_is_not_a_key(self, point):
        with pytest.raises(ValueError):
            fixed_base_table(point, 4)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 256 - 1), st.integers(0, 2 ** 256 - 1),
           signer_index, widths)
    def test_double_table_mul_is_double_scalar_mul(self, u1, u2, signer,
                                                   width):
        assert (secp256k1.double_table_mul(u1, u2, HINTS[width][signer])
                == secp256k1.double_scalar_mul(
                    u1, u2, SIGNERS[signer].public_key.point))


@pytest.fixture
def known_keys(monkeypatch):
    """A three-entry cache in place of the process-wide one, and a count of
    the full recoveries (no hint) and tables built behind it."""
    cache = LRUCache(capacity=3)
    monkeypatch.setattr(keys, "_KNOWN_KEYS", cache)
    calls = {"full": 0, "hinted": 0, "tables": 0}
    inner_recover, inner_table = ecdsa.recover, keys.fixed_base_table

    def counting_recover(msg_hash, signature, hint=None):
        calls["full" if hint is None else "hinted"] += 1
        return inner_recover(msg_hash, signature, hint)

    def counting_table(point, width, *bits):
        calls["tables"] += 1
        return inner_table(point, width, *bits)

    monkeypatch.setattr(ecdsa, "recover", counting_recover)
    monkeypatch.setattr(keys, "fixed_base_table", counting_table)
    return cache, calls


class TestKnownKeyCache:
    DIGEST = bytes(range(32))
    BUILD_AFTER = keys._BUILD_AFTER

    def learn(self, key):
        """Check enough of ``key``'s signatures for it to earn its table."""
        signature = key.sign(self.DIGEST)
        for _ in range(self.BUILD_AFTER):
            assert (recover_address(self.DIGEST, signature, key.address)
                    == key.address)

    def test_the_process_wide_cache_is_bounded(self):
        assert keys._KNOWN_KEYS.capacity == KNOWN_KEY_CAPACITY >= 9

    def test_a_key_earns_its_table_then_is_checked_from_it(self, known_keys):
        cache, calls = known_keys
        key = SIGNERS[0]
        signature = key.sign(self.DIGEST)
        assert recover_address(self.DIGEST, signature) == key.address
        assert len(cache) == 0 and calls["tables"] == 0   # nobody expected
        for seen in range(1, self.BUILD_AFTER):
            assert (recover_address(self.DIGEST, signature, key.address)
                    == key.address)
            assert cache._entries == {key.address: seen}
        assert calls == {"full": self.BUILD_AFTER, "hinted": 0, "tables": 0}
        for _ in range(3):      # the break-even recovery builds, the rest walk
            assert (recover_address(self.DIGEST, signature, key.address)
                    == key.address)
        assert calls == {"full": self.BUILD_AFTER + 1, "hinted": 2, "tables": 1}
        assert list(cache._entries) == [key.address]

    def test_a_mismatching_expected_inserts_nothing(self, known_keys):
        cache, calls = known_keys
        signature = SIGNERS[0].sign(self.DIGEST)
        for _ in range(self.BUILD_AFTER + 1):
            assert (recover_address(self.DIGEST, signature, SIGNERS[1].address)
                    == SIGNERS[0].address)
        assert len(cache) == 0 and calls["tables"] == 0
        tampered = Signature(signature.r, signature.s, signature.v ^ 1)
        assert (recover_address(self.DIGEST, tampered, SIGNERS[0].address)
                != SIGNERS[0].address)
        assert len(cache) == 0 and calls["tables"] == 0

    def test_a_known_key_still_names_another_signer(self, known_keys):
        cache, calls = known_keys
        self.learn(SIGNERS[0])
        assert calls["tables"] == 1
        other = SIGNERS[1].sign(self.DIGEST)
        assert (recover_address(self.DIGEST, other, SIGNERS[0].address)
                == SIGNERS[1].address)
        assert list(cache._entries) == [SIGNERS[0].address]

    def test_keys_cycling_faster_than_they_recur_build_nothing(self, known_keys):
        """Four counterparties through three slots, round robin, three
        signatures a turn (what a full node checks per paid request): each
        counter is pushed out before its key comes round again, so every
        call is the plain full recovery and no table is ever built."""
        cache, calls = known_keys
        signatures = [key.sign(self.DIGEST) for key in SIGNERS]
        for _ in range(self.BUILD_AFTER):
            for key, signature in zip(SIGNERS, signatures):
                for _ in range(3):
                    assert (recover_address(self.DIGEST, signature, key.address)
                            == key.address)
                assert len(cache) <= cache.capacity
        assert calls == {"full": self.BUILD_AFTER * len(SIGNERS) * 3,
                         "hinted": 0, "tables": 0}

    def test_an_evicted_table_is_earned_again(self, known_keys):
        cache, calls = known_keys
        for key in SIGNERS:     # four tables through three slots
            self.learn(key)
            assert len(cache) <= cache.capacity
        assert calls["tables"] == 4 and cache.stats.evictions == 1
        assert SIGNERS[0].address not in cache
        full = calls["full"]
        self.learn(SIGNERS[0])  # right address throughout, at the full price
        assert calls["full"] == full + self.BUILD_AFTER
        assert calls["tables"] == 5 and calls["hinted"] == 0

    def test_serving_receipts_spend_no_slot(self, known_keys):
        """A receipt names its own ``light_client``; anybody can self-sign
        any number under fresh keys.  Weighing them builds no table and
        pushes no counterparty out of the cache."""
        from repro.parp.messages import payment_digest
        from repro.parp.proof_of_serving import ReceiptValidator, ServingReceipt
        cache, calls = known_keys
        self.learn(SIGNERS[0])
        held = dict(cache._entries)
        node = SIGNERS[1].address
        channels = {}
        validator = ReceiptValidator(channel_lookup=channels.get)
        for i in range(2 * cache.capacity + 2):
            sybil = PrivateKey.from_seed(f"sybil:{i}")
            alpha = bytes([i]) * 16
            receipt = ServingReceipt(
                alpha, node, sybil.address, 5,
                sybil.sign(payment_digest(alpha, 5)).to_bytes())
            assert validator.weigh(receipt) == 0.0      # no such channel
            channels[alpha] = (sybil.address, node, 10, 1)
            assert validator.weigh(receipt) == 5.0
        assert cache._entries == held and cache.stats.evictions == 0
        assert calls["tables"] == 1 and calls["hinted"] == 0
