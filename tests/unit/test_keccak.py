"""Keccak-256 known-answer tests and incremental-hashing behaviour."""

import pytest

from repro.crypto.keccak import (
    KECCAK_EMPTY,
    KECCAK_EMPTY_RLP,
    Keccak256,
    keccak256,
)

# Known-answer vectors for *original* Keccak-256 (not NIST SHA3-256).
VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"\x80": "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421",
    b"hello": "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
}


class TestKnownAnswers:
    @pytest.mark.parametrize("message,expected", sorted(VECTORS.items()))
    def test_vector(self, message, expected):
        assert keccak256(message).hex() == expected

    def test_empty_constant_matches(self):
        assert keccak256(b"") == KECCAK_EMPTY

    def test_empty_rlp_constant_matches(self):
        assert keccak256(b"\x80") == KECCAK_EMPTY_RLP

    def test_distinguishes_from_sha3(self):
        """NIST SHA3-256('') differs: padding byte 0x06 vs Keccak's 0x01."""
        import hashlib

        assert keccak256(b"") != hashlib.sha3_256(b"").digest()


class TestBlockBoundaries:
    """The sponge absorbs 136-byte blocks; cover lengths around multiples."""

    @pytest.mark.parametrize("length", [0, 1, 135, 136, 137, 271, 272, 273, 1000])
    def test_incremental_equals_oneshot(self, length):
        data = bytes(range(256)) * 4
        data = data[:length]
        hasher = Keccak256()
        for i in range(0, len(data), 13):  # awkward chunk size on purpose
            hasher.update(data[i:i + 13])
        assert hasher.digest() == keccak256(data)

    def test_single_update_equals_constructor(self):
        assert Keccak256(b"xyz").digest() == Keccak256().update(b"xyz").digest()


class TestHasherSemantics:
    def test_digest_is_idempotent(self):
        hasher = Keccak256(b"data")
        assert hasher.digest() == hasher.digest()

    def test_update_after_digest_rejected(self):
        hasher = Keccak256(b"data")
        hasher.digest()
        with pytest.raises(ValueError):
            hasher.update(b"more")

    def test_copy_is_independent(self):
        hasher = Keccak256(b"pre")
        clone = hasher.copy()
        clone.update(b"fix")
        hasher.update(b"fix")
        assert hasher.digest() == clone.digest() == keccak256(b"prefix")

    def test_hexdigest(self):
        assert Keccak256(b"abc").hexdigest() == VECTORS[b"abc"]

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            keccak256("string")  # type: ignore[arg-type]

    def test_digest_is_32_bytes(self):
        assert len(keccak256(b"x")) == 32

    def test_accepts_bytearray_and_memoryview(self):
        assert keccak256(bytearray(b"abc")) == keccak256(b"abc")
        assert keccak256(memoryview(b"abc")) == keccak256(b"abc")

    @pytest.mark.parametrize("bad", ["string", 7, None, 1.5, [1, 2], (b"a",)])
    def test_rejects_everything_that_is_not_a_buffer(self, bad):
        with pytest.raises(TypeError, match="expects bytes"):
            keccak256(bad)

    def test_hashes_the_bytes_of_a_wide_item_view(self):
        """``len()`` of a view counts items: 100 four-byte items are 400
        bytes — three blocks, not one."""
        import array

        words = array.array("I", range(100))
        view = memoryview(words)
        assert view.itemsize == 4 and len(view) == 100 and view.nbytes == 400
        assert keccak256(view) == keccak256(words.tobytes())
        assert keccak256(view.cast("B")) == keccak256(words.tobytes())

    def test_hashes_the_bytes_of_a_non_contiguous_view(self):
        data = bytes(range(256)) * 3
        strided = memoryview(data)[::2]
        assert not strided.contiguous
        assert keccak256(strided) == keccak256(data[::2])
        backwards = memoryview(data)[::-1]
        assert keccak256(backwards) == keccak256(data[::-1])

    def test_hashes_a_slice_of_a_view_and_a_bytes_subclass(self):
        data = bytes(range(200))
        assert keccak256(memoryview(data)[7:150]) == keccak256(data[7:150])

        class Tagged(bytes):
            pass

        assert keccak256(Tagged(data)) == keccak256(data)

    def test_does_not_keep_or_change_a_mutable_input(self):
        buffer = bytearray(b"abc" * 100)
        before = keccak256(buffer)
        assert buffer == bytearray(b"abc" * 100)
        buffer[0] ^= 1
        assert keccak256(buffer) != before
