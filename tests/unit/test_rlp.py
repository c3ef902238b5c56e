"""RLP codec: official vectors, canonicality enforcement."""

import pytest

from repro.rlp import (
    RLPError,
    decode,
    decode_int,
    encode,
    encode_int,
)

LOREM = b"Lorem ipsum dolor sit amet, consectetur adipisicing elit"


class TestOfficialVectors:
    """Vectors from the Ethereum RLP specification."""

    CASES = [
        (b"", b"\x80"),
        (b"\x00", b"\x00"),
        (b"\x0f", b"\x0f"),
        (b"\x7f", b"\x7f"),
        (b"\x80", b"\x81\x80"),
        (b"dog", b"\x83dog"),
        (b"\x04\x00", b"\x82\x04\x00"),
        (LOREM, b"\xb88" + LOREM),
        ([], b"\xc0"),
        ([b"cat", b"dog"], b"\xc8\x83cat\x83dog"),
        ([[], [[]], [[], [[]]]], bytes.fromhex("c7c0c1c0c3c0c1c0")),
    ]

    @pytest.mark.parametrize("value,expected", CASES)
    def test_encode(self, value, expected):
        assert encode(value) == expected

    @pytest.mark.parametrize("value,expected", CASES)
    def test_decode(self, value, expected):
        assert decode(expected) == value

    def test_long_list(self):
        value = [LOREM] * 10
        assert decode(encode(value)) == value

    def test_long_string_boundary_55_56(self):
        for n in (54, 55, 56, 57):
            data = b"a" * n
            assert decode(encode(data)) == data


class TestIntegers:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 255, 256, 2 ** 64, 2 ** 256 - 1])
    def test_roundtrip(self, value):
        assert decode_int(encode_int(value)) == value

    def test_zero_is_empty(self):
        assert encode_int(0) == b""

    def test_negative_rejected(self):
        with pytest.raises(RLPError):
            encode_int(-1)

    def test_leading_zero_rejected(self):
        with pytest.raises(RLPError):
            decode_int(b"\x00\x01")


class TestCanonicality:
    """Malformed or non-minimal encodings must be rejected, not normalized."""

    def test_trailing_bytes(self):
        with pytest.raises(RLPError):
            decode(b"\x83dog!")

    def test_truncated_string(self):
        with pytest.raises(RLPError):
            decode(b"\x85dog")

    def test_truncated_list(self):
        with pytest.raises(RLPError):
            decode(b"\xc8\x83cat")

    def test_non_canonical_single_byte(self):
        with pytest.raises(RLPError):
            decode(b"\x81\x05")  # 0x05 must encode as itself

    def test_non_canonical_long_form_length(self):
        # length 3 must use the short form, not the long form
        with pytest.raises(RLPError):
            decode(b"\xb8\x03dog")

    def test_length_field_leading_zero(self):
        with pytest.raises(RLPError):
            decode(b"\xb9\x00\x38" + LOREM)

    def test_empty_input(self):
        with pytest.raises(RLPError):
            decode(b"")

    def test_rejects_raw_int_encode(self):
        with pytest.raises(RLPError):
            encode(5)  # type: ignore[arg-type]

    def test_rejects_unknown_type(self):
        with pytest.raises(RLPError):
            encode(3.14)  # type: ignore[arg-type]
