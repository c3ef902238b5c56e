"""The table-driven codecs against the encoders they replaced.

``rlp.encode`` must give the recursive encoder's bytes for any nesting of
lists and tuples over ``bytes``, ``bytearray`` and ``memoryview`` strings,
at every prefix edge: empty, one byte on either side of 0x80, 55 and 56
bytes (short and long form), and payloads whose length takes one, two or
three bytes.  It must refuse what the old one refused.  ``hp_encode`` and
``nibbles_to_bytes`` must give the generator's bytes for nibble paths of
every length from 0 to 64, under both flags.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.rlp import codec as rlp
from repro.trie import nibbles

from .. import reference_codecs as reference

#: one byte either side of 0x80, and the ends of the range
EDGE_BYTES = (0x00, 0x01, 0x7F, 0x80, 0x81, 0xFF)
#: the string lengths where a prefix changes form
EDGE_LENGTHS = (0, 1, 2, 55, 56, 57, 255, 256)


@st.composite
def strings(draw):
    """A byte string at an edge length (or any up to 300), one edge byte
    often, as ``bytes``, ``bytearray`` or a ``memoryview``."""
    data = draw(st.one_of(
        st.sampled_from(EDGE_BYTES).map(lambda b: bytes([b])),
        st.sampled_from(EDGE_LENGTHS).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)),
        st.binary(max_size=300)))
    kind = draw(st.sampled_from((bytes, bytearray, memoryview)))
    return kind(data)


items = st.recursive(
    strings(),
    lambda children: st.one_of(st.lists(children, max_size=8),
                               st.lists(children, max_size=8).map(tuple)),
    max_leaves=16)


class TestRlpEncode:
    @given(items)
    @settings(max_examples=200)
    def test_any_item_encodes_as_the_recursive_encoder_did(self, item):
        assert rlp.encode(item) == reference.encode(item)

    @pytest.mark.parametrize("length", EDGE_LENGTHS + (1024, 70_000))
    @pytest.mark.parametrize("wrap", (lambda s: s, lambda s: [s],
                                      lambda s: ([s, [s]], (s,))))
    def test_every_prefix_form(self, length, wrap):
        """Short and long strings, and lists whose payload length takes
        zero, one, two or three bytes."""
        for byte in EDGE_BYTES:
            item = wrap(bytes([byte]) * length)
            assert rlp.encode(item) == reference.encode(item)

    def test_a_multibyte_view_is_its_bytes(self):
        view = memoryview(bytes(range(12))).cast("I")
        assert len(view) == 3
        for item in (view, [view], [[view, b"\x80"]]):
            assert rlp.encode(item) == reference.encode(item)

    @pytest.mark.parametrize("item", (
        1, 0, True, "text", None, 1.5, [1], [b"a", [b"b", 0]], (b"a", "b"),
        [b"ok", {b"set"}]))
    def test_what_is_no_item_is_refused_alike(self, item):
        with pytest.raises(rlp.RLPError) as old:
            reference.encode(item)
        with pytest.raises(rlp.RLPError) as new:
            rlp.encode(item)
        assert str(new.value) == str(old.value)


def nibble_paths():
    """Per length 0-64: all zeros, all fifteens and three seeded paths."""
    rng = random.Random(0x6870)
    for length in range(65):
        yield (0,) * length
        yield (15,) * length
        for _ in range(3):
            yield tuple(rng.randrange(16) for _ in range(length))


class TestNibblePacking:
    def test_hp_encode_of_every_length_and_both_flags(self):
        for path in nibble_paths():
            for is_leaf in (False, True):
                assert (nibbles.hp_encode(path, is_leaf)
                        == reference.hp_encode(path, is_leaf)), (path, is_leaf)

    @given(st.lists(st.integers(0, 15), max_size=64), st.booleans())
    def test_hp_encode_of_any_path(self, path, is_leaf):
        assert (nibbles.hp_encode(tuple(path), is_leaf)
                == reference.hp_encode(tuple(path), is_leaf))

    def test_nibbles_to_bytes_of_every_even_length(self):
        for path in nibble_paths():
            if len(path) % 2:
                with pytest.raises(ValueError):
                    nibbles.nibbles_to_bytes(path)
                with pytest.raises(ValueError):
                    reference.nibbles_to_bytes(path)
            else:
                assert (nibbles.nibbles_to_bytes(path)
                        == reference.nibbles_to_bytes(path))
