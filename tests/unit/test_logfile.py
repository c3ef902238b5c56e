"""The crash sweeps, run once on the primitive.

:class:`~repro.storage.logfile.LogFile` is the one place ``nodes.log`` and
``blocks.log`` get their crash discipline from, so the every-byte-offset
sweeps live here against a toy record format (``0xA7 | u32 len | body |
crc32``) small enough to cut at *every* offset.  The per-store suites
(``test_store_recovery.py``, ``test_blocklog.py``, …) keep checking what is
format-specific on top.
"""

import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage import StoreError
from repro.storage.logfile import LogFile

MAGIC = b"TOYLOG01"
_U32 = struct.Struct("<I")
_OVERHEAD = 1 + 2 * _U32.size  # marker | len | … | crc


def _encode(body: bytes) -> bytes:
    record = b"\xa7" + _U32.pack(len(body)) + body
    return record + _U32.pack(zlib.crc32(record))


def _parse(read, offset, total):
    head = read(1 + _U32.size)
    if len(head) != 1 + _U32.size or head[:1] != b"\xa7":
        return None
    (length,) = _U32.unpack_from(head, 1)
    end = offset + _OVERHEAD + length
    if end > total:
        return None
    rest = read(length + _U32.size)
    body, stored = rest[:-_U32.size], rest[-_U32.size:]
    if zlib.crc32(head + body) != _U32.unpack(stored)[0]:
        return None
    return body, end


@dataclass
class _Stats:
    truncated_bytes: int = 0


class ToyLog:
    """The smallest owner: a list of byte strings over one LogFile."""

    def __init__(self, path) -> None:
        self.stats = _Stats()
        self.records: list[bytes] = []
        self.offsets: list[int] = []
        self.log = LogFile(path, MAGIC, "toy log", self.stats)
        self.log.open(self._recover)

    def _recover(self) -> None:
        for offset, body in self.log.scan(len(MAGIC), _parse):
            self.records.append(body)
            self.offsets.append(offset)

    def append(self, body: bytes, writer=None) -> None:
        write = writer or (lambda fh, base: fh.write(_encode(body)))
        base, _ = self.log.append(write)
        self.records.append(body)
        self.offsets.append(base)

    def rewrite(self, bodies) -> None:
        self.log.rewrite(
            lambda out: out.write(b"".join(map(_encode, bodies))), "rewrite")
        self.records = list(bodies)

    def read(self, i: int) -> bytes:
        length = len(self.records[i])
        return self.log.read_at(self.offsets[i] + 1 + _U32.size, length)


def _dying_writer(partial: bytes):
    def write(fh, base):
        fh.write(partial)
        fh.flush()
        raise OSError("disk full")
    return write


def _ends(bodies) -> list[int]:
    """File offset just past each record of a log holding ``bodies``."""
    ends, offset = [], len(MAGIC)
    for body in bodies:
        offset += _OVERHEAD + len(body)
        ends.append(offset)
    return ends


BODIES = [b"", b"a", b"bb" * 9, b"\xa7\x00\x00\x00\x00", b"tail"]


def _image(bodies) -> bytes:
    return MAGIC + b"".join(map(_encode, bodies))


class TestTornFileSweep:
    def test_every_truncation_recovers_an_acknowledged_prefix(self, tmp_path):
        full, ends = _image(BODIES), _ends(BODIES)
        path = tmp_path / "toy.log"
        for cut in range(len(full) + 1):
            path.write_bytes(full[:cut])
            toy = ToyLog(path)
            survivors = sum(1 for end in ends if end <= cut)
            assert toy.records == BODIES[:survivors]
            good_end = ends[survivors - 1] if survivors else len(MAGIC)
            # the torn suffix is physically gone and was counted (a torn
            # header counts the header bytes it had to throw away)
            assert path.stat().st_size == good_end
            assert toy.stats.truncated_bytes == (
                cut - good_end if cut >= len(MAGIC) else cut)
            toy.append(b"next")  # appends continue behind the prefix
            toy.log.close()
            reopened = ToyLog(path)
            assert reopened.records == BODIES[:survivors] + [b"next"]
            assert reopened.stats.truncated_bytes == 0
            reopened.log.close()

    def test_every_bitflip_ends_the_prefix_at_the_damaged_record(self, tmp_path):
        full, ends = _image(BODIES), _ends(BODIES)
        path = tmp_path / "toy.log"
        for position in range(len(MAGIC), len(full)):
            damaged = bytearray(full)
            damaged[position] ^= 0x40
            path.write_bytes(bytes(damaged))
            toy = ToyLog(path)
            intact = sum(1 for end in ends if end <= position)
            assert toy.records == BODIES[:intact]
            toy.log.close()

    def test_foreign_magic_is_refused_untouched(self, tmp_path):
        path = tmp_path / "toy.log"
        path.write_bytes(b"SOMEBODY-ELSE'S FILE")
        with pytest.raises(StoreError, match="not a PARP toy log"):
            ToyLog(path)
        assert path.read_bytes() == b"SOMEBODY-ELSE'S FILE"


class TestRewriteSweep:
    OLD, NEW = BODIES, [b"kept", b"\x00" * 7]

    def test_every_cut_of_the_unpromoted_file_recovers_the_old_log(
            self, tmp_path):
        path = tmp_path / "toy.log"
        tmp = tmp_path / "toy.log.compact"
        new_image = _image(self.NEW)
        for cut in range(len(new_image) + 1):
            path.write_bytes(_image(self.OLD))
            tmp.write_bytes(new_image[:cut])  # crashed before the rename
            toy = ToyLog(path)
            assert toy.records == self.OLD
            assert not tmp.exists()  # never promoted: garbage, removed
            toy.log.close()

    def test_completed_rename_recovers_the_new_log(self, tmp_path):
        path = tmp_path / "toy.log"
        path.write_bytes(_image(self.OLD))
        (tmp_path / "toy.log.compact").write_bytes(_image(self.NEW))
        os.replace(tmp_path / "toy.log.compact", path)  # crashed right after
        toy = ToyLog(path)
        assert toy.records == self.NEW
        toy.log.close()

    def test_rewrite_swaps_the_live_handle(self, tmp_path):
        path = tmp_path / "toy.log"
        toy = ToyLog(path)
        for body in self.OLD:
            toy.append(body)
        toy.rewrite(self.NEW)
        assert path.read_bytes() == _image(self.NEW)
        assert not (tmp_path / "toy.log.compact").exists()
        toy.append(b"after")  # lands in the new file, not the unlinked one
        toy.log.close()
        reopened = ToyLog(path)
        assert reopened.records == self.NEW + [b"after"]
        reopened.log.close()

    def test_failed_body_leaves_the_old_log_live(self, tmp_path):
        path = tmp_path / "toy.log"
        toy = ToyLog(path)
        toy.append(b"old")

        def dying_body(out):
            out.write(b"\xa7half")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            toy.log.rewrite(dying_body, "rewrite")
        assert not (tmp_path / "toy.log.compact").exists()
        assert path.read_bytes() == _image([b"old"])
        toy.append(b"still appending")
        toy.log.close()


class _NoTruncate:
    """A file handle whose ``truncate`` fails (read-only remount, EIO…)."""

    def __init__(self, fh) -> None:
        self._fh = fh

    def truncate(self, size=None):
        raise OSError("read-only file system")

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestFailedAppend:
    def test_partial_record_is_cut_back_and_counted(self, tmp_path):
        path = tmp_path / "toy.log"
        toy = ToyLog(path)
        toy.append(b"first")
        with pytest.raises(OSError, match="disk full"):
            toy.append(b"never", _dying_writer(b"\xa7part"))
        assert toy.stats.truncated_bytes == len(b"\xa7part")
        assert not toy.log.wedged
        assert path.read_bytes() == _image([b"first"])
        toy.append(b"second")
        toy.log.close()
        reopened = ToyLog(path)
        assert reopened.records == [b"first", b"second"]
        assert reopened.stats.truncated_bytes == 0
        reopened.log.close()

    def test_failing_truncate_after_failing_write_wedges(self, tmp_path):
        path = tmp_path / "toy.log"
        toy = ToyLog(path)
        toy.append(b"first")
        real_fh = toy.log._fh
        toy.log._fh = _NoTruncate(real_fh)
        with pytest.raises(OSError, match="disk full"):
            toy.append(b"never", _dying_writer(b"\xa7part"))
        toy.log._fh = real_fh
        assert toy.log.wedged
        assert toy.records == [b"first"] and toy.read(0) == b"first"
        # appending behind the torn record would acknowledge bytes that
        # recovery must throw away; so would promoting a rewrite over it
        with pytest.raises(StoreError, match="refused the append"):
            toy.append(b"buried")
        with pytest.raises(StoreError, match="wedged"):
            toy.rewrite([b"first"])
        assert path.stat().st_size == len(_image([b"first"])) + 5
        toy.log.close()
        reopened = ToyLog(path)  # recovery re-examines the tail
        assert not reopened.log.wedged
        assert reopened.records == [b"first"]
        assert reopened.stats.truncated_bytes == 5
        reopened.append(b"second")
        reopened.log.close()

    def test_closed_log_refuses_every_operation(self, tmp_path):
        toy = ToyLog(tmp_path / "toy.log")
        toy.append(b"first")
        toy.log.close()
        toy.log.close()  # idempotent
        for refused in (lambda: toy.append(b"x"), lambda: toy.read(0),
                        lambda: toy.rewrite([]), toy.log.size,
                        lambda: toy.log.truncate(len(MAGIC))):
            with pytest.raises(StoreError, match="toy log .* is closed"):
                refused()


class LogFileMachine(RuleBasedStateMachine):
    """Random append / failing append / rewrite / crash / reopen sequences
    against an in-memory list: the log always holds exactly the
    acknowledged records, before and after every recovery."""

    bodies = st.binary(max_size=12)

    def __init__(self) -> None:
        super().__init__()
        self._dir = tempfile.TemporaryDirectory()
        self.path = Path(self._dir.name) / "toy.log"
        self.model: list[bytes] = []
        self.toy = ToyLog(self.path)

    def teardown(self) -> None:
        self.toy.log.close()
        self._dir.cleanup()

    @rule(body=bodies)
    def append(self, body):
        self.toy.append(body)
        self.model.append(body)

    @rule(body=bodies, keep=st.integers(min_value=0, max_value=20))
    def failing_append(self, body, keep):
        torn = _encode(body)[:keep]
        with pytest.raises(OSError):
            self.toy.append(body, _dying_writer(torn))

    @rule(data=st.data())
    def rewrite(self, data):
        kept = [body for body in self.model if data.draw(st.booleans())]
        self.toy.rewrite(kept)
        self.model = kept

    @rule(fraction=st.floats(min_value=0, max_value=1))
    def crash_truncated(self, fraction):
        """Power loss: the file keeps an arbitrary prefix of its bytes."""
        self.toy.log.close()
        cut = int(fraction * self.path.stat().st_size)
        with open(self.path, "r+b") as fh:
            fh.truncate(cut)
        self.model = self.model[:sum(
            1 for end in _ends(self.model) if end <= cut)]
        self.toy = ToyLog(self.path)

    @rule()
    def reopen(self):
        self.toy.log.close()
        self.toy = ToyLog(self.path)
        assert self.toy.stats.truncated_bytes == 0

    @invariant()
    def log_holds_exactly_the_acknowledged_records(self):
        assert self.toy.records == self.model
        assert self.path.read_bytes() == _image(self.model)


LogFileMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None)
TestLogFileMachine = LogFileMachine.TestCase
