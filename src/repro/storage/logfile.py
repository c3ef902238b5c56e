"""One crash-safe append-only file: the discipline under every durable log.

``nodes.log`` (:mod:`~repro.storage.filestore`) and ``blocks.log``
(:mod:`~repro.storage.blocklog`) differ in what a record *is*; they do not
differ in how a file of records survives a crash.  :class:`LogFile` owns
that second part, once.  The owner supplies three callables that know its
record format — a writer, a parser, a rewrite body — and never touches the
handle's ``truncate`` / ``fsync`` / ``rename`` itself:

* **Open** — the file starts with the owner's magic.  An empty file, or one
  whose header was torn by a crash during creation (a strict prefix of the
  magic: nothing was ever committed), is (re)initialised; any other header
  is refused so a foreign file is never overwritten.  A leftover
  ``<path>.compact`` — a rewrite that crashed before its rename — was never
  promoted and is removed.  The owner's recovery runs inside the same
  guard, so a refused open closes the handle whatever raised.

* **Append** — position at the end, let the owner write one record, then
  ``flush`` + ``fsync`` (the ``fsync`` only under ``sync=True``; atomicity
  comes from the record checksum, not from the sync).  If any of that
  raises, the partial record is truncated away so later appends never bury
  a torn record mid-log — recovery scans front to back and would discard
  everything behind it.  If even the truncate fails the log is **wedged**:
  reads stay valid, appends and rewrites are refused (acknowledging a
  record that recovery must throw away is worse than refusing it), and a
  reopen re-runs recovery and clears the flag.

* **Scan** — recovery walks records from the front with the owner's
  parser; the first record the parser rejects (short read, bad marker,
  checksum mismatch, whatever the format checks) ends the valid prefix and
  everything after it is durably truncated.  A crash mid-append therefore
  loses only the record that was never acknowledged.

* **Rewrite** — compaction and pruning replace the whole log: the new
  contents are written beside the old file (``<path>.compact``), fsynced
  whatever ``sync`` says (a rename must never promote unwritten bytes),
  promoted with one ``os.replace`` and made durable with a directory
  fsync.  At every byte offset of the pass the path names either the
  complete old log or the complete new one.

Every torn byte cut away — by open, scan or a failed append — is counted in
the owner's ``stats.truncated_bytes``; a plain :meth:`LogFile.truncate` (a
footer strip, a rewind) is not, nothing durable was lost.  Callers
serialise through :attr:`LogFile.lock`, held across the file operation
*and* the in-memory update that must stay consistent with it.
"""

from __future__ import annotations

import os
import pathlib
import threading
from typing import Any, BinaryIO, Callable, Iterator, Optional, TypeVar, Union

from .nodestore import StoreError

__all__ = ["LogFile", "state_dir_log"]

T = TypeVar("T")


class LogFile:
    """A magic-headed append-only file with crash-safe append/scan/rewrite.

    ``kind`` names the log in error messages ("node store", "block log");
    ``stats`` is the owner's counters object — only its ``truncated_bytes``
    is touched here.
    """

    def __init__(self, path: Union[str, os.PathLike], magic: bytes, kind: str,
                 stats: Any, *, sync: bool = True) -> None:
        self.path = pathlib.Path(path)
        self.magic = magic
        self.kind = kind
        self.stats = stats
        self._sync = sync
        self.lock = threading.Lock()
        self.closed = False
        #: a failed append that could not be truncated away
        self.wedged = False

    def open(self, recover: Callable[[], None]) -> None:
        """Open (or create) the file, check its header, run ``recover``."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # a crash mid-rewrite (before the rename) leaves the half-built
        # replacement behind; it was never promoted, so it is garbage
        self._tmp_path().unlink(missing_ok=True)
        self._fh = open(self.path, "a+b")
        try:
            head = self.read_at(0, len(self.magic))
            if head != self.magic:
                if not self.magic.startswith(head):
                    raise StoreError(f"{self.path} is not a PARP {self.kind} "
                                     f"(bad magic {head!r})")
                # a fresh file, or a crash while creating one tore the
                # header itself: nothing was ever committed, so initialise
                # instead of refusing to open forever
                if head:
                    self.stats.truncated_bytes += len(head)
                    self._fh.truncate(0)
                self._fh.write(self.magic)
                self.sync()
            recover()
        except BaseException:
            self._fh.close()
            raise

    def _tmp_path(self) -> pathlib.Path:
        return self.path.with_name(self.path.name + ".compact")

    def require_open(self) -> None:
        if self.closed:
            raise StoreError(f"{self.kind} {self.path} is closed")

    def require_writable(self, op: str) -> None:
        self.require_open()
        if self.wedged:
            raise StoreError(
                f"{self.kind} {self.path} is wedged and refused the {op}: a "
                "failed append could not be truncated away, so further writes "
                "would be discarded by crash recovery — reopen it")

    def size(self) -> int:
        self.require_open()
        return os.fstat(self._fh.fileno()).st_size

    def read_at(self, offset: int, length: int) -> bytes:
        self.require_open()
        self._fh.seek(offset)
        return self._fh.read(length)

    def sync(self) -> None:
        self._fh.flush()
        if self._sync:
            os.fsync(self._fh.fileno())

    def truncate(self, offset: int, *, torn: bool = False) -> None:
        """Durably cut the file back to ``offset``; ``torn`` counts the cut
        bytes as lost to a crash (vs. deliberately dropped)."""
        self.require_open()
        if torn:
            self.stats.truncated_bytes += self.size() - offset
        self._fh.truncate(offset)
        self.sync()

    def append(self, write_record: Callable[[BinaryIO, int], T],
               op: str = "append") -> tuple[int, T]:
        """Append one record: ``write_record(fh, base)`` writes it at the
        end (``base``); returns ``(base, its result)`` once durable."""
        self.require_writable(op)
        self._fh.seek(0, os.SEEK_END)
        base = self._fh.tell()
        try:
            result = write_record(self._fh, base)
            self.sync()
        except Exception:
            # cut the partial record back so later appends cannot bury it
            # mid-log; if even that fails, wedge (module docstring: Append)
            try:
                torn = self.size() - base
                self._fh.truncate(base)
                self._fh.flush()
                self.stats.truncated_bytes += max(0, torn)
            except OSError:
                self.wedged = True
            raise
        return base, result

    def scan(self, offset: int,
             parse_record: Callable[[Callable[[int], bytes], int, int],
                                    Optional[tuple[T, int]]],
             ) -> Iterator[tuple[int, T]]:
        """Yield ``(offset, record)`` for the longest valid prefix from
        ``offset``, then durably truncate whatever follows it.

        ``parse_record(read, offset, total)`` reads one record sequentially
        from ``offset`` (``total`` is the file size, to bound length
        fields) and returns ``(record, end offset)``, or None to reject it.
        Records are yielded one at a time, so the parser may check each
        against what the consumer built from the ones before.
        """
        total = self.size()
        while offset < total:
            self._fh.seek(offset)
            parsed = parse_record(self._fh.read, offset, total)
            if parsed is None:
                break
            record, end = parsed
            yield offset, record
            offset = end
        if offset < total:
            self.truncate(offset, torn=True)

    def rewrite(self, write_body: Callable[[BinaryIO], T], op: str) -> T:
        """Atomically replace the log with magic + ``write_body(out)``."""
        self.require_writable(op)
        tmp = self._tmp_path()
        try:
            with open(tmp, "wb") as out:
                out.write(self.magic)
                result = write_body(out)
                out.flush()
                os.fsync(out.fileno())
        except Exception:
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, self.path)
        self._fsync_dir()
        old_fh = self._fh
        self._fh = open(self.path, "a+b")
        old_fh.close()
        return result

    def _fsync_dir(self) -> None:
        """The rename itself must survive a crash, not just the bytes."""
        if not self._sync:
            return
        try:
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._fh.close()


def state_dir_log(state_dir: Union[str, os.PathLike], name: str) -> pathlib.Path:
    """``<state_dir>/<name>``, refusing a ``state_dir`` that is a file —
    almost always a bare log passed where its directory was meant."""
    state_dir = pathlib.Path(state_dir)
    if state_dir.exists() and not state_dir.is_dir():
        raise StoreError(
            f"{state_dir} exists but is not a directory — open a bare log "
            f"by its own path, or move it to <dir>/{name}")
    return state_dir / name
