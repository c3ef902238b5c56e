"""Append-only, crash-safe disk node store.

This is the persistence layer that lets a full node hold state tries far
bigger than RAM-resident Python dicts allow, and survive being restarted.
This module owns the record formats of ``nodes.log`` and what is built on
them (index, root history, read cache, footer); how the file is created,
appended to, recovered and atomically rewritten — the crash discipline — is
:mod:`~repro.storage.logfile`'s and is described there:

* **Data layout** — one log file.  An 8-byte magic header, then (on a
  compacted store) one *pruned-roots record*::

      0xB5 | u32 count | count x 32-byte root | u32 crc32

  then a sequence of *commit batches*.  Each batch is::

      0xB1 | u32 count | count x (32-byte hash | u32 len | value bytes)
           | 32-byte root | u32 crc32

  The CRC covers everything from the marker through the root, so any torn
  or bit-flipped suffix is detected on reopen.  A *clean* close appends a
  root-index footer (stripped again on open — see below)::

      0xB3 | u32 n_roots | n_roots x (32-byte root | u64 batch offset)
           | u32 n_nodes | n_nodes x (32-byte hash | u64 offset | u32 len)
           | u32 crc32 | u64 footer start offset

  The node table is sorted by hash, so an indexed open does not
  deserialize it at all: lookups bisect the packed bytes in place
  (:class:`_PackedNodeIndex`) and the table only hydrates into a dict on
  the first post-open commit.  Reopen cost is therefore one read and one
  CRC — flat in the number of nodes.

* **Write path** — ``__setitem__`` stages entries in a pending dict (reads
  see them immediately); :meth:`commit` streams the whole batch as one
  record through :meth:`LogFile.append`.  The trie's overlay engine calls
  ``commit`` once per root transition, so a block's worth of nodes costs
  one syscall burst, not one per node.  Content addressing makes re-puts
  of known hashes free: they are skipped.

* **Recovery** — :meth:`_recover` (run on open) first tries the footer: if
  the last 8 bytes point at an intact ``0xB3`` record, the index and root
  history are deserialized in one read instead of scanning the whole file,
  and the footer is truncated off so the live file is a pure batch log
  again (appends and later recoveries never see it mid-file).  When the
  footer is missing or torn — the normal state after a crash —
  :meth:`LogFile.scan` walks the batches with :meth:`_scan_batch` as its
  parser: the offset index is rebuilt from the surviving prefix and
  :attr:`last_root` is the root its last batch was tagged with.  A crash
  mid-``write`` therefore loses only the uncommitted batch — exactly the
  overlay writes the trie had not yet promised were durable.

* **Read path** — the in-memory index maps hash -> (offset, length); a
  ``get`` is one locked ``seek`` + ``read``, behind a bounded LRU of
  *encoded* node bytes.  The trie keeps its decoded-node LRU above the
  store, but proof serving also needs the raw RLP bytes of every proof
  node (they *are* the proof), so without the byte cache a warm proof
  still paid one file read per node per request.  Hot nodes therefore
  skip the disk entirely; the file is only touched on double misses.
  Any path that retreats the log — a truncated failed append, recovery,
  compaction — discards the affected cache entries: the cache never
  serves bytes the log no longer durably holds.

* **Compaction** — :meth:`compact` rewrites the log to a caller-supplied
  set of batches (the live node set of the retained roots, assembled by
  :func:`~repro.storage.compaction.compact_node_store`) through the
  atomic :meth:`LogFile.rewrite`.  Roots dropped by the pass land in the
  pruned-roots record so reopen can answer
  :class:`~repro.storage.nodestore.PrunedRootError` for them.
"""

from __future__ import annotations

import os
import pathlib
import struct
import zlib
from collections.abc import MutableMapping
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, Union

from ..crypto.keccak import KECCAK_EMPTY_RLP
from ..metrics import Counters, LRUCache
from .logfile import LogFile
from .nodestore import NodeStore, StoreError

__all__ = [
    "AppendOnlyFileStore",
    "open_state_dir",
]

#: default bound for the encoded-node read cache (entries, not bytes; trie
#: nodes encode to ≤ ~530 B, so the worst case is a few tens of MiB —
#: sized to keep the upper levels of a multi-million-key trie resident)
DEFAULT_READ_CACHE_CAPACITY = 65536

#: file signature: PARP node store, format version 1
MAGIC = b"PARPNS01"
_BATCH_MARKER = b"\xb1"
_FOOTER_MARKER = b"\xb3"
_PRUNED_MARKER = b"\xb5"
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
#: footer table entries: (root, batch offset) / (hash, offset, length)
_ROOT_ENTRY = struct.Struct("<32sQ")
_NODE_ENTRY = struct.Struct("<32sQI")
_HASH_LEN = 32
#: bound on remembered pruned roots (newest kept) — the record is loaded
#: on every open, so it must not itself grow without bound
_PRUNED_CAP = 4096


class _PackedNodeIndex(MutableMapping):
    """The footer's node table used as the index, without deserializing it.

    Materializing a dict from a few hundred thousand packed ``(hash,
    offset, length)`` entries is the dominant cost of an indexed reopen —
    a per-entry Python loop that makes the footer barely faster than the
    recovery scan it exists to avoid.  So the table is kept exactly as the
    footer stored it: packed, **sorted by hash**, bisected in place for
    point lookups (the read path's only need).  The first *mutation* — a
    commit after reopen — hydrates it into a real dict; until then the
    index costs one blob reference, and reopen time is flat in the number
    of nodes.

    A clean close can hand the unhydrated blob straight back to the next
    footer (:meth:`packed`), so open→serve→close cycles never pay the
    pack/sort either.
    """

    __slots__ = ("_blob", "_count", "_dict")

    def __init__(self, blob: bytes, count: int) -> None:
        self._blob = blob
        self._count = count
        self._dict: Optional[dict[bytes, tuple[int, int]]] = None

    def _hydrate(self) -> dict[bytes, tuple[int, int]]:
        if self._dict is None:
            self._dict = {
                key: (offset, length)
                for key, offset, length in _NODE_ENTRY.iter_unpack(self._blob)
            }
            self._blob = b""
        return self._dict

    def packed(self) -> Optional[bytes]:
        """The sorted table bytes, if still pristine (else None)."""
        return None if self._dict is not None else self._blob

    def __getitem__(self, key: bytes) -> tuple[int, int]:
        if self._dict is not None:
            return self._dict[key]
        size = _NODE_ENTRY.size
        blob, lo, hi = self._blob, 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            probe = blob[mid * size:mid * size + _HASH_LEN]
            if probe < key:
                lo = mid + 1
            elif probe > key:
                hi = mid
            else:
                _, offset, length = _NODE_ENTRY.unpack_from(blob, mid * size)
                return offset, length
        raise KeyError(key)

    def __setitem__(self, key: bytes, value: tuple[int, int]) -> None:
        self._hydrate()[key] = value

    def __delitem__(self, key: bytes) -> None:
        del self._hydrate()[key]

    def __iter__(self) -> Iterator[bytes]:
        if self._dict is not None:
            yield from self._dict
            return
        size = _NODE_ENTRY.size
        for i in range(self._count):
            yield self._blob[i * size:i * size + _HASH_LEN]

    def __len__(self) -> int:
        return self._count if self._dict is None else len(self._dict)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (dict, MutableMapping)):
            return dict(self) == dict(other)
        return NotImplemented


class AppendOnlyFileStore(NodeStore):
    """Durable node store over a single append-only log file.

    The store carries no retention policy and never prunes on its own:
    :meth:`compact` rewrites the log to whatever roots the chain that owns
    the store decides to keep (``Blockchain.compact``).
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self._read_cache = LRUCache(capacity=DEFAULT_READ_CACHE_CAPACITY)
        self._pending: dict[bytes, bytes] = {}
        #: hash -> (offset, length); a plain dict after a scan/commit, or
        #: the footer's packed sorted table (:class:`_PackedNodeIndex`)
        #: after an indexed open with no mutations yet
        self._index: MutableMapping = {}
        #: (root, batch offset) per committed batch, oldest → newest —
        #: rebuilt at open (footer or scan)
        self._root_history: list[tuple[bytes, int]] = []
        self._pruned_set: set[bytes] = set()
        #: ordered (oldest → newest) view of the pruned set, persisted
        self._pruned_order: list[bytes] = []
        self._last_root: bytes = KECCAK_EMPTY_RLP
        #: True when this open deserialized the footer instead of scanning
        self.opened_indexed = False
        #: operational counters, **every one per-open**: a fresh handle
        #: starts them all at zero, whether the log it opens is empty or
        #: holds years of history.  ``bytes_appended`` counts what *this
        #: handle* wrote, ``batches_recovered`` what it *found* at open —
        #: the two never mix.
        self.stats = Counters(
            "batches_committed",
            "entries_written",
            # bytes appended via commit() (recovered history and the
            # close-time footer are not appends)
            "bytes_appended",
            "reads",
            # batches restored at open: by the footer when intact, else by
            # the recovery scan
            "batches_recovered",
            # torn/corrupt bytes cut away during this open's lifetime: the
            # scan's discarded suffix plus any failed append cut back (the
            # footer stripped on a clean open is not counted — nothing
            # durable was lost)
            "truncated_bytes",
            "compactions",      # compaction passes completed by this handle
            "bytes_reclaimed",  # log bytes reclaimed by those passes
        )
        self._log = LogFile(path, MAGIC, "node store", self.stats)
        self._log.open(self._recover)

    # ------------------------------------------------------------------ #
    # NodeStore interface
    # ------------------------------------------------------------------ #

    @property
    def path(self) -> pathlib.Path:
        return self._log.path

    @property
    def last_root(self) -> bytes:
        return self._last_root

    @property
    def root_history(self) -> list[bytes]:
        """Roots of every live batch, oldest → newest (repeats possible)."""
        return [root for root, _ in self._root_history]

    @property
    def pruned_roots(self) -> frozenset:
        return frozenset(self._pruned_set)

    def get(self, key: bytes) -> Optional[bytes]:
        value = self._pending.get(key)
        if value is not None:
            return value
        cached = self._read_cache.get(key)
        if cached is not None:
            return cached
        # the index lookup happens under the lock: compaction swaps the
        # file and the index together, and a location resolved against the
        # old file must never be read from the new one
        with self._log.lock:
            self._log.require_open()
            location = self._index.get(key)
            if location is None:
                return None
            offset, length = location
            data = self._log.read_at(offset, length)
        if len(data) != length:  # pragma: no cover - index always in-bounds
            raise StoreError(f"short read at offset {offset} in {self.path}")
        self.stats.reads += 1
        self._read_cache.put(key, data)
        return data

    def __setitem__(self, key: bytes, value: bytes) -> None:
        if len(key) != _HASH_LEN:
            raise StoreError(f"node keys are {_HASH_LEN}-byte hashes, "
                             f"got {len(key)}")
        # content-addressed: a known hash is already durable with these bytes
        if key in self._index or key in self._pending:
            return
        self._pending[key] = value

    def __contains__(self, key: bytes) -> bool:
        return key in self._pending or key in self._index

    def __len__(self) -> int:
        return len(self._index) + len(self._pending)

    def log_bytes(self) -> int:
        """Current size of the log file — the auto-compaction trigger input."""
        with self._log.lock:
            return self._log.size()

    def commit(self, root: bytes) -> None:
        """Append the pending batch as one checksummed, fsynced record.

        A commit with nothing pending *and* an unchanged root is a no-op.
        A root transition whose nodes all deduplicated away (state
        committed back to a previously-stored shape) still cuts an empty,
        root-tagged batch — :attr:`last_root` must always be the newest
        *acknowledged* commit, or reopening would resurrect the state that
        was committed away.

        The record is *streamed* to the (buffered) file handle with an
        incremental CRC — mirroring the recovery scan — so committing a
        huge batch never builds a second in-memory copy of the nodes.
        Atomicity comes from the checksum, not from a single write: a
        crash mid-stream leaves a torn suffix that recovery truncates.
        """
        if not self._pending and root == self._last_root:
            return
        with self._log.lock:
            try:
                base, (written, locations) = self._log.append(
                    lambda fh, base: self._stream_batch(
                        fh, root, base, self._pending.items()), "commit")
            except Exception:
                # the log cut the torn record back (or wedged); either way
                # the staged bytes are not durable: make sure the read
                # cache cannot serve them as if they were
                for key in self._pending:
                    self._read_cache.discard(key)
                raise
            for key, offset, length in locations:
                self._index[key] = (offset, length)
            self._root_history.append((root, base))
            self.stats.batches_committed += 1
            self.stats.entries_written += len(self._pending)
            self.stats.bytes_appended += written
            # seed the read cache with the batch just written: the next
            # proofs served will walk these nodes, and they are already in
            # memory.  A bulk batch larger than the cache would only churn
            # it (evicting the genuinely hot entries for an arbitrary
            # tail), so seeding is skipped then.
            if len(self._pending) <= self._read_cache.capacity:
                for key, value in self._pending.items():
                    self._read_cache.put(key, value)
            self._pending.clear()
            self._last_root = root

    def _stream_batch(self, fh: BinaryIO, root: bytes, base: int,
                      items: Iterable[tuple[bytes, bytes]],
                      ) -> tuple[int, list[tuple[bytes, int, int]]]:
        """Stream one batch at ``base`` of ``fh``; returns (written, locations).

        The value locations are returned — not applied to the index — so a
        failed write cannot leave the index pointing into a torn record.
        ``items`` must support ``len()`` (the count leads the record).
        Making the bytes durable is the caller's job (:class:`LogFile`).
        """
        items = items if hasattr(items, "__len__") else list(items)
        header = _BATCH_MARKER + _U32.pack(len(items))
        crc = zlib.crc32(header)
        fh.write(header)
        offset = base + len(header)
        locations: list[tuple[bytes, int, int]] = []
        for key, value in items:
            entry_header = key + _U32.pack(len(value))
            crc = zlib.crc32(entry_header, crc)
            fh.write(entry_header)
            offset += len(entry_header)
            crc = zlib.crc32(value, crc)
            fh.write(value)
            locations.append((key, offset, len(value)))
            offset += len(value)
        crc = zlib.crc32(root, crc)
        fh.write(root)
        fh.write(_U32.pack(crc))
        offset += _HASH_LEN + _U32.size
        return offset - base, locations

    def close(self, write_index: bool = True) -> None:
        """Close the file handle; pending (uncommitted) writes are dropped —
        they were never promised durable, exactly like trie overlay nodes
        before a ``commit``.

        A clean close appends the root-index footer so the next open seeks
        instead of scanning.  ``write_index=False`` skips it (tests that
        surgically corrupt the raw batch log want the file footer-free); a
        wedged store never writes one — its tail is exactly what recovery
        must re-examine.
        """
        if self._log.closed:
            return
        self._pending.clear()
        try:
            if write_index and not self._log.wedged:
                self._write_footer()
        finally:
            self._read_cache.clear()
            self._log.close()

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #

    def compact(self, batches: Sequence[tuple[bytes, Sequence[tuple[bytes, bytes]]]],
                pruned_roots: Sequence[bytes] = ()) -> tuple[int, int]:
        """Rewrite the log to exactly ``batches``; returns (before, after) sizes.

        ``batches`` is ordered oldest → newest: one ``(root, [(hash,
        bytes), …])`` per retained root (use
        :func:`~repro.storage.compaction.compact_node_store` to assemble
        it from the roots the chain keeps — this method only performs the
        mechanical rewrite).  ``pruned_roots`` joins the store's persisted
        pruned-roots record (newest :data:`_PRUNED_CAP` kept).

        Crash safety is :meth:`LogFile.rewrite`'s: at every byte offset of
        the pass the on-disk state is either the complete old log or the
        complete new one.  Refuses to run over staged-but-uncommitted
        writes (they exist in no log) or a wedged store.
        """
        with self._log.lock:
            self._log.require_writable("compaction")
            if self._pending:
                raise StoreError(
                    f"node store {self.path} has {len(self._pending)} "
                    "staged uncommitted writes; commit or drop them before "
                    "compacting")
            before = self._log.size()
            # pruned memory: previously pruned roots stay remembered (they
            # are still unresolvable), newly pruned append after them
            merged: list[bytes] = []
            merged_seen: set[bytes] = set()
            for root in list(self._pruned_order) + list(pruned_roots):
                if root not in merged_seen:
                    merged_seen.add(root)
                    merged.append(root)
            merged = merged[-_PRUNED_CAP:]
            new_index: dict[bytes, tuple[int, int]] = {}
            new_history: list[tuple[bytes, int]] = []

            def write_body(out: BinaryIO) -> None:
                if merged:
                    record = (_PRUNED_MARKER + _U32.pack(len(merged))
                              + b"".join(merged))
                    out.write(record)
                    out.write(_U32.pack(zlib.crc32(record)))
                offset = out.tell()
                for root, items in batches:
                    written, locations = self._stream_batch(
                        out, root, offset, items)
                    for key, off, length in locations:
                        new_index[key] = (off, length)
                    new_history.append((root, offset))
                    offset += written

            self._log.rewrite(write_body, "compaction")
            # the cache must not serve nodes the new log no longer holds
            for key in self._index.keys() - new_index.keys():
                self._read_cache.discard(key)
            self._index = new_index
            self._root_history = new_history
            self._last_root = (new_history[-1][0] if new_history
                               else KECCAK_EMPTY_RLP)
            self._pruned_order = merged
            self._pruned_set = set(merged)
            after = self._log.size()
            self.stats.compactions += 1
            self.stats.bytes_reclaimed += max(0, before - after)
            return before, after

    # ------------------------------------------------------------------ #
    # Root-index footer
    # ------------------------------------------------------------------ #

    def _write_footer(self) -> None:
        """Append the ``0xB3`` footer: root table + node index + crc + pointer.

        Appended like any record (flushed, fsynced, cut back if the write
        fails); a footer torn by a crash during close is detected by its CRC
        on the next open, which then falls back to the streaming scan.
        """
        body = bytearray()
        body += _FOOTER_MARKER
        body += _U32.pack(len(self._root_history))
        for root, batch_offset in self._root_history:
            body += _ROOT_ENTRY.pack(root, batch_offset)
        body += _U32.pack(len(self._index))
        packed = (self._index.packed()
                  if isinstance(self._index, _PackedNodeIndex) else None)
        if packed is not None:
            # open→serve→close cycle with no commits: the table this open
            # bisected is still pristine and already sorted — reuse it
            body += packed
        else:
            # sorted by hash: the next open bisects the table in place
            for key in sorted(self._index):
                offset, length = self._index[key]
                body += _NODE_ENTRY.pack(key, offset, length)
        body += _U32.pack(zlib.crc32(body))

        def write_footer(fh: BinaryIO, start: int) -> None:
            fh.write(body)  # as is: the node table can be many MiB
            fh.write(_U64.pack(start))

        self._log.append(write_footer, "index footer")

    def _try_indexed_open(self, data_start: int, total: int) -> bool:
        """Deserialize the footer if intact; strips it and returns True.

        Any structural defect — short file, out-of-range pointer, wrong
        marker, CRC mismatch, tables that do not tile the record, offsets
        escaping the batch region — returns False and leaves the file
        untouched for the scan fallback.
        """
        min_footer = 1 + 2 * _U32.size + _U32.size + _U64.size
        if total - data_start < min_footer:
            return False
        (start,) = _U64.unpack(self._log.read_at(total - _U64.size, _U64.size))
        if not data_start <= start <= total - min_footer:
            return False
        blob = self._log.read_at(start, total - _U64.size - start)
        if len(blob) < min_footer - _U64.size or blob[:1] != _FOOTER_MARKER:
            return False
        body, stored = blob[:-_U32.size], blob[-_U32.size:]
        if zlib.crc32(body) != _U32.unpack(stored)[0]:
            return False
        pos = 1
        (n_roots,) = _U32.unpack_from(body, pos)
        pos += _U32.size
        roots_len = n_roots * _ROOT_ENTRY.size
        if pos + roots_len + _U32.size > len(body):
            return False
        history = [(root, batch_offset) for root, batch_offset
                   in _ROOT_ENTRY.iter_unpack(bytes(body[pos:pos + roots_len]))]
        pos += roots_len
        (n_nodes,) = _U32.unpack_from(body, pos)
        pos += _U32.size
        nodes_len = n_nodes * _NODE_ENTRY.size
        if pos + nodes_len != len(body):
            return False
        # the node table stays packed (sorted by hash, bisected on demand)
        # so the open is flat in node count; offsets are only spot-checked
        # at the table's edges — the CRC already vouches for the rest, and
        # a fabricated offset fails closed (miss / short read), it cannot
        # fabricate node bytes
        node_blob = bytes(body[pos:pos + nodes_len])
        for i in (0, n_nodes - 1) if n_nodes else ():
            _, offset, length = _NODE_ENTRY.unpack_from(
                node_blob, i * _NODE_ENTRY.size)
            if offset < data_start or offset + length > start:
                return False
        for _, batch_offset in history:
            if not data_start <= batch_offset < start:
                return False
        self._index = _PackedNodeIndex(node_blob, n_nodes)
        self._root_history = history
        self._last_root = history[-1][0] if history else KECCAK_EMPTY_RLP
        self.stats.batches_recovered = len(history)
        # strip the footer: the live file is a pure batch log again, so
        # appends and any later torn-tail recovery see the format unchanged
        self._log.truncate(start)
        return True

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def _recover(self) -> None:
        """Rebuild the index: footer seek when intact, else a streaming scan.

        The scan path truncates everything after the longest valid batch
        prefix.  Validity is per-batch: marker present, all fields
        complete, CRC matches.  The scan is strictly front-to-back, so a
        corrupt byte in batch *k* invalidates batches *k..n* — later
        batches may reference nodes from the damaged one, so the committed
        root they advertise is not resolvable and keeping them would serve
        broken proofs.

        The scan *streams*: batches are parsed straight off the file handle
        with an incremental CRC, so recovering a log far bigger than RAM
        costs O(one node) of memory for values plus the offset index — the
        whole point of the disk backend is state that does not fit in
        memory, and that must include the restart path.
        """
        total = self._log.size()
        offset = len(MAGIC)
        pruned = self._scan_pruned_record(offset)
        if pruned == "torn":
            # the front record is written atomically with the compacted
            # log, so damage here is external corruption: nothing after it
            # is trustworthy
            self._log.truncate(offset, torn=True)
            return
        if pruned is not None:
            self._pruned_order, offset = pruned
            self._pruned_set = set(self._pruned_order)
        if self._try_indexed_open(offset, total):
            self.opened_indexed = True
            return
        index: dict[bytes, tuple[int, int]] = {}
        for start, (entries, root) in self._log.scan(offset, self._scan_batch):
            index.update(entries)
            self._root_history.append((root, start))
            self._last_root = root
        self._index = index
        self.stats.batches_recovered = len(self._root_history)

    def _scan_pruned_record(self, offset: int):
        """Parse the optional ``0xB5`` record at ``offset``.

        Returns None when absent (the byte there starts a batch or the
        footer, or the log ends), ``"torn"`` when present but damaged, or
        ``(roots, next_offset)``.
        """
        head = self._log.read_at(offset, 1 + _U32.size)
        if head[:1] != _PRUNED_MARKER:
            return None
        if len(head) != 1 + _U32.size:
            return "torn"
        (count,) = _U32.unpack_from(head, 1)
        if count > _PRUNED_CAP:
            return "torn"
        body = self._log.read_at(offset + len(head),
                                 count * _HASH_LEN + _U32.size)
        if len(body) != count * _HASH_LEN + _U32.size:
            return "torn"
        payload, stored = body[:-_U32.size], body[-_U32.size:]
        if zlib.crc32(head + payload) != _U32.unpack(stored)[0]:
            return "torn"
        roots = [payload[i:i + _HASH_LEN]
                 for i in range(0, len(payload), _HASH_LEN)]
        return roots, offset + len(head) + len(body)

    def _scan_batch(self, read: Callable[[int], bytes], offset: int, total: int
                    ) -> Optional[tuple[tuple[dict[bytes, tuple[int, int]],
                                              bytes], int]]:
        """Stream-parse one batch at ``offset`` (:meth:`LogFile.scan`'s
        parser): ((entries, root), next offset).

        Returns None on any short read, bad marker, or CRC mismatch.  The
        CRC is fed incrementally, so only one value is resident at a time.
        """
        header = read(1 + _U32.size)
        if len(header) != 1 + _U32.size or header[:1] != _BATCH_MARKER:
            return None
        crc = zlib.crc32(header)
        (count,) = _U32.unpack_from(header, 1)
        pos = offset + 1 + _U32.size
        entries: dict[bytes, tuple[int, int]] = {}
        for _ in range(count):
            entry_header = read(_HASH_LEN + _U32.size)
            if len(entry_header) != _HASH_LEN + _U32.size:
                return None
            crc = zlib.crc32(entry_header, crc)
            key = entry_header[:_HASH_LEN]
            (length,) = _U32.unpack_from(entry_header, _HASH_LEN)
            pos += _HASH_LEN + _U32.size
            if pos + length > total:
                return None
            value = read(length)
            if len(value) != length:
                return None
            crc = zlib.crc32(value, crc)
            entries[key] = (pos, length)
            pos += length
        trailer = read(_HASH_LEN + _U32.size)
        if len(trailer) != _HASH_LEN + _U32.size:
            return None
        root = trailer[:_HASH_LEN]
        crc = zlib.crc32(root, crc)
        (stored_crc,) = _U32.unpack_from(trailer, _HASH_LEN)
        if crc != stored_crc:
            return None
        return (entries, root), pos + _HASH_LEN + _U32.size

    def __repr__(self) -> str:
        return (f"AppendOnlyFileStore({str(self.path)!r}, "
                f"entries={len(self._index)}, pending={len(self._pending)})")


def open_state_dir(state_dir: Union[str, os.PathLike]):
    """Open (or create) a full node's ``--state-dir`` as its paired logs.

    Returns ``(node_store, block_log)`` over ``<dir>/nodes.log`` and
    ``<dir>/blocks.log``, the complete durable footprint of a full node.
    The two logs are one durable unit: refusing a directory that holds
    exactly one of them is a bugfix — silently reinitializing the missing
    sibling desynchronizes the recovered ``last_root`` from the block-log
    head (or vice versa) and forces a surprise rewind on the *next*
    restart.  Both refusals (this one, and a ``state_dir`` that is a file:
    almost always a bare log passed where its directory was meant) happen
    before either file is created, so the directory is left as found.
    """
    from .blocklog import BlockLog

    state_dir = pathlib.Path(state_dir)
    if state_dir.exists() and not state_dir.is_dir():
        raise StoreError(
            f"{state_dir} exists but is not a directory — open a bare log "
            "by its own path, or move it into a state directory")
    nodes_path = state_dir / "nodes.log"
    blocks_path = state_dir / "blocks.log"
    if nodes_path.exists() != blocks_path.exists():
        present, missing = (
            (nodes_path, blocks_path) if nodes_path.exists()
            else (blocks_path, nodes_path))
        raise StoreError(
            f"state dir {state_dir} holds {present.name} but not "
            f"{missing.name}: the paired logs must be restored (and opened) "
            f"together — reinitializing {missing.name} would desynchronize "
            "the recovered state root from the chain head and force a "
            f"surprise rewind.  Restore {missing.name} from the same "
            f"snapshot, or remove {present.name} to start fresh."
        )
    store = AppendOnlyFileStore(nodes_path)
    try:
        block_log = BlockLog(blocks_path)
    except BaseException:
        store.close()
        raise
    return store, block_log
