"""Append-only, crash-safe chain-metadata log (blocks.log).

The node store (``nodes.log``) persists state trie nodes; this sibling log
persists everything else a restarting full node needs — headers, block
bodies, receipts — so the tx index and receipt map can be rebuilt and the
chain can reattach at its recovered head instead of refusing to start.

This module owns the record formats and the chain-structural checks; the
crash discipline of the file (create, append, recover, atomic rewrite) is
:mod:`~repro.storage.logfile`'s and is described there:

* **Data layout** — one log file: an 8-byte magic header, then (on a
  pruned log only) one *anchor record*::

      0xB4 | u32 first number | 32-byte genesis hash
           | 32-byte parent hash | u32 crc32

  then one record per sealed block::

      0xB2 | u32 number | u32 payload len | payload
           | 32-byte block hash | u32 crc32

  where ``payload = rlp([header, [tx…], [receipt…]])`` (each element the
  canonical encoding already used by the tx/receipt tries).  The CRC covers
  everything from the marker through the block hash.  The anchor is what
  :meth:`prune_to` leaves behind when it drops history below the retention
  window: the first retained number, the hash of the genesis block the log
  no longer physically holds (so reattach can still refuse a foreign
  directory), and the parent hash the first retained record must link to.

* **Write path** — :meth:`append` serializes the block into one buffer and
  lands it with a single :meth:`LogFile.append`.  The chain appends *after*
  the state commit fsyncs, so the block log can never be durably ahead of
  the node store: every recovered block's state root is resolvable (the
  node store is append-only, historical roots survive).

* **Recovery** — on open, :meth:`LogFile.scan` walks the records with
  :meth:`_scan_record` as its parser.  A short read, bad marker, CRC
  mismatch, undecodable payload, hash mismatch, or broken parent linkage
  ends the valid prefix — a crash mid-append loses only the block that was
  never acknowledged.
"""

from __future__ import annotations

import os
import pathlib
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, BinaryIO, Callable, Optional, Union

from ..rlp import codec as rlp
from .logfile import LogFile, state_dir_log
from .nodestore import StoreError

if TYPE_CHECKING:  # pragma: no cover — import cycle (chain → trie → storage)
    from ..chain.block import Block

__all__ = ["BlockLog", "BlockLogAnchor", "BlockLogStats", "open_block_log"]

#: file signature: PARP block log, format version 1
BLOCK_LOG_MAGIC = b"PARPBL01"
_RECORD_MARKER = b"\xb2"
_ANCHOR_MARKER = b"\xb4"
_U32 = struct.Struct("<I")
_HASH_LEN = 32
_PREFIX_LEN = 1 + 2 * _U32.size            # marker | number | payload len
_TRAILER_LEN = _HASH_LEN + _U32.size       # block hash | crc
_ANCHOR_LEN = 1 + _U32.size + 2 * _HASH_LEN + _U32.size


@dataclass
class BlockLogStats:
    """Operational counters surfaced to benches and the serving node.

    Like :class:`~repro.storage.filestore.FileStoreStats`, every counter
    is per-open: a fresh handle starts at zero regardless of how much
    history the file holds.
    """

    blocks_appended: int = 0
    bytes_appended: int = 0
    #: records found intact by the recovery scan on the most recent open
    blocks_recovered: int = 0
    #: torn/corrupt suffix bytes truncated away on the most recent open
    truncated_bytes: int = 0
    #: records dropped below the retention window by :meth:`BlockLog.prune_to`
    blocks_pruned: int = 0
    #: log bytes reclaimed by pruning
    bytes_reclaimed: int = 0


@dataclass(frozen=True)
class BlockLogAnchor:
    """What a pruned log remembers about the history it dropped."""

    #: number of the first record physically present
    first_number: int
    #: hash of block 0 — the chain-identity check for reattach
    genesis_hash: bytes
    #: parent hash the first retained record must link to
    parent_hash: bytes

    def encode(self) -> bytes:
        record = (_ANCHOR_MARKER + _U32.pack(self.first_number)
                  + self.genesis_hash + self.parent_hash)
        return record + _U32.pack(zlib.crc32(record))

    @classmethod
    def decode(cls, data: bytes) -> Optional["BlockLogAnchor"]:
        """Parse an anchor record; None when torn or corrupt."""
        if len(data) != _ANCHOR_LEN or data[:1] != _ANCHOR_MARKER:
            return None
        (stored_crc,) = _U32.unpack_from(data, _ANCHOR_LEN - _U32.size)
        if zlib.crc32(data[:-_U32.size]) != stored_crc:
            return None
        (first_number,) = _U32.unpack_from(data, 1)
        genesis = data[1 + _U32.size:1 + _U32.size + _HASH_LEN]
        parent = data[1 + _U32.size + _HASH_LEN:1 + _U32.size + 2 * _HASH_LEN]
        return cls(first_number=first_number, genesis_hash=genesis,
                   parent_hash=parent)


def _encode_block(block: "Block") -> bytes:
    return rlp.encode([
        block.header.encode(),
        [tx.encode() for tx in block.transactions],
        [receipt.encode() for receipt in block.receipts],
    ])


def _encode_record(block: "Block") -> bytes:
    """One complete on-disk record for ``block`` (marker through CRC)."""
    payload = _encode_block(block)
    record = bytearray()
    record += _RECORD_MARKER
    record += _U32.pack(block.number)
    record += _U32.pack(len(payload))
    record += payload
    record += block.hash
    record += _U32.pack(zlib.crc32(bytes(record)))
    return bytes(record)


def _decode_block(payload: bytes) -> "Block":
    # Deferred: repro.chain imports repro.trie imports repro.storage, so a
    # module-level import here would close the cycle.
    from ..chain.block import Block
    from ..chain.header import BlockHeader
    from ..chain.receipt import Receipt
    from ..chain.transaction import Transaction

    item = rlp.decode(payload)
    if not isinstance(item, list) or len(item) != 3:
        raise StoreError("block record payload must be a 3-item RLP list")
    header_b, tx_items, receipt_items = item
    if (not isinstance(header_b, bytes) or not isinstance(tx_items, list)
            or not isinstance(receipt_items, list)):
        raise StoreError("malformed block record payload")
    header = BlockHeader.decode(header_b)
    transactions = tuple(Transaction.decode(raw) for raw in tx_items)
    # The canonical receipt encoding carries only the cumulative gas; the
    # per-tx convenience field is re-derived from the running difference so
    # a restarted node serves byte- and field-identical receipts.
    receipts: list[Receipt] = []
    previous_cumulative = 0
    for raw in receipt_items:
        receipt = Receipt.decode(raw)
        receipts.append(Receipt(
            status=receipt.status,
            cumulative_gas_used=receipt.cumulative_gas_used,
            logs=receipt.logs,
            gas_used=receipt.cumulative_gas_used - previous_cumulative,
        ))
        previous_cumulative = receipt.cumulative_gas_used
    return Block(header=header, transactions=transactions,
                 receipts=tuple(receipts))


class BlockLog:
    """Durable block history over a single append-only log file.

    ``sync=False`` trades the per-append ``fsync`` for speed; the atomicity
    guarantee — recover to a complete block, never a torn record — holds
    either way because it comes from the CRC, not the fsync.
    """

    def __init__(self, path: Union[str, os.PathLike],
                 *, sync: bool = True) -> None:
        self.stats = BlockLogStats()
        #: the recovered (and since-appended) chain, oldest first — the
        #: same Block objects the Blockchain indexes, not copies
        self.blocks: list[Block] = []
        #: file offset where each record starts (parallel to ``blocks``),
        #: so a tail whose state the node store cannot resolve can be
        #: rewound record-precisely
        self._offsets: list[int] = []
        #: present iff history below some height was pruned away
        self.anchor: Optional[BlockLogAnchor] = None
        self._log = LogFile(path, BLOCK_LOG_MAGIC, "block log", self.stats,
                            sync=sync)
        self._log.open(self._recover)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def path(self) -> pathlib.Path:
        return self._log.path

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def last_number(self) -> Optional[int]:
        return self.blocks[-1].number if self.blocks else None

    @property
    def last_hash(self) -> Optional[bytes]:
        return self.blocks[-1].hash if self.blocks else None

    @property
    def first_number(self) -> int:
        """Number of the first block this log can replay (0 unless pruned)."""
        if self.anchor is not None:
            return self.anchor.first_number
        return self.blocks[0].number if self.blocks else 0

    @property
    def genesis_hash(self) -> Optional[bytes]:
        """Hash of block 0, even when pruning dropped the record itself."""
        if self.anchor is not None:
            return self.anchor.genesis_hash
        if self.blocks and self.blocks[0].number == 0:
            return self.blocks[0].hash
        return None

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def append(self, block: Block) -> None:
        """Append one sealed block as a checksummed, fsynced record."""
        if self.blocks:
            tip = self.blocks[-1]
            if block.number != tip.number + 1:
                raise StoreError(
                    f"block log expected number {tip.number + 1}, "
                    f"got {block.number}"
                )
            if block.header.parent_hash != tip.hash:
                raise StoreError(
                    f"block {block.number} does not link to the logged tip "
                    f"{tip.hash.hex()[:12]}"
                )
        elif self.anchor is not None:
            # an anchored-but-emptied log (every retained record rewound)
            # still enforces where history restarts
            if (block.number != self.anchor.first_number
                    or block.header.parent_hash != self.anchor.parent_hash):
                raise StoreError(
                    f"pruned block log restarts at number "
                    f"{self.anchor.first_number} linking to "
                    f"{self.anchor.parent_hash.hex()[:12]}, got block "
                    f"{block.number}"
                )
        record = _encode_record(block)
        with self._log.lock:
            base, _ = self._log.append(lambda fh, base: fh.write(record))
            self.blocks.append(block)
            self._offsets.append(base)
            self.stats.blocks_appended += 1
            self.stats.bytes_appended += len(record)

    def rewind(self, count: int) -> None:
        """Drop the last ``count`` records (truncate the file to match).

        Used on reattach when the tail of the log references state the node
        store cannot resolve (e.g. the operator restored ``nodes.log`` from
        an older copy than ``blocks.log``).
        """
        if count <= 0:
            return
        if count > len(self.blocks):
            raise StoreError(
                f"cannot rewind {count} blocks: log holds {len(self.blocks)}"
            )
        with self._log.lock:
            self._log.truncate(self._offsets[len(self.blocks) - count])
            del self.blocks[len(self.blocks) - count:]
            del self._offsets[len(self._offsets) - count:]

    def prune_to(self, first_number: int) -> int:
        """Drop every record below ``first_number``; returns the count dropped.

        The surviving history is rewritten — anchor record first, then the
        retained records — through :meth:`LogFile.rewrite`, so a crash at
        any byte offset leaves either the complete old log or the complete
        new one.

        The chain layer calls this *before* compacting ``nodes.log``: a
        crash between the two steps leaves the node store a superset of
        what this log references (harmless), never the reverse — so the
        log can never demand a pruned root.
        """
        with self._log.lock:
            self._log.require_writable("prune")
            current_first = self.first_number
            if first_number <= current_first:
                return 0
            if not self.blocks or first_number > self.blocks[-1].number:
                raise StoreError(
                    f"cannot prune to {first_number}: the log ends at "
                    f"{self.blocks[-1].number if self.blocks else current_first}"
                )
            genesis = self.genesis_hash
            if genesis is None:  # pragma: no cover - logs start at genesis
                raise StoreError(
                    f"block log {self.path} has no genesis binding to "
                    "carry through a prune")
            drop = first_number - self.blocks[0].number
            keep = self.blocks[drop:]
            anchor = BlockLogAnchor(
                first_number=first_number,
                genesis_hash=genesis,
                parent_hash=keep[0].header.parent_hash,
            )
            before = self._log.size()
            offsets: list[int] = []

            def write_body(out: BinaryIO) -> None:
                out.write(anchor.encode())
                for block in keep:
                    offsets.append(out.tell())
                    out.write(_encode_record(block))

            self._log.rewrite(write_body, "prune")
            self.blocks = list(keep)
            self._offsets = offsets
            self.anchor = anchor
            after = self._log.size()
            self.stats.blocks_pruned += drop
            self.stats.bytes_reclaimed += max(0, before - after)
            return drop

    def close(self) -> None:
        self._log.close()

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def _recover(self) -> None:
        """Rebuild the block list from the longest valid prefix.

        Validity is per-record *and* chain-structural: the CRC must match,
        the stored hash must equal the decoded header's hash, and each
        block must link to the previous record by number and parent hash.
        The scan is front-to-back, so the first bad record invalidates
        everything after it — later blocks build on the damaged one.
        """
        offset = len(BLOCK_LOG_MAGIC)
        # a pruned log leads with its anchor record; a torn anchor ends the
        # valid prefix before any block (the records after it link to an
        # unverifiable restart point)
        if self._log.read_at(offset, 1) == _ANCHOR_MARKER:
            self.anchor = BlockLogAnchor.decode(
                self._log.read_at(offset, _ANCHOR_LEN))
            if self.anchor is None:
                self._log.truncate(offset, torn=True)
                return
            offset += _ANCHOR_LEN
        for start, block in self._log.scan(offset, self._scan_record):
            self.blocks.append(block)
            self._offsets.append(start)
        self.stats.blocks_recovered = len(self.blocks)

    def _scan_record(self, read: Callable[[int], bytes], offset: int,
                     total: int) -> Optional[tuple[Block, int]]:
        """Parse one record at ``offset`` (:meth:`LogFile.scan`'s parser);
        returns (block, next offset) or None on any short read, bad marker,
        CRC mismatch, decode error, or a block that does not extend the
        records recovered before it."""
        prefix = read(_PREFIX_LEN)
        if len(prefix) != _PREFIX_LEN or prefix[:1] != _RECORD_MARKER:
            return None
        (number,) = _U32.unpack_from(prefix, 1)
        (payload_len,) = _U32.unpack_from(prefix, 1 + _U32.size)
        end = offset + _PREFIX_LEN + payload_len + _TRAILER_LEN
        if end > total:
            return None
        payload = read(payload_len)
        if len(payload) != payload_len:
            return None
        trailer = read(_TRAILER_LEN)
        if len(trailer) != _TRAILER_LEN:
            return None
        block_hash = trailer[:_HASH_LEN]
        (stored_crc,) = _U32.unpack_from(trailer, _HASH_LEN)
        crc = zlib.crc32(prefix)
        crc = zlib.crc32(payload, crc)
        crc = zlib.crc32(block_hash, crc)
        if crc != stored_crc:
            return None
        try:
            block = _decode_block(payload)
        except Exception:  # noqa: BLE001 — any decode failure ends the prefix
            return None
        if block.number != number or block.hash != block_hash:
            return None
        if self.blocks:
            tip = self.blocks[-1]
            if (block.number != tip.number + 1
                    or block.header.parent_hash != tip.hash):
                return None
        elif self.anchor is not None:
            if (block.number != self.anchor.first_number
                    or block.header.parent_hash != self.anchor.parent_hash):
                return None
        return block, end

    def __repr__(self) -> str:
        head = self.last_number if self.blocks else "empty"
        return f"BlockLog({str(self.path)!r}, head={head})"


def open_block_log(state_dir: Union[str, os.PathLike],
                   *, sync: bool = True) -> BlockLog:
    """Open (or create) the chain-metadata log of a node's ``--state-dir``.

    Lives next to ``nodes.log`` (see :func:`open_node_store`); together the
    two files are the complete durable footprint of a full node.
    """
    return BlockLog(state_dir_log(state_dir, "blocks.log"), sync=sync)
