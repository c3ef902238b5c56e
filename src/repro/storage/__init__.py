"""Persistent storage backends: trie node stores and the block log.

The tries write committed nodes through a :class:`NodeStore`;
:class:`MemoryNodeStore` keeps the seed's dict behaviour and
:class:`AppendOnlyFileStore` puts the state on disk with crash-safe,
checksummed commit batches.  :class:`BlockLog` is the sibling log that
persists headers/bodies/receipts so a full node can restart at its head.
``open_state_dir`` opens a ``--state-dir`` (``nodes.log`` + ``blocks.log``)
as one unit, refusing a directory that holds only one of the two logs.

Three modules share the durable-log job: :mod:`~repro.storage.logfile`
owns *the file* (``LogFile``, not exported: header, append, recovery scan,
atomic rewrite — every ``fsync`` / ``rename`` / ``truncate`` of the
package), :mod:`~repro.storage.filestore` the framing of ``nodes.log`` and
the index built on it, :mod:`~repro.storage.blocklog` the framing of
``blocks.log`` and the chain linkage check.

Compaction lives here too: :class:`RetentionPolicy` (archive vs the
newest K blocks — a chain's setting: stores carry no policy, and only
``Blockchain`` takes one), :func:`compact_node_store` (rewrite the log
down to the live node set of the roots the chain keeps, atomically), and
:class:`PrunedRootError` (the typed answer for history a pruning node
deliberately dropped).
"""

from .blocklog import (
    BLOCK_LOG_MAGIC,
    BlockLog,
    BlockLogAnchor,
    BlockLogStats,
)
from .compaction import (
    CompactionReport,
    RetentionPolicy,
    compact_node_store,
    live_state_nodes,
)
from .filestore import (
    AppendOnlyFileStore,
    FileStoreStats,
    MAGIC,
    open_state_dir,
)
from .nodestore import (
    MemoryNodeStore,
    NodeStore,
    PrunedRootError,
    StoreError,
)

__all__ = [
    "NodeStore",
    "MemoryNodeStore",
    "AppendOnlyFileStore",
    "FileStoreStats",
    "BlockLog",
    "BlockLogAnchor",
    "BlockLogStats",
    "StoreError",
    "PrunedRootError",
    "RetentionPolicy",
    "CompactionReport",
    "compact_node_store",
    "live_state_nodes",
    "open_state_dir",
    "MAGIC",
    "BLOCK_LOG_MAGIC",
]
