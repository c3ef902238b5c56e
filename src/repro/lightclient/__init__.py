"""Light-client substrate: header chain, multi-source sync, checkpoint
sync, and the proof walks the PARP verifiers stand on (``verify``)."""

from .checkpoint import (
    Checkpoint,
    CheckpointSource,
    CheckpointSyncer,
    RangeUpdate,
    is_better_update,
)
from .headerchain import HeaderChain, HeaderChainError
from .sync import HeaderSource, HeaderSyncer, SyncError

__all__ = [
    "Checkpoint",
    "CheckpointSource",
    "CheckpointSyncer",
    "HeaderChain",
    "HeaderChainError",
    "HeaderSource",
    "HeaderSyncer",
    "RangeUpdate",
    "SyncError",
    "is_better_update",
]
