"""Light-client substrate: header chain, multi-source sync, checkpoint
sync, and the proof walks the PARP verifiers stand on (``verify``)."""

from .checkpoint import Checkpoint, CheckpointSyncer
from .headerchain import HeaderChain, HeaderChainError
from .sync import HeaderSource, HeaderSyncer, SyncError, is_better_update

__all__ = [
    "Checkpoint",
    "CheckpointSyncer",
    "HeaderChain",
    "HeaderChainError",
    "HeaderSource",
    "HeaderSyncer",
    "SyncError",
    "is_better_update",
]
