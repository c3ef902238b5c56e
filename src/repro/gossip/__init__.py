"""Gossip subsystem: topic pub/sub over SimNetwork plus the two PARP
domains riding on it — push-based head propagation (``new_heads``) and
shared, stake-weighted reputation (``reputation``)."""

from .heads import (
    HEAD_ANNOUNCEMENT_DOMAIN,
    TOPIC_NEW_HEADS,
    HeadAnnouncement,
    HeadEquivocationProof,
    HeadGossip,
    announcement_digest,
)
from .pubsub import (
    DEFAULT_FANOUT,
    DEFAULT_TTL,
    GossipError,
    GossipMessage,
    GossipNode,
    connect_mesh,
)
from .repshare import (
    GOSSIPABLE_KINDS,
    TOPIC_REPUTATION,
    ReputationGossip,
    ReputationShare,
    reputation_digest,
)

__all__ = [
    "GossipError",
    "GossipMessage",
    "GossipNode",
    "connect_mesh",
    "DEFAULT_FANOUT",
    "DEFAULT_TTL",
    "TOPIC_NEW_HEADS",
    "HEAD_ANNOUNCEMENT_DOMAIN",
    "announcement_digest",
    "HeadAnnouncement",
    "HeadEquivocationProof",
    "HeadGossip",
    "TOPIC_REPUTATION",
    "GOSSIPABLE_KINDS",
    "reputation_digest",
    "ReputationGossip",
    "ReputationShare",
]
