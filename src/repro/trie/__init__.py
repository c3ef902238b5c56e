"""Merkle Patricia Trie substrate: authenticated storage + Merkle proofs."""

from .mpt import (
    DEFAULT_NODE_CACHE_CAPACITY,
    EMPTY_TRIE_ROOT,
    MerklePatriciaTrie,
    TrieError,
)
from .nibbles import bytes_to_nibbles, hp_decode, hp_encode, nibbles_to_bytes
from .proof import (
    HashMemo,
    ProofError,
    ProofIndex,
    generate_multiproof,
    generate_proof,
    proof_size,
    verify_multiproof,
    verify_proof,
)
from .shard import (
    ShardError,
    ShardPool,
    ShardRange,
    extract_shard_nodes,
    shard_commitment,
    shard_head,
    shard_of_key,
    walk_state_nodes,
)

__all__ = [
    "MerklePatriciaTrie",
    "ShardError",
    "ShardRange",
    "ShardPool",
    "shard_of_key",
    "walk_state_nodes",
    "extract_shard_nodes",
    "shard_head",
    "shard_commitment",
    "DEFAULT_NODE_CACHE_CAPACITY",
    "EMPTY_TRIE_ROOT",
    "TrieError",
    "generate_proof",
    "verify_proof",
    "generate_multiproof",
    "verify_multiproof",
    "proof_size",
    "ProofError",
    "HashMemo",
    "ProofIndex",
    "bytes_to_nibbles",
    "nibbles_to_bytes",
    "hp_encode",
    "hp_decode",
]
