"""Merkle proofs of (non-)inclusion for the Merkle Patricia Trie.

A proof for key ``k`` is the ordered list of RLP-encoded trie nodes on the
path from the root to ``k``'s leaf (or to the point where the path provably
diverges).  A verifier that only knows the 32-byte root — a PARP light client
holding a block header, or the on-chain Fraud Detection Module — can check
the proof without any other state:  each node must hash (keccak256) to the
reference held by its parent, and the first node must hash to the root.

This is exactly the ``π_γ`` field of a PARP response (paper Fig. 3) and the
object whose size Figure 6 sweeps.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from ..crypto.keccak import keccak256
from ..rlp import codec as rlp
from .mpt import EMPTY_TRIE_ROOT, MerklePatriciaTrie
from .nibbles import bytes_to_nibbles, hp_decode

__all__ = [
    "ProofError",
    "ProofIndex",
    "generate_proof",
    "verify_proof",
    "generate_multiproof",
    "verify_multiproof",
    "proof_size",
]

_BLANK = b""


class ProofError(Exception):
    """Raised when a Merkle proof is malformed or inconsistent with the root."""


def generate_proof(trie: MerklePatriciaTrie, key: bytes) -> list[bytes]:
    """Collect the hash-referenced nodes on the path of ``key``.

    Works for both present keys (inclusion) and absent keys (exclusion: the
    proof shows the path dead-ends).  Inlined sub-32-byte nodes are embedded
    in their parents' encodings and therefore not listed separately.

    Fast path: the proof's node *bytes* come straight from the trie's backing
    store, while traversal runs over the trie's decoded-node cache
    (:meth:`~repro.trie.mpt.MerklePatriciaTrie.load_node`), so serving a hot
    key costs dictionary lookups instead of one ``rlp.decode`` per node per
    request.  A node missing from the store mid-walk is a corrupt-store
    condition and is reported as a :class:`ProofError` carrying the root, the
    key, and the depth at which proving failed.
    """
    proof: list[bytes] = []
    root_hash = trie.root_hash  # commits any pending overlay writes
    if root_hash == EMPTY_TRIE_ROOT:
        return proof
    path = bytes_to_nibbles(key)
    ref: rlp.Item = root_hash
    while True:
        if isinstance(ref, bytes):
            if ref == _BLANK:
                return proof
            encoded = trie.db.get(ref)
            if encoded is None:
                raise ProofError(
                    f"missing trie node {ref.hex()} while proving key "
                    f"{key.hex()} under root {root_hash.hex()} "
                    f"(depth {len(proof)})"
                )
            proof.append(encoded)
            # cached decode; on a miss the bytes just fetched are decoded
            # in place instead of re-reading the store
            node = trie.load_node(ref, encoded)
        else:
            node = ref  # inline node: already part of the parent's encoding
        if len(node) == 17:
            if not path:
                return proof
            ref = node[path[0]]
            path = path[1:]
            continue
        node_path, is_leaf = hp_decode(node[0])
        if is_leaf:
            return proof
        if path[: len(node_path)] != node_path:
            return proof
        ref = node[1]
        path = path[len(node_path):]


#: a branch as its 17-item list, or a leaf/extension as
#: ``(nibble path, is_leaf, value-or-child)``
_Node = Union[list, tuple]


def _check_node(item: rlp.Item) -> _Node:
    """Validate a decoded node's shape; every malformation is a ProofError.

    A node that authenticates can still be garbage (the signer chose the
    root's preimage, or the trie holds what no honest writer stores), and a
    verifier must classify it, not crash on it.  Returns the node in the
    form the walk reads (see ``_Node``).
    """
    if not isinstance(item, list) or len(item) not in (2, 17):
        raise ProofError("malformed trie node in proof")
    if len(item) == 17:
        if not isinstance(item[16], bytes):
            raise ProofError("branch value is not a byte string")
        return item
    encoded_path, payload = item
    if not isinstance(encoded_path, bytes):
        raise ProofError("node path is not a byte string")
    try:
        node_path, is_leaf = hp_decode(encoded_path)
    except ValueError as exc:
        raise ProofError(f"malformed node path: {exc}") from exc
    if is_leaf and not isinstance(payload, bytes):
        raise ProofError("leaf value is not a byte string")
    return node_path, is_leaf, payload


class ProofIndex(tuple):
    """A proof's nodes, each hashed exactly once.

    It *is* the proof — a tuple of the encoded nodes in wire order, equal to
    and usable as the plain sequence — carrying the one lookup a verifier
    walks: a node is reachable only under ``keccak256`` of its own encoding,
    so whatever a walk resolves is authenticated by the reference that led
    to it.  Building the index is the only hashing verification does; a
    response whose items share a node pool (or whose verifier walks two
    tries) builds it once and hands it to every walk.
    """

    def __new__(cls, nodes: Iterable[bytes]) -> "ProofIndex":
        self = super().__new__(cls, nodes)
        self._encoded = {keccak256(encoded): encoded for encoded in self}
        return self

    @classmethod
    def of(cls, proof: Sequence[bytes]) -> "ProofIndex":
        """``proof`` itself when it already is an index, else one built from it."""
        return proof if isinstance(proof, cls) else cls(proof)

    def node(self, node_hash: bytes) -> _Node:
        """The decoded, shape-checked node whose encoding hashes to ``node_hash``."""
        encoded = self._encoded.get(node_hash)
        if encoded is None:
            raise ProofError(f"proof is missing node {node_hash.hex()}")
        try:
            item = rlp.decode(encoded)
        except rlp.RLPError as exc:
            raise ProofError(f"undecodable proof node: {exc}") from exc
        return _check_node(item)


def verify_proof(root_hash: bytes, key: bytes,
                 proof: Sequence[bytes]) -> Optional[bytes]:
    """Verify ``proof`` against ``root_hash`` for ``key``.

    Returns the proven value for an inclusion proof, or ``None`` for a valid
    exclusion proof.  Raises :class:`ProofError` when the proof does not
    authenticate against the root — for PARP this is the *fraud* signal of
    the "Verify Merkle Proof" check (§V-D).  ``proof`` is the node sequence;
    pass a :class:`ProofIndex` to share its hashing between calls.
    """
    if root_hash == EMPTY_TRIE_ROOT:
        if proof:
            raise ProofError("non-empty proof against the empty trie root")
        return None
    return _walk(root_hash, key, ProofIndex.of(proof))


def _walk(root_hash: bytes, key: bytes, index: ProofIndex) -> Optional[bytes]:
    """Walk ``key``'s path from ``root_hash`` using only indexed nodes."""
    path = bytes_to_nibbles(key)
    ref: rlp.Item = root_hash
    while True:
        node = _resolve_ref(ref, index)
        if node is None:  # blank child: key proven absent
            return None
        if isinstance(node, list):
            if not path:
                return node[16] or None
            ref = node[path[0]]
            path = path[1:]
            continue
        node_path, is_leaf, payload = node
        if is_leaf:
            # a diverging leaf path is an exclusion
            return payload if node_path == path else None
        if path[: len(node_path)] != node_path:
            return None  # extension mismatch: exclusion
        ref = payload
        path = path[len(node_path):]


def generate_multiproof(trie: MerklePatriciaTrie,
                        keys: Iterable[bytes]) -> list[bytes]:
    """One proof for many keys: the union of the per-key path nodes.

    Keys under the same state root share their upper trie levels, so the
    multiproof is (often dramatically) smaller than the concatenation of the
    individual proofs — this is the dedup that shrinks the Fig. 6 proof-size
    metric for batched PARP queries.  Node order is deterministic: first
    appearance along the walks of ``keys`` in the order given.
    """
    proof: list[bytes] = []
    seen: set[bytes] = set()
    for key in keys:
        for encoded in generate_proof(trie, key):
            if encoded not in seen:
                seen.add(encoded)
                proof.append(encoded)
    return proof


def verify_multiproof(root_hash: bytes, keys: Sequence[bytes],
                      proof: Sequence[bytes]) -> dict[bytes, Optional[bytes]]:
    """Verify a multiproof; returns ``{key: value-or-None}`` for every key.

    Each key's path is walked independently against the shared node pool, so
    a valid multiproof answers exactly what the per-key proofs would
    (inclusion value, or ``None`` for a proven absence).  Raises
    :class:`ProofError` when any key's path needs a node the pool does not
    authenticate — a tampered or truncated pool cannot mislead the verifier,
    only fail it.
    """
    if root_hash == EMPTY_TRIE_ROOT:
        if proof:
            raise ProofError("non-empty proof against the empty trie root")
        return {key: None for key in keys}
    index = ProofIndex.of(proof)
    return {key: _walk(root_hash, key, index) for key in keys}


def _resolve_ref(ref: rlp.Item, index: ProofIndex) -> Optional[_Node]:
    """Resolve a child reference using only proof-supplied, hash-checked nodes."""
    if isinstance(ref, list):
        return _check_node(ref)  # inline node, authenticated by its parent's hash
    if ref == _BLANK:
        return None
    if len(ref) != 32:
        raise ProofError(f"invalid node reference of {len(ref)} bytes")
    return index.node(ref)


def proof_size(proof: list[bytes]) -> int:
    """Total byte size of a proof — the quantity plotted in Figure 6."""
    return sum(len(node) for node in proof)
