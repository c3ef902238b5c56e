"""Merkle proofs of (non-)inclusion for the Merkle Patricia Trie.

A proof for key ``k`` is the ordered list of RLP-encoded trie nodes on the
path from the root to ``k``'s leaf (or to the point where the path provably
diverges).  A verifier that only knows the 32-byte root — a PARP light client
holding a block header, or the on-chain Fraud Detection Module — can check
the proof without any other state:  each node must hash (keccak256) to the
reference held by its parent, and the first node must hash to the root.

This is exactly the ``π_γ`` field of a PARP response (paper Fig. 3) and the
object whose size Figure 6 sweeps.

Every proof travels as a :class:`ProofIndex`, the one place a proof node is
ever hashed.  A prover names its nodes by the references it fetched them by
and hashes nothing; a verifier hashes each node once, through the bounded
:class:`HashMemo` it owns, and every walk — and the response signature,
which commits to the node hashes (:mod:`repro.parp.messages`) — reads that
index.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from ..crypto.keccak import keccak256, keccak256_many
from ..metrics.cache import LRUCache
from ..rlp import codec as rlp
from .mpt import EMPTY_TRIE_ROOT, MerklePatriciaTrie
from .nibbles import bytes_to_nibbles, hp_decode

__all__ = [
    "ProofError",
    "HashMemo",
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


def generate_proof(trie: MerklePatriciaTrie, key: bytes) -> "ProofIndex":
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

    Nothing is hashed: the store is content-addressed, so the reference each
    node was fetched by *is* its hash, and the returned :class:`ProofIndex`
    carries it.
    """
    return ProofIndex.by_reference(_path_nodes(trie, key))


def _path_nodes(trie: MerklePatriciaTrie, key: bytes) -> list[tuple[bytes, bytes]]:
    """``(reference, encoded node)`` down the path of ``key``, root first."""
    proof: list[tuple[bytes, bytes]] = []
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
            proof.append((ref, encoded))
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


#: entries a verifier's memo holds, and the longest input it keeps: a full
#: branch of a secure trie encodes to 532 bytes, so a full memo stays near
#: 5 MB whatever a peer sends
HASH_MEMO_CAPACITY = 8192
HASH_MEMO_MAX_INPUT = 532


class _PlainKeccak:
    """Plain ``keccak256`` / ``keccak256_many``, looked up per call: a counter
    that replaces the module attributes sees every hash a plain index makes."""

    def __call__(self, data: bytes) -> bytes:
        return keccak256(data)

    def many(self, items: Iterable[bytes]) -> list[bytes]:
        return keccak256_many(items)


_keccak256 = _PlainKeccak()


class HashMemo:
    """``keccak256`` behind a bounded, content-keyed LRU.

    Owned by one verifying party (a light-client session, or the sessions
    of one marketplace client): hot upper trie levels and Zipf-hot secure
    keys come back in response after response, and a verifier that already
    hashed those bytes need not hash them again.  The key is the preimage
    itself, so a hit is exactly as binding as a fresh hash.  It is never
    shared with a prover — what a server's trie commits hashed must not
    count as verified by a client in the same process.

    A response is indexed before its signature is checked, so what goes in
    is peer-chosen: inputs longer than :data:`HASH_MEMO_MAX_INPUT` (a long
    transaction or receipt leaf, or junk) are hashed and not kept, which
    bounds the memo in bytes.  A peer can still push the hot set out with
    many small junk nodes; that costs the verifier re-hashing, nothing else.
    """

    def __init__(self) -> None:
        self.cache: LRUCache = LRUCache(capacity=HASH_MEMO_CAPACITY)

    def __call__(self, data: bytes) -> bytes:
        if len(data) > HASH_MEMO_MAX_INPUT:
            return keccak256(data)
        return self.cache.get_or_put(data, lambda: keccak256(data))

    def many(self, items: Sequence[bytes]) -> list[bytes]:
        """``[self(data) for data in items]``, with the inputs the memo does
        not hold hashed side by side."""
        found = {data: self.cache.get(data) for data in items
                 if len(data) <= HASH_MEMO_MAX_INPUT}
        missing = [data for data in dict.fromkeys(items)
                   if found.get(data) is None]
        for data, digest in zip(missing, keccak256_many(missing)):
            found[data] = digest
            if len(data) <= HASH_MEMO_MAX_INPUT:
                self.cache.put(data, digest)
        return [found[data] for data in items]


class ProofIndex(tuple):
    """A proof's nodes, each hashed exactly once.

    It *is* the proof — a tuple of the encoded nodes in wire order, equal to
    and usable as the plain sequence — carrying :attr:`hashes`, the
    ``keccak256`` of each node in the same order (duplicates kept: this is
    what a response signature commits to), and the one lookup a verifier
    walks: a node is reachable only under the hash of its own encoding, so
    whatever a walk resolves is authenticated by the reference that led to
    it.  Building the index is the only hashing a proof ever costs; slices
    and concatenations of indexes carry their hashes along.

    ``keccak`` is the hash the index was built with — plain ``keccak256``,
    a verifier's :class:`HashMemo`, or the metered builtin of an on-chain
    verifier — and the one a walk derives its secure trie keys with.
    """

    hashes: tuple[bytes, ...]
    keccak: Callable[[bytes], bytes]

    def __new__(cls, nodes: Iterable[bytes],
                keccak: Optional[Callable[[bytes], bytes]] = None,
                ) -> "ProofIndex":
        nodes = tuple(nodes)
        if keccak is None:
            keccak = _keccak256
        many = getattr(keccak, "many", None)    # a metered hash has none
        hashes = many(nodes) if many is not None else map(keccak, nodes)
        return cls._build(nodes, tuple(hashes), keccak)

    @classmethod
    def _build(cls, nodes: Iterable[bytes], hashes: tuple[bytes, ...],
               keccak: Callable[[bytes], bytes] = _keccak256) -> "ProofIndex":
        self = super().__new__(cls, nodes)
        self.hashes = hashes
        self.keccak = keccak
        self._encoded = None  # {hash: node}, built by the first walk
        self._decoded = None  # {hash: checked node} while walks share decodes
        return self

    @classmethod
    def by_reference(cls, pairs: Iterable[tuple[bytes, bytes]]) -> "ProofIndex":
        """The index of ``(reference, encoded node)`` pairs read from a
        content-addressed store, where the reference is the node's hash:
        the prover's constructor, which hashes nothing."""
        pairs = tuple(pairs)
        refs, nodes = zip(*pairs) if pairs else ((), ())
        return cls._build(nodes, refs)

    @classmethod
    def of(cls, proof: Sequence[bytes]) -> "ProofIndex":
        """``proof`` itself when it already is an index, else one built from it."""
        return proof if isinstance(proof, cls) else cls(proof)

    @classmethod
    def merge(cls, proofs: Iterable[Sequence[bytes]]) -> "ProofIndex":
        """One pool holding each node of ``proofs`` once, in first-use
        order, with the hash its proof already holds: the multiproof."""
        pool: dict[bytes, bytes] = {}
        for proof in proofs:
            proof = cls.of(proof)
            for encoded, node_hash in zip(proof, proof.hashes):
                pool.setdefault(encoded, node_hash)
        return cls._build(pool.keys(), tuple(pool.values()))

    def __add__(self, other: Sequence[bytes]) -> "ProofIndex":
        """Concatenation, order and duplicates kept (an account proof
        followed by a storage proof); only nodes not yet indexed are hashed."""
        if not isinstance(other, ProofIndex):
            other = ProofIndex(other, self.keccak)
        return self._build(tuple.__add__(self, other),
                           self.hashes + other.hashes, self.keccak)

    # equal to a list of the same nodes too: callers compare a proof with
    # list literals and with ``list(other_proof)``

    def __eq__(self, other: object) -> bool:
        return tuple.__eq__(
            self, tuple(other) if isinstance(other, list) else other)

    def __ne__(self, other: object) -> bool:
        return tuple.__ne__(
            self, tuple(other) if isinstance(other, list) else other)

    __hash__ = tuple.__hash__

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self._build(super().__getitem__(item), self.hashes[item],
                               self.keccak)
        return super().__getitem__(item)

    def node(self, node_hash: bytes) -> _Node:
        """The decoded, shape-checked node whose encoding hashes to ``node_hash``."""
        shared = self._decoded
        if shared is not None and node_hash in shared:
            return shared[node_hash]
        if self._encoded is None:
            self._encoded = dict(zip(self.hashes, self))
        encoded = self._encoded.get(node_hash)
        if encoded is None:
            raise ProofError(f"proof is missing node {node_hash.hex()}")
        try:
            item = rlp.decode(encoded)
        except rlp.RLPError as exc:
            raise ProofError(f"undecodable proof node: {exc}") from exc
        node = _check_node(item)
        if shared is not None:
            shared[node_hash] = node
        return node

    @contextmanager
    def sharing_decodes(self) -> Iterator[dict]:
        """While open, a node is decoded for the first walk that crosses it
        and read by the rest (a walk edits none); nothing is kept after.
        Yields ``{hash: node}`` of every node the walks read, which is what
        the on-chain verifier charges its proof-verify gas by."""
        self._decoded = {}
        try:
            yield self._decoded
        finally:
            self._decoded = None


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
                        keys: Iterable[bytes]) -> ProofIndex:
    """One proof for many keys: the union of the per-key path nodes.

    Keys under the same state root share their upper trie levels, so the
    multiproof is (often dramatically) smaller than the concatenation of the
    individual proofs — this is the dedup that shrinks the Fig. 6 proof-size
    metric for batched PARP queries.  Node order is deterministic: first
    appearance along the walks of ``keys`` in the order given.
    """
    return ProofIndex.merge(generate_proof(trie, key) for key in keys)


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


def proof_size(proof: Sequence[bytes]) -> int:
    """Total byte size of a proof — the quantity plotted in Figure 6."""
    return sum(len(node) for node in proof)
