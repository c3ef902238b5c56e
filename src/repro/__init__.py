"""repro — a full Python reproduction of PARP, the Permissionless
Accountable RPC Protocol for blockchain networks (ICDCS 2025).

Layering (bottom up):

* :mod:`repro.crypto`, :mod:`repro.rlp`, :mod:`repro.trie` — Ethereum
  primitives implemented from scratch (Keccak-256, secp256k1 ECDSA with
  recovery, RLP, Merkle Patricia Tries with proofs).
* :mod:`repro.storage` — pluggable node-store backends for the tries:
  in-memory (dict) or an append-only disk log with crash-safe commits.
* :mod:`repro.chain`, :mod:`repro.vm`, :mod:`repro.contracts` — the
  devnet chain, the gas-metered contract runtime, and the three PARP
  on-chain modules (deposits, channels, fraud detection).
* :mod:`repro.parp` — the protocol itself: light-client sessions, serving
  engines, payment channels, fraud proofs, witnesses, plus reputation,
  one of the paper's future-work sketches.
* :mod:`repro.net`, :mod:`repro.node`, :mod:`repro.lightclient` — the
  simulated network and node assemblies everything runs on.

Quickstart: ``PYTHONPATH=src python examples/quickstart.py`` (add
``--state-dir DIR`` for a disk-backed node).  ``examples/`` holds the other
demos; the benchmark harness lives under ``benchmarks/``, with the models
only a benchmark runs: the plain JSON-RPC baseline (``benchmarks/jsonrpc.py``)
and PCN routing (``benchmarks/pcn.py``).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
