"""Protocol-wide constants for PARP.

Field widths define the canonical wire layout of Fig. 3 and therefore the
message-size overheads of Table II:

* request metadata: α(16) ‖ h_B(32) ‖ a(16) ‖ h_req(32) ‖ σ_a(65) ‖ σ_req(65)
  = **226 bytes**,
* response metadata: status(1) ‖ m_B(8) ‖ a(16) ‖ h_req(32) ‖ σ_req(65) ‖
  σ_res(65) = **187 bytes** (the channel id is carried by the channel-scoped
  transport session and inside the signed pre-image, not resent on the wire).
"""

from __future__ import annotations

__all__ = [
    "ALPHA_BYTES",
    "AMOUNT_BYTES",
    "HASH_BYTES",
    "SIGNATURE_BYTES",
    "HEIGHT_BYTES",
    "STATUS_BYTES",
    "REQUEST_OVERHEAD_BYTES",
    "RESPONSE_OVERHEAD_BYTES",
    "MILLIS_BYTES",
    "OVERLOAD_OVERHEAD_BYTES",
    "BATCH_PROTOCOL_VERSION",
    "BATCH_REQUEST_OVERHEAD_BYTES",
    "BATCH_RESPONSE_OVERHEAD_BYTES",
    "DEFAULT_SELECTION_THRESHOLD",
    "DEFAULT_MIN_SESSIONS",
    "DEFAULT_CHANNEL_BUDGET",
    "MAX_AMOUNT",
    "MIN_FULL_NODE_DEPOSIT",
    "DISPUTE_WINDOW_BLOCKS",
    "UNBONDING_BLOCKS",
    "DEFAULT_HANDSHAKE_EXPIRY_SECONDS",
    "LIVENESS_PERIOD_SECONDS",
    "WEI_PER_TOKEN",
]

# -- wire-format field widths (Table II) ---------------------------------- #
ALPHA_BYTES = 16       # channel identifier α (uint128)
AMOUNT_BYTES = 16      # cumulative payment amount a (uint128)
HASH_BYTES = 32
SIGNATURE_BYTES = 65   # recoverable ECDSA (r ‖ s ‖ v)
HEIGHT_BYTES = 8       # block height m_B (uint64)
STATUS_BYTES = 1

REQUEST_OVERHEAD_BYTES = (
    ALPHA_BYTES + HASH_BYTES + AMOUNT_BYTES + HASH_BYTES
    + SIGNATURE_BYTES + SIGNATURE_BYTES
)  # = 226
RESPONSE_OVERHEAD_BYTES = (
    STATUS_BYTES + HEIGHT_BYTES + AMOUNT_BYTES + HASH_BYTES
    + SIGNATURE_BYTES + SIGNATURE_BYTES
)  # = 187

MAX_AMOUNT = (1 << (8 * AMOUNT_BYTES)) - 1

#: fixed-point u32 fields of the Overloaded reply (load factor, retry-after
#: seconds, fee multiplier — all in thousandths).
MILLIS_BYTES = 4
#: Overloaded reply wire size (it is all metadata — no payload):
#: status(1) ‖ m_B(8) ‖ load(4) ‖ retry_after(4) ‖ fee_mult(4) ‖ h_req(32) ‖
#: σ_ovl(65) = **118 bytes** — cheaper than any served response, which is the
#: point: shedding must cost the server (and the wire) less than serving.
OVERLOAD_OVERHEAD_BYTES = (
    STATUS_BYTES + HEIGHT_BYTES + 3 * MILLIS_BYTES + HASH_BYTES
    + SIGNATURE_BYTES
)  # = 118

# -- batched queries (multiproof extension) -------------------------------- #
#: the batch wire's version byte (2: σ_res signs the batch's Merkle root);
#: a node refuses any other on decode.
BATCH_PROTOCOL_VERSION = 2
#: batch request metadata: version(1) ‖ the 226 bytes of a single request.
BATCH_REQUEST_OVERHEAD_BYTES = 1 + REQUEST_OVERHEAD_BYTES  # = 227
#: batch response metadata layout matches a single response (187 bytes); the
#: per-item statuses/results/multiproof travel in the RLP payload.
BATCH_RESPONSE_OVERHEAD_BYTES = RESPONSE_OVERHEAD_BYTES

# -- marketplace (multi-server client) -------------------------------------- #
#: servers scoring below this are never selected; must stay at or below the
#: reputation ledger's ``newcomer_score`` or fresh servers could never join.
DEFAULT_SELECTION_THRESHOLD = 0.05
#: concurrent channels a marketplace client keeps open (≥2 gives it a warm
#: standby to fail over to mid-query without an on-chain round first).
DEFAULT_MIN_SESSIONS = 2
#: default budget locked into each marketplace payment channel.
DEFAULT_CHANNEL_BUDGET = 10 ** 15

# -- economics ------------------------------------------------------------- #
WEI_PER_TOKEN = 10 ** 18
#: collateral a full node must lock before it may serve (paper §IV-B).
MIN_FULL_NODE_DEPOSIT = 32 * WEI_PER_TOKEN

# -- on-chain timing --------------------------------------------------------- #
#: challenge period after a CloseChannel transaction (paper §IV-E.4).
DISPUTE_WINDOW_BLOCKS = 10
#: delay between a full node stopping service and withdrawing collateral.
UNBONDING_BLOCKS = 32

# -- off-chain timing -------------------------------------------------------- #
#: how long a full node's handshake confirmation stays redeemable.
DEFAULT_HANDSHAKE_EXPIRY_SECONDS = 120.0
#: cadence of the light client's channel liveness probe (paper §V-C).
LIVENESS_PERIOD_SECONDS = 30.0
