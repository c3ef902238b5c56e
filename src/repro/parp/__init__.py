"""PARP — the Permissionless Accountable RPC Protocol (the paper's core).

Public API tour:

* :class:`LightClientSession` — connect, pay-per-request, verify, close.
* :class:`FullNodeServer` — the serving engine a staked full node runs.
* :class:`WitnessService` — submits fraud proofs for rewards.
* :mod:`repro.parp.messages` — the wire format of Fig. 3.
* :mod:`repro.parp.verification` — the §V-D response classification.

Attributes resolve lazily (PEP 562): the on-chain modules in
:mod:`repro.contracts` import PARP wire-format submodules, so eagerly
importing the whole protocol stack here would create an import cycle.
"""

from importlib import import_module

_EXPORTS = {
    # client
    "LightClientSession": "client", "ServerEndpoint": "client",
    "RequestOutcome": "client", "SessionError": "client",
    "InvalidResponse": "client", "FraudDetected": "client",
    "ServerOverloaded": "client",
    "BatchItem": "client", "BatchOutcome": "client",
    "PendingQuery": "client",
    # server
    "FullNodeServer": "server", "ServeError": "server", "ServerStats": "server",
    # admission
    "AdmissionConfig": "admission", "AdmissionController": "admission",
    "AdmissionDecision": "admission",
    # channel state
    "ClientChannel": "channel", "ServerChannel": "channel", "ChannelError": "channel",
    # handshake
    "Handshake": "handshake", "HandshakeConfirm": "handshake",
    "OpenChannelReceipt": "handshake", "HandshakeError": "handshake",
    # messages
    "PARPRequest": "messages", "PARPResponse": "messages", "RpcCall": "messages",
    "BatchRequest": "messages", "BatchResponse": "messages",
    "ResponseStatus": "messages", "MessageError": "messages",
    "OverloadedReply": "messages",
    # pricing
    "FeeSchedule": "pricing", "FlatFeeSchedule": "pricing",
    "CallBasedFeeSchedule": "pricing", "DEFAULT_FEE_SCHEDULE": "pricing",
    "REFERENCE_BASKET": "pricing",
    "RepricedFeeSchedule": "pricing", "load_multiplier": "pricing",
    "MULTIPLIER_SCALE": "pricing",
    # marketplace
    "Marketplace": "marketplace", "MarketplaceClient": "marketplace",
    "MarketplaceError": "marketplace", "MarketplaceStats": "marketplace",
    "ServerAdvertisement": "marketplace", "HedgeAttempt": "marketplace",
    "NoServerForKey": "marketplace", "ShardScatterError": "marketplace",
    "ScatterOutcome": "marketplace", "ShardLeg": "marketplace",
    # channel liveness probe (§V-C)
    "LivenessMonitor": "liveness", "LivenessAlert": "liveness",
    "LivenessObservation": "liveness",
    # sharding
    "shard_key_of_call": "sharding",
    # reputation
    "ReputationLedger": "reputation", "ReputationEvent": "reputation",
    "EVENT_WEIGHTS": "reputation", "EVENT_KINDS": "reputation",
    "EVENT_SERVED_OK": "reputation", "EVENT_CHANNEL_SETTLED": "reputation",
    "EVENT_INVALID_RESPONSE": "reputation", "EVENT_FRAUD_DETECTED": "reputation",
    "EVENT_FRAUD_SLASHED": "reputation", "EVENT_EQUIVOCATION": "reputation",
    "EVENT_TIMEOUT": "reputation", "EVENT_OVERLOADED": "reputation",
    "SOFT_EVENT_KINDS": "reputation",
    # fraud proofs
    "FraudProofPackage": "fraudproof", "FraudProofError": "fraudproof",
    "WitnessService": "fraudproof", "build_fraud_package": "fraudproof",
    # verification
    "VerificationReport": "verification", "classify_response": "verification",
    "classify_batch_response": "verification",
    # states
    "LightClientState": "states", "FullNodeState": "states",
    "ChannelStatus": "states", "ResponseClass": "states",
    # constants
    "MIN_FULL_NODE_DEPOSIT": "constants", "DISPUTE_WINDOW_BLOCKS": "constants",
    "REQUEST_OVERHEAD_BYTES": "constants", "RESPONSE_OVERHEAD_BYTES": "constants",
    "BATCH_PROTOCOL_VERSION": "constants",
    "DEFAULT_SELECTION_THRESHOLD": "constants",
    "DEFAULT_MIN_SESSIONS": "constants", "DEFAULT_CHANNEL_BUDGET": "constants",
    # proof of serving
    "ServingReceipt": "proof_of_serving", "ReceiptValidator": "proof_of_serving",
    "EpochClaim": "proof_of_serving", "RewardPool": "proof_of_serving",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.parp' has no attribute {name!r}")
    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
