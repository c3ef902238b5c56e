"""The PARP handshake (Algorithm 1, Initialization phase).

Before any channel exists, the light client and full node agree on the
connection: the LC announces itself (``HANDSHAKE``), the FN answers with a
signed, expiring consent (``HSCONFIRM`` carrying ``Sign((LC ‖ expiryDate),
sk_FN)``).  That signature is the FN's *commitment to serve* — the CMM
refuses to open a channel without it, which is what makes channel creation
a mutual-consent act even though only the LC deposits funds (§V-B.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import Signature, SignatureError, keccak256, recover_address
from ..crypto.keys import Address, PrivateKey
from .constants import ALPHA_BYTES
from .messages import handshake_digest

__all__ = ["HandshakeError", "Handshake", "HandshakeConfirm", "OpenChannelReceipt"]


class HandshakeError(Exception):
    """Raised when a handshake message fails validation."""


@dataclass(frozen=True)
class Handshake:
    """``msg ⟨HANDSHAKE, LC⟩`` — the light client announces itself."""

    light_client: Address


@dataclass(frozen=True)
class HandshakeConfirm:
    """``msg ⟨HSCONFIRM, pk_FN, expiryDate, Sign((LC ‖ expiryDate), sk_FN)⟩``."""

    full_node: Address
    expiry: int          # unix timestamp after which the consent is void
    signature: bytes     # 65-byte recoverable signature

    @classmethod
    def build(cls, fn_key: PrivateKey, light_client: Address,
              expiry: int) -> "HandshakeConfirm":
        signature = fn_key.sign(handshake_digest(light_client, expiry)).to_bytes()
        return cls(full_node=fn_key.address, expiry=expiry, signature=signature)

    def verify(self, light_client: Address) -> None:
        """Line 11 of Algorithm 1: check the confirmation signature.
        Hint-less: ``full_node`` is what the message says of itself, the
        client holds it only from here on."""
        try:
            signer = recover_address(
                handshake_digest(light_client, self.expiry),
                Signature.from_bytes(self.signature),
            )
        except (SignatureError, ValueError) as exc:
            raise HandshakeError(f"malformed confirmation signature: {exc}") from exc
        if signer != self.full_node:
            raise HandshakeError("confirmation was not signed by the full node")


@dataclass(frozen=True)
class OpenChannelReceipt:
    """``TxReceipt ⟨OpenChannel, Sign(channelId, sk_FN), channelId⟩``.

    After relaying the LC's OpenChannel transaction, the full node returns
    the assigned channel id counter-signed — the LC's proof that the FN
    acknowledges the channel (Algorithm 1, line 17).
    """

    channel_id: bytes
    signature: bytes

    @classmethod
    def build(cls, fn_key: PrivateKey, channel_id: bytes) -> "OpenChannelReceipt":
        if len(channel_id) != ALPHA_BYTES:
            raise HandshakeError(f"channel id must be {ALPHA_BYTES} bytes")
        signature = fn_key.sign(keccak256(channel_id)).to_bytes()
        return cls(channel_id=channel_id, signature=signature)

    def verify(self, full_node: Address) -> None:
        """Line 18 of Algorithm 1: check the channel-id signature."""
        if len(self.channel_id) != ALPHA_BYTES:
            raise HandshakeError(f"channel id must be {ALPHA_BYTES} bytes")
        try:
            signer = recover_address(
                keccak256(self.channel_id), Signature.from_bytes(self.signature),
                full_node,
            )
        except (SignatureError, ValueError) as exc:
            raise HandshakeError(f"malformed receipt signature: {exc}") from exc
        if signer != full_node:
            raise HandshakeError("channel receipt was not signed by the full node")
