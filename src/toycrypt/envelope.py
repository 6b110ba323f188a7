"""Hybrid envelopes and hash-then-sign signatures.

seal/open: a fresh 256-bit session key encrypts the bulk of the message
with a fast symmetric keystream, and only that short key rides under RSA.
sign/verify: the RSA private operation is applied to the SHA-1 digest of
the text, which travels in the clear next to its signature; flipping a
single bit anywhere falsifies verification.

The keystream is SHA-1 in counter mode, XORed onto the message.  It stands
in for a real symmetric cipher and is neither authenticated nor
production-grade; tampering with the body flips plaintext bits silently,
which is exactly the contrast with signatures this module demonstrates.

The counter blocks are independent of each other (NIST SP 800-38A, 6.5),
so the keystream hashes a batch of them side by side, one message per lane
of the same big-int operands.  The hash under sign/verify is one streaming
SHA-1, which chains each 64-byte block on the state the previous one left.
Only its rounds are chained, though: the message schedules of a run of
blocks are expanded side by side in the same lanes, and then the rounds
run once per block, in order, in a kernel of their own that holds words
doubled (the word in both 32-bit halves) so that each rotation is one
shift; the garbage above the low word never reaches it.
"""

from __future__ import annotations

import random
import re

from . import bigmod, rsa
from ._record import record
from .classical import otp_apply
from .rsa import BlockStream, RsaPrivateKey, RsaPublicKey
from .sha1 import DIGEST_BYTES, digests, sha1

SESSION_KEY_BYTES = 32
_MIN_SIGNER_MODULUS = 1 << (8 * DIGEST_BYTES)

_ENVELOPE_MAGIC = "envelope v1"
_SIGNED_MAGIC = b"signed v1"
_HEX_BODY = re.compile("[0-9a-fA-F]*")  # either case, as bigmod.parse_natural


class WrongKeyError(ValueError):
    """The wrapped session key did not decrypt to a valid key."""


@record
class Envelope:
    wrapped_key: BlockStream
    body: bytes


@record
class SignedMessage:
    text: bytes
    signature: int


def new_session_key(rng=None) -> bytes:
    """Fresh 256-bit symmetric key drawn from the rng."""
    rng = rng or random.SystemRandom()
    return rng.getrandbits(8 * SESSION_KEY_BYTES).to_bytes(SESSION_KEY_BYTES, "big")


def keystream(session_key: bytes, length: int) -> bytes:
    """Deterministic byte stream: SHA-1(key || counter) blocks, truncated.

    The counter is 8 bytes big-endian starting at 0, one digest per 20
    output bytes.  Counter blocks do not depend on each other, so they are
    hashed side by side by `sha1.digests`.
    """
    if len(session_key) != SESSION_KEY_BYTES:
        raise ValueError(f"session key must be {SESSION_KEY_BYTES} bytes, got {len(session_key)}")
    bigmod.check_natural(length, "length")
    blocks = range(-(-length // DIGEST_BYTES))
    return digests(session_key + counter.to_bytes(8, "big") for counter in blocks)[:length]


def seal(message: bytes, recipient: RsaPublicKey, rng=None) -> Envelope:
    """Encrypt for the recipient: fresh session key, keystream body, RSA-wrapped key."""
    rng = rng or random.SystemRandom()
    session_key = new_session_key(rng)
    wrapped = rsa.encrypt_message(session_key, recipient)
    body = otp_apply(message, keystream(session_key, len(message)))
    return Envelope(wrapped_key=wrapped, body=body)


def open_envelope(env: Envelope, recipient_priv: RsaPrivateKey) -> bytes:
    """Unwrap the session key with the private key and strip the keystream."""
    try:
        session_key = rsa.decrypt_message(env.wrapped_key, recipient_priv)
    except ValueError as exc:
        raise WrongKeyError(f"cannot unwrap session key: {exc}") from exc
    if len(session_key) != SESSION_KEY_BYTES:
        raise WrongKeyError(
            f"unwrapped key is {len(session_key)} bytes, expected {SESSION_KEY_BYTES}"
        )
    return otp_apply(env.body, keystream(session_key, len(env.body)))


def sign(text: bytes, signer: RsaPrivateKey) -> SignedMessage:
    """Hash the text and apply the private operation to the digest.

    Deterministic: the same text under the same key always yields the same
    signature.  The signer's modulus must exceed 2**160 so the digest fits
    in a single block.
    """
    if signer.n <= _MIN_SIGNER_MODULUS:
        raise ValueError(f"signer modulus must exceed 2**{8 * DIGEST_BYTES}")
    digest_value = sha1(text).as_int()
    return SignedMessage(text=text, signature=rsa.private_op(digest_value, signer))


def verify(msg: SignedMessage, signer: RsaPublicKey) -> bool:
    """True iff the public operation on the signature recovers the text's digest."""
    if not 0 <= msg.signature < signer.n:
        return False
    return rsa.public_op(msg.signature, signer) == sha1(msg.text).as_int()


# --- file formats -----------------------------------------------------------
#
# Envelope: "envelope v1", the wrapped-key block stream, then the body as a
# single lowercase-hex line.  Signed message: "signed v1", the hex
# signature, a blank line, then the raw text bytes.


def write_envelope(env: Envelope) -> str:
    return (
        f"{_ENVELOPE_MAGIC}\n"
        + rsa.write_block_stream(env.wrapped_key)
        + env.body.hex()
        + "\n"
    )


def read_envelope(text: str) -> Envelope:
    lines = text.splitlines()
    if not lines or lines[0].strip() != _ENVELOPE_MAGIC:
        raise ValueError("not an envelope file")
    if len(lines) < 3:
        raise ValueError("truncated envelope file")
    wrapped = rsa.read_block_stream("\n".join(lines[1:-1]))
    body = lines[-1].strip()
    if not _HEX_BODY.fullmatch(body):  # bytes.fromhex would skip inner whitespace
        raise ValueError("envelope body must be hex digits only")
    return Envelope(wrapped_key=wrapped, body=bytes.fromhex(body))


def write_signed(msg: SignedMessage) -> bytes:
    return _SIGNED_MAGIC + b"\n" + f"{msg.signature:#x}".encode() + b"\n\n" + msg.text


def read_signed(data: bytes) -> SignedMessage:
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != _SIGNED_MAGIC or parts[2] != b"":
        raise ValueError("not a signed-message file")
    return SignedMessage(text=parts[3], signature=bigmod.parse_natural(parts[1].decode()))
