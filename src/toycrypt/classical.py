"""Historical ciphers: Caesar shift, scytale transposition, one-time pad.

The Caesar alphabet is the 26 Latin letters, rotated within each case
with Z wrapping to A; digits, accents and punctuation pass through.
The scytale writes the text row-wise onto rows as long as the rod's
circumference and reads it off column-wise.
"""

from __future__ import annotations

import re

_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_LOWER = _UPPER.lower()

SCYTALE_PAD_CHAR = "X"
_SCYTALE_MAGIC = "scytale v1"
_SCYTALE_HEADER = re.compile(re.escape(_SCYTALE_MAGIC) + r" k=([0-9]+) pad=([0-9]+)")


def caesar_encrypt(text: str, shift: int) -> str:
    """Shift every Latin letter `shift` places forward, preserving case."""
    s = shift % 26
    table = str.maketrans(
        _UPPER + _LOWER, _UPPER[s:] + _UPPER[:s] + _LOWER[s:] + _LOWER[:s]
    )
    return text.translate(table)


def caesar_decrypt(text: str, shift: int) -> str:
    """Inverse shift; decrypting with k is encrypting with 26 - k."""
    return caesar_encrypt(text, 26 - shift % 26)


def scytale_pad_count(length: int, circumference: int) -> int:
    """Pad characters needed to fill the final row of the grid."""
    _check_circumference(circumference)
    return -length % circumference


def _check_circumference(circumference: int) -> None:
    if circumference < 1:
        raise ValueError(f"circumference must be >= 1, got {circumference}")


def scytale_encrypt(text: str, circumference: int) -> str:
    """Write rows of `circumference` letters, read off the columns.

    The final row is filled with 'X'; the pad count travels in the
    framed form (scytale_frame), not in the bare ciphertext.
    """
    _check_circumference(circumference)
    k = circumference
    padded = text + SCYTALE_PAD_CHAR * (-len(text) % k)
    # column c is every k-th letter from c; an empty text has no columns
    return "".join(padded[c::k] for c in range(min(k, len(padded))))


def scytale_decrypt(text: str, circumference: int, pad: int = 0) -> str:
    """Invert the column read; strips `pad` fill characters from the end."""
    _check_circumference(circumference)
    k = circumference
    if len(text) % k:
        raise ValueError(f"ciphertext length {len(text)} not a multiple of {k}")
    if not 0 <= pad < k:
        raise ValueError(f"pad count {pad} out of range for circumference {k}")
    nrows = len(text) // k
    return "".join(text[r::nrows] for r in range(nrows))[: len(text) - pad]


def scytale_frame(text: str, circumference: int) -> str:
    """Self-describing form: 'scytale v1 k=K pad=P:' + ciphertext."""
    pad = scytale_pad_count(len(text), circumference)
    cipher = scytale_encrypt(text, circumference)
    return f"{_SCYTALE_MAGIC} k={circumference} pad={pad}:{cipher}"


def scytale_unframe(framed: str) -> str:
    """Recover the plaintext from the framed form."""
    head, sep, cipher = framed.partition(":")
    header = _SCYTALE_HEADER.fullmatch(" ".join(head.split()))
    if not sep or not header:
        raise ValueError(f"not a framed scytale message: {head!r}")
    return scytale_decrypt(cipher, int(header[1]), int(header[2]))


def otp_apply(data: bytes, key: bytes) -> bytes:
    """XOR data with the key prefix; self-inverse.

    The key must be at least as long as the data: a pad shorter than the
    message is the one thing a one-time pad must never have.
    """
    if len(key) < len(data):
        raise ValueError(f"key ({len(key)} bytes) shorter than data ({len(data)} bytes)")
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(key[:n], "big")).to_bytes(n, "big")
