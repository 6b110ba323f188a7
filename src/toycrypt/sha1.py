"""SHA-1, implemented from scratch, bit-exact against the FIPS 180 family.

SHA-1 is cryptographically deprecated; collision weaknesses drove the
migration to longer digests.  It is kept here because this toolkit
demonstrates the hash-then-sign workflow, not because it should protect
anything.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

DIGEST_BYTES = 20
BLOCK_BYTES = 64
MAX_MESSAGE_BYTES = 1 << 61

_INITIAL_STATE = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
_MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class Digest:
    """A 160-bit digest; canonical text form is 40 uppercase hex chars."""

    data: bytes

    def __post_init__(self):
        if len(self.data) != DIGEST_BYTES:
            raise ValueError(f"digest must be {DIGEST_BYTES} bytes, got {len(self.data)}")

    def as_int(self) -> int:
        return int.from_bytes(self.data, "big")

    def __str__(self) -> str:
        return hex_upper(self)


def _rounds(state: tuple[int, ...], words, mask: int, ones: int) -> tuple[int, ...]:
    """One SHA-1 compression of a 64-byte block, for many messages at once.

    Each operand is an int whose 64-bit lanes each hold one 32-bit word of
    an independent message: `words` are the block's 16 big-endian words,
    `mask` has 0xFFFFFFFF in every lane and `ones` has 1 in every lane.  A
    rotation or sum stays inside its lane until it is masked (`b << 30`
    reaches bit 61), so every lane computes its own SHA-1.  Plain SHA-1 is
    the one-lane case: mask 0xFFFFFFFF, ones 1.
    """
    w = list(words)
    for t in range(16, 80):
        x = w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]
        w.append(((x << 1) | (x >> 31)) & mask)
    a, b, c, d, e = state
    k = 0x5A827999 * ones
    for x in w[:20]:
        a, b, c, d, e = (
            (((a << 5) | (a >> 27)) & mask) + (d ^ (b & (c ^ d))) + e + k + x
        ) & mask, a, ((b << 30) | (b >> 2)) & mask, c, d
    k = 0x6ED9EBA1 * ones
    for x in w[20:40]:
        a, b, c, d, e = (
            (((a << 5) | (a >> 27)) & mask) + (b ^ c ^ d) + e + k + x
        ) & mask, a, ((b << 30) | (b >> 2)) & mask, c, d
    k = 0x8F1BBCDC * ones
    for x in w[40:60]:
        a, b, c, d, e = (
            (((a << 5) | (a >> 27)) & mask) + ((b & c) | (d & (b | c))) + e + k + x
        ) & mask, a, ((b << 30) | (b >> 2)) & mask, c, d
    k = 0xCA62C1D6 * ones
    for x in w[60:]:
        a, b, c, d, e = (
            (((a << 5) | (a >> 27)) & mask) + (b ^ c ^ d) + e + k + x
        ) & mask, a, ((b << 30) | (b >> 2)) & mask, c, d
    return tuple((s + v) & mask for s, v in zip(state, (a, b, c, d, e)))


def _padding(length: int) -> bytes:
    """0x80, zeros up to 56 mod 64, then the bit length as 8 bytes big-endian."""
    return b"\x80" + bytes((55 - length) % BLOCK_BYTES) + struct.pack(">Q", 8 * length)


def _compress(state: tuple[int, ...], data: bytes) -> tuple[tuple[int, ...], bytes]:
    """Compress each whole 64-byte block of data in turn: (new state, the rest)."""
    whole = len(data) - len(data) % BLOCK_BYTES
    for off in range(0, whole, BLOCK_BYTES):
        state = _rounds(state, struct.unpack_from(">16I", data, off), _MASK, 1)
    return state, data[whole:]


class Sha1:
    """Streaming digest context: update() any number of times, then digest().

    Single-owner mutable state; do not share a live context across threads.
    digest() does not consume the context, so interleaved reads are allowed.
    """

    def __init__(self, data: bytes = b""):
        self._state = _INITIAL_STATE
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Sha1":
        self._length += len(data)
        if self._length >= MAX_MESSAGE_BYTES:
            raise ValueError("message too long for SHA-1")
        self._state, self._buffer = _compress(self._state, self._buffer + data)
        return self

    def digest(self) -> Digest:
        state, _ = _compress(self._state, self._buffer + _padding(self._length))
        return Digest(struct.pack(">5I", *state))


def sha1(message: bytes) -> Digest:
    """One-shot SHA-1 of a byte string."""
    return Sha1(message).digest()


def digests(messages) -> bytes:
    """SHA-1 of equal-length messages, hashed side by side; digests concatenated.

    Message i is lane i of every `_rounds` operand, so one pass of the round
    kernel hashes them all.  This fits independent messages only, such as
    the counter blocks of a keystream; a streaming hash chains each block on
    the state the previous one left and has to go one block at a time.
    """
    messages = list(messages)
    if not messages:
        return b""
    length = len(messages[0])
    if any(len(m) != length for m in messages):
        raise ValueError("messages hashed side by side must all have the same length")
    pad = _padding(length)
    padded = pad.join(messages) + pad  # message i at i * stride
    stride = length + len(pad)
    count = len(messages)
    ones = int.from_bytes((1).to_bytes(8, "big") * count, "big")
    mask = _MASK * ones
    state = tuple(h * ones for h in _INITIAL_STATE)
    lanes = bytearray(8 * count)  # lane i: 4 zero bytes, then word bytes of message i
    for block in range(0, stride, BLOCK_BYTES):
        words = []
        for at in range(block, block + BLOCK_BYTES, 4):
            for j in range(4):
                lanes[4 + j :: 8] = padded[at + j :: stride]
            words.append(int.from_bytes(lanes, "big"))
        state = _rounds(state, words, mask, ones)
    out = bytearray(DIGEST_BYTES * count)
    for i, word in enumerate(state):
        packed = word.to_bytes(8 * count, "big")
        for j in range(4):
            out[4 * i + j :: DIGEST_BYTES] = packed[4 + j :: 8]
    return bytes(out)


def hex_upper(d: Digest) -> str:
    """Render a digest as 40 uppercase hex characters."""
    return d.data.hex().upper()


def parse_hex(text: str) -> Digest:
    """Parse exactly 40 hex characters (either case) into a Digest."""
    if len(text) != 2 * DIGEST_BYTES:
        raise ValueError(f"digest text must be {2 * DIGEST_BYTES} chars, got {len(text)}")
    return Digest(bytes.fromhex(text))
