"""SHA-1, implemented from scratch, bit-exact against the FIPS 180 family.

SHA-1 is cryptographically deprecated; collision weaknesses drove the
migration to longer digests.  It is kept here because this toolkit
demonstrates the hash-then-sign workflow, not because it should protect
anything.

It has one schedule kernel and two round kernels.  `_schedule` expands the
message schedules of many blocks side by side, one block per 64-bit lane
of the same big-int operands.  `_rounds` is the lane kernel: `digests`
runs it on independent equal-length messages, one per lane, and every
lane stays below 2**64.  `_chained_rounds` is the kernel of a streaming
hash (`Sha1`, and so `sha1`): one message, whose blocks chain.  It holds a
and b as doubled words, the word in both 32-bit halves, so each rotation
is one shift, and it runs five rounds per step on renamed registers, not
rotated ones.  The bits above the low word are garbage, and harmless: only
the exact doubled words are shifted right, every other step is bitwise or
an addition whose carries only move upward, and a mask cuts them off.
Every operand stays below 2**65.
"""

from __future__ import annotations

import itertools
import struct

from ._record import record

DIGEST_BYTES = 20
BLOCK_BYTES = 64
MAX_MESSAGE_BYTES = 1 << 61

_INITIAL_STATE = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
_MASK = 0xFFFFFFFF
_K = (0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6)  # each for 20 rounds
_KT = [k for k in _K for _ in range(20)]  # K_t of round t
_DOUBLE = (1 << 32) + 1  # word * _DOUBLE holds the word in both 32-bit halves


@record
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


def _schedule(words, mask: int) -> list[int]:
    """The 80-word message schedule W of FIPS 180-4 section 6.1.2, lane-packed.

    `words` are a block's 16 big-endian words, one block per 64-bit lane,
    and `mask` has 0xFFFFFFFF in every lane.  W16..W79 depend on the block's
    own words alone, never on the chained state, so the schedules of any
    number of blocks expand side by side.
    """
    w = list(words)
    for t in range(16, 80):
        x = w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]
        w.append(((x << 1) | (x >> 31)) & mask)
    return w


def _rounds(state: tuple[int, ...], w, mask: int, ones: int) -> tuple[int, ...]:
    """The 80 chained rounds of one SHA-1 compression, for many messages at once.

    Each operand is an int whose 64-bit lanes each hold one 32-bit word of
    an independent message: `w` is the block's expanded schedule from
    `_schedule`, `mask` has 0xFFFFFFFF in every lane and `ones` has 1 in
    every lane.  A rotation or sum stays inside its lane until it is masked:
    the largest shifted operand, `b << 30`, reaches bit 61 and a sum of five
    words bit 34, so both stay below 2**64 and every lane computes its own
    SHA-1.  This is the lane kernel of `digests`; a streaming hash, one
    message, runs `_chained_rounds` instead.
    """
    a, b, c, d, e = state
    k = _K[0] * ones
    for x in w[:20]:
        a, b, c, d, e = (
            (((a << 5) | (a >> 27)) & mask) + (d ^ (b & (c ^ d))) + e + k + x
        ) & mask, a, ((b << 30) | (b >> 2)) & mask, c, d
    k = _K[1] * ones
    for x in w[20:40]:
        a, b, c, d, e = (
            (((a << 5) | (a >> 27)) & mask) + (b ^ c ^ d) + e + k + x
        ) & mask, a, ((b << 30) | (b >> 2)) & mask, c, d
    k = _K[2] * ones
    for x in w[40:60]:
        a, b, c, d, e = (
            (((a << 5) | (a >> 27)) & mask) + ((b & c) | (d & (b | c))) + e + k + x
        ) & mask, a, ((b << 30) | (b >> 2)) & mask, c, d
    k = _K[3] * ones
    for x in w[60:]:
        a, b, c, d, e = (
            (((a << 5) | (a >> 27)) & mask) + (b ^ c ^ d) + e + k + x
        ) & mask, a, ((b << 30) | (b >> 2)) & mask, c, d
    return tuple((s + v) & mask for s, v in zip(state, (a, b, c, d, e)))


def _chained_rounds(state: tuple[int, ...], wk) -> tuple[int, ...]:
    """The 80 rounds of one SHA-1 compression of one message, on doubled words.

    The words in the roles of a and b are held doubled, as
    `aa = a * (2**32 + 1)`: the word in both 32-bit halves.  Then the low
    word of `aa >> 27` is rotl5(a) and that of `bb >> 2` is rotl30(b), the
    next c, so each rotation is one shift, and only the new a and the final
    sums are masked.  The bits above the low word are garbage, and harmless:
    only aa and bb are shifted right, and they are exact; every other step
    is bitwise or an addition, whose carries only move upward, so the low
    32 bits of every result are exact.  aa and bb stay below 2**64, c, d
    and e below 2**62, wk below 2**33, and a sum of four terms below 2**65,
    so every operand is a small int of at most three 30-bit digits.

    Five rounds are written out per step, and the registers trade roles
    rather than move down one place: each round stores the new aa in the
    register that held e and shifts the one that held bb in place, which
    makes it c.  After five rounds every name holds its own role again; a
    phase of 20 rounds is four steps.

    `wk[t]` is `w[t] + K_t`: the caller adds the round constants to the
    schedule, which a run of blocks does once for all of them, in lanes.
    The result is that of `_rounds(state, w, _MASK, 1)`.
    """
    a, b, c, d, e = state
    mask, double = _MASK, _DOUBLE
    a, b = a * double, b * double
    for i in range(0, 20, 5):
        e, b = (((a >> 27) + (d ^ (b & (c ^ d))) + e + wk[i]) & mask) * double, b >> 2
        d, a = (((e >> 27) + (c ^ (a & (b ^ c))) + d + wk[i + 1]) & mask) * double, a >> 2
        c, e = (((d >> 27) + (b ^ (e & (a ^ b))) + c + wk[i + 2]) & mask) * double, e >> 2
        b, d = (((c >> 27) + (a ^ (d & (e ^ a))) + b + wk[i + 3]) & mask) * double, d >> 2
        a, c = (((b >> 27) + (e ^ (c & (d ^ e))) + a + wk[i + 4]) & mask) * double, c >> 2
    for i in range(20, 40, 5):
        e, b = (((a >> 27) + (b ^ c ^ d) + e + wk[i]) & mask) * double, b >> 2
        d, a = (((e >> 27) + (a ^ b ^ c) + d + wk[i + 1]) & mask) * double, a >> 2
        c, e = (((d >> 27) + (e ^ a ^ b) + c + wk[i + 2]) & mask) * double, e >> 2
        b, d = (((c >> 27) + (d ^ e ^ a) + b + wk[i + 3]) & mask) * double, d >> 2
        a, c = (((b >> 27) + (c ^ d ^ e) + a + wk[i + 4]) & mask) * double, c >> 2
    for i in range(40, 60, 5):
        e, b = (((a >> 27) + ((b & c) | (d & (b | c))) + e + wk[i]) & mask) * double, b >> 2
        d, a = (((e >> 27) + ((a & b) | (c & (a | b))) + d + wk[i + 1]) & mask) * double, a >> 2
        c, e = (((d >> 27) + ((e & a) | (b & (e | a))) + c + wk[i + 2]) & mask) * double, e >> 2
        b, d = (((c >> 27) + ((d & e) | (a & (d | e))) + b + wk[i + 3]) & mask) * double, d >> 2
        a, c = (((b >> 27) + ((c & d) | (e & (c | d))) + a + wk[i + 4]) & mask) * double, c >> 2
    for i in range(60, 80, 5):
        e, b = (((a >> 27) + (b ^ c ^ d) + e + wk[i]) & mask) * double, b >> 2
        d, a = (((e >> 27) + (a ^ b ^ c) + d + wk[i + 1]) & mask) * double, a >> 2
        c, e = (((d >> 27) + (e ^ a ^ b) + c + wk[i + 2]) & mask) * double, e >> 2
        b, d = (((c >> 27) + (d ^ e ^ a) + b + wk[i + 3]) & mask) * double, d >> 2
        a, c = (((b >> 27) + (c ^ d ^ e) + a + wk[i + 4]) & mask) * double, c >> 2
    return tuple((s + v) & mask for s, v in zip(state, (a, b, c, d, e)))


def _lane_ones(count: int) -> int:
    """1 in each of count 64-bit lanes."""
    return int.from_bytes((1).to_bytes(8, "big") * count, "big")


def _lane_words(data: bytes, stride: int):
    """Yield the 16 lane-packed words of each block of messages `stride` bytes apart.

    Message i fills lane i of every word: 4 zero bytes, then the 4 bytes of
    its word as they stand in data.  Both sides are viewed as 4-byte items,
    so one strided copy fills one word's lanes for all the messages at once.
    """
    word = memoryview(data).cast("I")
    step = stride // 4
    lanes = bytearray(8 * (len(data) // stride))
    low = memoryview(lanes).cast("I")[1::2]
    for first in range(0, step, 16):
        words = []
        for at in range(first, first + 16):
            low[:] = word[at::step]
            words.append(int.from_bytes(lanes, "big"))
        yield words


def _padding(length: int) -> bytes:
    """0x80, zeros up to 56 mod 64, then the bit length as 8 bytes big-endian."""
    return b"\x80" + bytes((55 - length) % BLOCK_BYTES) + struct.pack(">Q", 8 * length)


# Most blocks whose schedules _compress expands in one _schedule call.  Timed
# again with the doubled-word rounds (paired, against 32): a 16 KiB message
# hashed as fast with runs of 64 to 256 blocks, 4% slower with 16 and 7% with
# 8; 64 KiB and 1 MB hashed no faster with runs of 64 or 128, whose operands
# spill out of the CPU cache.
_RUN_BLOCKS = 32


def _schedules(run: bytes):
    """The schedule of each 64-byte block of run plus K_t, expanded side by side.

    Its own function so that one run's lanes are freed before the next run
    is packed, which keeps the extra memory bounded by _RUN_BLOCKS.
    """
    count = len(run) // BLOCK_BYTES
    (words,) = _lane_words(run, BLOCK_BYTES)  # block i in lane i
    ones = _lane_ones(count)
    # each W_t + K_t < 2**33 stays in its lane
    w = [x + k * ones for x, k in zip(_schedule(words, _MASK * ones), _KT)]
    flat = struct.unpack(f">{80 * count}Q", b"".join([x.to_bytes(8 * count, "big") for x in w]))
    # W_t + K_t of block i is flat[t * count + i]
    return [flat[i::count] for i in range(count)]


def _compress(state: tuple[int, ...], data: bytes) -> tuple[tuple[int, ...], bytes]:
    """Compress each whole 64-byte block of data in turn: (new state, the rest).

    The schedules of a run of up to _RUN_BLOCKS blocks are expanded side by
    side; only the rounds are chained, block by block, in _chained_rounds.
    """
    whole = len(data) - len(data) % BLOCK_BYTES
    for start in range(0, whole, _RUN_BLOCKS * BLOCK_BYTES):
        for w in _schedules(data[start : min(start + _RUN_BLOCKS * BLOCK_BYTES, whole)]):
            state = _chained_rounds(state, w)
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
        # a refused update, too long or not bytes, leaves the context as it was
        length = self._length + len(data)
        if length >= MAX_MESSAGE_BYTES:
            raise ValueError("message too long for SHA-1")
        self._state, self._buffer = _compress(self._state, self._buffer + data)
        self._length = length
        return self

    def digest(self) -> Digest:
        state, _ = _compress(self._state, self._buffer + _padding(self._length))
        return Digest(struct.pack(">5I", *state))


def sha1(message: bytes) -> Digest:
    """One-shot SHA-1 of a byte string."""
    return Sha1(message).digest()


# Most messages that digests hashes side by side in one pass of the kernels.
_BATCH_MESSAGES = 1024


def digests(messages) -> bytes:
    """SHA-1 of equal-length messages, hashed side by side; digests concatenated.

    `messages` is any iterable; it is read _BATCH_MESSAGES at a time, and
    message i of a batch is lane i of every `_schedule` and `_rounds`
    operand, so one pass of the two kernels hashes the whole batch.  The
    rounds fit independent messages only, such as the counter blocks of a
    keystream.  A streaming hash (Sha1) chains each block's rounds on the
    state the previous block left, so only its schedules go side by side:
    it expands those of a run of its blocks in lanes, then runs the rounds
    one block at a time.
    """
    messages = iter(messages)
    out = bytearray()
    length = None
    while batch := list(itertools.islice(messages, _BATCH_MESSAGES)):
        length = len(batch[0]) if length is None else length
        if any(len(m) != length for m in batch):
            raise ValueError("messages hashed side by side must all have the same length")
        out += _lane_digests(batch, length)
    return bytes(out)


def _lane_digests(messages: list[bytes], length: int) -> bytearray:
    """The digests of messages, each `length` bytes, one message per lane."""
    pad = _padding(length)
    stride = length + len(pad)
    count = len(messages)
    ones = _lane_ones(count)
    mask = _MASK * ones
    state = tuple(h * ones for h in _INITIAL_STATE)
    for words in _lane_words(pad.join(messages) + pad, stride):  # message i at i * stride
        state = _rounds(state, _schedule(words, mask), mask, ones)
    out = bytearray(DIGEST_BYTES * count)
    for i, word in enumerate(state):
        packed = word.to_bytes(8 * count, "big")
        for j in range(4):
            out[4 * i + j :: DIGEST_BYTES] = packed[4 + j :: 8]
    return out


def hex_upper(d: Digest) -> str:
    """Render a digest as 40 uppercase hex characters."""
    return d.data.hex().upper()


def parse_hex(text: str) -> Digest:
    """Parse exactly 40 hex characters (either case) into a Digest."""
    if len(text) != 2 * DIGEST_BYTES:
        raise ValueError(f"digest text must be {2 * DIGEST_BYTES} chars, got {len(text)}")
    return Digest(bytes.fromhex(text))
