"""Textbook RSA: keygen, raw block encryption, and byte-stream framing.

This is raw modular exponentiation with no padding scheme.  Deterministic,
malleable, and unsafe for real traffic by design: the goal is to make the
key mathematics visible, including the fact that knowing phi(N) gives the
factorization away (recover_primes).
"""

from __future__ import annotations

import functools
import math
import random
import re

import toycrypt

from . import bigmod
from ._record import record

DEFAULT_PUBLIC_EXPONENT = 65537
MIN_MODULUS = 257  # one plaintext byte per block
# keygen_random's bound on its search.  A pair fails only when p = q or
# gcd(e, phi) != 1.  For 16 to 19 bits and every e with a key, at least one
# pair in 61 succeeds (the worst is 16 bits with e = 105), so 1000 failures
# in a row happen by chance less than once in 10**7 searches.
MAX_PRIME_PAIRS = 1000
# The largest modulus keygen_random makes and either key record accepts.
# Seeded keys took 0.19 to 0.41 s at 2048 bits and 2.6 to 13 s at 4096
# (2 vCPUs, Python 3.11.7): that doubling cost about 20 times in the median.
MAX_MODULUS_BITS = bigmod.MAX_MODULUS_BITS


@record
class RsaPublicKey:
    """1 < e < n, n of at most MAX_MODULUS_BITS: 2**32768 + 1 with a long e held encrypt 103 s."""

    n: int
    e: int

    def __post_init__(self):
        bigmod.check_modulus_bits(self.n)
        if not 1 < self.e < self.n:
            raise ValueError(f"public exponent {self.e} out of range for modulus {self.n}")


@record
class RsaPrivateKey:
    """n = p*q for distinct primes p, q, and 0 < d < n; phi follows from p and q.

    Construction checks all the CRT needs, so a key that exists is valid: n of
    at most MAX_MODULUS_BITS first, then the structure, then numtheory.is_prime
    on p and q, which took 1.3 s on a 4096-bit prime but 40 us on a 512-bit one
    that random_prime drew, since it keeps its verdict (2 vCPUs, Python 3.11.7).
    """

    n: int
    d: int
    p: int
    q: int

    def __post_init__(self):
        bigmod.check_modulus_bits(self.n)
        if self.p < 2 or self.q < 2 or self.p == self.q or self.n != self.p * self.q:
            raise ValueError(f"n = {self.n} is not p*q for distinct p = {self.p}, q = {self.q} > 1")
        if not 0 < self.d < self.n:
            raise ValueError(f"private exponent {self.d} out of range for modulus {self.n}")
        for name, value in (("p", self.p), ("q", self.q)):
            if not toycrypt.numtheory.is_prime(value).is_prime:
                raise ValueError(f"{name} = {value} is not prime")

    @property
    def phi(self) -> int:
        return (self.p - 1) * (self.q - 1)

    @functools.cached_property
    def crt(self) -> tuple[int, int, int]:
        """(dP, dQ, qInv) of RFC 8017 section 3.2, derived on first use.

        dP is d reduced into [1, p-1] rather than [0, p-2]: it is congruent
        to d mod p-1, and never 0, so a block divisible by p still maps to 0.
        """
        d, p, q = self.d, self.p, self.q
        return (d - 1) % (p - 1) + 1, (d - 1) % (q - 1) + 1, bigmod.mod_inv(q, p).value


@record
class BlockStream:
    """Message framing: fixed-width big-endian blocks, zero right-padding.

    width is the plaintext block size in bytes; pad is how many fill bytes
    were appended to the final block.  blocks may hold plaintext values
    (below 256**width) or ciphertext values (below the modulus).
    """

    width: int
    pad: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        for b in self.blocks:
            bigmod.check_natural(b, "block")
        if self.width < 1:
            raise ValueError(f"block width must be >= 1, got {self.width}")
        if not 0 <= self.pad < self.width:
            raise ValueError(f"pad {self.pad} out of range for width {self.width}")
        if self.pad and not self.blocks:
            raise ValueError("padding recorded but no blocks present")


def _key_pair(p: int, q: int, e: int) -> tuple[RsaPublicKey, RsaPrivateKey]:
    # mod_inv raises NotInvertibleError, a ValueError, when gcd(e, phi) != 1
    n, phi = p * q, (p - 1) * (q - 1)
    if not 1 < e < phi:
        raise ValueError(f"public exponent must satisfy 1 < e < {phi}, got {e}")
    return RsaPublicKey(n, e), RsaPrivateKey(n, bigmod.mod_inv(e, phi).value, p, q)


def keygen_from_primes(p: int, q: int, e: int) -> tuple[RsaPublicKey, RsaPrivateKey]:
    """Key pair from two distinct primes and e: e is checked here, p and q by RsaPrivateKey."""
    if p == q:
        raise ValueError("p and q must be distinct")
    return _key_pair(p, q, e)


def keygen_random(
    modulus_bits: int, e: int = DEFAULT_PUBLIC_EXPONENT, rng=None
) -> tuple[RsaPublicKey, RsaPrivateKey]:
    """Random key pair whose modulus has exactly modulus_bits bits.

    p and q come from numtheory.random_prime, whose top two bits are set, so
    every pair gives a full-length modulus; a pair is drawn again only when
    p = q or gcd(e, phi) != 1.  e must be odd (phi is even), at least 3 and
    below 2**(modulus_bits-1).  Some small (modulus_bits, e) admit no key at
    all, such as 16 bits with e = 3045, so the search gives up with a
    ValueError after MAX_PRIME_PAIRS pairs.  Moduli above MAX_MODULUS_BITS
    are refused.
    """
    if not 16 <= modulus_bits <= MAX_MODULUS_BITS:
        raise ValueError(
            f"modulus must have 16 to {MAX_MODULUS_BITS} bits, got {modulus_bits}"
        )
    if e < 3 or e % 2 == 0 or e >= 1 << (modulus_bits - 1):
        raise ValueError(f"exponent {e} must be odd and in [3, 2**{modulus_bits - 1})")
    rng = rng or random.SystemRandom()
    p_bits = modulus_bits // 2
    q_bits = modulus_bits - p_bits
    for _ in range(MAX_PRIME_PAIRS):
        p = toycrypt.numtheory.random_prime(p_bits, rng)
        q = toycrypt.numtheory.random_prime(q_bits, rng)
        try:
            return _key_pair(p, q, e)
        except ValueError:
            continue
    raise ValueError(
        f"no {modulus_bits}-bit key for exponent {e} in {MAX_PRIME_PAIRS} prime pairs tried"
    )


def public_op(x: int, pub: RsaPublicKey) -> int:
    """Raw x**e mod N for 0 <= x < N: encryption and signature verification."""
    bigmod.check_int(x, "block")
    if not 0 <= x < pub.n:
        raise ValueError(f"block {x} not in [0, modulus {pub.n})")
    return bigmod.mod_pow(x, pub.e, pub.n).value


def private_op(x: int, priv: RsaPrivateKey) -> int:
    """Raw x**d mod N for 0 <= x < N: decryption and signing.

    By the Chinese remainder theorem (RFC 8017 section 5.1.2): x**dP mod p
    and x**dQ mod q, two exponentiations of half the size, joined by
    Garner's formula m2 + ((m1 - m2) * qInv mod p) * q.
    """
    bigmod.check_int(x, "block")
    if not 0 <= x < priv.n:
        raise ValueError(f"block {x} not in [0, modulus {priv.n})")
    dp, dq, q_inv = priv.crt
    m1 = bigmod.mod_pow(x, dp, priv.p).value
    m2 = bigmod.mod_pow(x, dq, priv.q).value
    return m2 + (m1 - m2) * q_inv % priv.p * priv.q


encrypt_block = public_op
decrypt_block = private_op


def block_width(n: int) -> int:
    """Plaintext bytes per block: the largest width with 256**w <= 2**(bits-1)."""
    bigmod.check_int(n, "modulus")
    if n < MIN_MODULUS:
        raise ValueError(f"modulus {n} too small to carry even one byte")
    return (n.bit_length() - 1) // 8


def encode_message(data: bytes, n: int) -> BlockStream:
    """Split bytes into numeric blocks strictly below the modulus."""
    w = block_width(n)
    pad = -len(data) % w
    padded = data + b"\x00" * pad
    blocks = tuple(
        int.from_bytes(padded[i : i + w], "big") for i in range(0, len(padded), w)
    )
    return BlockStream(width=w, pad=pad, blocks=blocks)


def decode_message(stream: BlockStream, n: int) -> bytes:
    """Reassemble bytes from a plaintext block stream; exact inverse of encode."""
    if stream.width != block_width(n):
        raise ValueError(
            f"stream width {stream.width} does not match modulus width {block_width(n)}"
        )
    out = bytearray()
    for b in stream.blocks:
        if b.bit_length() > 8 * stream.width:
            raise ValueError(f"corrupted stream: block {b} wider than {stream.width} bytes")
        out += b.to_bytes(stream.width, "big")
    if stream.blocks and stream.blocks[-1] % (1 << 8 * stream.pad):
        raise ValueError(f"corrupted stream: nonzero pad in final block {stream.blocks[-1]}")
    return bytes(out[: len(out) - stream.pad] if stream.pad else out)


def encrypt_message(data: bytes, pub: RsaPublicKey) -> BlockStream:
    """encode_message then the public operation on every block."""
    plain = encode_message(data, pub.n)
    cipher = tuple(encrypt_block(b, pub) for b in plain.blocks)
    return BlockStream(width=plain.width, pad=plain.pad, blocks=cipher)


def decrypt_message(stream: BlockStream, priv: RsaPrivateKey) -> bytes:
    """The private operation on every block, then decode_message."""
    plain = tuple(decrypt_block(b, priv) for b in stream.blocks)
    return decode_message(
        BlockStream(width=stream.width, pad=stream.pad, blocks=plain), priv.n
    )


def recover_primes(n: int, phi: int) -> tuple[int, int]:
    """Recover {p, q} from the modulus and phi(N).

    p and q are the roots of t**2 - (N - phi + 1)t + N, so leaking phi is
    exactly as bad as leaking the factorization.  The roots multiply back to
    N whenever they are whole: disc = s**2 - 4N has the parity of s**2, so r
    and s share parity and p*q = (s**2 - r**2)/4 = N.
    """
    s = n - phi + 1
    disc = s * s - 4 * n
    if disc < 0:
        raise ValueError("no factorization: negative discriminant")
    r = math.isqrt(disc)
    if r * r != disc:
        raise ValueError("no factorization: discriminant not a perfect square")
    p, q = (s - r) // 2, (s + r) // 2
    if p < 2:
        raise ValueError(f"no factorization: root {p} is below 2")
    return p, q


# --- text formats ----------------------------------------------------------
#
# Key files are line-oriented `field=value` with lowercase hex values.
# Ciphertext streams are a header line plus one hex block per line:
#
#   rsa-blocks v1 width=W pad=P count=K

_STREAM_MAGIC = "rsa-blocks v1"
_STREAM_HEADER = re.compile(
    re.escape(_STREAM_MAGIC) + r" width=([0-9]+) pad=([0-9]+) count=([0-9]+)"
)


def write_public_key(key: RsaPublicKey) -> str:
    return f"n={key.n:#x}\ne={key.e:#x}\n"


def write_private_key(key: RsaPrivateKey) -> str:
    return f"n={key.n:#x}\nd={key.d:#x}\np={key.p:#x}\nq={key.q:#x}\n"


def _parse_fields(text: str, names: tuple[str, ...]) -> list[int]:
    """The values of `names`, in order, each given exactly once; any other field is refused."""
    fields: dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed key line: {line!r}")
        name = name.strip()
        if name not in names:
            raise ValueError(f"unknown key field: {name!r}")
        if name in fields:
            raise ValueError(f"repeated key field: {name!r}")
        fields[name] = bigmod.parse_natural(value)
    missing = [name for name in names if name not in fields]
    if missing:
        raise ValueError(f"key file missing fields: {', '.join(missing)}")
    return [fields[name] for name in names]


def read_public_key(text: str) -> RsaPublicKey:
    return RsaPublicKey(*_parse_fields(text, ("n", "e")))


def read_private_key(text: str) -> RsaPrivateKey:
    """The key in text, which RsaPrivateKey checks as it checks every key."""
    return RsaPrivateKey(*_parse_fields(text, ("n", "d", "p", "q")))


def write_block_stream(stream: BlockStream) -> str:
    lines = [f"{_STREAM_MAGIC} width={stream.width} pad={stream.pad} count={len(stream.blocks)}"]
    lines += [f"{b:#x}" for b in stream.blocks]
    return "\n".join(lines) + "\n"


def read_block_stream(text: str) -> BlockStream:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty block stream")
    header = _STREAM_HEADER.fullmatch(" ".join(lines[0].split()))
    if header is None:
        raise ValueError(f"not a block stream header: {lines[0]!r}")
    width, pad, count = map(int, header.groups())
    if len(lines) - 1 != count:
        raise ValueError(f"block stream claims {count} blocks, found {len(lines) - 1}")
    return BlockStream(
        width=width, pad=pad, blocks=tuple(bigmod.parse_natural(b) for b in lines[1:])
    )
