"""Arbitrary-precision modular arithmetic.

Naturals are plain Python ints (unbounded, exact); residues are normalized
representatives in [0, modulus).  Signed integers are accepted only at the
reduction edge (mod_reduce) and in the Bezout coefficients returned by
extended_gcd; everything else consumes and produces non-negative values.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class InvalidModulusError(ValueError):
    """Modulus smaller than 2."""


class ModulusMismatchError(ValueError):
    """Two residues with different moduli were combined."""


class NotInvertibleError(ValueError):
    """No modular inverse exists; carries the offending gcd."""

    def __init__(self, a: int, m: int, gcd: int):
        super().__init__(f"{a} is not invertible mod {m}: gcd is {gcd}")
        self.gcd = gcd


def _check_modulus(m: int) -> None:
    if m < 2:
        raise InvalidModulusError(f"modulus must be >= 2, got {m}")


def _check_natural(n: int, what: str = "value") -> None:
    if n < 0:
        raise ValueError(f"{what} must be non-negative, got {n}")


@dataclass(frozen=True)
class Residue:
    """A value reduced modulo a fixed modulus, always in [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self):
        _check_modulus(self.modulus)
        if not 0 <= self.value < self.modulus:
            raise ValueError(
                f"residue {self.value} not normalized for modulus {self.modulus}"
            )

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def mod_reduce(a: int, m: int) -> Residue:
    """Reduce a (possibly negative) integer to its representative in [0, m)."""
    _check_modulus(m)
    return Residue(a % m, m)


def _same_modulus(a: Residue, b: Residue) -> int:
    if a.modulus != b.modulus:
        raise ModulusMismatchError(f"moduli differ: {a.modulus} vs {b.modulus}")
    return a.modulus


def mod_add(a: Residue, b: Residue) -> Residue:
    """Sum of two residues over the same modulus."""
    m = _same_modulus(a, b)
    return Residue((a.value + b.value) % m, m)


def mod_mul(a: Residue, b: Residue) -> Residue:
    """Product of two residues over the same modulus."""
    m = _same_modulus(a, b)
    return Residue((a.value * b.value) % m, m)


def mod_pow(base: int, exp: int, m: int) -> Residue:
    """base**exp mod m by left-to-right binary exponentiation.

    Never materializes base**exp; runtime is polynomial in the bit lengths.
    An exponent of 0 yields 1 for every m >= 2.
    """
    _check_modulus(m)
    _check_natural(base, "base")
    _check_natural(exp, "exponent")
    result = 1 % m
    b = base % m
    for i in range(exp.bit_length() - 1, -1, -1):
        result = result * result % m
        if (exp >> i) & 1:
            result = result * b % m
    return Residue(result, m)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor by Euclid's algorithm. gcd(a, 0) = a."""
    _check_natural(a)
    _check_natural(b)
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, a % b
    return a


def lcm(a: int, b: int) -> int:
    """Least common multiple; both arguments must be nonzero."""
    _check_natural(a)
    _check_natural(b)
    if a == 0 or b == 0:
        raise ValueError("lcm requires nonzero arguments")
    return a // gcd(a, b) * b


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b).

    x and y are the minimal-magnitude Bezout coefficients and may be negative.
    """
    _check_natural(a)
    _check_natural(b)
    if a == 0 and b == 0:
        raise ValueError("extended_gcd(0, 0) is undefined")
    r0, r1 = a, b
    s0, s1 = 1, 0
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    # a*s0 + b*y = r0 holds exactly, so y follows by one division
    return r0, s0, (r0 - a * s0) // b if b else 0


def mod_inv(a: int, m: int) -> Residue:
    """Multiplicative inverse of a mod m; exists iff gcd(a, m) = 1."""
    _check_modulus(m)
    _check_natural(a)
    g, x, _ = extended_gcd(a % m, m)
    if g != 1:
        raise NotInvertibleError(a, m, g)
    return Residue(x % m, m)


def mod_div(a: int, b: int, m: int) -> Residue:
    """a/b mod m, i.e. a * b**-1; b must be coprime to m."""
    _check_modulus(m)
    _check_natural(a)
    inv = mod_inv(b, m)
    return Residue(a % m * inv.value % m, m)


def cancel_factor(a: int, b: int, k: int, n: int) -> int:
    """Cancel the common factor k from a*k = b*k (mod n).

    Returns the reduced modulus n/gcd(k, n) under which a = b holds.
    The congruence a*k = b*k (mod n) must hold on entry.
    """
    _check_modulus(n)
    _check_natural(a, "a")
    _check_natural(b, "b")
    if k < 1:
        raise ValueError(f"factor must be positive, got {k}")
    if (a - b) * k % n != 0:
        raise ValueError(f"{a}*{k} and {b}*{k} are not congruent mod {n}")
    return n // gcd(k, n)


# ASCII only: int() alone would also take signs, "_" separators and
# non-ASCII digits, none of which render_natural ever writes.
_NATURAL = re.compile(r"0[xX][0-9a-fA-F]+|[0-9]+")


def parse_natural(text: str) -> int:
    """Parse a natural from ASCII decimal or 0x-prefixed hex digits.

    Surrounding whitespace is ignored; anything else that is not a digit of
    the chosen base is refused with ValueError.
    """
    s = text.strip()
    if not _NATURAL.fullmatch(s):
        raise ValueError(f"not a natural number: {text!r}")
    return int(s, 16) if s[:2].lower() == "0x" else int(s, 10)


def render_natural(n: int, hexadecimal: bool = False) -> str:
    """Canonical text form: decimal, or lowercase hex with 0x prefix."""
    _check_natural(n)
    return f"0x{n:x}" if hexadecimal else str(n)
