"""Arbitrary-precision modular arithmetic.

Naturals are plain Python ints (unbounded, exact; anything else, such as a
float, is refused with TypeError); residues are normalized
representatives in [0, modulus).  Signed integers are accepted only at the
reduction edge (mod_reduce) and in the Bezout coefficients returned by
extended_gcd; everything else consumes and produces non-negative values.

comb and comb_pow are the package's one fixed-base Lim-Lee comb, for any
group given by its identity and operations: fixed_base is the group of
residues mod m (a Diffie-Hellman generator), and ecc.scalar_mul gives it
curve points.  scan is the brute-force discrete log of both groups.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import re
import sys
from collections.abc import Callable

from ._record import check_int, record


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
    check_int(m, "modulus")
    if m < 2:
        raise InvalidModulusError(f"modulus must be >= 2, got {m}")


def check_natural(n: int, what: str) -> None:
    """Refuse a non-int n with TypeError, then a negative one with ValueError, naming it."""
    check_int(n, what)
    if n < 0:
        raise ValueError(f"{what} must be non-negative, got {n}")


# The largest modulus an RSA key may have.  Checking a caller's modulus
# (numtheory.is_prime on each factor: about 2.9 s for an 8192-bit key, 24 s
# for a 16384-bit one) and using it cost six times or more per doubling of
# its size, so above this bound a hand-written number would hold a command
# for tens of seconds.
MAX_MODULUS_BITS = 4096

# The largest prime a Diffie-Hellman group or a curve's field may have.
# Each of dlog, dh-demo and ecc spends much of its time testing a caller's
# p with numtheory.is_prime: in-process it took 0.17 s on 2**2047 + 1919
# and 0.67 s on 2**3071 + 2291, an estimated 1.4 s at 4096 bits, and the
# commands took 0.25 to 0.45 s in a fresh process at 2048 bits (2 CPUs,
# Python 3.11.7).
MAX_GROUP_BITS = 2048


def check_modulus_bits(m: int, what: str = "modulus", limit: int = MAX_MODULUS_BITS) -> None:
    """Refuse a non-int m, then one above limit bits, before any work that grows with its size."""
    check_int(m, what)
    if m.bit_length() > limit:
        raise ValueError(f"{what} has {m.bit_length()} bits, above the limit of {limit}")


@record
class Residue:
    """A value reduced modulo a fixed modulus, always in [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2 or not 0 <= self.value < self.modulus:
            _check_modulus(self.modulus)  # InvalidModulusError for a modulus below 2
            raise ValueError(f"residue {self.value} not normalized for modulus {self.modulus}")

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def mod_reduce(a: int, m: int) -> Residue:
    """Reduce a (possibly negative) integer to its representative in [0, m)."""
    check_int(a, "a")
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


# (least exponent bit length, window width) for mod_pow, widest first.
# Timed for every width on random exponents mod 512- and 1024-bit moduli:
# below 32 bits the odd-power table saves nothing, so short exponents such
# as e = 65537 get width 1, square-and-multiply.  Above that, each width starts
# where it needs the fewest products; near those lengths the timings of
# neighbouring widths differ by less than their noise.
_WINDOWS = ((672, 6), (240, 5), (64, 4), (32, 3))


@functools.cache  # compiled on first use: every width at import would cost each CLI process
def _window_split(width: int):
    # findall of this pattern over an exponent's bits gives, per window, the
    # run of 0 bits before it and the window: the longest run of at most
    # `width` bits that starts and ends in a 1.  Trailing 0 bits match nothing.
    window = "1" if width == 1 else f"1(?:[01]{{0,{width - 2}}}1)?"
    return re.compile(f"(0*)({window})").findall


def mod_pow(base: int, exp: int, m: int) -> Residue:
    """base**exp mod m by left-to-right sliding-window exponentiation.

    HAC Alg. 14.85: precompute the odd powers b, b**3, ..., b**(2**w - 1),
    then scan the exponent from the top, squaring once per bit and
    multiplying once per window of at most w bits that ends in a 1.  The
    width w grows with the exponent's length (_WINDOWS).  Short exponents
    get w = 1, where every window is a single 1 bit and the table is just
    [b]: plain square-and-multiply, with no product spent on the table.
    One regex pass splits the exponent's bits into windows, so the loop
    runs once per window, not once per bit.

    Never materializes base**exp; runtime is polynomial in the bit lengths.
    An exponent of 0 yields 1 for every m >= 2.
    """
    _check_modulus(m)
    check_natural(base, "base")
    check_natural(exp, "exponent")
    b = base % m
    n = exp.bit_length()
    width = next((w for bits, w in _WINDOWS if n >= bits), 1)
    odd = [b]  # odd[k] = b**(2k + 1)
    if width > 1:
        b2 = b * b % m
        for _ in range((1 << (width - 1)) - 1):
            odd.append(odd[-1] * b2 % m)
    bits = f"{exp:b}"
    result = 1
    for zeros, window in _window_split(width)(bits):
        for _ in range(len(zeros) + len(window)):
            result = result * result % m
        result = result * odd[int(window, 2) >> 1] % m
    for _ in range(len(bits) - len(bits.rstrip("0"))):
        result = result * result % m
    return Residue(result, m)


# Rows of every comb table; each caller of comb fixes its group's blocks.
_COMB_ROWS = 8


@record
class Comb:
    """A comb table: with h = _COMB_ROWS rows of a = width * len(blocks)
    bits, blocks[j][i] is the group product of base**(2**(r*a + j*width))
    over the set bits r of i < 2**h, after the group's finish.  one, square
    and multiply are the group's identity and operations.
    """

    width: int
    blocks: tuple
    one: object
    square: Callable
    multiply: Callable


def comb(base, exp_bits: int, block_count: int, one, square, multiply, finish=tuple) -> Comb:
    """Lim-Lee comb table of base, for any exponent of up to exp_bits bits.

    The exponent is cut into h = 8 rows, each of v = block_count blocks of
    b bits; a row of fewer than v bits takes fewer blocks, one bit each.
    one is the group's identity, and square(x) and multiply(x, y) its
    operations (on a curve: doubling and addition).  About exp_bits
    squarings give the powers base**(2**s); finish takes each block's h
    powers, then its 2**h entries, which 2**h - 1 products make.
    """
    check_natural(exp_bits, "exponent bits")
    check_int(block_count, "block count")
    row_bits = max(1, -(-exp_bits // _COMB_ROWS))
    width = -(-row_bits // block_count)
    row_bits = width * -(-row_bits // width)  # whole blocks, none empty
    powers = [base]  # powers[s] = base**(2**s), up to the last block's top row
    for _ in range(_COMB_ROWS * row_bits - width):
        powers.append(square(powers[-1]))
    blocks = []
    for start in range(0, row_bits, width):
        entries = [one]
        for power in finish(powers[start::row_bits]):  # one per row
            entries += [multiply(e, power) for e in entries]
        blocks.append(finish(entries))
    return Comb(width, tuple(blocks), one, square, multiply)


def comb_reach(table: Comb) -> int:
    """The most bits an exponent of comb_pow(table, exp) may have."""
    return _COMB_ROWS * table.width * len(table.blocks)


def comb_columns(exp: int, row_bits: int) -> list[int]:
    """exp's bits read down the columns of a comb, lowest column first.

    exp, of at most _COMB_ROWS * row_bits bits, is written as _COMB_ROWS
    rows of row_bits bits, the top row holding its top bits.  Item q
    gathers bit q of every row, the top row's bit as its top bit: the index
    of column q into a Lim-Lee table.  One string pass transposes the rows.
    """
    check_natural(exp, "exponent")
    check_int(row_bits, "row bits")
    n = _COMB_ROWS * row_bits
    if exp.bit_length() > n:
        raise ValueError(f"exponent of {exp.bit_length()} bits exceeds the table's {n}")
    bits = f"{exp:0{n}b}"
    return [
        int("".join(column), 2)
        for column in zip(*(bits[i:i + row_bits] for i in range(0, n, row_bits)))
    ][::-1]


def comb_pow(table: Comb, exp: int):
    """base**exp in the table's group, by the Lim-Lee comb.

    HAC Alg. 14.117: write exp as h rows of a bits, each cut into v blocks
    of b bits.  Column k of block j (bit j*b + k of every row) indexes
    blocks[j], so one product per nonzero column and one squaring between
    consecutive k give base**exp: b - 1 squarings and at most a = v*b
    products.  For a 1024-bit exponent and 8 blocks that is 15 squarings
    and at most 128 products.  comb_columns reads the columns.
    """
    width, blocks, square, multiply = table.width, table.blocks, table.square, table.multiply
    columns = comb_columns(exp, width * len(blocks))  # refuses exp wider than comb_reach(table)
    result = table.one
    for k in range(width - 1, -1, -1):
        for entries, i in zip(blocks, columns[k::width]):
            if i:
                result = multiply(result, entries[i])
        if k:
            result = square(result)
    return result


def scan(base, target, cap: int, one, multiply) -> int | None:
    """Brute-force discrete log in any group: the smallest k in [1, cap] with
    base**k = target, one multiply(acc, base) per k from one; None after cap."""
    check_natural(cap, "cap")
    acc = one
    for k in range(1, cap + 1):
        acc = multiply(acc, base)
        if acc == target:
            return k
    return None


def fixed_base(base: int, exp_bits: int, m: int) -> Comb:
    """comb table of base mod m, such as a Diffie-Hellman generator.

    8 blocks: timed for 4 to 8 on random exponents from 16 to 4096 bits, 8
    was the fastest from 64 bits up (at 1024 bits, 0.93 ms a call against
    1.03 ms with 4); below 64 bits the five differed by less than their
    noise.  That is 2048 entries for 1024-bit exponents.
    """
    _check_modulus(m)
    check_natural(base, "base")
    return comb(base % m, exp_bits, 8, 1, lambda x: x * x % m, lambda x, y: x * y % m)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor by Euclid's algorithm. gcd(a, 0) = a."""
    check_natural(a, "a")
    check_natural(b, "b")
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, a % b
    return a


def lcm(a: int, b: int) -> int:
    """Least common multiple; both arguments must be nonzero."""
    check_natural(a, "a")
    check_natural(b, "b")
    if a == 0 or b == 0:
        raise ValueError("lcm requires nonzero arguments")
    return a // gcd(a, b) * b


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b).

    x and y are the minimal-magnitude Bezout coefficients and may be negative.
    """
    check_natural(a, "a")
    check_natural(b, "b")
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
    check_natural(a, "a")
    g, x, _ = extended_gcd(a % m, m)
    if g != 1:
        raise NotInvertibleError(a, m, g)
    return Residue(x % m, m)


def mod_div(a: int, b: int, m: int) -> Residue:
    """a/b mod m, i.e. a * b**-1; b must be coprime to m."""
    check_natural(a, "a")
    check_natural(b, "b")
    inv = mod_inv(b, m)
    return Residue(a % m * inv.value % m, m)


def cancel_factor(a: int, b: int, k: int, n: int) -> int:
    """Cancel the common factor k from a*k = b*k (mod n).

    Returns the reduced modulus n/gcd(k, n) under which a = b holds.
    The congruence a*k = b*k (mod n) must hold on entry.
    """
    _check_modulus(n)
    check_natural(a, "a")
    check_natural(b, "b")
    check_int(k, "factor")
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
    the chosen base is refused with ValueError, as is decimal longer than
    sys.get_int_max_str_digits(), Python's process-wide limit (hex has none).
    """
    s = text.strip()
    if not _NATURAL.fullmatch(s):
        raise ValueError(f"not a natural number: {text!r}")
    try:
        return int(s, 16) if s[:2].lower() == "0x" else int(s, 10)
    except ValueError:  # only Python's limit on decimal conversion
        raise ValueError(f"decimal number of {len(s)} digits, above the limit of "
                         f"{sys.get_int_max_str_digits()}; write it in 0x hex") from None


def render_natural(n: int, hexadecimal: bool = False) -> str:
    """Canonical text form: decimal, within parse_natural's limit, or lowercase 0x hex."""
    check_natural(n, "n")
    try:
        return f"0x{n:x}" if hexadecimal else str(n)
    except ValueError:  # only Python's limit on decimal conversion
        raise ValueError(f"a {n.bit_length()}-bit number has more decimal digits than the "
                         f"limit of {sys.get_int_max_str_digits()}; print it with --hex") from None
