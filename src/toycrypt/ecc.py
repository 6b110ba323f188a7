"""Toy elliptic-curve group over a prime field.

Points on y**2 = x**3 + ax + b (mod p) form a group under the
chord-and-tangent rule: the line through P and Q meets the curve in a third
point, and the sum is its mirror image across the x axis.  The point at
infinity is the identity.  Scalar multiplication is repeated addition;
inverting it (given P and kP, find k) is the discrete-log problem that
makes these groups cryptographically interesting.

point_add is the affine law with one modular inversion per addition, kept
as the readable form.  scalar_mul doubles and adds in Jacobian coordinates
(X, Y, Z) standing for the affine point (X/Z**2, Y/Z**3), which need no
division, and inverts once at the end (Hankerson-Menezes-Vanstone, Guide to
Elliptic Curve Cryptography, Alg. 3.21-3.22 and 3.27).  A point object
multiplied a second time on a curve gets a fixed-base comb table (Alg.
3.44): bigmod's Lim-Lee comb, with one block and the curve's doubling and
mixed addition as its group operations, each entry made affine by its own
inversion.  The table is kept on the point, and from then on a
multiplication costs about a quarter of the double-and-add loop; a point
multiplied once never builds one.  Both paths are variable-time, like
everything here.  No named curves.  The public functions check that every
point they are given lies on the curve; scalar_mul and brute_force_ecdlog
check their points once and then add without re-checking, since sums of
points on the curve stay on it.
"""

from __future__ import annotations

import functools

from . import bigmod, numtheory
from ._record import record


@record
class EccPoint:
    """Affine point, or the point at infinity when both coordinates are None.

    combs, filled by scalar_mul, is not a field: equality, hash and repr
    ignore it.  It maps each curve the point was multiplied on to None
    after the first multiplication, then to the point's bigmod.comb table
    there: one block of 2**8 affine entries, one inversion each, about
    38 KiB at 128 bits.
    """

    x: int | None
    y: int | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("both coordinates must be set, or neither")

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    @functools.cached_property
    def combs(self) -> dict:
        """Curve -> None after a first multiplication on it, then the comb table."""
        return {}


INFINITY = EccPoint(None, None)


@record
class EccCurve:
    """y**2 = x**3 + ax + b over GF(p), checked when built.

    a and b may be negative and are reduced mod p.  The curve must be
    nonsingular: 4a**3 + 27b**2 != 0 (mod p).  The primality test,
    numtheory.is_prime, comes last: a p above bigmod.MAX_GROUP_BITS, a p
    below 5 and a singular curve are each refused before it.  A p that
    numtheory.random_prime drew keeps its verdict, and takes only the
    trial division.
    """

    a: int
    b: int
    p: int

    def __post_init__(self):
        p = self.p
        bigmod.check_modulus_bits(p, "field order", bigmod.MAX_GROUP_BITS)
        prime = f"field order must be an odd prime >= 5, got {p}"
        if p < 5:
            raise ValueError(prime)
        a, b = self.a % p, self.b % p
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if (4 * a * a * a + 27 * b * b) % p == 0:
            raise ValueError(f"singular curve: 4a^3 + 27b^2 = 0 mod {p}")
        if not numtheory.is_prime(p).is_prime:
            raise ValueError(prime)


def make_curve(a: int, b: int, p: int) -> EccCurve:
    """The curve y**2 = x**3 + ax + b over GF(p); EccCurve checks and reduces it."""
    return EccCurve(a, b, p)


def on_curve(curve: EccCurve, point: EccPoint) -> bool:
    """True for the point at infinity and for affine points satisfying the equation."""
    if point.is_infinity:
        return True
    x, y = point.x, point.y
    if not (0 <= x < curve.p and 0 <= y < curve.p):
        return False
    return (y * y - (x * x * x + curve.a * x + curve.b)) % curve.p == 0


def _require_on_curve(curve: EccCurve, point: EccPoint, name: str) -> None:
    if not on_curve(curve, point):
        raise ValueError(f"{name} = {render_point(point)} is not on the curve")


def point_neg(curve: EccCurve, point: EccPoint) -> EccPoint:
    """Mirror across the x axis; the group inverse."""
    _require_on_curve(curve, point, "point")
    if point.is_infinity:
        return INFINITY
    return EccPoint(point.x, -point.y % curve.p)


def point_add(curve: EccCurve, p1: EccPoint, p2: EccPoint) -> EccPoint:
    """Chord-and-tangent addition with modular slopes."""
    _require_on_curve(curve, p1, "first point")
    _require_on_curve(curve, p2, "second point")
    return _add(curve, p1, p2)


def _add(curve: EccCurve, p1: EccPoint, p2: EccPoint) -> EccPoint:
    # the group law for points already known to lie on the curve
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    p = curve.p
    if p1.x == p2.x:
        if (p1.y + p2.y) % p == 0:
            # vertical chord, and doubling a point with y = 0
            return INFINITY
        slope = (3 * p1.x * p1.x + curve.a) * bigmod.mod_inv(2 * p1.y % p, p).value % p
    else:
        dx = (p2.x - p1.x) % p
        slope = (p2.y - p1.y) * bigmod.mod_inv(dx, p).value % p
    x3 = (slope * slope - p1.x - p2.x) % p
    y3 = (slope * (p1.x - x3) - p1.y) % p
    return EccPoint(x3, y3)


def point_double(curve: EccCurve, point: EccPoint) -> EccPoint:
    """2P, the tangent case of the addition rule."""
    return point_add(curve, point, point)


def _jacobian_double(a: int, p: int, x: int, y: int, z: int) -> tuple[int, int, int]:
    # 2(X, Y, Z) for any a: M = 3X**2 + aZ**4, S = 4XY**2.  Z3 = 2YZ is 0,
    # the point at infinity, when doubling infinity or a point with y = 0
    yy = y * y % p
    s = 4 * x * yy % p
    zz = z * z % p
    m = (3 * x * x + a * zz * zz) % p
    x3 = (m * m - 2 * s) % p
    return x3, (m * (s - x3) - 8 * yy * yy) % p, 2 * y * z % p


def _jacobian_add_affine(a: int, p: int, x: int, y: int, z: int,
                         x2: int, y2: int) -> tuple[int, int, int]:
    # (X, Y, Z) + (x2, y2, 1): H = x2 Z**2 - X, R = y2 Z**3 - Y.  H = 0 means
    # equal x: R = 0 is the same point, else Z3 = ZH = 0 makes P + (-P) infinite
    if z == 0:
        return x2, y2, 1
    zz = z * z % p
    h = (x2 * zz - x) % p
    r = (y2 * zz * z - y) % p
    if h == 0 and r == 0:
        return _jacobian_double(a, p, x, y, z)
    hh = h * h % p
    hhh = h * hh % p
    v = x * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return x3, (r * (v - x3) - y * hhh) % p, z * h % p


def scalar_mul(curve: EccCurve, k: int, point: EccPoint) -> EccPoint:
    """kP, by double-and-add or, for a point multiplied before, a comb.

    The first multiplication of a point object on a curve runs the
    double-and-add loop (_double_and_add) and notes the curve in
    point.combs.  The second builds the point's bigmod.comb table for that
    curve, and it and every later one whose k fits the table's reach,
    p.bit_length() + 1 bits rounded up to whole rows, take bigmod.comb_pow
    (HMV Alg. 3.44; Lim and Lee, CRYPTO '94): one doubling between
    consecutive columns of k and at most one mixed addition per column,
    then one inversion.  Any k below the group order fits, since by
    Hasse's bound the order is below 2**(p.bit_length() + 1); a wider k
    takes the double-and-add loop.  A point multiplied once, such as a
    peer's public point, never pays for a table.  0P is infinity.
    """
    bigmod.check_natural(k, "scalar")
    _require_on_curve(curve, point, "point")
    if point.is_infinity:
        return INFINITY
    combs = point.combs
    if curve not in combs:
        combs[curve] = None
        return _double_and_add(curve, k, point)
    a, p = curve.a, curve.p
    table = combs[curve]
    if table is None:
        # One block: timed at 128 bits against double-and-add (300 paired
        # calls), 4, 6 and 8 rows of one block took 0.40, 0.30 and 0.25 of
        # its time, and two blocks 0.34, 0.25 and 0.22, for twice the table.
        # Each entry is made affine by its own inversion, None at infinity (a
        # point of small order), so that the comb adds them by mixed additions.
        table = combs[curve] = bigmod.comb(
            (point.x, point.y, 1), p.bit_length() + 1, 1, (0, 1, 0),
            lambda q: _jacobian_double(a, p, *q),
            lambda q, e: q if e is None else _jacobian_add_affine(a, p, *q, *e),
            lambda points: [_xy(p, *q) for q in points])
    if k.bit_length() > bigmod.comb_reach(table):
        return _double_and_add(curve, k, point)
    return _affine(p, *bigmod.comb_pow(table, k))


def _xy(p: int, x: int, y: int, z: int) -> tuple[int, int] | None:
    # the affine (X/Z**2, Y/Z**3) of a Jacobian point by one inversion, or
    # None for the point at infinity (Z = 0)
    if z == 0:
        return None
    z_inv = bigmod.mod_inv(z, p).value
    zz_inv = z_inv * z_inv % p
    return x * zz_inv % p, y * zz_inv * z_inv % p


def _affine(p: int, x: int, y: int, z: int) -> EccPoint:
    return EccPoint(*_xy(p, x, y, z)) if z else INFINITY


def _double_and_add(curve: EccCurve, k: int, point: EccPoint) -> EccPoint:
    """kP by left-to-right double-and-add over k's bits (HMV Alg. 3.27).

    One Jacobian doubling per bit of k and one mixed addition of P per set
    bit, then the one modular inversion of converting back to affine form.
    """
    a, p = curve.a, curve.p
    acc = (0, 1, 0)
    for bit in f"{k:b}":
        acc = _jacobian_double(a, p, *acc)
        if bit == "1":
            acc = _jacobian_add_affine(a, p, *acc, point.x, point.y)
    return _affine(p, *acc)


@record
class EcdlogResult:
    """Outcome of a brute-force curve discrete-log scan."""

    scalar: int | None
    steps: int

    @property
    def found(self) -> bool:
        return self.scalar is not None


def brute_force_ecdlog(curve: EccCurve, p: EccPoint, q: EccPoint, cap: int) -> EcdlogResult:
    """Smallest k <= cap with kP = Q, by bigmod.scan with _add; cap must be >= 0."""
    _require_on_curve(curve, p, "base point")
    _require_on_curve(curve, q, "target point")
    k = bigmod.scan(p, q, cap, INFINITY, functools.partial(_add, curve))
    return EcdlogResult(k, k or cap)


def render_point(point: EccPoint) -> str:
    """Decimal "x,y", or "O" for the point at infinity."""
    if point.is_infinity:
        return "O"
    return f"{point.x},{point.y}"


def parse_point(text: str) -> EccPoint:
    """Inverse of render_point."""
    s = text.strip()
    if s == "O":
        return INFINITY
    x, sep, y = s.partition(",")
    if not sep:
        raise ValueError(f"expected 'x,y' or 'O', got {text!r}")
    return EccPoint(bigmod.parse_natural(x), bigmod.parse_natural(y))
