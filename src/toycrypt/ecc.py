"""Toy elliptic-curve group over a prime field, in affine coordinates.

Points on y**2 = x**3 + ax + b (mod p) form a group under the
chord-and-tangent rule: the line through P and Q meets the curve in a third
point, and the sum is its mirror image across the x axis.  The point at
infinity is the identity.  Scalar multiplication is repeated addition;
inverting it (given P and kP, find k) is the discrete-log problem that
makes these groups cryptographically interesting.

Clarity over speed: one modular inversion per addition, no projective
coordinates, no named curves.  The public functions check that every point
they are given lies on the curve; scalar_mul checks its point once and then
adds without re-checking, since sums of points on the curve stay on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bigmod, numtheory


@dataclass(frozen=True)
class EccPoint:
    """Affine point, or the point at infinity when both coordinates are None."""

    x: int | None
    y: int | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("both coordinates must be set, or neither")

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = EccPoint(None, None)


@dataclass(frozen=True)
class EccCurve:
    a: int
    b: int
    p: int


def make_curve(a: int, b: int, p: int) -> EccCurve:
    """Validate and build y**2 = x**3 + ax + b over GF(p).

    a and b may be negative and are reduced mod p.  The curve must be
    nonsingular: 4a**3 + 27b**2 != 0 (mod p).
    """
    if p < 5 or p % 2 == 0 or not numtheory.is_prime(p).is_prime:
        raise ValueError(f"field order must be an odd prime >= 5, got {p}")
    a, b = a % p, b % p
    if (4 * a * a * a + 27 * b * b) % p == 0:
        raise ValueError(f"singular curve: 4a^3 + 27b^2 = 0 mod {p}")
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


def scalar_mul(curve: EccCurve, k: int, point: EccPoint) -> EccPoint:
    """kP by double-and-add; 0P is the point at infinity."""
    if k < 0:
        raise ValueError(f"scalar must be non-negative, got {k}")
    _require_on_curve(curve, point, "point")
    acc = INFINITY
    for i in range(k.bit_length() - 1, -1, -1):
        acc = _add(curve, acc, acc)
        if (k >> i) & 1:
            acc = _add(curve, acc, point)
    return acc


@dataclass(frozen=True)
class EcdlogResult:
    """Outcome of a brute-force curve discrete-log scan."""

    scalar: int | None
    steps: int

    @property
    def found(self) -> bool:
        return self.scalar is not None


def brute_force_ecdlog(curve: EccCurve, p: EccPoint, q: EccPoint, cap: int) -> EcdlogResult:
    """Smallest k <= cap with kP = Q, trying every k in turn; cap must be >= 0."""
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    _require_on_curve(curve, p, "base point")
    _require_on_curve(curve, q, "target point")
    acc = p
    for k in range(1, cap + 1):
        if acc == q:
            return EcdlogResult(scalar=k, steps=k)
        acc = point_add(curve, acc, p)
    return EcdlogResult(scalar=None, steps=cap)


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
