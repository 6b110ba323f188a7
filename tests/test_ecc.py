import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toycrypt import bigmod, ecc
from toycrypt.ecc import INFINITY, EccPoint
from test_dh import trial_prime


def enumerate_affine_points(a, b, p):
    """Independent oracle: every (x, y) satisfying the curve equation."""
    return [
        EccPoint(x, y)
        for x in range(p)
        for y in range(p)
        if (y * y - (x * x * x + a * x + b)) % p == 0
    ]


def affine_scalar_mul(a, p, k, point):
    """Independent oracle: double-and-add on (x, y) tuples with the built-in
    modular inverse; None is the point at infinity."""

    def add(p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        if p1[0] == p2[0] and (p1[1] + p2[1]) % p == 0:
            return None
        if p1 == p2:
            slope = (3 * p1[0] * p1[0] + a) * pow(2 * p1[1], -1, p) % p
        else:
            slope = (p2[1] - p1[1]) * pow(p2[0] - p1[0], -1, p) % p
        x3 = (slope * slope - p1[0] - p2[0]) % p
        return x3, (slope * (p1[0] - x3) - p1[1]) % p

    acc = None
    for bit in bin(k)[2:]:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, point)
    return acc


@pytest.fixture(scope="module")
def curve97():
    return ecc.make_curve(2, 3, 97)


@pytest.fixture(scope="module")
def points97():
    pts = enumerate_affine_points(2, 3, 97)
    assert len(pts) == 99  # group order 100 with the point at infinity
    return pts


class TestMakeCurve:
    def test_valid(self, curve97):
        assert (4 * 8 + 27 * 9) % 97 == 81  # discriminant term nonzero
        assert curve97 == ecc.EccCurve(2, 3, 97)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            ecc.make_curve(0, 0, 97)

    def test_negative_parameters_reduced(self):
        curve = ecc.make_curve(-30, -10, 97)
        assert curve.a == -30 % 97 and curve.b == -10 % 97
        assert (4 * curve.a**3 + 27 * curve.b**2) % 97 != 0

    @pytest.mark.parametrize("p", [4, 9, 2, 3])
    def test_field_order_must_be_odd_prime(self, p):
        with pytest.raises(ValueError):
            ecc.make_curve(2, 3, p)

    @pytest.mark.parametrize("a, b, p, reason", [
        (0, 0, 97, r"^singular curve: 4a\^3 \+ 27b\^2 = 0 mod 97$"),
        (2, 3, 91, "^field order must be an odd prime >= 5, got 91$"),
    ], ids=["singular", "composite"])
    def test_hand_built_curve_refused(self, a, b, p, reason):
        for build in (ecc.EccCurve, ecc.make_curve):
            with pytest.raises(ValueError, match=reason):
                build(a, b, p)

    def test_hand_built_curve_is_reduced(self):
        assert ecc.EccCurve(-1, 3, 97) == ecc.make_curve(96, 3, 97) == ecc.EccCurve(96, 3 + 97, 97)
        assert repr(ecc.EccCurve(-1, 3, 97)) == "EccCurve(a=96, b=3, p=97)"

    @given(a=st.integers(-50, 150), b=st.integers(-50, 150), p=st.integers(-3, 200),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_no_invalid_curve_is_built(self, a, b, p, data):
        try:
            curve = ecc.EccCurve(a, b, p)
        except ValueError:
            return
        assert trial_prime(p)
        assert 0 <= curve.a < p and 0 <= curve.b < p
        assert (4 * curve.a**3 + 27 * curve.b**2) % p != 0
        # by Hasse's bound a curve over GF(p >= 5) has an affine point
        point = next(EccPoint(x, y) for x in range(p) for y in range(p)
                     if (y * y - x**3 - curve.a * x - curve.b) % p == 0)
        ks = data.draw(st.lists(st.integers(0, 2 * p + 2), min_size=1, max_size=3))
        multiples = [INFINITY]
        for _ in range(max(ks)):
            multiples.append(ecc.point_add(curve, multiples[-1], point))
        # the first product runs double-and-add, the second builds the comb
        for k in ks:
            assert ecc.scalar_mul(curve, k, point) == multiples[k]


class TestOnCurve:
    def test_infinity(self, curve97):
        assert ecc.on_curve(curve97, INFINITY)

    def test_every_enumerated_point(self, curve97, points97):
        for pt in points97:
            assert ecc.on_curve(curve97, pt)

    def test_off_curve_point(self, curve97):
        assert 1 != 3 % 97
        assert not ecc.on_curve(curve97, EccPoint(0, 1))

    def test_counts_match_enumeration(self, curve97, points97):
        on = sum(
            ecc.on_curve(curve97, EccPoint(x, y)) for x in range(97) for y in range(97)
        )
        assert on == len(points97)


class TestAddition:
    def test_identity(self, curve97, points97):
        for pt in points97[:10]:
            assert ecc.point_add(curve97, pt, INFINITY) == pt
            assert ecc.point_add(curve97, INFINITY, pt) == pt

    def test_inverse(self, curve97, points97):
        for pt in points97[:10]:
            assert ecc.point_add(curve97, pt, ecc.point_neg(curve97, pt)) == INFINITY

    def test_doubling_with_zero_y(self):
        # y^2 = x^3 + 1 mod 7 passes through (-1, 0); its double is infinity
        curve = ecc.make_curve(0, 1, 7)
        pt = EccPoint(6, 0)
        assert ecc.on_curve(curve, pt)
        assert ecc.point_double(curve, pt) == INFINITY

    def test_chord_geometry(self, curve97, points97):
        # the mirror image of p1 + p2 must sit on the line through p1 and p2
        rng = random.Random(71)
        modulus = curve97.p
        checked = 0
        while checked < 100:
            p1, p2 = rng.choice(points97), rng.choice(points97)
            if p1.x == p2.x:
                continue
            total = ecc.point_add(curve97, p1, p2)
            assert ecc.on_curve(curve97, total)
            slope = (p2.y - p1.y) * pow(p2.x - p1.x, -1, modulus) % modulus
            chord_y = (p1.y + slope * (total.x - p1.x)) % modulus
            assert chord_y == (-total.y) % modulus
            assert ecc.point_add(curve97, total, ecc.point_neg(curve97, p2)) == p1
            checked += 1

    def test_off_curve_input_rejected(self, curve97):
        with pytest.raises(ValueError):
            ecc.point_add(curve97, EccPoint(0, 1), INFINITY)
        with pytest.raises(ValueError):
            ecc.point_neg(curve97, EccPoint(0, 1))

    def test_neg_of_infinity_is_infinity(self, curve97):
        assert ecc.point_neg(curve97, INFINITY) == INFINITY

    def test_closure_exhaustive(self, curve97, points97):
        group = points97 + [INFINITY]
        for p1 in group:
            for p2 in group:
                assert ecc.on_curve(curve97, ecc.point_add(curve97, p1, p2))

    def test_commutative_exhaustive(self, curve97, points97):
        group = points97 + [INFINITY]
        for i, p1 in enumerate(group):
            for p2 in group[i:]:
                assert ecc.point_add(curve97, p1, p2) == ecc.point_add(curve97, p2, p1)

    def test_associative_random_triples(self, curve97, points97):
        rng = random.Random(72)
        group = points97 + [INFINITY]
        for _ in range(1000):
            p1, p2, p3 = (rng.choice(group) for _ in range(3))
            lhs = ecc.point_add(curve97, ecc.point_add(curve97, p1, p2), p3)
            rhs = ecc.point_add(curve97, p1, ecc.point_add(curve97, p2, p3))
            assert lhs == rhs


class TestScalarMul:
    def test_zero_and_one(self, curve97, points97):
        pt = points97[0]
        assert ecc.scalar_mul(curve97, 0, pt) == INFINITY
        assert ecc.scalar_mul(curve97, 1, pt) == pt

    def test_two_is_double(self, curve97, points97):
        for pt in points97[:10]:
            assert ecc.scalar_mul(curve97, 2, pt) == ecc.point_double(curve97, pt)

    def test_matches_repeated_addition(self, curve97, points97):
        pt = points97[3]
        acc = INFINITY
        for k in range(1, 30):
            acc = ecc.point_add(curve97, acc, pt)
            assert ecc.scalar_mul(curve97, k, pt) == acc

    def test_cycles_at_group_order(self, curve97, points97):
        # point order divides 100; k*P walks back to infinity exactly there
        for pt in points97[:5]:
            order = next(
                k for k in range(1, 101) if ecc.scalar_mul(curve97, k, pt) == INFINITY
            )
            assert 100 % order == 0
            assert ecc.scalar_mul(curve97, order - 1, pt) == ecc.point_neg(curve97, pt)
            assert ecc.scalar_mul(curve97, order, pt) == INFINITY
            assert ecc.scalar_mul(curve97, order + 1, pt) == pt

    def test_distributes_over_scalar_sum(self, curve97, points97):
        rng = random.Random(73)
        pt = points97[7]
        for _ in range(200):
            m, n = rng.randrange(0, 1000), rng.randrange(0, 1000)
            lhs = ecc.scalar_mul(curve97, m + n, pt)
            rhs = ecc.point_add(
                curve97, ecc.scalar_mul(curve97, m, pt), ecc.scalar_mul(curve97, n, pt)
            )
            assert lhs == rhs

    @given(p=st.sampled_from([97, 10007, 2**61 - 1, 2**127 - 1]), a=st.integers(0, 2**127),
           x=st.integers(0, 2**127), y=st.integers(0, 2**127), k=st.integers(0, 2**130))
    @settings(max_examples=100, deadline=None)
    def test_matches_affine_oracle(self, p, a, x, y, k):
        # choose b so that (x, y) lies on the curve
        x, y = x % p, y % p
        try:
            curve = ecc.make_curve(a, y * y - x * x * x - a * x, p)
        except ValueError:
            return  # singular
        result = ecc.scalar_mul(curve, k, EccPoint(x, y))
        assert ecc.on_curve(curve, result)  # which also requires 0 <= x, y < p
        expected = affine_scalar_mul(curve.a, p, k, (x, y))
        assert result == (INFINITY if expected is None else EccPoint(*expected))

    def test_exhaustive_against_affine_oracle(self, curve97, points97):
        # every point, the three 2-torsion points (y = 0) and infinity included,
        # for k up to twice the group order 100, so every point order is hit
        group = points97 + [INFINITY]
        assert [pt.x for pt in points97 if pt.y == 0] == [30, 68, 96]
        for pt in group:
            oracle_point = None if pt.is_infinity else (pt.x, pt.y)
            for k in range(2 * 100 + 2):
                result = ecc.scalar_mul(curve97, k, pt)
                assert ecc.on_curve(curve97, result)
                expected = affine_scalar_mul(curve97.a, 97, k, oracle_point)
                assert result == (INFINITY if expected is None else EccPoint(*expected))
            assert ecc.scalar_mul(curve97, 100, pt) == INFINITY

    def test_one_inversion_per_call(self, monkeypatch):
        calls = []
        real_mod_inv = bigmod.mod_inv

        def counting_mod_inv(a, m):
            calls.append(a)
            return real_mod_inv(a, m)

        monkeypatch.setattr(bigmod, "mod_inv", counting_mod_inv)
        p = 2**127 - 1
        x, y, a = 3, 5, 7
        curve = ecc.make_curve(a, y * y - x * x * x - a * x, p)
        rng = random.Random(74)
        scalars = [0, 1, 2, 3] + [rng.getrandbits(128) for _ in range(20)]
        for k in scalars:
            calls.clear()
            ecc.scalar_mul(curve, k, EccPoint(x, y))
            assert len(calls) <= 1, k
        calls.clear()
        assert ecc.scalar_mul(curve, 2**128, INFINITY) == INFINITY
        assert calls == []
        # once a point's table exists, the comb and the wide-scalar
        # double-and-add invert once too; only 0P, at infinity, inverts nothing
        reused = EccPoint(x, y)
        ecc.scalar_mul(curve, 1, reused)
        ecc.scalar_mul(curve, 1, reused)
        for k in scalars + [2**128, 2**130 - 1]:
            calls.clear()
            ecc.scalar_mul(curve, k, reused)
            assert len(calls) == (k != 0), k

    def test_first_multiplication_doubles_per_bit_and_adds_per_set_bit(self, monkeypatch):
        calls = count_jacobian_calls(monkeypatch)
        rng = random.Random(75)
        for k in [0, 1, 2, 3, 2**128 - 1] + [rng.getrandbits(128) for _ in range(20)]:
            calls.clear()
            ecc.scalar_mul(CURVE127, k, EccPoint(3, 5))
            # k = 0 reads as the one bit "0": one doubling of infinity
            assert (calls.count("double"), calls.count("add")) == (
                max(k.bit_length(), 1), bin(k).count("1")), k

    def test_comb_doubles_per_row_bit_and_adds_per_nonzero_column(self, monkeypatch):
        point = EccPoint(3, 5)
        ecc.scalar_mul(CURVE127, 1, point)
        ecc.scalar_mul(CURVE127, 1, point)  # builds the table
        calls = count_jacobian_calls(monkeypatch)
        row_bits = comb_reach(P127) // bigmod._COMB_ROWS
        assert row_bits == 16
        rng = random.Random(76)
        for k in [0, 1, 2**128 - 1] + [rng.getrandbits(128) for _ in range(20)]:
            calls.clear()
            ecc.scalar_mul(CURVE127, k, point)
            columns = bigmod.comb_columns(k, row_bits)
            # a doubling between consecutive columns, none of the identity first
            assert (calls.count("double"), calls.count("add")) == (
                row_bits - 1, sum(map(bool, columns))), k

    def test_off_curve_point_rejected(self, curve97):
        with pytest.raises(ValueError):
            ecc.scalar_mul(curve97, 5, EccPoint(0, 1))

    def test_negative_scalar_rejected(self, curve97, points97):
        with pytest.raises(ValueError):
            ecc.scalar_mul(curve97, -1, points97[0])

    def test_non_int_scalar_refused(self, curve97):
        # the point's first, second and third products take the double-and-add
        # loop, the comb's build and the comb: each refuses 5.0 and takes True
        point = EccPoint(3, 6)
        for _ in range(3):
            with pytest.raises(TypeError, match="^scalar must be an int, got float$"):
                ecc.scalar_mul(curve97, 5.0, point)
            assert ecc.scalar_mul(curve97, True, point) == point


def count_jacobian_calls(monkeypatch):
    # "double" or "add" for each _jacobian_double or _jacobian_add_affine call
    calls = []

    def counting(name, real):
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(ecc, "_jacobian_double", counting("double", ecc._jacobian_double))
    monkeypatch.setattr(ecc, "_jacobian_add_affine", counting("add", ecc._jacobian_add_affine))
    return calls


def comb_reach(p):
    # the widest scalar a comb table on a curve over GF(p) takes, in bits
    return bigmod._COMB_ROWS * -(-(p.bit_length() + 1) // bigmod._COMB_ROWS)


# y**2 = x**3 + 7x + b over GF(2**127 - 1) through (3, 5)
P127 = 2**127 - 1
CURVE127 = ecc.make_curve(7, 25 - 27 - 21, P127)
REUSED127 = EccPoint(3, 5)  # one object for every example of the test below


class TestComb:
    def test_exhaustive_against_affine_oracle(self, curve97, points97):
        # a fresh object per point: k = 0 runs double-and-add, k = 1 builds the
        # table, the comb takes every k it can hold, and 2**reach falls back
        reach = comb_reach(97)
        orders = set()
        for pt in points97:
            point = EccPoint(pt.x, pt.y)
            for k in range(2**reach + 1):
                expected = affine_scalar_mul(curve97.a, 97, k, (pt.x, pt.y))
                assert ecc.scalar_mul(curve97, k, point) == (
                    INFINITY if expected is None else EccPoint(*expected)), (pt, k)
            # entry i sums i's bits' multiples of P, at infinity just where
            # the point's order divides i
            assert bigmod.comb_reach(point.combs[curve97]) == reach
            (table,) = point.combs[curve97].blocks
            order = table.index(None, 1)
            assert affine_scalar_mul(curve97.a, 97, order, (pt.x, pt.y)) is None
            assert all((entry is None) == (i % order == 0) for i, entry in enumerate(table))
            orders.add(order)
        assert orders == {2, 5, 10, 25, 50}

    @given(k=st.integers(0, 2**130))
    @example(k=0)
    @example(k=2**128 - 1)  # the widest scalar the table holds
    @example(k=2**128)
    @settings(max_examples=60, deadline=None)
    def test_reused_point_against_affine_oracle(self, k):
        result = ecc.scalar_mul(CURVE127, k, REUSED127)
        expected = affine_scalar_mul(CURVE127.a, P127, k, (3, 5))
        assert result == (INFINITY if expected is None else EccPoint(*expected))

    @pytest.mark.parametrize("p", [97, 10007, 2**61 - 1, P127, 2**128 - 159])
    def test_every_scalar_below_the_hasse_bound_takes_the_comb(self, monkeypatch, p):
        # the group order is at most p + 1 + 2 sqrt(p), below 2**(p.bit_length() + 1)
        assert (p + 1 + math.isqrt(4 * p)).bit_length() <= p.bit_length() + 1
        curve = ecc.make_curve(7, 25 - 27 - 21, p)
        point = EccPoint(3, 5)
        ecc.scalar_mul(curve, 1, point)
        ecc.scalar_mul(curve, 1, point)
        fallback = []
        real_double_and_add = ecc._double_and_add
        monkeypatch.setattr(ecc, "_double_and_add",
                            lambda *args: fallback.append(args[1]) or real_double_and_add(*args))
        wide = 2**comb_reach(p)  # one bit wider than the table holds
        for k in (2**(p.bit_length() + 1) - 1, wide):
            expected = affine_scalar_mul(curve.a, p, k, (3, 5))
            assert ecc.scalar_mul(curve, k, point) == (
                INFINITY if expected is None else EccPoint(*expected))
        assert fallback == [wide]

    def test_one_build_per_point_and_curve(self, monkeypatch):
        builds = []
        real_comb = bigmod.comb

        def counting_comb(base, *args):
            builds.append(base)
            return real_comb(base, *args)

        monkeypatch.setattr(bigmod, "comb", counting_comb)
        point = EccPoint(3, 5)
        other = ecc.make_curve(11, 25 - 27 - 33, P127)  # through the same point
        for built, curve in enumerate((CURVE127, other)):
            expected = EccPoint(*affine_scalar_mul(curve.a, P127, 12345, (3, 5)))
            for n in range(1, 6):
                assert ecc.scalar_mul(curve, 12345, point) == expected
                assert len(builds) == built + (n >= 2), n
        assert builds == [(3, 5, 1)] * 2
        assert point.combs[CURVE127].blocks != point.combs[other].blocks
        # a point multiplied once, like a peer's public point, builds nothing
        ecc.scalar_mul(CURVE127, 5, EccPoint(3, 5))
        assert len(builds) == 2


class TestBruteForceDlog:
    def test_inverts_small_multiple(self, curve97, points97):
        pt = points97[0]
        q = ecc.scalar_mul(curve97, 7, pt)
        result = ecc.brute_force_ecdlog(curve97, pt, q, 200)
        assert result.found
        assert ecc.scalar_mul(curve97, result.scalar, pt) == q

    def test_target_equals_base(self, curve97, points97):
        pt = points97[1]
        assert ecc.brute_force_ecdlog(curve97, pt, pt, 10).scalar == 1

    def test_not_found(self, curve97, points97):
        pt = points97[0]
        q = ecc.scalar_mul(curve97, 9, pt)
        result = ecc.brute_force_ecdlog(curve97, pt, q, 2)
        assert not result.found and result.steps == 2

    def test_zero_cap_scans_nothing(self, curve97, points97):
        pt = points97[0]
        assert ecc.brute_force_ecdlog(curve97, pt, pt, 0) == ecc.EcdlogResult(None, 0)

    @pytest.mark.parametrize("cap", [-1, -4, -(2**64)])
    def test_negative_cap_rejected(self, curve97, points97, cap):
        with pytest.raises(ValueError, match="cap"):
            ecc.brute_force_ecdlog(curve97, points97[0], points97[1], cap)

    # points of every order on the curve: 50 (the largest), 25, 10, 5, 2 and 1 (infinity)
    @pytest.mark.parametrize("base", [EccPoint(0, 10), EccPoint(21, 24), EccPoint(29, 43),
                                      EccPoint(3, 6), EccPoint(30, 0), INFINITY])
    def test_every_target(self, curve97, points97, base):
        # the smallest k <= cap with kP = Q by the affine oracle, else not found
        cap = 101
        oracle_base = None if base.is_infinity else (base.x, base.y)
        multiples = [affine_scalar_mul(curve97.a, 97, k, oracle_base) for k in range(1, cap + 1)]
        for target in points97 + [INFINITY]:
            oracle_target = None if target.is_infinity else (target.x, target.y)
            if oracle_target in multiples:
                k = multiples.index(oracle_target) + 1
                expected = ecc.EcdlogResult(scalar=k, steps=k)
            else:
                expected = ecc.EcdlogResult(scalar=None, steps=cap)
            assert ecc.brute_force_ecdlog(curve97, base, target, cap) == expected

    def test_points_checked_once(self, curve97, monkeypatch):
        # the two points are checked up front, not again on every step
        checks = []
        real_on_curve = ecc.on_curve
        monkeypatch.setattr(ecc, "on_curve", lambda *args: checks.append(1) or real_on_curve(*args))
        result = ecc.brute_force_ecdlog(curve97, EccPoint(3, 6), EccPoint(80, 10), 101)
        assert (result.scalar, len(checks)) == (2, 2)
        checks.clear()
        assert ecc.brute_force_ecdlog(curve97, EccPoint(3, 6), INFINITY, 101).found
        assert len(checks) == 2

    def test_work_grows_with_field_size(self):
        steps = []
        for p in (97, 1009, 10007):
            curve = ecc.make_curve(2, 3, p)
            base = next(
                EccPoint(x, y)
                for x in range(p)
                for y in range(p)
                if (y * y - (x**3 + 2 * x + 3)) % p == 0
            )
            rng = random.Random(p)
            trial_steps = []
            for _ in range(5):
                k = rng.randrange(p // 4, p // 2)
                q = ecc.scalar_mul(curve, k, base)
                result = ecc.brute_force_ecdlog(curve, base, q, 2 * p)
                assert result.found
                trial_steps.append(result.steps)
            steps.append(sum(trial_steps) / len(trial_steps))
        assert steps[0] < steps[1] < steps[2]


class TestPointText:
    def test_render(self, points97):
        assert ecc.render_point(INFINITY) == "O"
        pt = points97[0]
        assert ecc.render_point(pt) == f"{pt.x},{pt.y}"

    def test_parse_round_trip(self, points97):
        for pt in points97[:5] + [INFINITY]:
            assert ecc.parse_point(ecc.render_point(pt)) == pt

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ecc.parse_point("12")
        with pytest.raises(ValueError):
            ecc.parse_point("a,b")

    def test_parse_accepts_surrounding_space(self):
        assert ecc.parse_point(" 3 , 6 ") == EccPoint(3, 6)
        assert ecc.parse_point(" O\n") == INFINITY

    @pytest.mark.parametrize("text", [" +3 , -0 ", "1_0,\u0663", "-1,6", "3,+6", "3,6_0",
                                      "\u0663,6", "3,", ",6", "3,6,7", "o", "3 6"])
    def test_parse_refuses_signs_separators_and_non_ascii_digits(self, text):
        with pytest.raises(ValueError):
            ecc.parse_point(text)

    coordinate = st.integers(0, 10**6).map(str) | st.text(alphabet="0123456789x+-_ \u0663",
                                                           max_size=4)

    @given(text=st.text(max_size=30) | st.sampled_from(["O", " O ", "0"])
           | st.builds("{},{}".format, coordinate, coordinate))
    @settings(max_examples=300)
    def test_parse_fuzz(self, text):
        try:
            point = ecc.parse_point(text)
        except ValueError:
            return
        assert point.is_infinity or (point.x >= 0 and point.y >= 0)
        assert ecc.parse_point(ecc.render_point(point)) == point

    def test_half_infinite_point_rejected(self):
        with pytest.raises(ValueError):
            EccPoint(3, None)
