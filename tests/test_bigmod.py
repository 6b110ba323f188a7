import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toycrypt import bigmod, numtheory
from toycrypt.bigmod import (
    InvalidModulusError,
    ModulusMismatchError,
    NotInvertibleError,
    Residue,
)

naturals = st.integers(min_value=0, max_value=1 << 256)
moduli = st.integers(min_value=2, max_value=1 << 64)

# exponent bit counts one below, at and one above every window width and
# every switch between widths, plus the public exponent 65537's 17 bits
WINDOW_EDGES = sorted(
    {0, 1, 17}
    | {n + d for edge in bigmod._WINDOWS for n in edge for d in (-1, 0, 1)}
)


def exponents_of_length(n):
    """Exponents of exactly n bits."""
    if n == 0:
        return st.just(0)
    return st.integers(min_value=1 << (n - 1), max_value=(1 << n) - 1)


# (width, least and largest exponent bit length at which mod_pow picks it)
WIDTH_BANDS = [
    (w, lo, hi - 1)
    for (w, lo), hi in zip(
        [(1, 1)] + [(w, bits) for bits, w in reversed(bigmod._WINDOWS)],
        [bits for bits, _ in reversed(bigmod._WINDOWS)] + [2 * bigmod._WINDOWS[0][0]],
    )
]
# runs of equal bits up to one past twice the widest window, so zero runs
# longer than every width and runs of ones spanning several windows occur
bit_runs = st.lists(
    st.tuples(st.sampled_from("01"), st.integers(1, 2 * bigmod._WINDOWS[0][1] + 1)),
    min_size=1, max_size=12,
)
# the exponent's last bits: none, a window ending on the last bit, trailing zeros
tails = st.sampled_from(["", "1", "0", "101", "1" * 9, "0" * 13, "1000001" + "0" * 5])


@st.composite
def exponents_from_runs(draw):
    """(width, exponent): a 1, the drawn runs repeated, cut to a length in width's band, a tail."""
    width, lo, hi = draw(st.sampled_from(WIDTH_BANDS))
    length = draw(st.integers(lo, hi))
    body = "".join(bit * count for bit, count in draw(bit_runs))
    tail = draw(tails)[: length - 1]
    head = ("1" + body * length)[: length - len(tail)]
    return width, int(head + tail, 2)


def per_bit_windows(bits, width):
    """(zeros, window) pairs of a sliding window scanned bit by bit, as mod_pow once did."""
    windows, i, zeros = [], 0, 0
    while i < len(bits):
        if bits[i] == "0":
            zeros, i = zeros + 1, i + 1
            continue
        j = min(i + width, len(bits))
        while bits[j - 1] == "0":
            j -= 1
        windows.append(("0" * zeros, bits[i:j]))
        zeros, i = 0, j
    return windows


def three_sequence_extended_gcd(a, b):
    """Extended Euclid carrying both Bezout sequences, as bigmod once did."""
    r0, r1 = a, b
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


class TestModReduce:
    def test_alarm_clock_sum(self):
        assert bigmod.mod_reduce(30, 24).value == 6

    def test_negative_representative(self):
        assert bigmod.mod_reduce(-7, 323).value == 316

    @pytest.mark.parametrize("m", [2, 3, 24, 323, 10**30])
    def test_zero(self, m):
        assert bigmod.mod_reduce(0, m) == Residue(0, m)

    @pytest.mark.parametrize("m", [1, 0, -5])
    def test_invalid_modulus(self, m):
        with pytest.raises(InvalidModulusError):
            bigmod.mod_reduce(10, m)

    @given(a=st.integers(min_value=-(1 << 128), max_value=1 << 128), m=moduli)
    def test_always_normalized(self, a, m):
        r = bigmod.mod_reduce(a, m)
        assert 0 <= r.value < m
        assert (a - r.value) % m == 0


class TestAddMul:
    def test_reduced_factors(self):
        # 25*4 = 3*4 = 1 (mod 11)
        a = bigmod.mod_reduce(25, 11)
        b = bigmod.mod_reduce(4, 11)
        assert bigmod.mod_mul(a, b).value == 1

    def test_additive_identity(self):
        a = bigmod.mod_reduce(17, 29)
        zero = bigmod.mod_reduce(0, 29)
        assert bigmod.mod_add(a, zero) == a

    def test_square_of_negative_representative(self):
        # 316 = -7 (mod 323), so 316*316 must land on 49
        r = bigmod.mod_mul(bigmod.mod_reduce(316, 323), bigmod.mod_reduce(316, 323))
        assert r.value == 49
        assert divmod(316 * 316, 323)[1] == 49

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            bigmod.mod_add(bigmod.mod_reduce(1, 5), bigmod.mod_reduce(1, 7))
        with pytest.raises(ModulusMismatchError):
            bigmod.mod_mul(bigmod.mod_reduce(1, 5), bigmod.mod_reduce(1, 7))

    @given(a=naturals, b=naturals, m=moduli)
    def test_agrees_with_exact_arithmetic(self, a, b, m):
        ra, rb = bigmod.mod_reduce(a, m), bigmod.mod_reduce(b, m)
        assert bigmod.mod_add(ra, rb).value == (a + b) % m
        assert bigmod.mod_mul(ra, rb).value == (a * b) % m

    @given(a=naturals, b=naturals, c=naturals, m=moduli)
    def test_commutative_and_associative(self, a, b, c, m):
        ra, rb, rc = (bigmod.mod_reduce(x, m) for x in (a, b, c))
        assert bigmod.mod_mul(ra, rb) == bigmod.mod_mul(rb, ra)
        assert bigmod.mod_add(ra, rb) == bigmod.mod_add(rb, ra)
        lhs = bigmod.mod_mul(bigmod.mod_mul(ra, rb), rc)
        rhs = bigmod.mod_mul(ra, bigmod.mod_mul(rb, rc))
        assert lhs == rhs


class TestModPow:
    def test_two_to_the_ten(self):
        assert bigmod.mod_pow(2, 10, 11).value == 1

    def test_worked_encryption(self):
        assert bigmod.mod_pow(3, 17, 323).value == 241

    def test_worked_decryption(self):
        assert bigmod.mod_pow(241, 17, 323).value == 3

    @pytest.mark.parametrize("b,m", [(0, 2), (5, 2), (7, 323), (10**40, 97)])
    def test_zero_exponent(self, b, m):
        assert bigmod.mod_pow(b, 0, m).value == 1

    def test_invalid_modulus(self):
        with pytest.raises(InvalidModulusError):
            bigmod.mod_pow(2, 3, 1)

    def test_small_exponent_against_full_power(self):
        rng = random.Random(101)
        for _ in range(300):
            base = rng.randrange(0, 1 << 64)
            exp = rng.randrange(0, 12)
            m = rng.randrange(2, 1 << 32)
            assert bigmod.mod_pow(base, exp, m).value == base**exp % m

    @given(base=naturals, exp=st.integers(min_value=0, max_value=1 << 128), m=moduli)
    def test_against_builtin_pow(self, base, exp, m):
        assert bigmod.mod_pow(base, exp, m).value == pow(base, exp, m)

    @given(base=naturals, exp=st.sampled_from(WINDOW_EDGES).flatmap(exponents_of_length),
           m=moduli)
    @example(base=0, exp=(1 << 40) - 1, m=97)
    @example(base=0, exp=0, m=2)
    @example(base=(1 << 300) + 5, exp=(1 << 700) - 1, m=2)
    @example(base=3, exp=65537, m=323)
    @example(base=(1 << 64) + 3, exp=65537, m=(1 << 64) - 59)
    def test_window_edges_against_builtin_pow(self, base, exp, m):
        assert bigmod.mod_pow(base, exp, m) == Residue(pow(base, exp, m), m)

    @given(drawn=exponents_from_runs(), base=naturals, m=moduli)
    def test_window_split_against_builtin_pow(self, drawn, base, m):
        width, exp = drawn
        bits = f"{exp:b}"
        assert bigmod._window_split(width)(bits) == per_bit_windows(bits, width)
        assert bigmod.mod_pow(base, exp, m) == Residue(pow(base, exp, m), m)

    @pytest.mark.parametrize("width, lo, hi", WIDTH_BANDS)
    def test_window_split_at_band_edges(self, width, lo, hi):
        for n in (lo, hi):
            # a lone top bit, all ones, and lone 1 bits between zero runs
            # longer than the width
            for exp in (1 << (n - 1), (1 << n) - 1, int((("1" + "0" * (width + 1)) * n)[:n], 2)):
                bits = f"{exp:b}"
                assert bigmod._window_split(width)(bits) == per_bit_windows(bits, width)
                assert bigmod.mod_pow(3, exp, 1009).value == pow(3, exp, 1009)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), bits=st.sampled_from([512, 1024]),
           exp=st.integers(min_value=1 << 1023, max_value=1 << 1100))
    def test_long_exponents_against_builtin_pow(self, data, bits, exp):
        m = data.draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
        base = data.draw(st.integers(min_value=0, max_value=1 << 1100))
        assert bigmod.mod_pow(base, exp, m).value == pow(base, exp, m)

    def test_handles_multi_kilobit_operands(self):
        rng = random.Random(104)
        m = rng.getrandbits(4500) | (1 << 4500) | 1
        base = rng.getrandbits(4400)
        exp = rng.getrandbits(600)
        assert bigmod.mod_pow(base, exp, m).value == pow(base, exp, m)
        assert bigmod.mod_mul(
            bigmod.mod_reduce(base, m), bigmod.mod_reduce(exp, m)
        ).value == base * exp % m


class TestFixedBase:
    @given(base=naturals, exp=st.integers(min_value=0, max_value=1 << 300), m=moduli,
           spare=st.integers(min_value=0, max_value=12))
    @example(base=0, exp=0, m=2, spare=0)
    @example(base=0, exp=5, m=97, spare=0)
    @example(base=1 << 70, exp=(1 << 300) - 1, m=2, spare=0)
    def test_against_builtin_pow(self, base, exp, m, spare):
        table = bigmod.fixed_base(base, exp.bit_length() + spare, m)
        assert bigmod.comb_pow(table, exp) == pow(base, exp, m)

    @pytest.mark.parametrize("exp_bits", [0, 5, 10, 64, 100])
    def test_blocks_hold_products_of_row_powers(self, exp_bits):
        table = bigmod.fixed_base(3, exp_bits, 1009)
        rows = len(table.blocks[0]).bit_length() - 1
        row_bits = table.width * len(table.blocks)
        for j, entries in enumerate(table.blocks):
            assert len(entries) == 1 << rows
            for i, entry in enumerate(entries):
                expected = 1
                for r in range(rows):
                    if i >> r & 1:
                        expected = expected * pow(3, 2 ** (r * row_bits + j * table.width), 1009) % 1009
                assert entry == expected

    def test_every_table_has_eight_rows(self):
        # a 5-bit exponent takes 8 one-bit rows: one block of 2**8 entries
        table = bigmod.fixed_base(5, 5, 23)
        assert (table.width, [len(entries) for entries in table.blocks]) == (1, [2**8])
        assert [len(entries) for entries in bigmod.fixed_base(5, 63, 23).blocks] == [2**8] * 8

    @pytest.mark.parametrize("exp_bits", [0, 5, 10, 63, 100, 1024])
    def test_longest_covered_exponent_and_one_bit_more(self, exp_bits):
        table = bigmod.fixed_base(5, exp_bits, 1019)
        covered = table.width * len(table.blocks) * (len(table.blocks[0]).bit_length() - 1)
        assert covered >= exp_bits
        longest = (1 << covered) - 1
        assert covered == bigmod.comb_reach(table)
        assert bigmod.comb_pow(table, longest) == pow(5, longest, 1019)
        with pytest.raises(ValueError, match="exceeds"):
            bigmod.comb_pow(table, 1 << covered)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidModulusError):
            bigmod.fixed_base(2, 8, 1)
        with pytest.raises(ValueError):
            bigmod.fixed_base(-2, 8, 23)
        with pytest.raises(ValueError):
            bigmod.comb_pow(bigmod.fixed_base(2, 8, 23), -1)


class TestComb:
    # the additive group of the integers: base**e is e * b, so every entry
    # and result is exact and the layout is pinned apart from both groups
    @given(b=st.integers(1, 1 << 64), bits=st.integers(0, 300), blocks=st.sampled_from([1, 8]),
           e=st.integers(0, 1 << 300))
    @example(b=1, bits=0, blocks=1, e=0)
    @example(b=3, bits=128, blocks=1, e=(1 << 128) - 1)
    @example(b=3, bits=1024, blocks=8, e=(1 << 1024) - 1)
    def test_integers_under_addition(self, b, bits, blocks, e):
        table = bigmod.comb(b, bits, blocks, 0, lambda x: 2 * x, operator.add)
        e &= (1 << bits) - 1  # at most bits bits
        assert bigmod.comb_pow(table, e) == e * b
        reach = bigmod.comb_reach(table)
        assert reach >= bits and len(table.blocks) <= blocks
        assert bigmod.comb_pow(table, (1 << reach) - 1) == ((1 << reach) - 1) * b
        with pytest.raises(ValueError, match="exceeds"):
            bigmod.comb_pow(table, 1 << reach)

    # each answered: a 1-bit-row table, and columns [1, 0, 1, 0] for -5
    @pytest.mark.parametrize("func, args, message", [
        (bigmod.comb, (3, -1, 1, 0, lambda x: 2 * x, operator.add), "exponent bits"),
        (bigmod.comb_columns, (-5, 4), "exponent"),
    ])
    def test_negative_refused_by_name(self, func, args, message):
        with pytest.raises(ValueError, match=f"^{message} must be non-negative, got -"):
            func(*args)


class TestScan:
    # the additive group of the integers: base**k is k * g, so the one k with
    # k * g = t is t // g, found when it lies in [1, cap]
    @given(g=st.integers(1, 1 << 64), t=st.integers(-(1 << 20), 1 << 70), cap=st.integers(0, 300))
    @example(g=1, t=0, cap=5)  # the identity itself is never k = 0
    @example(g=3, t=9, cap=3)  # found at the cap
    @example(g=3, t=12, cap=3)  # one past the cap
    @example(g=3, t=10, cap=300)  # g does not divide t
    @example(g=7, t=7, cap=0)  # a zero cap scans nothing
    def test_integers_under_addition(self, g, t, cap):
        if t % g == 0 and 1 <= t // g <= cap:
            expected = t // g
        else:
            expected = None
        assert bigmod.scan(g, t, cap, 0, operator.add) == expected

    @pytest.mark.parametrize("cap", [-1, -(2**64)])
    def test_negative_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="cap"):
            bigmod.scan(1, 1, cap, 0, operator.add)


class TestGcdFamily:
    def test_lcm_of_seven_and_nine(self):
        assert bigmod.lcm(7, 9) == 63

    @pytest.mark.parametrize("a", [1, 7, 360, 10**40])
    def test_gcd_with_zero(self, a):
        assert bigmod.gcd(a, 0) == a
        assert bigmod.gcd(0, a) == a

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            bigmod.gcd(0, 0)
        with pytest.raises(ValueError):
            bigmod.extended_gcd(0, 0)

    def test_lcm_zero_rejected(self):
        with pytest.raises(ValueError):
            bigmod.lcm(0, 9)
        with pytest.raises(ValueError):
            bigmod.lcm(9, 0)

    def test_key_setup_coefficients(self):
        g, x, y = bigmod.extended_gcd(17, 288)
        assert (g, x, y) == (1, 17, -1)
        assert 17 * 17 - 288 * 1 == 1

    def test_bezout_identity_bulk(self):
        rng = random.Random(202)
        for _ in range(10**4):
            a = rng.randrange(0, 1 << 128)
            b = rng.randrange(1, 1 << 128)
            g, x, y = bigmod.extended_gcd(a, b)
            assert a * x + b * y == g
            assert g == math.gcd(a, b)

    @given(a=naturals | st.integers(0, 3), b=naturals | st.integers(0, 3))
    @example(a=0, b=7)
    @example(a=7, b=0)
    @example(a=1 << 200, b=0)
    def test_extended_gcd_matches_three_sequence_loop(self, a, b):
        if a == 0 and b == 0:
            return
        assert bigmod.extended_gcd(a, b) == three_sequence_extended_gcd(a, b)

    @given(a=naturals, b=naturals)
    def test_gcd_matches_math_gcd(self, a, b):
        if a == 0 and b == 0:
            return
        assert bigmod.gcd(a, b) == math.gcd(a, b)
        if a and b:
            assert bigmod.lcm(a, b) * bigmod.gcd(a, b) == a * b


class TestModInv:
    def test_private_exponent(self):
        assert bigmod.mod_inv(17, 288).value == 17

    @pytest.mark.parametrize("m", [2, 11, 288, 10**9 + 7])
    def test_identity(self, m):
        assert bigmod.mod_inv(1, m).value == 1

    def test_brute_force_scan(self):
        expected = next(x for x in range(11) if 7 * x % 11 == 1)
        assert expected == 8
        assert bigmod.mod_inv(7, 11).value == 8

    def test_not_invertible_carries_gcd(self):
        with pytest.raises(NotInvertibleError) as info:
            bigmod.mod_inv(6, 9)
        assert info.value.gcd == 3

    @given(a=st.integers(min_value=1, max_value=1 << 80), m=moduli)
    def test_inverse_multiplies_to_one(self, a, m):
        try:
            inv = bigmod.mod_inv(a, m)
        except NotInvertibleError as e:
            assert e.gcd == math.gcd(a, m) != 1
            return
        assert bigmod.mod_mul(bigmod.mod_reduce(a, m), inv).value == 1


class TestModDiv:
    def test_four_sevenths(self):
        assert bigmod.mod_div(4, 7, 11).value == 10
        assert 7 * 10 % 11 == 4

    @pytest.mark.parametrize("a,m", [(0, 7), (5, 7), (123, 11)])
    def test_neutral_divisor(self, a, m):
        assert bigmod.mod_div(a, 1, m).value == a % m

    def test_negative_divisor_named(self):
        with pytest.raises(ValueError, match="^b must be non-negative, got -3$"):
            bigmod.mod_div(2, -3, 7)

    def test_non_coprime_divisor_rejected(self):
        assert bigmod.gcd(4, 9) == 1  # that pair is fine
        assert bigmod.mod_div(6, 4, 9).value == 6 * 7 % 9
        with pytest.raises(NotInvertibleError) as info:
            bigmod.mod_div(6, 3, 9)
        assert info.value.gcd == 3


class TestCancelFactor:
    def test_worked_cancellation(self):
        # 12 = 20 (mod 8); cancelling 2 leaves 6 = 10 (mod 4)
        reduced = bigmod.cancel_factor(6, 10, 2, 8)
        assert reduced == 4
        assert (6 - 10) % reduced == 0
        assert {x % 8 for x in (12, 20)} == {4}

    def test_coprime_factor_keeps_modulus(self):
        assert bigmod.cancel_factor(5, 12, 3, 7) == 7
        assert (5 * 3 - 12 * 3) % 7 == 0

    @pytest.mark.parametrize("a,k,n", [(4, 6, 9), (0, 5, 8), (7, 7, 7)])
    def test_reflexive_always_holds(self, a, k, n):
        assert bigmod.cancel_factor(a, a, k, n) == n // bigmod.gcd(k, n)

    def test_violated_precondition(self):
        with pytest.raises(ValueError):
            bigmod.cancel_factor(1, 2, 3, 7)

    def test_zero_factor_refused(self):
        with pytest.raises(ValueError, match="^factor must be positive, got 0$"):
            bigmod.cancel_factor(1, 1, 0, 7)

    def test_enumerated_against_definition(self):
        rng = random.Random(303)
        for _ in range(500):
            n = rng.randrange(2, 200)
            k = rng.randrange(1, 50)
            a = rng.randrange(0, 200)
            d = bigmod.gcd(k, n)
            b = a + rng.randrange(0, 5) * (n // d)  # guarantees a*k = b*k (mod n)
            reduced = bigmod.cancel_factor(a, b, k, n)
            assert reduced == n // d
            assert (a - b) % reduced == 0


class TestCongruenceLaws:
    def test_exponent_reduction_sweep(self):
        # a**b = a**(b mod phi(m)) (mod m) whenever gcd(a, m) = 1
        rng = random.Random(404)
        for m in range(2, 201):
            phi = numtheory.totient(m)
            for a in range(1, m):
                if bigmod.gcd(a, m) != 1:
                    continue
                b = rng.randrange(0, 10**9)
                full = bigmod.mod_pow(a, b, m)
                reduced = bigmod.mod_pow(a, b % phi, m)
                assert full == reduced, (a, b, m)

    def test_totient_power_is_unity_small_sweep(self):
        for m in range(2, 101):
            phi = numtheory.totient(m)
            for a in range(1, m):
                if bigmod.gcd(a, m) == 1:
                    assert bigmod.mod_pow(a, phi, m).value == 1, (a, m)

    def test_congruence_splits_over_prime_powers(self):
        rng = random.Random(505)
        for m in range(2, 361):
            prime_powers = [p**e for p, e in numtheory.factor_trial(m).factors]
            for _ in range(10):
                a = rng.randrange(0, 3 * m)
                b = a + rng.choice([0, m, 2 * m, rng.randrange(1, m + 1)])
                whole = (a - b) % m == 0
                split = all((a - b) % q == 0 for q in prime_powers)
                assert whole == split, (a, b, m)


class TestTextForms:
    @pytest.mark.parametrize(
        "text,value",
        [("0", 0), ("42", 42), ("0x2a", 42), ("0X2A", 42), (" 171371 ", 171371)],
    )
    def test_parse(self, text, value):
        assert bigmod.parse_natural(text) == value

    def test_parse_rejects_negative(self):
        with pytest.raises(ValueError):
            bigmod.parse_natural("-3")

    @pytest.mark.parametrize(
        "text", ["3_23", "0x_ff", "0xf_f", "+3", "٣٢٣", "0x", "", "0b101", "1e3"]
    )
    def test_parse_rejects_non_digits(self, text):
        with pytest.raises(ValueError):
            bigmod.parse_natural(text)

    @given(text=st.text() | st.text(alphabet="0123456789abcdefxX_+- ٣"))
    def test_parse_fuzz(self, text):
        try:
            n = bigmod.parse_natural(text)
        except ValueError:
            return
        assert text.strip().isascii()
        assert bigmod.parse_natural(bigmod.render_natural(n)) == n
        assert bigmod.parse_natural(bigmod.render_natural(n, hexadecimal=True)) == n

    @pytest.mark.parametrize("n", [0, 1, 42, 171371, 1 << 200])
    def test_round_trip_both_bases(self, n):
        assert bigmod.parse_natural(bigmod.render_natural(n)) == n
        assert bigmod.parse_natural(bigmod.render_natural(n, hexadecimal=True)) == n

    def test_decimal_past_the_limit_refused_with_the_toolkits_reason(self):
        # Python converts at most 4300 decimal digits by default; hex has no limit
        n = 10**4300
        with pytest.raises(ValueError, match="^decimal number of 4301 digits, above the limit "
                                             "of 4300; write it in 0x hex$"):
            bigmod.parse_natural("1" + "0" * 4300)
        with pytest.raises(ValueError, match="^a 14285-bit number has more decimal digits than "
                                             "the limit of 4300; print it with --hex$"):
            bigmod.render_natural(n)
        assert bigmod.parse_natural(bigmod.render_natural(n, hexadecimal=True)) == n

    def test_canonical_forms(self):
        assert bigmod.render_natural(0) == "0"
        assert bigmod.render_natural(0, hexadecimal=True) == "0x0"
        assert bigmod.render_natural(255, hexadecimal=True) == "0xff"


class TestResidue:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Residue(7, 5)
        with pytest.raises(ValueError):
            Residue(-1, 5)

    def test_int_conversion(self):
        assert int(bigmod.mod_reduce(30, 24)) == 6

    def test_str(self):
        assert str(Residue(3, 7)) == "3 (mod 7)"
