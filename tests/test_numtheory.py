import hashlib
import inspect
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toycrypt import bigmod, dh, ecc, envelope, numtheory, rsa, sha1
from toycrypt.numtheory import (
    COMPOSITE,
    PROBABLY_PRIME,
    PROVEN_PRIME,
    FactorLimitError,
    Factorization,
    PrimalityVerdict,
    SieveLimitError,
)
from test_dh import OAKLEY_1024
from vectors import (
    KEYGEN_1024_SEED_KEYGEN_0_KEY_SHA1,
    KEYGEN_1024_SEED_KEYGEN_0_P,
    KEYGEN_1024_SEED_KEYGEN_0_Q,
    KEYGEN_256_SEED_1_KEY,
    PRIMES_BELOW_1000,
    RANDOM_PRIME_512_SEED_SQUARE_512,
    RANDOM_PRIME_SEEDED_SHA1,
)


class TestSieve:
    def test_below_thirty(self):
        assert numtheory.sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_empty(self):
        assert numtheory.sieve_primes(2) == []

    def test_matches_printed_table(self):
        assert numtheory.sieve_primes(1000) == PRIMES_BELOW_1000
        assert len(PRIMES_BELOW_1000) == 168

    def test_limit_is_exclusive(self):
        assert 997 in numtheory.sieve_primes(998)
        assert 997 not in numtheory.sieve_primes(997)

    def test_cap(self):
        with pytest.raises(SieveLimitError):
            numtheory.sieve_primes(10**8 + 1)

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            numtheory.sieve_primes(1)


class TestFermat:
    def test_pseudoprime_341(self):
        # 341 = 11 * 31 passes to base 2: the test cannot prove primality
        assert numtheory.fermat_probable_prime(341, 2) is True
        assert not numtheory.is_prime(341).is_prime

    def test_true_prime(self):
        assert numtheory.fermat_probable_prime(7, 2) is True

    def test_composite_caught(self):
        assert bigmod.mod_pow(2, 8, 9).value == 4
        assert numtheory.fermat_probable_prime(9, 2) is False

    @pytest.mark.parametrize("n,base", [(2, 2), (8, 3), (9, 0), (9, 8), (341, 340)])
    def test_range_violations(self, n, base):
        with pytest.raises(ValueError):
            numtheory.fermat_probable_prime(n, base)

    def test_holds_for_all_small_primes_and_bases(self):
        for p in numtheory.sieve_primes(1000):
            if p < 5:
                continue
            for a in range(2, p - 1):
                assert numtheory.fermat_probable_prime(p, a), (p, a)

    def test_holds_for_larger_primes_sampled_bases(self):
        rng = random.Random(606)
        for p in numtheory.sieve_primes(10**4):
            if p < 1000 or p < 5:
                continue
            for a in (2, 3, rng.randrange(2, p - 1)):
                assert numtheory.fermat_probable_prime(p, a), (p, a)


class CountingRandom(random.Random):
    """random.Random that counts its randrange draws (Miller-Rabin bases)."""

    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


class NoDraws:
    """An rng that fails the test on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used")


# primes below 2**16, by trial division: is_prime divides by those below
# 2**11, and random_prime's candidates of at least _GCD_MIN_BITS bits take
# one gcd with the product of those in [2**11, 2**15)
PRIMES_BELOW_2_16 = [
    n for n in range(2, 1 << 16) if all(n % d for d in range(2, math.isqrt(n) + 1))
]
PRIMES_FROM_2_11 = [p for p in PRIMES_BELOW_2_16 if p >= 1 << 11]
GCD_RANGE_PRIMES = [p for p in PRIMES_FROM_2_11 if p < 1 << 15]
PRIMES_BELOW_2_11 = [p for p in PRIMES_BELOW_2_16 if p < 1 << 11]
SIEVED_BELOW_2_16 = set(numtheory.sieve_primes(1 << 16))


def plain_trial_division(n: int) -> int | None:
    """The least prime below 2**11 that divides n, one division at a time."""
    return next((p for p in PRIMES_BELOW_2_11 if n % p == 0), None)


class TestIsPrime:
    def test_factor_pair_of_171371(self):
        assert numtheory.is_prime(409).kind == PROVEN_PRIME
        assert numtheory.is_prime(419).kind == PROVEN_PRIME

    @pytest.mark.parametrize("n", [0, 1])
    def test_units_rejected(self, n):
        assert numtheory.is_prime(n).is_prime is False

    def test_composite_carries_checkable_divisor(self):
        verdict = numtheory.is_prime(341)
        assert verdict.kind == COMPOSITE
        assert 341 % verdict.witness == 0

    def test_large_composite_carries_witness(self):
        n = (2**89 - 1) * (2**61 - 1)
        verdict = numtheory.is_prime(n, rng=random.Random(1))
        assert verdict.kind == COMPOSITE
        assert verdict.witness is not None and 2 <= verdict.witness <= n - 2

    def test_large_prime_is_probable(self):
        rng = CountingRandom(2)
        verdict = numtheory.is_prime(2**89 - 1, rng)
        assert verdict.kind == PROBABLY_PRIME
        assert verdict.rounds == rng.draws == 3

    def test_takes_n_and_rng_only(self):
        # one test for drawn and supplied numbers alike: no rounds to size
        assert list(inspect.signature(numtheory.is_prime).parameters) == ["n", "rng"]
        with pytest.raises(TypeError):
            numtheory.is_prime(2**89 - 1, rounds=3)

    def test_agrees_with_sieve_below_1e5(self):
        members = set(numtheory.sieve_primes(10**5))
        rng = random.Random(707)
        for n in range(2, 10**5):
            assert numtheory.is_prime(n, rng).is_prime == (n in members), n

    def test_agrees_with_sieve_around_2_22(self):
        # trial division by the primes below 2**11 proves exactly the n below
        # 2**22; the window just under 2**22 lies above 2039**2, the square
        # of the largest such prime
        members = set(numtheory.sieve_primes(1 << 23))
        rng = random.Random(708)
        sample = [*range((1 << 22) - 2000, (1 << 22) + 2000)]
        sample += [rng.randrange(1 << 16, 1 << 23) for _ in range(3000)]
        for n in sample:
            verdict = numtheory.is_prime(n, rng)
            assert verdict.is_prime == (n in members), n
            if verdict.is_prime:
                assert verdict.kind == (PROVEN_PRIME if n < 1 << 22 else PROBABLY_PRIME), n

    # 2039 is the largest prime below 2**11, the last one trial division tries
    @pytest.mark.parametrize("factor", [3, 2039])
    def test_small_factor_found_without_rng(self, factor):
        verdict = numtheory.is_prime(factor * (2**89 - 1), rng=object())
        assert verdict == numtheory.PrimalityVerdict(COMPOSITE, witness=factor, rounds=0)

    # f is any prime trial division tries; c has no prime factor below f,
    # so f is the smallest prime factor of n = f * c
    @given(st.sampled_from(PRIMES_BELOW_2_11).flatmap(
        lambda f: st.tuples(st.just(f), st.one_of(
            st.sampled_from([p for p in PRIMES_BELOW_2_16 if p >= f]),
            st.sampled_from([2**61 - 1, 2**89 - 1, 2**127 - 1]),
            st.integers(0, 3).map(lambda k: f**k * (2**89 - 1)),
        ))))
    def test_grouped_division_finds_the_smallest_factor(self, drawn):
        f, c = drawn
        n = f * c
        assert plain_trial_division(n) == f
        assert numtheory.is_prime(n, rng=NoDraws()) == PrimalityVerdict(COMPOSITE, f, 0)

    def test_every_small_prime_proven(self):
        for p in numtheory._SMALL_PRIMES:
            assert numtheory.is_prime(p, rng=NoDraws()) == PrimalityVerdict(PROVEN_PRIME), p


POW2_CHUNK = numtheory._POW2_CHUNK


def pow2_exponents():
    """e = 1, and exponents of k*j - 1, k*j and k*j + 1 bits, k = _POW2_CHUNK.

    With k*j bits the chunks split evenly; with one bit fewer or more, the
    leading chunk has k - 1 bits or a single one.
    """
    lengths = st.integers(1, 80).flatmap(
        lambda j: st.sampled_from([POW2_CHUNK * j - 1, POW2_CHUNK * j, POW2_CHUNK * j + 1]))
    return st.one_of(st.just(1), lengths.flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)))


def strong_probable_prime(n: int, a: int) -> bool:
    """Strong probable-prime test of odd n >= 5 to base a, on built-in pow."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any((x := x * x % n) == n - 1 for _ in range(s - 1))


class TestBase2Test:
    @settings(deadline=None)
    @given(n=st.one_of(st.integers(1, 1 << 12), st.integers(1, (1 << 4095) - 1)).map(lambda m: 2 * m + 1),
           e=pow2_exponents())
    # the least and the largest modulus, with a leading chunk of all ones:
    # a shift of 2**k - 1 bits, far past n = 3
    @example(n=3, e=(1 << 3 * POW2_CHUNK) - 1)
    @example(n=(1 << 4096) - 1, e=(1 << 3 * POW2_CHUNK) - 1)
    def test_kernel_against_builtin_pow(self, n, e):
        assert numtheory._pow2(e, n) == pow(2, e, n)

    # no factor below 2**11, so trial division leaves each to base 2, at any
    # size: is_prime takes no gcd, and the product of the 40 largest primes
    # below 2**15, of about 600 bits, has every factor in [2**11, 2**15)
    @pytest.mark.parametrize("n", [
        2053 * 2063, 32719 * 32749, 32771 * (2**61 - 1), (2**89 - 1) * (2**61 - 1),
        2053 * (2**89 - 1), 32749 * (2**61 - 1), 32771 * (2**521 - 1),
        2053 * (2**521 - 1), math.prod(GCD_RANGE_PRIMES[-40:]),
    ])
    def test_composite_rejected_by_base_2_without_a_draw(self, n):
        assert not strong_probable_prime(n, 2)
        assert numtheory.is_prime(n, rng=NoDraws()) == PrimalityVerdict(COMPOSITE, 2, 1)


def reference_verdict(n: int) -> tuple[str, int | None]:
    """Kind and divisor witness is_prime should give for 2**22 <= n < 2**81.

    The witness is None where trial division does not decide.  Built from
    trial division by the primes below 2**11 and a Miller-Rabin test on
    built-in pow with the primes up to 41 as bases, which is exact below
    3.3 * 10**24 (Sorenson and Webster, 2015).
    """
    witness = plain_trial_division(n)
    if witness is not None:
        return COMPOSITE, witness
    if all(strong_probable_prime(n, a) for a in PRIMES_BELOW_1000[:13]):
        return PROBABLY_PRIME, None
    return COMPOSITE, None


class ScriptedRandom(random.Random):
    """random.Random whose getrandbits returns the given values first, in order."""

    def __init__(self, *values):
        super().__init__(0)
        self.values = list(values)

    def getrandbits(self, k):
        return self.values.pop(0) if self.values else super().getrandbits(k)


class ScriptedCountingRandom(ScriptedRandom, CountingRandom):
    """ScriptedRandom that also counts its randrange draws."""


def least_candidate(bits: int, factor: int) -> int:
    """The least factor * q, q an odd prime, of `bits` bits with the top two set."""
    q = -(-(3 << (bits - 2)) // factor) | 1
    while not numtheory.is_prime(q).is_prime:
        q += 2
    return factor * q


class TestGcdFilter:
    # random_prime's candidate is 3 << (bits - 2) | getrandbits(bits - 2) | 1,
    # so a script of getrandbits values sets its candidates.  3 and 2039 are
    # the least and the largest odd prime below 2**11, which random_prime's
    # trial division finds before the gcd; 2053 and 32749 are the least and
    # the largest prime in [2**11, 2**15), which the gcd finds, and 32771 the
    # least prime above 2**15, which neither does; 512 bits, _GCD_MIN_BITS,
    # is random_prime's size in keygen_random(1024)
    @pytest.mark.parametrize("factor, reaches_base_2", [
        (3, False), (2039, False), (2053, False), (32749, False), (32771, True),
    ])
    def test_keygen_sized_candidate_takes_the_gcd(self, monkeypatch, factor, reaches_base_2):
        bits = numtheory._GCD_MIN_BITS
        top = 3 << (bits - 2)
        composite = least_candidate(bits, factor)
        prime = numtheory.random_prime(bits, random.Random("gcd-512"))
        numtheory._gcd_primes_product.cache_clear()
        verdicts = spy_verdicts(monkeypatch, "_probable_prime")
        assert numtheory.random_prime(bits, ScriptedRandom(composite - top, prime - top)) == prime
        # a candidate the gcd drops never reaches the base-2 test
        assert verdicts == [PrimalityVerdict(COMPOSITE, 2, 1)] * reaches_base_2 + [
            PrimalityVerdict(PROBABLY_PRIME, None, 3)]
        assert numtheory._gcd_primes_product.cache_info().currsize == 1

    # the draw contract along random_prime's path, below and from
    # _GCD_MIN_BITS: each candidate is one getrandbits draw, a composite that
    # reaches the base-2 test is rejected there and draws no base, and the
    # prime draws exactly 3, so a seeded stream holds the candidates back to back
    @pytest.mark.parametrize("bits", [64, 256, numtheory._GCD_MIN_BITS])
    def test_composites_draw_nothing_and_the_prime_three_bases(self, monkeypatch, bits):
        top = 3 << (bits - 2)
        composites = [least_candidate(bits, 32771), least_candidate(bits, 32779)]
        prime = numtheory.random_prime(bits, random.Random(f"draws-{bits}"))
        verdicts = spy_verdicts(monkeypatch, "_probable_prime")
        rng = ScriptedCountingRandom(*(c - top for c in composites), prime - top)
        assert numtheory.random_prime(bits, rng) == prime
        assert rng.values == [] and rng.draws == 3
        assert verdicts == [PrimalityVerdict(COMPOSITE, 2, 1)] * 2 + [
            PrimalityVerdict(PROBABLY_PRIME, None, 3)]

    # trial division runs once per candidate at every size: below
    # _GCD_MIN_BITS as well as from it, where the gcd screen sits between it
    # and the base-2 test.  3 is found by trial division, 2053 by the gcd
    # from _GCD_MIN_BITS and by base 2 below it, 32771 by base 2.
    @pytest.mark.parametrize("bits", [64, numtheory._GCD_MIN_BITS])
    def test_each_candidate_is_divided_once(self, monkeypatch, bits):
        top = 3 << (bits - 2)
        candidates = [least_candidate(bits, factor) for factor in (3, 2053, 32771)]
        candidates.append(numtheory.random_prime(bits, random.Random(f"divided-{bits}")))
        verdicts = spy_verdicts(monkeypatch, "_trial_division")
        rng = ScriptedCountingRandom(*(c - top for c in candidates))
        assert numtheory.random_prime(bits, rng) == candidates[-1]
        assert rng.values == [] and rng.draws == 3
        # one division per candidate, in order; only the first is settled by it
        assert verdicts == [PrimalityVerdict(COMPOSITE, 3, 0), None, None, None]

    def test_below_the_gcd_size_the_product_is_not_built(self):
        numtheory._gcd_primes_product.cache_clear()
        numtheory.random_prime(numtheory._GCD_MIN_BITS - 1, random.Random(1))
        assert numtheory._gcd_primes_product.cache_info().currsize == 0

    @given(st.sampled_from(PRIMES_FROM_2_11),
           st.one_of(st.integers(1, 2**64), st.sampled_from(PRIMES_BELOW_2_16)),
           st.integers(0, 2**32))
    def test_agrees_with_reference(self, p, cofactor, seed):
        n = p * cofactor
        if n < 1 << 22:
            n *= 2053
        kind, witness = reference_verdict(n)
        verdict = numtheory.is_prime(n, random.Random(seed))
        assert verdict.is_prime == (kind != COMPOSITE)
        if witness is not None:
            assert (verdict.witness, verdict.rounds) == (witness, 0)
        elif kind == COMPOSITE:
            assert verdict.witness is None or 2 <= verdict.witness <= n - 2

    # is_prime takes no gcd at any size: from _GCD_MIN_BITS bits up, a
    # number whose small factors all lie in [2**11, 2**15) goes to base 2 and
    # draws nothing; 2**521 - 1 and 2**607 - 1 are Mersenne primes
    @given(st.lists(st.sampled_from(GCD_RANGE_PRIMES), min_size=1, max_size=3),
           st.sampled_from([2**521 - 1, 2**607 - 1]))
    def test_agrees_with_reference_at_gcd_sizes(self, factors, prime):
        n = math.prod(factors) * prime
        assert n.bit_length() >= numtheory._GCD_MIN_BITS
        assert not strong_probable_prime(n, 2)
        assert numtheory.is_prime(n, NoDraws()) == PrimalityVerdict(COMPOSITE, 2, 1)

    def test_seeded_key_unchanged(self):
        _, key = rsa.keygen_random(1024, 65537, random.Random("keygen-0"))
        assert (key.p, key.q) == (KEYGEN_1024_SEED_KEYGEN_0_P, KEYGEN_1024_SEED_KEYGEN_0_Q)
        digest = hashlib.sha1(rsa.write_private_key(key).encode()).hexdigest()
        assert digest == KEYGEN_1024_SEED_KEYGEN_0_KEY_SHA1


def bpsw_reference(n: int) -> bool:
    """Primality of n below 2**64 by trial division and the prime bases up to 37.

    The strong test to those bases, on built-in pow, is exact below
    318665857834031151167461, the least composite that passes it (Sorenson
    and Webster, 2015).
    """
    if n < 2:
        return False
    factor = plain_trial_division(n)
    if factor is not None:
        return factor == n
    return n < 1 << 22 or all(strong_probable_prime(n, a) for a in PRIMES_BELOW_1000[:12])


def legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p by Euler's criterion on built-in pow."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# composites that no trial division below 2**11 finds and that pass the
# strong test to base 2 and more: the Lucas test is what rejects them
LUCAS_REJECTED = {
    4297753027: 3,  # 32779 * 131113: to bases 2 and 3
    3825123056546413051: 31,  # strong pseudoprime to every prime base up to 31
    318665857834031151167461: 37,  # up to 37
    3317044064679887385961981: 41,  # up to 41
}


# the strong Lucas pseudoprimes with Selfridge's parameters below 200000,
# OEIS A217255
STRONG_LUCAS_PSEUDOPRIMES = [
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439, 100127,
    113573, 115639, 130139, 155819, 158399, 161027, 162133, 176399, 176471, 189419, 192509,
    197801,
]


class TestBailliePSW:
    # the strong Lucas pseudoprimes above, and the least strong pseudoprimes
    # to base 2; trial division would find a factor of each first, so the
    # kernel is called directly
    @pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
    def test_lucas_kernel_passes_strong_lucas_pseudoprimes(self, n):
        assert plain_trial_division(n) is not None and not strong_probable_prime(n, 2)
        assert numtheory._strong_lucas(n)

    @pytest.mark.parametrize("n", [2047, 3277, 4033, 3215031751])
    def test_lucas_kernel_rejects_base_2_strong_pseudoprimes(self, n):
        assert strong_probable_prime(n, 2)
        assert not numtheory._strong_lucas(n)

    def test_kernel_agrees_with_trial_division_below_200000(self):
        # the strong Lucas pseudoprimes above are the only odd composites it passes
        liars = set(STRONG_LUCAS_PSEUDOPRIMES)
        for n in range(3, 200000, 2):
            if math.isqrt(n) ** 2 != n:
                prime = all(n % d for d in range(3, math.isqrt(n) + 1, 2))
                assert numtheory._strong_lucas(n) == (prime or n in liars), n

    def test_strong_pseudoprime_to_bases_2_to_7_meets_trial_division_first(self):
        n = 3215031751  # 151 * 751 * 28351
        assert all(strong_probable_prime(n, a) for a in (2, 3, 5, 7))
        assert numtheory.is_prime(n, rng=NoDraws()) == PrimalityVerdict(COMPOSITE, 151, 0)

    @pytest.mark.parametrize("n", sorted(LUCAS_REJECTED))
    def test_strong_pseudoprimes_to_many_bases_rejected_by_lucas(self, n):
        assert plain_trial_division(n) is None
        top = LUCAS_REJECTED[n]
        assert all(strong_probable_prime(n, a) for a in PRIMES_BELOW_1000 if a <= top)
        # and to no larger prime base, which shows the entry is not a prime
        assert not strong_probable_prime(n, next(a for a in PRIMES_BELOW_1000 if a > top))
        verdict = numtheory.is_prime(n, rng=NoDraws())
        assert verdict == PrimalityVerdict(COMPOSITE, None, 1)

    def test_a_lucas_rejection_reads_unlike_every_other(self, monkeypatch):
        # trial division and perfect squares give a divisor with rounds 0,
        # base 2 gives (2, 1), a random round its base and round number
        lucas = numtheory.is_prime(3317044064679887385961981, rng=NoDraws())
        others = [
            numtheory.is_prime(3 * (2**89 - 1), rng=NoDraws()),
            numtheory.is_prime((2**89 - 1) * (2**61 - 1), rng=NoDraws()),
            numtheory.is_prime(3511**2, rng=NoDraws()),
        ]
        # a random round rejects n only once the Lucas test has let it through
        monkeypatch.setattr(numtheory, "_strong_lucas", lambda n: True)
        rng = CountingRandom(1)
        by_round = numtheory.is_prime(3825123056546413051, rng=rng)
        assert [(v.witness, v.rounds) for v in others] == [(3, 0), (2, 1), (3511, 0)]
        assert by_round.witness > 2 and by_round.rounds == rng.draws >= 1
        assert lucas == PrimalityVerdict(COMPOSITE, None, 1)
        assert all(v.kind == COMPOSITE and v.witness is not None for v in [*others, by_round])

    # (2**31 - 1)**2 and (2**89 - 1)**2 fail base 2; 3511 is a Wieferich
    # prime, above 2**11, so its square passes base 2 and only the square
    # check stops it.  For a square, no D has (D/n) = -1.
    @pytest.mark.parametrize("root", [
        2**31 - 1, 2**89 - 1, 3511, RANDOM_PRIME_512_SEED_SQUARE_512,
    ], ids=["2**31-1", "2**89-1", "3511", "512-bit"])
    def test_perfect_squares_never_reach_the_d_search(self, monkeypatch, root):
        def no_search(*args):
            raise AssertionError("searched for D")

        monkeypatch.setattr(numtheory, "jacobi", no_search)
        monkeypatch.setattr(numtheory, "_strong_lucas", no_search)
        verdict = numtheory.is_prime(root * root, rng=NoDraws())
        assert verdict.kind == COMPOSITE and verdict.rounds in (0, 1)
        assert verdict.witness == (3511 if root == 3511 else 2)

    def test_prime_takes_three_random_rounds_after_the_fixed_tests(self):
        rng = CountingRandom(1)
        assert numtheory.is_prime(2**521 - 1, rng=rng) == PrimalityVerdict(PROBABLY_PRIME, None, 3)
        assert rng.draws == 3

    def test_random_rounds_back_up_a_lucas_liar(self, monkeypatch):
        # were the Lucas test fooled, a random round still rejects n
        monkeypatch.setattr(numtheory, "_strong_lucas", lambda n: True)
        n = 3825123056546413051
        rng = CountingRandom(2)
        verdict = numtheory.is_prime(n, rng=rng)
        assert verdict.kind == COMPOSITE and 2 <= verdict.witness <= n - 2
        assert 1 <= verdict.rounds == rng.draws <= 3

    def test_no_gcd_product_for_a_supplied_prime(self):
        numtheory._gcd_primes_product.cache_clear()
        assert numtheory.is_prime(OAKLEY_1024).is_prime
        assert numtheory._gcd_primes_product.cache_info().currsize == 0

    def test_no_gcd_product_for_a_key_file_used_once(self):
        # these 521- and 607-bit factors are above _GCD_MIN_BITS, but a key's
        # factors get is_prime alone, read or used, and it takes no gcd
        _, priv = rsa.keygen_from_primes(2**521 - 1, 2**607 - 1, 65537)
        text = rsa.write_private_key(priv)
        numtheory._gcd_primes_product.cache_clear()
        assert rsa.private_op(43, rsa.read_private_key(text)) == pow(43, priv.d, priv.n)
        assert numtheory._gcd_primes_product.cache_info().currsize == 0

    @pytest.mark.parametrize("supply, tested", [
        (lambda: rsa.keygen_from_primes(2**61 - 1, 2**89 - 1, 65537), 2),
        (lambda: rsa.read_private_key("n=%#x\nd=0x3\np=%#x\nq=%#x\n" % (
            (2**61 - 1) * (2**89 - 1), 2**61 - 1, 2**89 - 1)), 2),
        (lambda: dh.make_params(2**89 - 1, 3), 1),
        (lambda: ecc.make_curve(2, 3, 2**127 - 1), 1),
    ], ids=["keygen_from_primes", "read_private_key", "dh.make_params", "ecc.make_curve"])
    def test_caller_supplied_numbers_tested_once(self, monkeypatch, supply, tested):
        verdicts = spy_verdicts(monkeypatch, "is_prime")
        supply()
        assert verdicts == [PrimalityVerdict(PROBABLY_PRIME, rounds=3)] * tested

    def test_group_tested_when_built_and_never_in_use(self, monkeypatch):
        verdicts = spy_verdicts(monkeypatch, "is_prime")
        params = dh.make_params(2**89 - 1, 3)
        curve = ecc.make_curve(7, 25 - 27 - 21, 2**127 - 1)  # through (3, 5)
        assert verdicts == [PrimalityVerdict(PROBABLY_PRIME, rounds=3)] * 2
        public = dh.public_of(params, 10)
        assert dh.shared_secret(params, 11, public) == pow(3, 110, 2**89 - 1)
        assert dh.brute_force_dlog(params, public, 10).exponent == 10
        point = ecc.EccPoint(3, 5)
        for k in (5, 6, 7):  # double-and-add, the comb's build, the comb
            ecc.scalar_mul(curve, k, point)
        assert len(verdicts) == 2

    def test_group_above_the_maximum_refused_before_any_test(self, monkeypatch):
        def no_test(*args):
            raise AssertionError("tested a group prime for primality")

        monkeypatch.setattr(numtheory, "is_prime", no_test)
        # a Mersenne prime of 4423 bits, refused for its size alone
        with pytest.raises(ValueError, match="^modulus has 4423 bits, above the limit of 2048$"):
            dh.DhParams(2**4423 - 1, 3)
        with pytest.raises(ValueError, match="^field order has 4423 bits, above the limit of 2048$"):
            ecc.EccCurve(1, 1, 2**4423 - 1)

    # odd numbers, numbers below 2**16, and products of two primes that trial
    # division cannot split, which reach base 2 and the Lucas test
    @given(st.one_of(st.integers(0, 2**63 - 1).map(lambda k: 2 * k + 1),
                     st.integers(0, 1 << 16),
                     st.tuples(st.sampled_from(PRIMES_FROM_2_11),
                               st.sampled_from(PRIMES_FROM_2_11)).map(math.prod)),
           st.integers(0, 2**32))
    @example(1, 0)
    @example(2**61 - 1, 0)
    @example(2**64 - 59, 0)  # the largest prime below 2**64
    @example(3825123056546413051, 0)
    @example(3511**2, 0)
    def test_agrees_with_reference_below_2_64(self, n, seed):
        verdict = numtheory.is_prime(n, rng=random.Random(seed))
        assert verdict.is_prime == bpsw_reference(n)
        if n < 1 << 16:
            assert verdict.is_prime == (n in SIEVED_BELOW_2_16)

    @given(st.sampled_from(PRIMES_BELOW_2_16[1:]), st.integers(-(2**70), 2**70))
    def test_jacobi_is_euler_criterion_for_primes(self, p, a):
        assert numtheory.jacobi(a, p) == legendre(a, p)

    @given(st.integers(1, 10**6).map(lambda k: 2 * k + 1), st.integers(-(2**70), 2**70))
    def test_jacobi_is_the_product_of_legendre_symbols(self, n, a):
        expected = math.prod(legendre(a, p) ** e for p, e in numtheory.factor_trial(n).factors)
        assert numtheory.jacobi(a, n) == expected

    @pytest.mark.parametrize("n", [0, -3, 2, 10])
    def test_jacobi_needs_an_odd_positive_n(self, n):
        with pytest.raises(ValueError, match="odd n >= 1"):
            numtheory.jacobi(5, n)

    def test_jacobi_of_one(self):
        assert [numtheory.jacobi(a, 1) for a in (-2, 0, 1, 7)] == [1, 1, 1, 1]


class TestFactorTrial:
    def test_hard_looking_product(self):
        f = numtheory.factor_trial(171371)
        assert f.factors == ((409, 1), (419, 1))
        assert str(f) == "409 * 419"

    def test_key_modulus(self):
        assert numtheory.factor_trial(323).factors == ((17, 1), (19, 1))

    def test_repeated_division_oracle(self):
        f = numtheory.factor_trial(288)
        assert f.factors == ((2, 5), (3, 2))
        assert str(f) == "2^5 * 3^2"
        m = 288
        for p, e in f.factors:
            for _ in range(e):
                assert m % p == 0
                m //= p
        assert m == 1

    @pytest.mark.parametrize("p", [2, 3, 97, 65537])
    def test_prime_input(self, p):
        assert numtheory.factor_trial(p).factors == ((p, 1),)

    def test_reconstruction_sweep(self):
        for n in range(2, 10**5):
            assert numtheory.factor_trial(n).value() == n

    def test_cap_carries_partial_result(self):
        n = 8 * 10007 * 10009
        with pytest.raises(FactorLimitError) as info:
            numtheory.factor_trial(n, divisor_cap=1000)
        assert info.value.partial == ((2, 3),)
        assert info.value.cofactor == 10007 * 10009
        assert "extracted 2^3, cofactor 100160063 unresolved" in str(info.value)

    @pytest.mark.parametrize("factor", [numtheory.factor_trial, numtheory.totient])
    def test_cap_past_the_decimal_limit_carries_partial_result(self, factor):
        # 4460 decimal digits, more than Python converts to a str by default
        n = 16**3700 - 1
        with pytest.raises(FactorLimitError) as info:
            factor(n, 2**16)
        assert Factorization(info.value.partial).value() * info.value.cofactor == n
        assert f"factoring {n:#x} exceeded the divisor cap" in str(info.value)
        assert "set_int_max_str_digits" not in str(info.value)

    @pytest.mark.parametrize("cap", [-1, -(2**64)])
    def test_negative_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="divisor cap must be non-negative") as info:
            numtheory.factor_trial(1000, divisor_cap=cap)
        assert not isinstance(info.value, FactorLimitError)

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            numtheory.factor_trial(1)


class TestTotient:
    def test_key_setup_value(self):
        assert numtheory.totient(323) == 288

    @pytest.mark.parametrize("p", [2, 17, 419, 997])
    def test_primes(self, p):
        assert numtheory.totient(p) == p - 1

    def test_sixty_three(self):
        brute = sum(1 for k in range(1, 64) if math.gcd(k, 63) == 1)
        assert brute == 36
        assert numtheory.totient(63) == 36

    def test_one(self):
        assert numtheory.totient(1) == 1

    def test_brute_force_sweep(self):
        for n in range(1, 2001):
            brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            assert numtheory.totient(n) == brute, n

    def test_multiplicative_over_coprime_pairs(self):
        rng = random.Random(808)
        done = 0
        while done < 1000:
            m = rng.randrange(2, 10**4)
            n = rng.randrange(2, 10**4)
            if math.gcd(m, n) != 1:
                continue
            assert numtheory.totient(m * n) == numtheory.totient(m) * numtheory.totient(n)
            done += 1

    def test_from_factorization(self):
        f = Factorization(((2, 5), (3, 2)))
        assert numtheory.totient_from_factorization(f) == 96


class TestRandomPrime:
    def test_eight_bits(self):
        rng = random.Random(909)
        for _ in range(20):
            p = numtheory.random_prime(8, rng)
            assert 128 <= p <= 255
            assert all(p % d for d in range(2, math.isqrt(p) + 1))

    def test_four_bits(self):
        # the top two bits are set: 13 and 15 are the only candidates
        rng = random.Random(910)
        seen = {numtheory.random_prime(4, rng) for _ in range(50)}
        assert seen == {13}

    @given(bits=st.integers(4, 256), seed=st.integers(0, 2**32))
    def test_top_two_bits_set(self, bits, seed):
        assert numtheory.random_prime(bits, random.Random(seed)) >> (bits - 2) == 3

    def test_survivor_gets_scheduled_rounds(self, monkeypatch):
        verdicts = spy_verdicts(monkeypatch, "_probable_prime")
        numtheory.random_prime(512, random.Random(912))
        assert verdicts[-1] == PrimalityVerdict(PROBABLY_PRIME, rounds=3)
        assert not any(v.is_prime for v in verdicts[:-1])

    def test_self_consistent(self):
        rng = random.Random(911)
        for bits in (16, 24, 40, 64):
            p = numtheory.random_prime(bits, rng)
            assert p.bit_length() == bits
            assert numtheory.is_prime(p, rng=rng).is_prime

    def test_too_few_bits(self):
        with pytest.raises(ValueError):
            numtheory.random_prime(3, random.Random(0))

    @pytest.mark.parametrize("bits", [bigmod.MAX_MODULUS_BITS + 1, 10**7])
    def test_too_many_bits_rejected_before_drawing(self, bits):
        # an rng that cannot draw: reaching the search fails, it cannot hang
        with pytest.raises(ValueError, match=f"4 to {bigmod.MAX_MODULUS_BITS} bits, got {bits}"):
            numtheory.random_prime(bits, rng=object())

    @pytest.mark.parametrize("bits", sorted(RANDOM_PRIME_SEEDED_SHA1))
    def test_seeded_primes_unchanged(self, bits):
        primes = [numtheory.random_prime(bits, random.Random(f"prime-{bits}-{i}")) for i in range(10)]
        digest = hashlib.sha1("\n".join(map(str, primes)).encode()).hexdigest()
        assert digest == RANDOM_PRIME_SEEDED_SHA1[bits]
        assert all(oracle_prime(p, bits) for p in primes)

    def test_pinned_key_factors_pass_the_oracle(self):
        fields = dict(line.split("=") for line in KEYGEN_256_SEED_1_KEY.split())
        p, q = int(fields["p"], 16), int(fields["q"], 16)
        assert p * q == int(fields["n"], 16)
        assert oracle_prime(p, 128) and oracle_prime(q, 128)
        assert oracle_prime(KEYGEN_1024_SEED_KEYGEN_0_P, 512)
        assert oracle_prime(KEYGEN_1024_SEED_KEYGEN_0_Q, 512)

    def test_pinned_square_root_passes_the_oracle(self):
        assert oracle_prime(RANDOM_PRIME_512_SEED_SQUARE_512, 512)


class TestDrawnPrime:
    """A prime that random_prime returned keeps its verdict; an int of the same value does not."""

    @pytest.mark.parametrize("build, bits", [
        (lambda p: dh.make_params(p, 5), 256),
        (lambda p: ecc.make_curve(2, 3, p), 128),
    ], ids=["dh.make_params", "ecc.make_curve"])
    def test_group_prime_is_tested_once(self, monkeypatch, build, bits):
        p = numtheory.random_prime(bits, random.Random(951))
        verdicts = spy_verdicts(monkeypatch, "_probable_prime")
        build(p)
        assert verdicts == []
        build(int(p))
        assert verdicts == [PrimalityVerdict(PROBABLY_PRIME, rounds=3)]

    def test_fresh_key_is_tested_once(self, monkeypatch):
        _, priv = rsa.keygen_random(256, rng=random.Random(952))
        verdicts = spy_verdicts(monkeypatch, "_probable_prime")
        assert rsa.private_op(2, priv) == pow(2, priv.d, priv.n)
        assert verdicts == []
        read = rsa.read_private_key(rsa.write_private_key(priv))
        assert verdicts == [PrimalityVerdict(PROBABLY_PRIME, rounds=3)] * 2
        assert rsa.private_op(2, read) == pow(2, priv.d, priv.n)
        assert len(verdicts) == 2

    def test_second_test_draws_nothing(self):
        p = numtheory.random_prime(64, random.Random(953))
        # an rng that cannot draw: a second test of p takes no random round
        assert numtheory.is_prime(p, rng=object()) == PrimalityVerdict(PROBABLY_PRIME, rounds=3)
        assert numtheory.is_prime(int(p), rng=random.Random(0)) == numtheory.is_prime(p)

    def test_small_drawn_prime_is_still_proven(self):
        p = numtheory.random_prime(16, random.Random(954))
        assert numtheory.is_prime(p, rng=object()) == PrimalityVerdict(PROVEN_PRIME)

    @pytest.mark.parametrize("derive", [
        lambda p: p + 0, lambda p: p * 1, lambda p: p - 0, lambda p: p % (p + 1), lambda p: +p,
        lambda p: abs(p), lambda p: p >> 0, lambda p: p << 0, lambda p: p | 0, lambda p: int(p),
        lambda p: bigmod.parse_natural(hex(p)), lambda p: bigmod.parse_natural(str(p)),
    ], ids=["add", "mul", "sub", "mod", "pos", "abs", "rshift", "lshift", "or", "int",
            "parse_hex", "parse_decimal"])
    def test_derived_values_are_plain_ints(self, derive):
        p = numtheory.random_prime(64, random.Random(955))
        assert type(p) is not int
        assert type(derive(p)) is int and derive(p) == p

    def test_key_reads_as_with_plain_factors(self):
        _, priv = rsa.keygen_random(256, rng=random.Random(956))
        plain = rsa.RsaPrivateKey(*(int(v) for v in (priv.n, priv.d, priv.p, priv.q)))
        assert type(priv.p) is not int and type(plain.p) is int
        assert repr(priv) == repr(plain)
        assert rsa.write_private_key(priv) == rsa.write_private_key(plain)
        assert priv == plain and hash(priv) == hash(plain)


def oracle_prime(p: int, bits: int) -> bool:
    """Exactly `bits` bits, the top two set, and strong to the 12 least prime bases (built-in pow)."""
    return (p.bit_length() == bits and p >> (bits - 2) == 3
            and all(strong_probable_prime(p, a) for a in PRIMES_BELOW_1000[:12]))


def spy_verdicts(monkeypatch, name):
    """Wrap numtheory.<name>; returns the list of its verdicts.

    "is_prime" sees the numbers callers supply; "_trial_division" every
    candidate of random_prime, and "_probable_prime" those that its trial
    division (and, from _GCD_MIN_BITS bits, its gcd) leaves open.
    """
    verdicts = []
    real = getattr(numtheory, name)

    def spy(*args, **kwargs):
        verdicts.append(real(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(numtheory, name, spy)
    return verdicts


class TestPrimeCountEstimates:
    def test_thousand(self):
        est = numtheory.pnt_estimate(1000)
        assert est == pytest.approx(1000 / math.log(1000))
        assert 144 < est < 145
        # convergence is slow from above: true count is 168
        assert 1.1 < 168 / est < 1.2

    def test_key_sized_interval(self):
        between = numtheory.pnt_between(2**1023, 2**1024)
        assert 10**304.5 < between < 10**305.5

    def test_monotone_growth(self):
        for x in (8, 100, 10**6, 2**80, 2**1022):
            assert numtheory.pnt_estimate(2 * x) > numtheory.pnt_estimate(x)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            numtheory.pnt_between(100, 100)
        with pytest.raises(ValueError):
            numtheory.pnt_between(200, 100)

    def test_too_small(self):
        with pytest.raises(ValueError):
            numtheory.pnt_estimate(2)

    def test_beyond_the_float_range(self):
        # x/ln(x) > 1.8e308 would read inf, and a difference of two infs nan
        with pytest.raises(ValueError, match="float range"):
            numtheory.pnt_estimate(2**1100)
        with pytest.raises(ValueError, match="float range"):
            numtheory.pnt_between(2**2000, 2**2001)

    def test_sieve_ratio_band(self):
        for x in (10**4, 10**5):
            pi = len(numtheory.sieve_primes(x + 1))
            ratio = pi / (x / math.log(x))
            assert 1.08 <= ratio <= 1.25, (x, ratio)


def decimal_estimate(x: int) -> Decimal:
    # x/ln(x) to the precision of the caller's decimal context
    return Decimal(x) / Decimal(x).ln()


def decimal_between(lo: int, hi: int) -> Decimal:
    # the two estimates agree in at most as many leading digits as hi has,
    # so 30 digits more leave their difference exact far beyond a float's
    with localcontext() as ctx:
        ctx.prec = len(str(hi)) + 30
        return decimal_estimate(hi) - decimal_estimate(lo)


def assert_close(got: float, want: Decimal, rel: float) -> None:
    assert abs(Decimal(got) - want) <= Decimal(rel) * abs(want), (got, want)


class TestPrimeCountOracle:
    """pnt_estimate and pnt_between against x/ln(x) in decimal arithmetic."""

    def test_estimate_from_3_to_2_1033(self):
        # x/ln(x) as exp(ln x - ln ln x) at every size: an exponent near 710
        # carries an absolute error near 1e-13 into the relative error
        rng = random.Random("pnt-estimate")
        xs = [3, 4, 5, 2**1033]
        for bits in range(3, 1034):
            xs += [rng.getrandbits(bits - 1) | 1 << (bits - 1), 2**bits - 1]
        with localcontext() as ctx:
            ctx.prec = 60
            for x in xs:
                assert_close(numtheory.pnt_estimate(x), decimal_estimate(x), 2e-13)

    @pytest.mark.parametrize("lo, hi, approx", [
        (10**20, 10**20 + 1000, 21.2432),
        (2**200, 2**200 + 10**9, 7161440.9),
        (10**20, 10**20 + 10**6, 21243.19),
        (1000, 2000, 118.3618),
        (2**1023, 2**1024, 1.26513e305),
    ], ids=["1e20+1e3", "2^200+1e9", "1e20+1e6", "1000-2000", "2^1023-2^1024"])
    def test_between_listed_intervals(self, lo, hi, approx):
        # the short intervals lose every digit when two rounded estimates,
        # near 2.2e18 and 1.2e58, are subtracted
        between = numtheory.pnt_between(lo, hi)
        assert_close(between, decimal_between(lo, hi), 1e-9)
        assert between == pytest.approx(approx, rel=1e-5)

    @given(st.integers(3, 2**1000).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(1, lo))))
    @example((3, 1))
    @example((3, 3))
    @example((2**1000, 1))
    @example((2**1000, 2**1000 - 1))
    def test_between_any_interval_up_to_twice_lo(self, lo_d):
        lo, d = lo_d
        assert_close(numtheory.pnt_between(lo, lo + d), decimal_between(lo, lo + d), 1e-9)

    def test_between_short_interval_beyond_the_estimates_range(self):
        # neither estimate fits a float, but the count between them does
        lo, hi = 2**2000, 2**2000 + 10**6
        with pytest.raises(ValueError, match="float range"):
            numtheory.pnt_estimate(lo)
        assert_close(numtheory.pnt_between(lo, hi), decimal_between(lo, hi), 1e-9)


@pytest.mark.parametrize("func, args, name", [
    pytest.param(numtheory.is_prime, (7.5,), "n", id="is_prime-float"),
    pytest.param(numtheory.is_prime, (Fraction(15, 2),), "n", id="is_prime-Fraction"),
    pytest.param(numtheory.totient, (7.5,), "n", id="totient-float"),
    pytest.param(numtheory.totient, (1.0,), "n", id="totient-1.0"),
    pytest.param(numtheory.factor_trial, (7.5,), "n", id="factor_trial-float"),
    pytest.param(numtheory.key_count, (2.5,), "n_parties", id="key_count"),
    pytest.param(numtheory.pnt_estimate, (3.5,), "x", id="pnt_estimate"),
    pytest.param(numtheory.pnt_between, (3.5, 5), "lo", id="pnt_between-lo"),
    pytest.param(numtheory.pnt_between, (3, 5.5), "hi", id="pnt_between-hi"),
    pytest.param(bigmod.gcd, (7.5, 3), "a", id="gcd-a"),
    pytest.param(bigmod.gcd, (3, 7.5), "b", id="gcd-b"),
    pytest.param(bigmod.mod_pow, (2.5, 3, 7), "base", id="mod_pow-base"),
    pytest.param(bigmod.mod_pow, (2, 3.0, 7), "exponent", id="mod_pow-exponent"),
    pytest.param(bigmod.mod_pow, (2, 3, 7.0), "modulus", id="mod_pow-modulus"),
    pytest.param(bigmod.mod_reduce, (-7.5, 3), "a", id="mod_reduce"),
    pytest.param(bigmod.Residue, (1.5, 7), "value", id="Residue"),
    pytest.param(dh.make_params, (23.0, 5), "p", id="make_params"),
    pytest.param(ecc.make_curve, (2, 3, 97.0), "p", id="make_curve"),
    pytest.param(rsa.RsaPublicKey, (323, 5.0), "e", id="RsaPublicKey-e"),
    pytest.param(rsa.RsaPrivateKey, (323, 5.0, 17, 19), "d", id="RsaPrivateKey-d"),
    pytest.param(rsa.RsaPrivateKey, (323, 5, 17.0, 19), "p", id="RsaPrivateKey-p"),
    pytest.param(rsa.RsaPrivateKey, (323, 5, 17, 19.0), "q", id="RsaPrivateKey-q"),
    pytest.param(dh.DhParams, (23, 5.0), "g", id="DhParams-g"),
    pytest.param(ecc.make_curve, (2.5, 3, 97), "a", id="make_curve-a"),
    pytest.param(ecc.EccCurve, (2, Fraction(3), 97), "b", id="EccCurve-b"),
    pytest.param(ecc.EccPoint, (3.0, 6.0), "x", id="EccPoint-x"),
    pytest.param(ecc.EccPoint, (3, 6.0), "y", id="EccPoint-y"),
    pytest.param(rsa.BlockStream, (1, 0, (5.0,)), "block", id="BlockStream-block"),
    pytest.param(rsa.BlockStream, (1.0, 0, (5,)), "width", id="BlockStream-width"),
    pytest.param(rsa.BlockStream, (2, 0.0, (5,)), "pad", id="BlockStream-pad"),
    pytest.param(dh.brute_force_dlog, (dh.DhParams(23, 5), 8.0, 22), "target",
                 id="brute_force_dlog-8.0"),
    pytest.param(dh.brute_force_dlog, (dh.DhParams(23, 5), 8.5, 22), "target",
                 id="brute_force_dlog-8.5"),
    pytest.param(dh.DhKeyPair, (1.5, 2.0), "secret", id="DhKeyPair"),
    pytest.param(dh.DlogResult, (1.5, 2), "exponent", id="DlogResult"),
    pytest.param(envelope.SignedMessage, ("x", 3), "text", id="SignedMessage"),
    pytest.param(envelope.Envelope, (b"zz", b"body"), "wrapped_key", id="Envelope"),
    pytest.param(sha1.Digest, ("x" * 20,), "data", id="Digest"),
    pytest.param(numtheory.sieve_primes, (10.5,), "sieve limit", id="sieve_primes"),
    pytest.param(numtheory.random_prime, (10.5,), "bits", id="random_prime"),
    pytest.param(numtheory.jacobi, (1.5, 7), "a", id="jacobi-a"),
    pytest.param(numtheory.jacobi, (2, 7.0), "n", id="jacobi-n"),
    pytest.param(numtheory.fermat_probable_prime, (7.0, 2), "n", id="fermat_probable_prime"),
    pytest.param(numtheory.fermat_probable_prime, (11, 9.5), "base",
                 id="fermat_probable_prime-base"),
    pytest.param(numtheory.factor_trial, (12, 2.5), "divisor cap", id="factor_trial-divisor_cap"),
    pytest.param(numtheory.totient, (12, 2.5), "divisor cap", id="totient-divisor_cap"),
    pytest.param(numtheory.totient, (1, 2.5), "divisor cap", id="totient-1-divisor_cap"),
    pytest.param(Factorization, (((2.5, 1), (3, 1.5)),), "factors", id="Factorization"),
    pytest.param(Factorization, ((12,),), "factors", id="Factorization-bare-int"),
    pytest.param(bigmod.mod_div, (2, 3.0, 7), "b", id="mod_div-b"),
    pytest.param(bigmod.lcm, (0.0, 6), "a", id="lcm-zero-float"),
    pytest.param(bigmod.comb_pow, (bigmod.fixed_base(2, 8, 23), 3.0), "exponent", id="comb_pow"),
    pytest.param(bigmod.cancel_factor, (3, 3, 1.5, 7), "factor", id="cancel_factor-k"),
    pytest.param(bigmod.check_modulus_bits, (1.5,), "modulus", id="check_modulus_bits"),
    pytest.param(bigmod.comb, (5, 2.5, 8, 1, lambda x: x * x, lambda x, y: x * y),
                 "exponent bits", id="comb-exp_bits"),
    pytest.param(bigmod.comb, (5, 8, 2.0, 1, lambda x: x * x, lambda x, y: x * y),
                 "block count", id="comb-block_count"),
    pytest.param(bigmod.comb_columns, (5.5, 4), "exponent", id="comb_columns-exp"),
    pytest.param(bigmod.comb_columns, (5, 4.0), "row bits", id="comb_columns-row_bits"),
    pytest.param(rsa.block_width, (323.0,), "modulus", id="block_width"),
    pytest.param(rsa.encode_message, (b"x", 323.0), "modulus", id="encode_message"),
    pytest.param(rsa.decode_message, (rsa.BlockStream(1, 0, (5,)), 323.0), "modulus",
                 id="decode_message"),
    pytest.param(rsa.public_op, (3.0, rsa.RsaPublicKey(323, 5)), "block", id="public_op"),
    pytest.param(rsa.private_op, (3.0, rsa.RsaPrivateKey(323, 173, 17, 19)), "block",
                 id="private_op"),
    pytest.param(dh.public_of, (dh.DhParams(23, 5), 3.0), "secret", id="public_of"),
    pytest.param(dh.shared_secret, (dh.DhParams(23, 5), 3.0, 5), "secret",
                 id="shared_secret-secret"),
    pytest.param(dh.shared_secret, (dh.DhParams(23, 5), 3, 5.0), "peer value",
                 id="shared_secret-peer"),
    pytest.param(envelope.keystream, (bytes(envelope.SESSION_KEY_BYTES), 3.0), "length",
                 id="keystream"),
])
def test_non_int_refused(func, args, name):
    # each of these read a float or a Fraction as a number and answered
    # wrongly, such as proven-prime for is_prime(7.5) and 1.5 for gcd(7.5, 3),
    # or, for make_params, make_curve and decode_message of a float block,
    # raised AttributeError; brute_force_dlog found 8.0 and scanned its whole
    # budget for 8.5.  The records from DhKeyPair to Digest were built: verify
    # of SignedMessage("x", 3) then failed on concatenating str to bytes, and
    # open_envelope of Envelope(b"zz", body) with an AttributeError.  Of the
    # cases from sieve_primes on, some answered (factor_trial and totient with
    # a float cap, comb with float exp_bits, a Factorization of floats), some
    # raised Python's own TypeError or AttributeError, naming no argument, some
    # named the wrong one, such as a for mod_div's b or base for a block, and
    # some failed a range check first (fermat_probable_prime's base, lcm's 0.0).
    # comb_pow's exponent is now refused by comb_columns, under the same name
    wanted = {"text": "bytes", "wrapped_key": "BlockStream", "data": "bytes",
              "factors": "pairs of ints"}.get(name, "an int")
    with pytest.raises(TypeError, match=f"^{name} must be {wanted}, got "):
        func(*args)


def test_bool_is_an_int():
    assert numtheory.is_prime(True).kind == COMPOSITE
    assert ecc.EccCurve(True, False, 5) == ecc.EccCurve(1, 0, 5)
    assert ecc.EccPoint(True, False) == ecc.EccPoint(1, 0)
    assert numtheory.key_count(True) == 0
    assert bigmod.gcd(True, 4) == 1
    assert bigmod.mod_pow(2, True, 7).value == 2
    assert rsa.BlockStream(True, False, (True,)) == rsa.BlockStream(1, 0, (1,))
    assert dh.DlogResult(False, True) == dh.DlogResult(0, 1)


class TestKeyCount:
    def test_ten_parties(self):
        assert numtheory.key_count(10) == 45

    def test_single_party(self):
        assert numtheory.key_count(1) == 0

    def test_hundred_parties(self):
        import itertools

        assert numtheory.key_count(100) == 4950
        assert numtheory.key_count(100) == sum(
            1 for _ in itertools.combinations(range(100), 2)
        )

    def test_no_parties(self):
        with pytest.raises(ValueError):
            numtheory.key_count(0)
