"""Primes, factorization, the Euler totient, and prime-density estimates.

Factoring here is deliberately naive (trial division only, with a divisor
cap): the point is to make the cost of inverting a multiplication
observable, not to hide it.

All randomness flows through a caller-supplied rng (anything with
randrange/getrandbits, e.g. random.Random or random.SystemRandom).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys

from . import bigmod
from ._record import record

SIEVE_LIMIT_CAP = 10**8
DEFAULT_DIVISOR_CAP = 1 << 32

COMPOSITE = "composite"
PROBABLY_PRIME = "probably-prime"
PROVEN_PRIME = "proven-prime"


class SieveLimitError(ValueError):
    """Sieve limit above the configured cap."""


class FactorLimitError(ValueError):
    """Trial division ran out of budget; carries the partial result."""

    def __init__(self, n: int, partial: tuple[tuple[int, int], ...], cofactor: int):
        extracted = str(Factorization(partial)) or "nothing"
        super().__init__(
            f"factoring {n} exceeded the divisor cap; "
            f"extracted {extracted}, cofactor {cofactor} unresolved"
        )
        self.partial = partial
        self.cofactor = cofactor


@record
class Factorization:
    """Prime factorization as ((p1, e1), (p2, e2), ...) with p1 < p2 < ..."""

    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def __str__(self) -> str:
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


@record
class PrimalityVerdict:
    """Outcome of a primality check.

    kind is one of COMPOSITE, PROBABLY_PRIME, PROVEN_PRIME.  For composites
    of at least 2, witness holds either a prime factor found by trial
    division, a proper divisor found by is_prime's gcd with the primes in
    [2**11, 2**15), taken only for n of at least _GCD_MIN_BITS bits, or
    the square root of a perfect square that baillie_psw finds (each with
    rounds 0), or a Miller-Rabin witness base: 2 with rounds 1 when the
    base-2 test rejects n, otherwise the random base of the round that
    rejected it.  A rejection by baillie_psw's strong Lucas test has
    witness None, since that test has no base, and rounds 1 for the test,
    as a base-2 rejection has.  rounds counts the random-base rounds run,
    the rejecting one included, and leaves out the base-2 and Lucas tests
    that ran before them.  Those tests run on top of the random rounds and
    leave their 4**-rounds bound on a composite passing as it is.
    """

    kind: str
    witness: int | None = None
    rounds: int = 0

    @property
    def is_prime(self) -> bool:
        return self.kind != COMPOSITE


def sieve_primes(limit: int) -> list[int]:
    """All primes strictly below limit, by the sieve of Eratosthenes."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_LIMIT_CAP:
        raise SieveLimitError(f"sieve limit {limit} above cap {SIEVE_LIMIT_CAP}")
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return list(itertools.compress(range(limit), flags))


# About 85% of random odd candidates have a prime factor below 2**11, and
# dividing by all of them costs a small fraction of the modular
# exponentiation each such candidate would otherwise take.
_SMALL_PRIME_BOUND = 1 << 11
_SMALL_PRIMES = tuple(sieve_primes(_SMALL_PRIME_BOUND))

# About 27% of the candidates that pass that division have a prime factor
# in [2**11, 2**15), which one gcd with their product finds.  Sized by
# measurement on 512-bit candidates (2 vCPUs, Python 3.11), where one
# Miller-Rabin round costs 0.9 ms: with the bound at 2**14, 2**15, 2**16 the
# gcd costs 0.08, 0.11, 0.17 ms, finds a factor in 22%, 30%, 35% of them,
# and the product takes 1.0, 2.4, 5.7 ms to build, once a process; 2**15
# saved the most keygen time when the bound was chosen.
_GCD_PRIME_BOUND = 1 << 15

# Bits from which is_prime takes that gcd; below it the gcd costs more than
# the base-2 tests it saves, and the product is never built.  Timed as
# random_prime(b, random.Random(f"gcd-{b}-{i}")) for i in 0..99, with the
# product built, with and without the gcd, alternating over 5 repetitions
# (2 vCPUs, Python 3.11; medians, and repetitions the gcd won):
#     b      with gcd   without   gcd won
#     256    0.66 s     0.67 s    2 of 5
#     384    1.33 s     1.18 s    1 of 5
#     512    2.65 s     2.90 s    5 of 5
# Per number that reaches it, the gcd costs 66, 89, 100 us at 256, 384, 512
# bits and spares about 30% of them a base-2 test of 187, 288, 659 us.  512
# is the least size it won 4 of 5 times, and keeps it for keygen's 512-bit
# candidates.
_GCD_MIN_BITS = 512


@functools.cache  # built on first use: it costs milliseconds, import should not
def _gcd_primes_product() -> int:
    # product of the primes in [_SMALL_PRIME_BOUND, _GCD_PRIME_BOUND), by a
    # balanced product tree so that every multiplication has equal-sized halves
    level = sieve_primes(_GCD_PRIME_BOUND)[len(_SMALL_PRIMES):]
    while len(level) > 1:
        level = [a * b for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1:]
    return level[0]


def fermat_probable_prime(n: int, base: int) -> bool:
    """Fermat test: base**(n-1) = 1 (mod n)?

    A True answer does not prove primality; plenty of composites (341 = 11*31
    to base 2, for instance) pass.  False proves compositeness.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    if not 2 <= base <= n - 2:
        raise ValueError(f"base must lie in [2, {n - 2}], got {base}")
    return bigmod.mod_pow(base, n - 1, n).value == 1


# Exponent bits per chunk of _pow2.  Timed at 512 and 1024 bits (2 vCPUs,
# Python 3.11): widths 5 to 8 differ by less than their noise; a wider chunk
# makes each shift's remainder longer, a narrower one adds remainders.
# bigmod.mod_pow(2, e, n) gives the same value, but _pow2 takes 0.72 of its
# time at 128 bits and 0.92 at 512 (0.98 at 1024), medians over 30 random
# odd moduli; with mod_pow in its place, keygen_random(1024) ran 5% fewer
# keys a second.
_POW2_CHUNK = 7


def _pow2(e: int, n: int) -> int:
    # 2**e mod n for e >= 1, a chunk of _POW2_CHUNK exponent bits at a time:
    # the chunk's squarings, then one multiplication by 2**chunk, a shift
    top = (e.bit_length() - 1) // _POW2_CHUNK * _POW2_CHUNK
    r = (1 << (e >> top)) % n
    mask = (1 << _POW2_CHUNK) - 1
    for i in range(top - _POW2_CHUNK, -1, -_POW2_CHUNK):
        for _ in range(_POW2_CHUNK):
            r = r * r % n
        r = (r << ((e >> i) & mask)) % n
    return r


def _odd_part(m: int) -> tuple[int, int]:
    # (d, s) with m = 2**s * d and d odd, for m >= 1
    s = (m & -m).bit_length() - 1
    return m >> s, s


def _is_witness(n: int, x: int, s: int) -> bool:
    # x = a**d mod n, where n - 1 = 2**s * d with d odd; True means a proves
    # n composite: x is not 1, and neither x nor its next s - 1 squarings is n - 1
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _trial_division(n: int) -> PrimalityVerdict | None:
    # the verdict of dividing n >= 2 by each prime in _SMALL_PRIMES in order,
    # or None when that settles nothing: n is at least 2**22 with no factor
    # below 2**11.  Composite verdicts pass kind, witness and rounds by
    # position, a record's fast path: keygen makes hundreds of them per key.
    for p in _SMALL_PRIMES:
        if n % p == 0:  # p is n's smallest prime factor, or n itself
            if p == n:
                return PrimalityVerdict(PROVEN_PRIME)
            return PrimalityVerdict(COMPOSITE, p, 0)
    if n < _SMALL_PRIME_BOUND**2:
        # a composite below 2**22 has a prime factor below 2**11
        return PrimalityVerdict(PROVEN_PRIME)
    return None


def _random_rounds(n: int, d: int, s: int, rounds: int, a: int, rng) -> PrimalityVerdict:
    # `rounds` Miller-Rabin rounds on n, where n - 1 = 2**s * d with d odd:
    # the first with base a, drawn by the caller, the others with bases drawn here
    for i in range(rounds):
        if i:
            a = rng.randrange(2, n - 1)
        if _is_witness(n, bigmod.mod_pow(a, d, n).value, s):
            return PrimalityVerdict(COMPOSITE, a, i + 1)
    return PrimalityVerdict(PROBABLY_PRIME, None, rounds)


# The Miller-Rabin rounds is_prime runs by default, and the most
# random_prime_rounds gives.
_MAX_ROUNDS = 40


def is_prime(n: int, rounds: int = _MAX_ROUNDS, rng=None) -> PrimalityVerdict:
    """Primality verdict: trial division by the primes below 2**11, a gcd, then Miller-Rabin.

    Trial division settles every n below 2**22 (PROVEN_PRIME, or COMPOSITE
    with the smallest prime factor as witness) and rejects most larger
    composites without drawing from the rng.  It divides n by each prime
    in _SMALL_PRIMES in order.  A larger n with no factor below 2**11 draws
    the first Miller-Rabin base.  Then, if n has at least _GCD_MIN_BITS
    bits, it takes one gcd with the product of the primes in
    [2**11, 2**15): a proper divisor makes it COMPOSITE with that divisor
    as witness and rounds 0.  A smaller n skips the gcd, and nothing builds
    the product.

    Next comes a strong probable-prime test to base 2 (Pomerance, Selfridge
    and Wagstaff, 1980; the first step of Baillie-PSW).  _pow2 computes
    2**d mod n by squarings and shifts, with no table and no product by the
    base, so it costs less than a random-base round.  A composite it
    rejects is COMPOSITE with witness 2 and rounds 1, and pays for no
    random-base exponentiation.  Otherwise n gets `rounds` Miller-Rabin
    rounds with random bases, the first being the one drawn before the
    gcd; a composite passes them with probability at most 4**-rounds.

    The first base is drawn before the gcd, whether or not the gcd runs, so
    a composite that the gcd or base 2 rejects takes the one draw its first
    random round would have taken, and a prime takes `rounds` draws.
    random_prime therefore gives the same primes from a seeded rng as with
    neither check, unless the first random base was a strong liar for a
    composite that either rejects.

    In the package only random_prime calls it, on candidates it draws
    itself.  Numbers a caller supplies, and every RSA key's factors on its
    first private use, go to baillie_psw instead, which puts a strong Lucas
    test in place of most of these rounds.
    """
    if rounds < 1:
        raise ValueError(f"need at least one Miller-Rabin round, got {rounds}")
    if n < 2:
        return PrimalityVerdict(COMPOSITE)
    verdict = _trial_division(n)
    if verdict is not None:
        return verdict
    rng = rng or random.SystemRandom()
    a = rng.randrange(2, n - 1)
    if n.bit_length() >= _GCD_MIN_BITS:
        g = bigmod.gcd(n, _gcd_primes_product() % n)
        if 1 < g < n:  # g == n: every factor lies in the range; Miller-Rabin finds it
            return PrimalityVerdict(COMPOSITE, g, 0)
    d, s = _odd_part(n - 1)
    if _is_witness(n, _pow2(d, n), s):
        return PrimalityVerdict(COMPOSITE, 2, 1)
    return _random_rounds(n, d, s, rounds, a, rng)


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n >= 1: 1 or -1, or 0 when a and n share a factor.

    HAC Alg. 2.149 as a loop.  Each factor 2 taken out of a flips the sign
    when n = 3 or 5 (mod 8); then quadratic reciprocity swaps a and n,
    flipping the sign when both are 3 (mod 4), and reduces the new a mod
    the new n.  For a prime n it is the Legendre symbol: 1 for a nonzero
    square mod n, -1 for a non-square.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"the Jacobi symbol needs an odd n >= 1, got {n}")
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            sign = -sign
        if a & n & 3 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # The strong Lucas probable-prime test with Selfridge's method A (Baillie
    # and Wagstaff 1980), for odd n >= 3 that is not a perfect square: for a
    # square no D has (D/n) = -1, and the search below would not end.  D is
    # the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    # Q = (1 - D)/4.  With n + 1 = 2**s * d, d odd, n passes when U_d = 0 or
    # V_(d * 2**r) = 0 (mod n) for some r < s.  A D that shares a factor
    # with n proves it composite, unless |D| = n.
    D = 5
    while (symbol := jacobi(D, n)) != -1:
        if symbol == 0:
            return abs(D) == n
        D = -D + 2 if D < 0 else -D - 2
    Q = (1 - D) // 4
    d, s = _odd_part(n + 1)
    # U_k, V_k and Q**k mod n, from k = 1 along the bits of d below the top
    # one: U_2k = U_k V_k and V_2k = V_k**2 - 2Q**k; then, for a set bit,
    # U_k+1 = (U_k + V_k)/2 and V_k+1 = (D U_k + V_k)/2, since P = 1, where
    # halving mod the odd n adds n to an odd value first
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, D * u + v
            u, v = (u + (u & 1) * n) // 2 % n, (v + (v & 1) * n) // 2 % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


# The random-base Miller-Rabin rounds baillie_psw runs after its fixed tests.
_BPSW_ROUNDS = 3


def baillie_psw(n: int, rng=None) -> PrimalityVerdict:
    """Primality verdict for a number a caller supplies: Baillie-PSW, then 3 random rounds.

    This is the test for numbers that may be built to fool a primality
    test: a group prime (dh.make_params, ecc.make_curve) and the factors of
    an RSA key, tested once per key object (rsa.RsaPrivateKey.crt).
    In order:
    - trial division by the primes below 2**11, as in is_prime, which
      settles every n below 2**22;
    - is_prime's strong probable-prime test to base 2 (_pow2);
    - a perfect-square check, with math.isqrt;
    - a strong Lucas test with Selfridge's method A: P = 1 and
      Q = (1 - D)/4 for the first D in 5, -7, 9, -11, ... whose Jacobi
      symbol (D/n) is -1.  With base 2 this is the Baillie-PSW test
      (Baillie and Wagstaff, "Lucas pseudoprimes", Math. Comp. 35, 1980;
      Pomerance, Selfridge and Wagstaff, same volume);
    - _BPSW_ROUNDS = 3 Miller-Rabin rounds with random bases, drawn from
      rng only after the Lucas test.

    FIPS 186-4 App. C.3 pairs Miller-Rabin rounds with a Lucas test in the
    same way.  There is no gcd with the primes in [2**11, 2**15): on the
    prime a caller normally supplies it can only give 1, so its product is
    never built here.

    Why 3 random rounds, where is_prime takes 40:
    - No composite is known to pass Baillie-PSW, and none below 2**64 does
      (checked against Feitsma's list of every base-2 pseudoprime below
      2**64).
    - A crafted n can be built to pass any bases fixed in advance; random
      bases drawn after n is fixed are what it cannot anticipate.  Albrecht,
      Massimo, Paterson and Somorovsky ("Prime and Prejudice: Primality
      Testing Under Adversarial Conditions", ACM CCS 2018) built such
      composites against library tests, and recommend Baillie-PSW for
      numbers that may be adversarial.
    - 4**-3 bounds only the random rounds: the chance that a composite
      which Baillie-PSW let through also passes them.  It is a backstop,
      not the reason to trust the verdict.

    Verdicts: as is_prime's for n below 2**22 and for trial division.  A
    composite that base 2 rejects is COMPOSITE with witness 2 and rounds 1,
    a perfect square COMPOSITE with its square root as witness and rounds
    0, one the Lucas test rejects COMPOSITE with witness None and rounds 1,
    and one a random round rejects COMPOSITE with that base and the round's
    number.  Otherwise n is PROBABLY_PRIME with rounds 3.  A composite that
    a fixed test rejects draws nothing from rng.
    """
    if n < 2:
        return PrimalityVerdict(COMPOSITE)
    verdict = _trial_division(n)
    if verdict is not None:
        return verdict
    d, s = _odd_part(n - 1)
    if _is_witness(n, _pow2(d, n), s):
        return PrimalityVerdict(COMPOSITE, 2, 1)
    root = math.isqrt(n)
    if root * root == n:
        return PrimalityVerdict(COMPOSITE, root, 0)
    if not _strong_lucas(n):
        return PrimalityVerdict(COMPOSITE, None, 1)
    rng = rng or random.SystemRandom()
    return _random_rounds(n, d, s, _BPSW_ROUNDS, rng.randrange(2, n - 1), rng)


def factor_trial(n: int, divisor_cap: int = DEFAULT_DIVISOR_CAP) -> Factorization:
    """Complete factorization by trial division up to sqrt(n).

    Raises FactorLimitError once a divisor beyond divisor_cap would be
    needed, reporting the factors extracted so far and the cofactor left;
    divisor_cap must be >= 0.
    """
    if n < 2:
        raise ValueError(f"cannot factor {n}")
    if divisor_cap < 0:
        raise ValueError(f"divisor cap must be non-negative, got {divisor_cap}")
    factors: list[tuple[int, int]] = []
    m = n
    d = 2
    while d * d <= m:
        if d > divisor_cap:
            raise FactorLimitError(n, tuple(factors), m)
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(tuple(factors))


def totient_from_factorization(f: Factorization) -> int:
    """phi from a known factorization: product of p**(e-1) * (p-1)."""
    phi = 1
    for p, e in f.factors:
        phi *= p ** (e - 1) * (p - 1)
    return phi


def totient(n: int, divisor_cap: int = DEFAULT_DIVISOR_CAP) -> int:
    """Euler's phi: how many of 1..n are coprime to n.  phi(1) = 1.

    n is factored by factor_trial, which raises FactorLimitError once a
    divisor beyond divisor_cap would be needed.
    """
    if n < 1:
        raise ValueError(f"totient undefined for {n}")
    if n == 1:
        return 1
    return totient_from_factorization(factor_trial(n, divisor_cap))


# random_prime's target error per prime: 2**-100, with one bit spare because
# its candidates come from the top quarter of the k-bit range, not the top
# half, and drawing from half the range can at most double the error.
_RANDOM_PRIME_LOG2_ERROR = -101


def _dlp_log2_error(k: int, t: int) -> float:
    # log2 of the least of HAC Fact 4.48 (ii)-(iv) that applies to (k, t);
    # inf when none does (every k < 21, and t = 2 with k < 88)
    lg = math.log2
    iv = 15 / 4 * lg(k) - lg(7) - k / 2 - 2 * t
    bounds = [math.inf]
    if k >= 21:
        if (t == 2 and k >= 88) or 3 <= t <= k / 9:
            bounds.append(1.5 * lg(k) + t - 0.5 * lg(t) + 2 * (2 - math.sqrt(t * k)))
        if k / 9 <= t <= k / 4:
            terms = (lg(7 / 20 * k) - 5 * t, iv, lg(12 * k) - k / 4 - 3 * t)
            top = max(terms)
            bounds.append(top + lg(sum(2.0 ** (x - top) for x in terms)))
        if t >= k / 4:
            bounds.append(iv)
    return min(bounds)


@functools.lru_cache(maxsize=256)  # the loop costs more than a small prime does
def random_prime_rounds(bits: int) -> int:
    """Miller-Rabin rounds random_prime runs on each `bits`-bit candidate.

    The smallest t for which the Damgard-Landrock-Pomerance bounds (Damgard,
    Landrock and Pomerance, "Average case error estimates for the strong
    probable prime test", Math. Comp. 61, 1993; HAC Fact 4.48 (ii)-(iv) and
    Table 4.4) put the chance that a random odd k-bit number passing t rounds
    is composite at or below 2**-101, capped at 40: 40 rounds for 64 bits,
    31 for 128, 18 for 256, 8 for 512 and 4 for 1024.  The bound holds only
    for numbers drawn at random; a number a caller supplies may be built to
    fool Miller-Rabin, so it goes to baillie_psw instead.
    """
    for t in range(2, _MAX_ROUNDS):
        if _dlp_log2_error(bits, t) <= _RANDOM_PRIME_LOG2_ERROR:
            return t
    return _MAX_ROUNDS


def random_prime(bits: int, rng=None) -> int:
    """A probable prime with exactly `bits` bits, the top two of them set.

    Candidates are odd, with the top two bits forced as in FIPS 186-5
    App. A.1.3, so the product of two such primes has exactly the sum of
    their bit lengths.  Each gets random_prime_rounds(bits) Miller-Rabin
    rounds, which the DLP bound sizes for a 2**-100 chance of a composite.
    """
    if bits < 4:
        raise ValueError(f"need at least 4 bits, got {bits}")
    rng = rng or random.SystemRandom()
    rounds = random_prime_rounds(bits)
    while True:
        candidate = (3 << (bits - 2)) | rng.getrandbits(bits - 2) | 1
        if is_prime(candidate, rounds=rounds, rng=rng).is_prime:
            return candidate


def pnt_estimate(x: int) -> float:
    """Approximate count of primes up to x as x/ln(x).

    Raises ValueError when x/ln(x) exceeds the largest float, as it does
    for x above about 2**1033.5.
    """
    if x < 3:
        raise ValueError(f"estimate needs x >= 3, got {x}")
    ln_x = math.log(x)  # takes ints of any size; float(x) would overflow
    if x.bit_length() < 1024:
        return x / ln_x
    try:
        return math.exp(ln_x - math.log(ln_x))
    except OverflowError:
        raise ValueError(
            f"x/ln(x) for a {x.bit_length()}-bit x exceeds the float range "
            f"(at most {sys.float_info.max:.4g})"
        ) from None


def pnt_between(lo: int, hi: int) -> float:
    """Approximate count of primes in (lo, hi]."""
    if lo >= hi:
        raise ValueError(f"need lo < hi, got {lo} >= {hi}")
    return pnt_estimate(hi) - pnt_estimate(lo)


def key_count(n_parties: int) -> int:
    """Pairwise secret keys needed by n parties: n(n-1)/2, exactly."""
    if n_parties < 1:
        raise ValueError(f"need at least one party, got {n_parties}")
    return n_parties * (n_parties - 1) // 2
