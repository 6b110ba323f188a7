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
    of at least 2, witness holds a prime factor found by trial division or
    the square root of a perfect square (each with rounds 0), 2 with rounds
    1 when the base-2 test rejects n, None with rounds 1 when the strong
    Lucas test does (that test has no base), or else the random base of the
    round that rejected n.  rounds counts the random-base rounds run, the
    rejecting one included, and leaves out the fixed tests that ran before
    them, so a probable prime has rounds 3.
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

# Bits from which random_prime takes that gcd; below it the gcd costs more
# than the base-2 tests it saves, and the product is never built.  Timed as
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


# The random-base Miller-Rabin rounds is_prime runs after its fixed tests.
_RANDOM_ROUNDS = 3


def is_prime(n: int, rng=None) -> PrimalityVerdict:
    """Primality verdict: trial division, Baillie-PSW, then 3 random-base rounds.

    The package's one primality test.  random_prime runs it on the
    candidates it draws, and it tests every number a caller supplies: a
    group prime (dh.make_params, ecc.make_curve) and the factors of an RSA
    key, once per key object (rsa.RsaPrivateKey.crt).  In order:
    - trial division by the primes below 2**11, in order, which settles
      every n below 2**22 (PROVEN_PRIME, or COMPOSITE with the smallest
      prime factor as witness) and rejects about 85% of larger random odd
      numbers;
    - a strong probable-prime test to base 2 (Pomerance, Selfridge and
      Wagstaff, 1980).  _pow2 computes 2**d mod n by squarings and shifts,
      with no table and no product by the base, so it costs less than a
      random-base round;
    - a perfect-square check, with math.isqrt;
    - a strong Lucas test with Selfridge's method A: P = 1 and
      Q = (1 - D)/4 for the first D in 5, -7, 9, -11, ... whose Jacobi
      symbol (D/n) is -1.  With base 2 this is the Baillie-PSW test
      (Baillie and Wagstaff, "Lucas pseudoprimes", Math. Comp. 35, 1980;
      Pomerance, Selfridge and Wagstaff, same volume);
    - _RANDOM_ROUNDS = 3 Miller-Rabin rounds with random bases, drawn from
      rng only after the Lucas test.

    FIPS 186-4 App. C.3 pairs Miller-Rabin rounds with a Lucas test in the
    same way.  Why 3 random rounds:
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

    PrimalityVerdict lists the verdicts.  A composite that a fixed test
    rejects draws nothing from rng, and a prime draws 3 bases.
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
    for i in range(1, _RANDOM_ROUNDS + 1):
        a = rng.randrange(2, n - 1)
        if _is_witness(n, bigmod.mod_pow(a, d, n).value, s):
            return PrimalityVerdict(COMPOSITE, a, i)
    return PrimalityVerdict(PROBABLY_PRIME, None, _RANDOM_ROUNDS)


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


def random_prime(bits: int, rng=None) -> int:
    """A probable prime with exactly `bits` bits, the top two of them set, by is_prime.

    Candidates are odd, with the top two bits forced as in FIPS 186-5
    App. A.1.3, so the product of two such primes has exactly the sum of
    their bit lengths.  Below _GCD_MIN_BITS bits every candidate goes to
    is_prime.  From that size up, a candidate is first screened here, by
    trial division and then one gcd with the product of the primes in
    [2**11, 2**15), and goes to is_prime only when neither finds a factor:
    the gcd spares about a quarter of the candidates that trial division
    leaves open a base-2 test.  is_prime divides each candidate it gets
    again, which at 512 bits costs 47 us against 0.7 ms for that test.  A
    composite draws nothing from rng, so a seeded rng's candidates follow
    one another in its stream, and the prime draws 3 bases after them.
    """
    if bits < 4:
        raise ValueError(f"need at least 4 bits, got {bits}")
    rng = rng or random.SystemRandom()
    while True:
        candidate = (3 << (bits - 2)) | rng.getrandbits(bits - 2) | 1
        if (bits >= _GCD_MIN_BITS and (_trial_division(candidate) is not None
                or bigmod.gcd(candidate, _gcd_primes_product() % candidate) > 1)):
            continue
        if is_prime(candidate, rng).is_prime:
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
