"""Diffie-Hellman key agreement over a prime modulus, plus Eve's attack.

Both parties raise the shared generator to their own secret exponent; the
agreed secret is g**(a*b) mod p, reachable from either side.  The
brute-force discrete-log scan shows what the eavesdropper is up against,
at moduli small enough to watch it run.

Public values all raise the same generator, so they come from a table of
its powers built once per group (bigmod.fixed_base, the Lim-Lee comb of
HAC Alg. 14.117 with 8 blocks): a 1024-bit public value then costs 15
squarings and at most 128 products.  The agreed secret raises the peer's
value, which changes from call to call, by bigmod.mod_pow's sliding window
(HAC Alg. 14.85).

Textbook caveats apply: the group is taken as given (no safe-prime or
subgroup-order checks), so a degenerate peer value like 1 or p-1 only
triggers a warning, not an error.
"""

from __future__ import annotations

import functools
import random
import warnings

from . import bigmod, numtheory
from ._record import record


class WeakPublicValueWarning(UserWarning):
    """Peer public value lies in a trivially small subgroup."""


@record
class DhParams:
    """Group parameters, checked when built: p prime, 2 < g < p - 2.

    The primality test, numtheory.is_prime, comes last: a p above
    bigmod.MAX_GROUP_BITS, a p below 7 (which leaves no g in that range)
    and a g out of range are each refused before it.  A supplied p takes
    the whole test; a p that numtheory.random_prime drew keeps its verdict
    and takes only the trial division (about 0.1 ms at 1024 bits, against
    25 ms for the whole test).
    """

    p: int
    g: int

    def __post_init__(self):
        bigmod.check_modulus_bits(self.p, limit=bigmod.MAX_GROUP_BITS)
        if self.p < 7:
            raise ValueError(
                f"modulus {self.p} leaves no generator in the range (2, {self.p - 2}); need p >= 7")
        if not 2 < self.g < self.p - 2:
            raise ValueError(f"generator must satisfy 2 < g < {self.p - 2}, got {self.g}")
        if not numtheory.is_prime(self.p).is_prime:
            raise ValueError(f"modulus {self.p} is not prime")

    @functools.cached_property
    def generator_table(self) -> bigmod.Comb:
        """Comb table of g mod p for every exponent below 2**bits(p), built on first use."""
        return bigmod.fixed_base(self.g, self.p.bit_length(), self.p)


@record
class DhKeyPair:
    secret: int
    public: int


@record
class DlogResult:
    """Outcome of a brute-force discrete-log scan."""

    exponent: int | None
    steps: int

    @property
    def found(self) -> bool:
        return self.exponent is not None


def make_params(p: int, g: int) -> DhParams:
    """The group of prime p and generator g; DhParams checks both."""
    return DhParams(p, g)


def _check_secret(params: DhParams, secret: int) -> None:
    # x**0 = 1 and, by Fermat, x**(p-1) = 1 for every x in (0, p): either
    # exponent gives a public value or an agreed secret anyone can guess
    bigmod.check_int(secret, "secret")
    if not 1 <= secret <= params.p - 2:
        raise ValueError(f"secret must lie in [1, {params.p - 2}], got {secret}")


def public_of(params: DhParams, secret: int) -> int:
    """Public value g**secret mod p, from the group's fixed-base table."""
    _check_secret(params, secret)
    return bigmod.comb_pow(params.generator_table, secret)


def gen_keypair(params: DhParams, rng=None) -> DhKeyPair:
    """Fresh secret drawn uniformly from [2, p - 2] with its public value."""
    rng = rng or random.SystemRandom()
    secret = rng.randrange(2, params.p - 1)
    return DhKeyPair(secret=secret, public=public_of(params, secret))


def shared_secret(params: DhParams, my_secret: int, their_public: int) -> int:
    """their_public**my_secret mod p; identical on both sides.

    my_secret must lie in [1, p - 2], as public_of requires: 0 and p - 1
    would make the agreed secret 1 whatever the peer sent.
    """
    _check_secret(params, my_secret)
    bigmod.check_int(their_public, "peer value")
    if not 0 < their_public < params.p:
        raise ValueError(f"peer value must lie in (0, {params.p}), got {their_public}")
    if their_public == 1 or their_public == params.p - 1:
        warnings.warn(
            f"peer value {their_public} generates a tiny subgroup; "
            "the agreed secret is guessable",
            WeakPublicValueWarning,
            stacklevel=2,
        )
    return bigmod.mod_pow(their_public, my_secret, params.p).value


def brute_force_dlog(params: DhParams, target_public: int, cap: int) -> DlogResult:
    """Smallest k <= cap with g**k = target (mod p), by bigmod.scan; cap must be >= 0."""
    bigmod.check_int(target_public, "target")
    if not 0 < target_public < params.p:
        raise ValueError(f"target must lie in (0, {params.p}), got {target_public}")
    k = bigmod.scan(params.g, target_public, cap, 1, lambda x, y, p=params.p: x * y % p)
    return DlogResult(k, k or cap)
