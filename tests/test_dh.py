import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toycrypt import bigmod, dh, numtheory
from toycrypt.dh import WeakPublicValueWarning

# RFC 2409 section 6.2 (Oakley group 2): a 1024-bit safe prime, the size
# of the benchmark's exchange
OAKLEY_1024 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)

# moduli below 2**12: every prime among them, and every number from -3 up
MODULUS_12 = st.sampled_from(numtheory.sieve_primes(1 << 12)) | st.integers(-3, (1 << 12) - 1)


def trial_prime(n):
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


@pytest.fixture(scope="module")
def classroom_params():
    return dh.make_params(23, 5)


class TestMakeParams:
    def test_valid(self, classroom_params):
        assert classroom_params == dh.DhParams(23, 5)

    def test_table_leaves_equality_and_hash_alone(self):
        built, direct = dh.make_params(23, 5), dh.DhParams(23, 5)
        dh.public_of(built, 6)
        assert "generator_table" in vars(built) and "generator_table" not in vars(direct)
        assert built == direct and hash(built) == hash(direct)
        assert repr(built) == repr(direct) == "DhParams(p=23, g=5)"

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            dh.make_params(24, 5)

    def test_generator_range(self):
        with pytest.raises(ValueError):
            dh.make_params(23, 2)  # must be strictly above 2
        with pytest.raises(ValueError):
            dh.make_params(23, 21)  # must be strictly below p - 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prime_below_7_leaves_no_generator(self, p):
        with pytest.raises(ValueError, match=rf"no generator in the range \(2, {p - 2}\)"):
            dh.make_params(p, 1)

    @pytest.mark.parametrize("p, g, reason", [
        (91, 5, "^modulus 91 is not prime$"),
        (23, 2, r"^generator must satisfy 2 < g < 21, got 2$"),
        (5, 3, r"^modulus 5 leaves no generator in the range \(2, 3\); need p >= 7$"),
    ], ids=["composite", "generator", "below-7"])
    def test_hand_built_group_refused(self, p, g, reason):
        for build in (dh.DhParams, dh.make_params):
            with pytest.raises(ValueError, match=reason):
                build(p, g)

    @given(p=MODULUS_12, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_no_invalid_group_is_built(self, p, data):
        g = data.draw(st.integers(-3, p + 3))
        try:
            params = dh.DhParams(p, g)
        except ValueError:
            return
        assert trial_prime(p) and 2 < g < p - 2
        for secret in (1, p - 2, data.draw(st.integers(1, p - 2))):
            assert dh.public_of(params, secret) == pow(g, secret, p)


class TestKeypairs:
    def test_alice_public(self, classroom_params):
        assert dh.public_of(classroom_params, 6) == 8
        assert divmod(5**6, 23) == (679, 8)

    def test_bob_public(self, classroom_params):
        assert dh.public_of(classroom_params, 15) == 19
        assert 5**15 % 23 == 19

    def test_exponent_one(self, classroom_params):
        assert dh.public_of(classroom_params, 1) == classroom_params.g

    def test_every_classroom_secret_against_builtin_pow(self, classroom_params):
        for secret in range(1, 22):
            assert dh.public_of(classroom_params, secret) == pow(5, secret, 23)

    @given(start=st.integers(min_value=5, max_value=2**130), seed=st.integers(0, 2**32),
           pick=st.sampled_from(["one", "top", "random"]))
    @example(start=5, seed=0, pick="top")
    def test_fixed_base_against_builtin_pow(self, start, seed, pick):
        p = start  # the least prime >= start
        while not numtheory.is_prime(p).is_prime:
            p += 1
        rng = random.Random(seed)
        g = rng.randrange(2, p - 1)
        secret = {"one": 1, "top": p - 2, "random": rng.randrange(1, p - 1)}[pick]
        # the kernel public_of runs; the group checks refuse g = 2 and p < 7
        table = bigmod.fixed_base(g, p.bit_length(), p)
        assert bigmod.comb_pow(table, secret) == pow(g, secret, p)

    def test_exchange_sized_group(self):
        params = dh.make_params(OAKLEY_1024, 5)
        rng = random.Random(604)
        secrets = [1, 2, OAKLEY_1024 - 2] + [rng.randrange(1, OAKLEY_1024 - 1) for _ in range(4)]
        for secret in secrets:
            assert dh.public_of(params, secret) == pow(5, secret, OAKLEY_1024)

    def test_generator_above_modulus_is_reduced(self):
        # DhParams refuses g >= p; fixed_base, which public_of runs, reduces any base mod m
        with pytest.raises(ValueError, match=r"generator must satisfy 2 < g < 21, got 28"):
            dh.DhParams(23, 28)
        table = bigmod.fixed_base(5, 5, 23)
        for g in (28, 5 + 23 * 10**6):
            reduced = bigmod.fixed_base(g, 5, 23)
            for secret in range(1, 22):
                assert bigmod.comb_pow(reduced, secret) == bigmod.comb_pow(table, secret)

    def test_secret_range(self, classroom_params):
        with pytest.raises(ValueError):
            dh.public_of(classroom_params, 0)
        with pytest.raises(ValueError):
            dh.public_of(classroom_params, 22)

    def test_generated_keypair_consistency(self, classroom_params):
        rng = random.Random(600)
        for _ in range(50):
            pair = dh.gen_keypair(classroom_params, rng)
            assert 2 <= pair.secret <= 21
            assert pair.public == dh.public_of(classroom_params, pair.secret)


class TestSharedSecret:
    def test_both_sides_agree_on_two(self, classroom_params):
        assert dh.shared_secret(classroom_params, 6, 19) == 2
        assert dh.shared_secret(classroom_params, 15, 8) == 2

    def test_degenerate_peer_warns(self, classroom_params):
        with pytest.warns(WeakPublicValueWarning):
            assert dh.shared_secret(classroom_params, 6, 1) == 1
        with pytest.warns(WeakPublicValueWarning):
            dh.shared_secret(classroom_params, 6, 22)

    @pytest.mark.parametrize("secret", [0, 22, 23, -1], ids=["0", "p-1", "p", "-1"])
    def test_secret_outside_public_of_range_rejected(self, classroom_params, secret):
        # 0 and p - 1 agree on 1 with every peer; public_of refuses all four
        with pytest.raises(ValueError, match=r"secret must lie in \[1, 21\], got "):
            dh.shared_secret(classroom_params, secret, 19)
        with pytest.raises(ValueError, match=r"secret must lie in \[1, 21\], got "):
            dh.public_of(classroom_params, secret)

    def test_secret_range_ends_accepted(self, classroom_params):
        assert dh.shared_secret(classroom_params, 1, 19) == 19
        assert dh.shared_secret(classroom_params, 21, 19) == pow(19, 21, 23)

    def test_out_of_range_peer_rejected(self, classroom_params):
        with pytest.raises(ValueError):
            dh.shared_secret(classroom_params, 6, 0)
        with pytest.raises(ValueError):
            dh.shared_secret(classroom_params, 6, 23)

    @pytest.mark.filterwarnings("ignore::toycrypt.dh.WeakPublicValueWarning")
    def test_agreement_over_random_instances(self):
        # tiny primes legitimately hit the degenerate peer values sometimes
        rng = random.Random(601)
        for _ in range(200):
            p = numtheory.random_prime(rng.randrange(4, 32), rng)
            if p < 7:
                continue
            params = dh.make_params(p, rng.randrange(3, p - 2))
            alice = dh.gen_keypair(params, rng)
            bob = dh.gen_keypair(params, rng)
            assert (
                dh.shared_secret(params, alice.secret, bob.public)
                == dh.shared_secret(params, bob.secret, alice.public)
            )


class TestBruteForceDlog:
    def test_inverts_keypair_example(self, classroom_params):
        result = dh.brute_force_dlog(classroom_params, 8, 22)
        assert result.found and result.exponent == 6
        assert result.steps == 6

    def test_generator_itself(self, classroom_params):
        assert dh.brute_force_dlog(classroom_params, 5, 22).exponent == 1

    def test_not_found_under_cap(self, classroom_params):
        result = dh.brute_force_dlog(classroom_params, 8, 3)
        assert not result.found
        assert result.exponent is None and result.steps == 3

    def test_zero_cap_scans_nothing(self, classroom_params):
        assert dh.brute_force_dlog(classroom_params, 5, 0) == dh.DlogResult(None, 0)

    @pytest.mark.parametrize("cap", [-1, -4, -(2**64)])
    def test_negative_cap_rejected(self, classroom_params, cap):
        with pytest.raises(ValueError, match="cap"):
            dh.brute_force_dlog(classroom_params, 8, cap)

    def test_every_generator_target_and_cap_mod_23(self):
        # the smallest k <= cap with g**k = target by the built-in pow, else
        # not found after cap steps; g = 3..20 have orders 11 and 22
        for g in range(3, 21):
            params = dh.DhParams(23, g)
            for target in range(1, 23):
                for cap in (0, 1, 11, 22):
                    k = next((k for k in range(1, cap + 1) if pow(g, k, 23) == target), None)
                    assert dh.brute_force_dlog(params, target, cap) == dh.DlogResult(k, k or cap)

    def test_recovered_exponent_reproduces_public(self):
        rng = random.Random(602)
        for _ in range(30):
            p = numtheory.random_prime(rng.randrange(8, 16), rng)
            params = dh.make_params(p, rng.randrange(3, p - 2))
            pair = dh.gen_keypair(params, rng)
            result = dh.brute_force_dlog(params, pair.public, p)
            assert result.found
            # the exponent may differ from the secret by the generator's order
            assert dh.public_of(params, result.exponent) == pair.public

    def test_eavesdropper_rederives_shared_secret(self):
        rng = random.Random(603)
        p = numtheory.random_prime(17, rng)
        params = dh.make_params(p, rng.randrange(3, p - 2))
        alice = dh.gen_keypair(params, rng)
        bob = dh.gen_keypair(params, rng)
        eve = dh.brute_force_dlog(params, alice.public, p)
        assert eve.found
        assert dh.shared_secret(params, eve.exponent, bob.public) == dh.shared_secret(
            params, alice.secret, bob.public
        )

    def test_work_grows_with_modulus(self):
        # full-order generators, target = g**(p-2): the scan walks the whole group
        cases = [(1009, 11), (10007, 5), (100003, 3), (1000003, 5)]
        steps = []
        for p, g in cases:
            params = dh.make_params(p, g)
            target = dh.public_of(params, p - 2)
            result = dh.brute_force_dlog(params, target, p)
            assert result.found and result.exponent == p - 2
            steps.append(result.steps)
        assert steps == sorted(steps)
        assert all(a < b for a, b in zip(steps, steps[1:]))
