import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toycrypt import numtheory, rsa
from toycrypt.numtheory import PROBABLY_PRIME, PrimalityVerdict
from toycrypt.rsa import BlockStream
from test_numtheory import spy_verdicts


SMALL = st.integers(0, 60)
FACTOR = st.sampled_from(numtheory.sieve_primes(61)) | SMALL
# 1287836182261 * 2575672364521, a strong pseudoprime to every prime base up to 41
SPSP_TO_41 = 3317044064679887385961981
# a factor in [2, 2**16): a prime half of the time, so that keys are built too
FACTOR_16 = st.sampled_from(numtheory.sieve_primes(1 << 16)) | st.integers(2, (1 << 16) - 1)
PUBLIC_FIELDS = ("n", "e")
PRIVATE_FIELDS = ("n", "d", "p", "q")


@st.composite
def key_file(draw, names):
    """The named fields with small values, some inconsistent, in any order,
    sometimes with a repeated or unknown field, plus trailing junk."""
    p, q = draw(FACTOR), draw(FACTOR)
    values = {"n": p * q + draw(st.sampled_from([0, 0, 1])), "d": draw(st.integers(0, p * q + 1)),
              "p": p, "q": q, "e": draw(SMALL)}
    extra = draw(st.just([]) | st.lists(st.sampled_from(("n", "d", "p", "q", "e", "bogus")), max_size=2))
    lines = draw(st.permutations([*names, *extra]))
    junk = draw(st.just("") | st.text(max_size=8))
    return "".join(f"{name}={values.get(name, 7):#x}\n" for name in lines) + junk


def field_names(text):
    return sorted(line.partition("=")[0].strip() for line in text.splitlines() if line.strip())


def trial_prime(n):
    return n > 1 and all(n % k for k in range(2, n))


FIELD = st.text("0123456789_+-x٣", max_size=3)


@st.composite
def stream_file(draw):
    blocks = draw(st.lists(st.integers(0, 300).map(hex) | st.text(max_size=4), max_size=3))
    width = draw(st.sampled_from(["1", "2"]) | FIELD)
    pad = draw(st.just("0") | FIELD)
    count = draw(st.just(str(len(blocks))) | FIELD)
    return f"rsa-blocks v1 width={width} pad={pad} count={count}\n" + "\n".join(blocks)


# arbitrary text, and block streams with small, sometimes malformed fields and blocks
STREAM_TEXT = st.text() | stream_file()


@pytest.fixture(scope="module")
def paper_keys():
    return rsa.keygen_from_primes(19, 17, 17)


@pytest.fixture(scope="module")
def small_keys():
    return rsa.keygen_random(64, rng=random.Random(8001))


class TestKeygenFromPrimes:
    def test_worked_example(self, paper_keys):
        pub, priv = paper_keys
        assert pub.n == 323 and priv.n == 323
        assert priv.phi == 288
        assert priv.d == 17
        assert {priv.p, priv.q} == {17, 19}

    def test_symmetric_in_p_and_q(self):
        a = rsa.keygen_from_primes(19, 17, 17)
        b = rsa.keygen_from_primes(17, 19, 17)
        assert a[0] == b[0]
        assert (a[1].n, a[1].d, a[1].phi) == (b[1].n, b[1].d, b[1].phi)

    def test_small_private_exponent_scan(self):
        pub, priv = rsa.keygen_from_primes(11, 13, 7)
        assert (pub.n, priv.phi) == (143, 120)
        assert priv.d == next(d for d in range(1, 120) if 7 * d % 120 == 1) == 103

    def test_equal_primes_rejected(self):
        with pytest.raises(ValueError):
            rsa.keygen_from_primes(17, 17, 5)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            rsa.keygen_from_primes(15, 17, 5)

    def test_noncoprime_exponent_rejected(self):
        with pytest.raises(ValueError):
            rsa.keygen_from_primes(19, 17, 6)  # gcd(6, 288) = 6

    def test_exponent_range(self):
        with pytest.raises(ValueError):
            rsa.keygen_from_primes(19, 17, 1)
        with pytest.raises(ValueError):
            rsa.keygen_from_primes(19, 17, 289)

    def test_inverse_relation_bulk(self):
        primes = numtheory.sieve_primes(3000)[2:]
        rng = random.Random(8002)
        done = 0
        while done < 1000:
            p, q = rng.sample(primes, 2)
            phi = (p - 1) * (q - 1)
            e = rng.choice([3, 5, 17, 257, 65537])
            if e >= phi or phi % e == 0:
                continue
            try:
                pub, priv = rsa.keygen_from_primes(p, q, e)
            except ValueError:
                continue  # gcd(e, phi) != 1
            assert pub.e * priv.d % priv.phi == 1
            done += 1


class TestKeygenRandom:
    def test_exact_bit_length_and_validity(self):
        rng = random.Random(8003)
        for bits in (32, 48, 65):
            pub, priv = rsa.keygen_random(bits, rng=rng)
            assert pub.n.bit_length() == bits
            assert priv.p != priv.q
            assert pub.e * priv.d % priv.phi == 1
            assert priv.p * priv.q == pub.n

    def test_round_trip_random_blocks(self):
        rng = random.Random(8004)
        pub, priv = rsa.keygen_random(96, rng=rng)
        for _ in range(100):
            m = rng.randrange(0, pub.n)
            assert rsa.decrypt_block(rsa.encrypt_block(m, pub), priv) == m

    def test_small_exponent_retries(self):
        pub, priv = rsa.keygen_random(16, e=3, rng=random.Random(8005))
        assert pub.e == 3
        assert pub.n.bit_length() == 16
        assert 3 * priv.d % priv.phi == 1

    def test_every_pair_gives_full_length_modulus(self, monkeypatch):
        drawn = []
        real = numtheory.random_prime
        monkeypatch.setattr(numtheory, "random_prime",
                            lambda bits, rng: drawn.append((bits, real(bits, rng))) or drawn[-1][1])
        rng = random.Random(8012)
        for bits in range(16, 257):
            drawn.clear()
            pub, _ = rsa.keygen_random(bits, e=17, rng=rng)
            assert len(drawn) % 2 == 0 and drawn
            pairs = list(zip(drawn[::2], drawn[1::2]))
            assert all(p_bits + q_bits == bits == (p * q).bit_length()
                       for (p_bits, p), (q_bits, q) in pairs), bits
            assert pub.n == pairs[-1][0][1] * pairs[-1][1][1]

    @pytest.mark.parametrize("e", [3045, 9135, 11865, 15225, 21315, 27405])
    def test_keyless_exponent_ends_in_bounded_time(self, e):
        # with the top two bits set, every usable 8-bit prime for these e is
        # the same one, and p = q is refused, so no 16-bit key exists
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exponent {e} in {rsa.MAX_PRIME_PAIRS} prime pairs"):
            rsa.keygen_random(16, e=e, rng=random.Random(8013))
        assert time.perf_counter() - start < 1

    def test_exponent_too_large_for_modulus(self):
        with pytest.raises(ValueError):
            rsa.keygen_random(16, e=65537, rng=random.Random(0))

    def test_kilobit_keys_work(self):
        # not fast, but must function
        pub, priv = rsa.keygen_random(1024, rng=random.Random(8011))
        assert pub.n.bit_length() == 1024
        data = b"a full-size key still round-trips"
        assert rsa.decrypt_message(rsa.encrypt_message(data, pub), priv) == data

    def test_too_few_bits(self):
        with pytest.raises(ValueError):
            rsa.keygen_random(8, rng=random.Random(0))

    def test_too_many_bits_rejected_before_search(self):
        with pytest.raises(ValueError, match="16 to 4096 bits"):
            rsa.keygen_random(rsa.MAX_MODULUS_BITS + 1, rng=object())

    @pytest.mark.parametrize(
        "bits, e", [(64, 1), (64, 2), (64, 4), (64, 65536), (64, -3), (16, 65535), (64, 1 << 63)]
    )
    def test_unusable_exponent_rejected_before_search(self, bits, e):
        # an rng that cannot draw: reaching the prime search fails, it cannot hang
        with pytest.raises(ValueError):
            rsa.keygen_random(bits, e=e, rng=object())


class TestBlockOps:
    def test_paper_encryption(self, paper_keys):
        pub, _ = paper_keys
        assert rsa.encrypt_block(3, pub) == 241

    def test_paper_decryption(self, paper_keys):
        _, priv = paper_keys
        assert rsa.decrypt_block(241, priv) == 3

    def test_fixed_points(self, paper_keys):
        pub, priv = paper_keys
        assert rsa.encrypt_block(0, pub) == 0
        assert rsa.encrypt_block(1, pub) == 1
        assert rsa.decrypt_block(0, priv) == 0

    def test_block_too_large(self, paper_keys):
        pub, priv = paper_keys
        with pytest.raises(ValueError):
            rsa.encrypt_block(323, pub)
        with pytest.raises(ValueError):
            rsa.decrypt_block(324, priv)

    def test_exhaustive_round_trip_includes_noncoprime(self, paper_keys):
        pub, priv = paper_keys
        for m in range(323):
            assert rsa.decrypt_block(rsa.encrypt_block(m, pub), priv) == m
        # 17 and 19 share a factor with N; they still round-trip
        assert rsa.decrypt_block(rsa.encrypt_block(17, pub), priv) == 17
        assert rsa.decrypt_block(rsa.encrypt_block(19, pub), priv) == 19


class TestRawOps:
    def test_exponent_symmetry(self, paper_keys):
        _, priv = paper_keys
        assert rsa.private_op(241, priv) == 3

    def test_private_then_public(self, small_keys):
        pub, priv = small_keys
        rng = random.Random(8006)
        for _ in range(100):
            x = rng.randrange(0, pub.n)
            assert rsa.public_op(rsa.private_op(x, priv), pub) == x

    def test_zero(self, small_keys):
        pub, priv = small_keys
        assert rsa.private_op(0, priv) == 0
        assert rsa.public_op(0, pub) == 0

    def test_range_check(self, small_keys):
        pub, priv = small_keys
        with pytest.raises(ValueError):
            rsa.private_op(priv.n, priv)
        with pytest.raises(ValueError):
            rsa.public_op(pub.n + 5, pub)


def crt_test_points(priv, rng):
    """0, 1, n-1, p, q, multiples of p and of q, and random blocks."""
    n, p, q = priv.n, priv.p, priv.q
    points = [0, 1, n - 1, p, q, (q - 1) * p, (p - 1) * q]
    points += [rng.randrange(1, q) * p for _ in range(3)]
    points += [rng.randrange(1, p) * q for _ in range(3)]
    return points + [rng.randrange(n) for _ in range(10)]


class TestCrtPrivateOp:
    def test_hand_key(self):
        # d = 10 is a multiple of p-1: plain d % (p-1) makes dP = 0, and 11**0 mod 11 is 1, not 0
        priv = rsa.RsaPrivateKey(143, 10, 11, 13)
        assert rsa.private_op(11, priv) == pow(11, 10, 143) == 88

    @pytest.mark.parametrize("p, q", [(2, 3), (3, 5), (11, 13), (13, 2), (17, 19)])
    def test_every_exponent_and_block(self, p, q):
        n = p * q
        for d in range(1, n):
            priv = rsa.RsaPrivateKey(n, d, p, q)
            assert [rsa.private_op(x, priv) for x in range(n)] == [pow(x, d, n) for x in range(n)]

    @given(bits=st.integers(16, 128), e=st.sampled_from([3, 5, 17, 257, 65537]),
           seed=st.integers(0, 2**32), xseed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_seeded_keys_match_oracle(self, bits, e, seed, xseed):
        e = e if e < 1 << (bits - 1) else 3
        _, priv = rsa.keygen_random(bits, e, random.Random(seed))
        for x in crt_test_points(priv, random.Random(xseed)):
            assert rsa.private_op(x, priv) == pow(x, priv.d, priv.n)

    @pytest.mark.parametrize("n, p, q", [(36, 4, 9), (45, 5, 9), (77 * 8, 77, 8), (15 * 7, 15, 7)])
    def test_composite_factor_refused_at_construction(self, n, p, q):
        # without the check, private_op(3, RsaPrivateKey(36, 5, 4, 9)) returned 9, not 27
        with pytest.raises(ValueError, match="not prime"):
            rsa.RsaPrivateKey(n, 5, p, q)

    @pytest.mark.parametrize("p, q, d", [
        (2047, 5, 2047 * 5 - 2), (341, 5, 341 * 5 - 2), (561, 5, 561 * 5 - 2),
        (SPSP_TO_41, 2**89 - 1, SPSP_TO_41 + 4),
    ], ids=["2047", "341", "561", str(SPSP_TO_41)])
    def test_base_2_pseudoprime_refused_at_construction(self, p, q, d):
        # each passes a base-2 Fermat test, and 2047 = 23 * 89 is the least
        # strong pseudoprime to base 2; with a Fermat check in its place,
        # private_op with p = 2047 was wrong on 7590 of the 10235 blocks.
        # SPSP_TO_41 has no factor below 2**11, and about 19% of random
        # bases are strong liars for it: one random round let 12 of 60 such
        # keys through, and each gave a wrong private_op(43, key)
        if p == SPSP_TO_41:
            assert all(p % k for k in range(2, 1 << 11))
            assert pow(43, p + 4, p) != pow(43, 5, p)  # 5 is what dP would be
        for _ in range(60):  # each construction tests again
            with pytest.raises(ValueError, match=f"p = {p} is not prime"):
                rsa.RsaPrivateKey(p * q, d, p, q)

    @pytest.mark.parametrize("make_key", [
        lambda: rsa.RsaPrivateKey((2**61 - 1) * (2**89 - 1), 3, 2**61 - 1, 2**89 - 1),
        lambda: rsa.keygen_random(256, rng=random.Random(8021))[1],
    ], ids=["by_hand", "keygen_random"])
    def test_construction_tests_each_factor_once(self, monkeypatch, make_key):
        verdicts = spy_verdicts(monkeypatch, "is_prime")
        priv = make_key()
        assert verdicts == [PrimalityVerdict(PROBABLY_PRIME, None, 3)] * 2
        rsa.private_op(2, priv)
        rsa.private_op(3, priv)
        assert len(verdicts) == 2

    def test_drawn_factors_take_trial_division_alone(self, monkeypatch):
        _, priv = rsa.keygen_random(256, rng=random.Random(8021))

        def no_test(*args):
            raise AssertionError("tested a drawn prime past trial division")

        monkeypatch.setattr(numtheory, "_probable_prime", no_test)
        assert rsa.RsaPrivateKey(priv.n, priv.d, priv.p, priv.q) == priv
        with pytest.raises(AssertionError, match="drawn prime"):  # a plain int is tested in full
            rsa.RsaPrivateKey(priv.n, priv.d, int(priv.p), priv.q)

    def test_read_key_tests_each_factor_once(self, monkeypatch):
        p, q = 2**61 - 1, 2**89 - 1
        verdicts = spy_verdicts(monkeypatch, "is_prime")
        priv = rsa.read_private_key(f"n={p * q:#x}\nd=0x3\np={p:#x}\nq={q:#x}\n")
        rsa.private_op(2, priv)
        rsa.private_op(3, priv)
        assert verdicts == [PrimalityVerdict(PROBABLY_PRIME, None, 3)] * 2

    @given(p=FACTOR_16, q=FACTOR_16, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_no_invalid_key_is_built(self, p, q, data):
        n = p * q
        d = data.draw(st.integers(1, n - 1))
        try:
            priv = rsa.RsaPrivateKey(n, d, p, q)
        except ValueError:
            return
        assert trial_prime(p) and trial_prime(q)
        for x in (0, 1, 2, p, n - 1, data.draw(st.integers(0, n - 1))):
            assert rsa.private_op(x, priv) == pow(x, d, n)

    def test_parameters_are_not_fields(self, small_keys):
        # a fresh copy of the fixture key, which other tests may already have used
        _, priv = rsa.keygen_random(64, rng=random.Random(8001))
        assert "crt" not in vars(priv)  # keygen never derives them
        text, shown = rsa.write_private_key(priv), repr(priv)
        dp, dq, q_inv = priv.crt
        assert 0 < dp < priv.p and (dp - priv.d) % (priv.p - 1) == 0
        assert 0 < dq < priv.q and (dq - priv.d) % (priv.q - 1) == 0
        assert q_inv * priv.q % priv.p == 1
        assert (rsa.write_private_key(priv), repr(priv)) == (text, shown)
        assert priv == small_keys[1] and hash(priv) == hash(small_keys[1])


class TestMessageFraming:
    def test_width_leaves_room_below_modulus(self):
        assert rsa.block_width(323) == 1
        assert rsa.block_width(1 << 64) == 8
        assert rsa.block_width((1 << 64) - 1) == 7

    def test_modulus_too_small(self):
        with pytest.raises(ValueError):
            rsa.encode_message(b"x", 256)

    def test_single_byte(self):
        stream = rsa.encode_message(b"\x03", 323)
        assert stream == BlockStream(width=1, pad=0, blocks=(3,))
        assert rsa.decode_message(stream, 323) == b"\x03"

    def test_empty_message(self):
        stream = rsa.encode_message(b"", 323)
        assert stream.blocks == () and stream.pad == 0
        assert rsa.decode_message(stream, 323) == b""

    @given(data=st.binary(max_size=2000))
    @settings(max_examples=60)
    def test_round_trip_fixed_modulus(self, data):
        n = (1 << 61) + 9
        assert rsa.decode_message(rsa.encode_message(data, n), n) == data

    def test_round_trip_random_moduli(self):
        rng = random.Random(8007)
        for _ in range(1000):
            n = rng.randrange(1 << 32, 1 << 128)
            data = rng.randbytes(rng.randrange(0, 200))
            assert rsa.decode_message(rsa.encode_message(data, n), n) == data

    def test_blocks_always_below_modulus(self):
        rng = random.Random(8008)
        for _ in range(200):
            n = rng.randrange(257, 1 << 96)
            data = rng.randbytes(rng.randrange(0, 64))
            assert all(b < n for b in rsa.encode_message(data, n).blocks)

    def test_corrupted_block_rejected(self):
        stream = BlockStream(width=1, pad=0, blocks=(400,))
        with pytest.raises(ValueError):
            rsa.decode_message(stream, 323)

    def test_nonzero_pad_rejected(self):
        stream = BlockStream(width=2, pad=1, blocks=(0x4142,))
        with pytest.raises(ValueError):
            rsa.decode_message(stream, 1 << 20)
        assert rsa.decode_message(BlockStream(width=2, pad=1, blocks=(0x4100,)), 1 << 20) == b"A"

    def test_negative_block_refused_by_name_before_a_bad_width(self):
        with pytest.raises(ValueError, match=r"^block must be non-negative, got -1$"):
            BlockStream(width=0, pad=0, blocks=(5, -1))

    def test_width_mismatch_rejected(self):
        stream = rsa.encode_message(b"abc", 1 << 32)
        with pytest.raises(ValueError):
            rsa.decode_message(stream, 323)

    def test_encrypt_decrypt_message(self, small_keys):
        pub, priv = small_keys
        rng = random.Random(8009)
        for size in (0, 1, 7, 64, 1000):
            data = rng.randbytes(size)
            cipher = rsa.encrypt_message(data, pub)
            assert rsa.decrypt_message(cipher, priv) == data

    def test_decrypt_message_rejects_oversized_block(self, small_keys):
        pub, priv = small_keys
        cipher = rsa.encrypt_message(b"hi", pub)
        bad = BlockStream(width=cipher.width, pad=cipher.pad,
                          blocks=cipher.blocks[:-1] + (priv.n + 1,))
        with pytest.raises(ValueError):
            rsa.decrypt_message(bad, priv)


class TestRecoverPrimes:
    def test_recovers_generated_keys(self):
        rng = random.Random(8010)
        for bits in (32, 40, 56, 64):
            pub, priv = rsa.keygen_random(bits, rng=rng)
            assert rsa.recover_primes(pub.n, priv.phi) == tuple(sorted((priv.p, priv.q)))

    def test_worked_example(self):
        assert rsa.recover_primes(323, 288) == (17, 19)

    def test_wrong_phi_rejected(self):
        with pytest.raises(ValueError):
            rsa.recover_primes(323, 287)

    @pytest.mark.parametrize("phi, reason", [
        (14, "negative discriminant"),  # s = 2: s**2 < 4N
        (0, "root 1 is below 2"),  # s = 16, r = 14: the roots 1 and 15
    ])
    def test_phi_without_a_factorization(self, phi, reason):
        with pytest.raises(ValueError, match=f"^no factorization: {reason}$"):
            rsa.recover_primes(15, phi)


class TestTextFormats:
    def test_key_files_round_trip(self, small_keys):
        pub, priv = small_keys
        assert rsa.read_public_key(rsa.write_public_key(pub)) == pub
        assert rsa.read_private_key(rsa.write_private_key(priv)) == priv

    def test_key_file_shape(self, paper_keys):
        pub, priv = paper_keys
        assert rsa.write_public_key(pub) == "n=0x143\ne=0x11\n"
        text = rsa.write_private_key(priv)
        assert text.splitlines() == ["n=0x143", "d=0x11", "p=0x13", "q=0x11"]

    @pytest.mark.parametrize(
        "n, d, p, q",
        [(5, 3, 11, 13), (143, 0, 11, 13), (143, 143, 11, 13), (121, 3, 11, 11), (13, 5, 1, 13)],
    )
    def test_inconsistent_private_key_rejected(self, n, d, p, q):
        with pytest.raises(ValueError):
            rsa.RsaPrivateKey(n, d, p, q)

    def test_inconsistent_private_key_file_rejected(self):
        with pytest.raises(ValueError):
            rsa.read_private_key("n=5\nd=3\np=11\nq=13\n")

    @given(text=st.text() | key_file(PRIVATE_FIELDS))
    @settings(max_examples=300)
    def test_read_private_key_fuzz(self, text):
        try:
            key = rsa.read_private_key(text)
        except ValueError:
            return
        assert field_names(text) == sorted(PRIVATE_FIELDS)
        assert key.n == key.p * key.q
        assert trial_prime(key.p) and trial_prime(key.q)
        assert rsa.read_private_key(rsa.write_private_key(key)) == key

    @given(text=st.text() | key_file(PUBLIC_FIELDS))
    @settings(max_examples=300)
    def test_read_public_key_fuzz(self, text):
        try:
            key = rsa.read_public_key(text)
        except ValueError:
            return
        assert field_names(text) == sorted(PUBLIC_FIELDS)
        assert rsa.read_public_key(rsa.write_public_key(key)) == key

    @pytest.mark.parametrize("text", [
        "n=5\ne=3\nn=0x143\ne=0x11\nbogus=7\n",
        "n=0x143\ne=0x11\nn=0x143\n",
        "n=0x143\ne=0x11\nd=0x11\n",
    ])
    def test_public_key_repeated_or_unknown_field_rejected(self, text):
        with pytest.raises(ValueError):
            rsa.read_public_key(text)

    @pytest.mark.parametrize("extra", ["d=0x11\n", "e=0x11\n", "bogus=7\n"])
    def test_private_key_repeated_or_unknown_field_rejected(self, paper_keys, extra):
        text = rsa.write_private_key(paper_keys[1])
        assert rsa.read_private_key(text) == paper_keys[1]
        with pytest.raises(ValueError):
            rsa.read_private_key(text + extra)

    @pytest.mark.parametrize("n, p, q", [(36, 4, 9), (45, 5, 9), (77 * 8, 77, 8)])
    def test_composite_factor_file_rejected(self, n, p, q):
        with pytest.raises(ValueError, match="is not prime"):  # consistent, but not prime
            rsa.RsaPrivateKey(n, 5, p, q)
        with pytest.raises(ValueError):
            rsa.read_private_key(f"n={n:#x}\nd=5\np={p:#x}\nq={q:#x}\n")

    def test_private_key_above_the_maximum_refused_before_any_primality_test(self, monkeypatch):
        def no_test(*args):
            raise AssertionError("tested a factor for primality")

        monkeypatch.setattr(numtheory, "is_prime", no_test)
        # 4097 bits; the factors are not prime, and need not be
        p, q = (1 << 2048) + 1, (1 << 2048) + 3
        text = f"n={p * q:#x}\nd=5\np={p:#x}\nq={q:#x}\n"
        with pytest.raises(ValueError, match="modulus has 4097 bits, above the limit of 4096"):
            rsa.read_private_key(text)
        # one bit less is read, and its factors tested
        p, q = (1 << 2047) + 1, (1 << 2048) + 3
        with pytest.raises(AssertionError, match="primality"):
            rsa.read_private_key(f"n={p * q:#x}\nd=5\np={p:#x}\nq={q:#x}\n")

    def test_supplied_or_hand_built_factors_above_the_maximum_refused_before_any_test(
        self, monkeypatch
    ):
        def no_test(*args):
            raise AssertionError("tested a factor for primality")

        monkeypatch.setattr(numtheory, "is_prime", no_test)
        p, q = (1 << 2048) + 1, (1 << 2048) + 3  # odd, 2049 bits each
        with pytest.raises(ValueError, match="modulus has 4097 bits, above the limit of 4096"):
            rsa.keygen_from_primes(p, q, 65537)
        q = (1 << 2049) + 1
        with pytest.raises(ValueError, match="modulus has 4098 bits, above the limit of 4096"):
            rsa.RsaPrivateKey(p * q, 5, p, q)

    def test_public_key_above_the_maximum_refused(self):
        n = (1 << 4096) + 1  # 4097 bits
        with pytest.raises(ValueError, match="modulus has 4097 bits, above the limit of 4096"):
            rsa.RsaPublicKey(n, 65537)
        with pytest.raises(ValueError, match="modulus has 4097 bits, above the limit of 4096"):
            rsa.read_public_key(f"n={n:#x}\ne=0x10001\n")
        # one bit less is read
        assert rsa.read_public_key(f"n={n >> 1:#x}\ne=0x10001\n").n == n >> 1

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            rsa.read_public_key("n=0x143\n")

    def test_block_stream_round_trip(self, small_keys):
        pub, _ = small_keys
        stream = rsa.encrypt_message(b"interop", pub)
        text = rsa.write_block_stream(stream)
        assert text.startswith("rsa-blocks v1 width=")
        assert rsa.read_block_stream(text) == stream

    def test_block_stream_header_golden(self):
        stream = rsa.encode_message(b"\x03", 323)
        assert rsa.write_block_stream(stream) == "rsa-blocks v1 width=1 pad=0 count=1\n0x3\n"

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rsa.read_block_stream("rsa-blocks v1 width=1 pad=0 count=2\n0x3\n")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            rsa.read_block_stream("not a stream\n")

    @pytest.mark.parametrize("text", ["n=3_23\ne=1_7\n", "n=٣٢٣\ne=١٧\n", "n=0x_143\ne=0x11\n"])
    def test_key_numbers_must_be_ascii_digits(self, text):
        with pytest.raises(ValueError):
            rsa.read_public_key(text)

    @pytest.mark.parametrize("header", ["width=1 pad=0 count=0_1", "width=+1 pad=0 count=1",
                                        "1 0 1", "width=١ pad=0 count=1"])
    def test_header_numbers_must_be_ascii_digits(self, header):
        with pytest.raises(ValueError):
            rsa.read_block_stream(f"rsa-blocks v1 {header}\n0x3\n")

    @given(text=STREAM_TEXT)
    @settings(max_examples=300)
    def test_read_block_stream_fuzz(self, text):
        try:
            stream = rsa.read_block_stream(text)
        except ValueError:
            return
        assert rsa.read_block_stream(rsa.write_block_stream(stream)) == stream
