import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toycrypt import envelope, rsa
from toycrypt.envelope import Envelope, SignedMessage, WrongKeyError
from toycrypt.sha1 import sha1
from vectors import DIGEST_ITALIA_4_3


def damaged(encodings, insertions):
    """Encodings from a strategy, each left whole or with one span cut or inserted."""
    def splice(encoded, at, cut, insert):
        at %= len(encoded) + 1
        return encoded[:at] + insert + encoded[at + cut:]

    return st.builds(splice, encodings, st.integers(0, 500), st.integers(0, 2), insertions)


@pytest.fixture(scope="module")
def keys512():
    return rsa.keygen_random(512, rng=random.Random(20260810))


@pytest.fixture(scope="module")
def other_keys512():
    return rsa.keygen_random(512, rng=random.Random(20260811))


class TestKeystream:
    def test_zero_length(self):
        assert envelope.keystream(bytes(32), 0) == b""

    def test_first_block_is_counter_zero_digest(self):
        key = bytes(range(32))
        expected = sha1(key + (0).to_bytes(8, "big")).data
        assert envelope.keystream(key, 20) == expected

    def test_second_block_is_counter_one_digest(self):
        key = bytes(range(32))
        stream = envelope.keystream(key, 40)
        assert stream[20:] == sha1(key + (1).to_bytes(8, "big")).data

    def test_prefix_stability(self):
        key = b"\xab" * 32
        assert envelope.keystream(key, 40)[:20] == envelope.keystream(key, 20)
        assert envelope.keystream(key, 33)[:7] == envelope.keystream(key, 7)

    @pytest.mark.parametrize("length", [20 * 1024 - 1, 20 * 1024, 20 * 1024 + 1, 20 * 2048 + 7])
    def test_batch_boundaries_match_per_block_definition(self, length):
        key = bytes(range(32))
        blocks = -(-length // 20)
        expected = b"".join(sha1(key + c.to_bytes(8, "big")).data for c in range(blocks))
        assert envelope.keystream(key, length) == expected[:length]

    def test_golden_stream(self):
        # computed with hashlib, block by block, so v1 envelope bodies stay byte for byte
        key = bytes(range(32))
        assert envelope.keystream(key, 60).hex() == (
            "05925d5b4ea43f1bbab12a9d4341fac27c4256a6"
            "48fd399916eeaef95644aa5cb485ed710a45ee92"
            "f8349cf6eea961070d06ee9d5458a26eedd70416"
        )
        long_stream = envelope.keystream(key, 20 * 2048 + 7)
        assert hashlib.sha1(long_stream).hexdigest().upper() == (
            "0B9BCEB79BEFE4A49FD720703551FEBC54B2E725"
        )

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            envelope.keystream(b"short", 10)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            envelope.keystream(bytes(32), -1)


class TestSealOpen:
    def test_round_trip(self, keys512):
        pub, priv = keys512
        rng = random.Random(900)
        for size in (0, 1, 19, 20, 21, 1000):
            message = rng.randbytes(size)
            env = envelope.seal(message, pub, rng)
            assert envelope.open_envelope(env, priv) == message

    def test_empty_message_still_wraps_key(self, keys512):
        pub, priv = keys512
        env = envelope.seal(b"", pub, random.Random(901))
        assert env.body == b""
        assert len(env.wrapped_key.blocks) >= 1
        assert envelope.open_envelope(env, priv) == b""

    def test_megabyte_round_trip(self, keys512):
        pub, priv = keys512
        rng = random.Random(902)
        message = rng.randbytes(1_000_000)
        env = envelope.seal(message, pub, rng)
        assert envelope.open_envelope(env, priv) == message

    def test_fresh_session_keys(self, keys512):
        pub, priv = keys512
        env1 = envelope.seal(b"same message", pub, random.Random(903))
        env2 = envelope.seal(b"same message", pub, random.Random(904))
        assert env1.wrapped_key != env2.wrapped_key
        assert env1.body != env2.body
        assert envelope.open_envelope(env1, priv) == envelope.open_envelope(env2, priv)

    def test_tiny_recipient_modulus_rejected(self):
        pub = rsa.RsaPublicKey(221, 11)  # 13 * 17, below one byte of width
        with pytest.raises(ValueError):
            envelope.seal(b"hi", pub, random.Random(0))

    def test_wrapped_key_of_wrong_length_rejected(self, keys512):
        pub, priv = keys512
        not_a_session_key = rsa.encrypt_message(b"sixteen bytes!!!", pub)
        env = Envelope(wrapped_key=not_a_session_key, body=b"\x00" * 8)
        with pytest.raises(WrongKeyError):
            envelope.open_envelope(env, priv)

    def test_open_with_wrong_key(self, keys512, other_keys512):
        pub, _ = keys512
        _, other_priv = other_keys512
        env = envelope.seal(b"for someone else", pub, random.Random(905))
        try:
            recovered = envelope.open_envelope(env, other_priv)
        except ValueError:
            recovered = None  # structural failure counts as rejection
        assert recovered != b"for someone else"

    def test_body_bitflip_flips_exactly_that_plaintext_bit(self, keys512):
        pub, priv = keys512
        rng = random.Random(906)
        message = rng.randbytes(64)
        env = envelope.seal(message, pub, rng)
        for _ in range(20):
            pos = rng.randrange(0, len(message) * 8)
            tampered = bytearray(env.body)
            tampered[pos // 8] ^= 1 << (pos % 8)
            opened = envelope.open_envelope(Envelope(env.wrapped_key, bytes(tampered)), priv)
            diff = [i for i in range(len(message) * 8)
                    if (opened[i // 8] ^ message[i // 8]) >> (i % 8) & 1]
            assert diff == [pos]


class TestSignVerify:
    def test_round_trip(self, keys512):
        pub, priv = keys512
        rng = random.Random(907)
        for size in (0, 1, 50, 300):
            text = rng.randbytes(size)
            assert envelope.verify(envelope.sign(text, priv), pub)

    def test_deterministic(self, keys512):
        _, priv = keys512
        assert envelope.sign(b"ripetibile", priv) == envelope.sign(b"ripetibile", priv)

    def test_table_text_signature_recovers_table_digest(self, keys512):
        pub, priv = keys512
        msg = envelope.sign(b"Italia-Germania 4-3", priv)
        assert envelope.verify(msg, pub)
        recovered = rsa.public_op(msg.signature, pub)
        assert recovered == int(DIGEST_ITALIA_4_3, 16)

    def test_single_bit_flip_in_text_fails(self, keys512):
        pub, priv = keys512
        rng = random.Random(908)
        text = b"the match ended four to three"
        msg = envelope.sign(text, priv)
        for _ in range(30):
            pos = rng.randrange(0, len(text) * 8)
            tampered = bytearray(text)
            tampered[pos // 8] ^= 1 << (pos % 8)
            assert not envelope.verify(SignedMessage(bytes(tampered), msg.signature), pub)

    def test_zero_signature_rejected(self, keys512):
        pub, _ = keys512
        assert not envelope.verify(SignedMessage(b"nonempty text", 0), pub)

    def test_out_of_range_signature_is_false_not_error(self, keys512):
        pub, _ = keys512
        assert not envelope.verify(SignedMessage(b"x", pub.n + 3), pub)

    def test_small_signer_modulus_rejected(self):
        _, priv = rsa.keygen_random(128, rng=random.Random(909))
        with pytest.raises(ValueError):
            envelope.sign(b"digest would not fit", priv)

    def test_bulk_round_trips(self):
        rng = random.Random(913)
        keys = [rsa.keygen_random(512, rng=rng) for _ in range(3)]
        for i in range(1000):
            pub, priv = keys[i % len(keys)]
            text = rng.randbytes(rng.randrange(0, 200))
            assert envelope.verify(envelope.sign(text, priv), pub)

    def test_tamper_contrast_with_envelope(self, keys512):
        # flipping body bits silently flips plaintext bits, while flipping
        # text bits under a signature always breaks verification
        pub, priv = keys512
        rng = random.Random(910)
        message = rng.randbytes(32)
        env = envelope.seal(message, pub, rng)
        signed = envelope.sign(message, priv)
        pos = rng.randrange(0, len(message) * 8)

        tampered_body = bytearray(env.body)
        tampered_body[pos // 8] ^= 1 << (pos % 8)
        opened = envelope.open_envelope(Envelope(env.wrapped_key, bytes(tampered_body)), priv)
        assert opened != message  # silently corrupted, no error raised

        tampered_text = bytearray(message)
        tampered_text[pos // 8] ^= 1 << (pos % 8)
        assert not envelope.verify(SignedMessage(bytes(tampered_text), signed.signature), pub)


class TestCrossKeyIsolation:
    def test_hundred_key_pairs(self):
        rng = random.Random(911)
        pairs = [rsa.keygen_random(192, rng=rng) for _ in range(100)]
        message = b"to the right recipient only"
        for (pub_a, priv_a), (pub_b, priv_b) in zip(pairs, pairs[1:] + pairs[:1]):
            env = envelope.seal(message, pub_a, rng)
            try:
                recovered = envelope.open_envelope(env, priv_b)
            except ValueError:
                recovered = None
            assert recovered != message
            signed = envelope.sign(message, priv_a)
            assert envelope.verify(signed, pub_a)
            assert not envelope.verify(signed, pub_b)


class TestFileFormats:
    def test_envelope_round_trip(self, keys512):
        pub, priv = keys512
        rng = random.Random(912)
        for size in (0, 5, 100):
            env = envelope.seal(rng.randbytes(size), pub, rng)
            text = envelope.write_envelope(env)
            assert text.startswith("envelope v1\n")
            assert envelope.read_envelope(text) == env

    def test_signed_round_trip(self, keys512):
        _, priv = keys512
        for text in (b"", b"plain", b"with\nnewlines\n\nand binary \x00\xff"):
            msg = envelope.sign(text, priv)
            data = envelope.write_signed(msg)
            assert data.startswith(b"signed v1\n")
            assert envelope.read_signed(data) == msg

    @pytest.mark.parametrize("text", [
        "not an envelope\n",
        # bytes.fromhex skips whitespace, which write_envelope would not write back
        "envelope v1\nrsa-blocks v1 width=1 pad=0 count=1\n0x5\nAB cd\t0F\n",
    ])
    def test_envelope_garbage_rejected(self, text):
        with pytest.raises(ValueError):
            envelope.read_envelope(text)

    def test_signed_garbage_rejected(self):
        with pytest.raises(ValueError):
            envelope.read_signed(b"signed v2\n0x1\n\nx")

    @given(text=st.text(max_size=60) | damaged(st.builds(
        lambda width, blocks, body: envelope.write_envelope(
            Envelope(rsa.BlockStream(width, 0, tuple(blocks)), body)),
        st.integers(1, 4), st.lists(st.integers(0, 2**40), max_size=3), st.binary(max_size=8)),
        st.text(max_size=2)))
    @settings(max_examples=300)
    def test_read_envelope_fuzz(self, text):
        try:
            env = envelope.read_envelope(text)
        except ValueError:
            return
        assert envelope.read_envelope(envelope.write_envelope(env)) == env

    @given(data=st.binary(max_size=60) | damaged(st.builds(
        lambda text, signature: envelope.write_signed(SignedMessage(text, signature)),
        st.binary(max_size=20), st.integers(0, 2**200)), st.binary(max_size=2)))
    @settings(max_examples=300)
    def test_read_signed_fuzz(self, data):
        try:
            msg = envelope.read_signed(data)
        except ValueError:
            return
        assert msg.signature >= 0
        assert envelope.read_signed(envelope.write_signed(msg)) == msg
