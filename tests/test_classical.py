import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toycrypt import classical
from vectors import CAESAR_CIPHER, CAESAR_PLAIN

texts = st.text(max_size=200)


class TestCaesar:
    def test_three_step_shift(self):
        assert classical.caesar_encrypt(CAESAR_PLAIN, 3) == CAESAR_CIPHER
        assert classical.caesar_decrypt(CAESAR_CIPHER, 3) == CAESAR_PLAIN

    def test_zero_shift_is_identity(self):
        assert classical.caesar_encrypt(CAESAR_PLAIN, 0) == CAESAR_PLAIN

    def test_wraps_z_to_a(self):
        assert classical.caesar_encrypt("XYZxyz", 3) == "ABCabc"

    @given(text=texts, shift=st.integers(-100, 100))
    def test_round_trip(self, text, shift):
        assert classical.caesar_decrypt(classical.caesar_encrypt(text, shift), shift) == text

    def test_rot13_involution(self):
        sample = "The quick brown Fox, 1951!"
        once = classical.caesar_encrypt(sample, 13)
        assert classical.caesar_encrypt(once, 13) == sample

    @given(text=texts, shift=st.integers(0, 25))
    def test_preserves_shape(self, text, shift):
        out = classical.caesar_encrypt(text, shift)
        assert len(out) == len(text)
        for src, dst in zip(text, out):
            assert src.isupper() == dst.isupper()
            assert src.islower() == dst.islower()
            if not src.isascii() or not src.isalpha():
                assert src == dst

    def test_digits_and_accents_pass_through(self):
        assert classical.caesar_encrypt("1984 perché", 5) == "1984 ujwhmé"


class TestScytale:
    def test_two_turn_rod(self):
        # grid rows HELLO / WORLD, read down the columns
        assert classical.scytale_encrypt("HELLOWORLD", 5) == "HWEOLRLLOD"
        assert classical.scytale_decrypt("HWEOLRLLOD", 5) == "HELLOWORLD"

    def test_single_column_is_identity(self):
        assert classical.scytale_encrypt("ATTACKATDAWN", 1) == "ATTACKATDAWN"

    @given(text=texts, key=st.integers(1, 64))
    def test_permutation_property(self, text, key):
        cipher = classical.scytale_encrypt(text, key)
        pad = classical.scytale_pad_count(len(text), key)
        assert sorted(cipher) == sorted(text + "X" * pad)

    @given(text=texts, key=st.integers(1, 64))
    def test_round_trip_with_explicit_pad(self, text, key):
        pad = classical.scytale_pad_count(len(text), key)
        cipher = classical.scytale_encrypt(text, key)
        assert classical.scytale_decrypt(cipher, key, pad) == text

    def test_round_trip_long_texts_all_keys(self):
        rng = random.Random(42)
        text = "".join(chr(rng.randrange(32, 127)) for _ in range(10**4))
        for key in (1, 2, 3, 7, 16, 33, 64):
            assert classical.scytale_unframe(classical.scytale_frame(text, key)) == text

    def test_framing_survives_trailing_x(self):
        assert classical.scytale_unframe(classical.scytale_frame("LYNX", 3)) == "LYNX"
        assert classical.scytale_unframe(classical.scytale_frame("XXXXX", 4)) == "XXXXX"

    def test_frame_format(self):
        assert classical.scytale_frame("HELLOWORLD", 5) == "scytale v1 k=5 pad=0:HWEOLRLLOD"

    def test_unframe_rejects_garbage(self):
        with pytest.raises(ValueError):
            classical.scytale_unframe("HWEOLRLLOD")
        with pytest.raises(ValueError):
            classical.scytale_unframe("scytale v1 k=x pad=0:AB")

    def test_unframe_tolerates_header_whitespace(self):
        assert classical.scytale_unframe(" scytale  v1\tk=5 pad=0 :HWEOLRLLOD") == "HELLOWORLD"

    @pytest.mark.parametrize("header", ["scytale v1 k=\u0665 pad=0", "scytale v1 k=1_0 pad=0",
                                        "scytale v1 k=2 pad=+0", "scytale v1 k=2 pad=-0",
                                        "scytale v1 k=+2 pad=0", "scytale v1 2 0",
                                        "scytale v1 pad=0 k=2", "scytale v2 k=2 pad=0",
                                        "scytale v1 k=2 pad=0 x=1"])
    def test_unframe_refuses_non_ascii_decimal_header(self, header):
        with pytest.raises(ValueError):
            classical.scytale_unframe(header + ":ABCDEFGHIJ")

    header_number = st.integers(0, 4).map(str) | st.text(alphabet="0123456789_+-\u0665 ",
                                                          max_size=3)

    @given(framed=texts | st.builds(
        "{}k={} pad={}:{}".format,
        st.sampled_from(["scytale v1 ", " scytale  v1\t", "scytale v1  ", "scytale v2 "]),
        header_number, header_number,
        st.text(max_size=3).map(lambda s: s * 12) | st.text(max_size=30)))
    @settings(max_examples=300)
    def test_unframe_fuzz(self, framed):
        try:
            plain = classical.scytale_unframe(framed)
        except ValueError:
            return
        k = int(framed.partition(":")[0].split()[2].removeprefix("k="))
        assert classical.scytale_unframe(classical.scytale_frame(plain, k)) == plain

    @staticmethod
    def rows_encrypt(text, k):
        # the row/column grid walk that scytale_encrypt replaced
        padded = text + "X" * (-len(text) % k)
        rows = [padded[i : i + k] for i in range(0, len(padded), k)]
        return "".join(row[c] for c in range(k) for row in rows)

    @staticmethod
    def rows_decrypt(text, k, pad):
        nrows = len(text) // k
        plain = "".join(text[c * nrows + r] for r in range(nrows) for c in range(k))
        return plain[: len(plain) - pad] if pad else plain

    @given(text=texts, key=st.integers(1, 300))
    @example(text="", key=300)
    @example(text="AB", key=7)
    def test_slicing_matches_grid_walk(self, text, key):
        cipher = classical.scytale_encrypt(text, key)
        assert cipher == self.rows_encrypt(text, key)
        pad = classical.scytale_pad_count(len(text), key)
        assert classical.scytale_decrypt(cipher, key, pad) == self.rows_decrypt(cipher, key, pad)

    def test_empty_text_cost_does_not_grow_with_key(self):
        start = time.perf_counter()
        framed = classical.scytale_frame("", 10**12)
        assert framed == "scytale v1 k=1000000000000 pad=0:"
        assert classical.scytale_unframe(framed) == ""
        assert time.perf_counter() - start < 1.0

    def test_bad_circumference(self):
        with pytest.raises(ValueError):
            classical.scytale_encrypt("ABC", 0)

    def test_decrypt_validates_length(self):
        with pytest.raises(ValueError):
            classical.scytale_decrypt("ABCDE", 2)


class TestOneTimePad:
    @given(data=st.binary(max_size=300), extra=st.binary(max_size=32))
    def test_involution(self, data, extra):
        key = random.Random(7).randbytes(len(data)) + extra
        assert classical.otp_apply(classical.otp_apply(data, key), key) == data

    @given(pair=st.binary(max_size=300).flatmap(
        lambda data: st.tuples(st.just(data), st.binary(min_size=len(data),
                                                        max_size=len(data) + 8))))
    @example(pair=(b"", b""))
    @example(pair=(b"", b"\x00\x07"))
    @example(pair=(b"\x00\x00\x01", b"\x00\x00\x00\xff"))
    @example(pair=(b"\x00\x00\x01", b"\x00\x00\x01"))
    def test_matches_bytewise_xor(self, pair):
        data, key = pair
        assert classical.otp_apply(data, key) == bytes(d ^ k for d, k in zip(data, key))

    def test_zero_key_is_identity(self):
        data = b"attack at dawn"
        assert classical.otp_apply(data, bytes(len(data))) == data

    def test_hand_xor(self):
        assert classical.otp_apply(b"\x01\x02", b"\xff\x01") == b"\xfe\x03"

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            classical.otp_apply(b"four", b"key")

    def test_key_may_be_longer(self):
        assert classical.otp_apply(b"\x00", b"\x55\xaa\xff") == b"\x55"

    def test_uniform_ciphertext_histogram(self):
        # fixed plaintext byte, uniform keys: every ciphertext cell within
        # four sigma of the mean over 2**16 trials
        rng = random.Random(0xA11CE)
        hist = [0] * 256
        for _ in range(2**16):
            cipher = classical.otp_apply(b"\x41", bytes([rng.getrandbits(8)]))
            hist[cipher[0]] += 1
        mean = 2**16 / 256
        sigma = math.sqrt(2**16 * (1 / 256) * (1 - 1 / 256))
        assert min(hist) >= mean - 4 * sigma
        assert max(hist) <= mean + 4 * sigma
