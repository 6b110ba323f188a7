import hashlib
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toycrypt import sha1
from toycrypt.sha1 import Digest, Sha1
from vectors import DIGEST_ITALIA_4_3, DIGEST_ITALIA_5_3, SHA1_REFERENCE_VECTORS


class TestDigestTable:
    def test_one_goal_apart(self):
        assert sha1.hex_upper(sha1.sha1(b"Italia-Germania 4-3")) == DIGEST_ITALIA_4_3
        assert sha1.hex_upper(sha1.sha1(b"Italia-Germania 5-3")) == DIGEST_ITALIA_5_3

    def test_inputs_differ_by_one_bit(self):
        a, b = b"Italia-Germania 4-3", b"Italia-Germania 5-3"
        assert len(a) == len(b)
        assert sum(bin(x ^ y).count("1") for x, y in zip(a, b)) == 1

    def test_digests_differ_by_at_least_sixty_bits(self):
        da = sha1.sha1(b"Italia-Germania 4-3").data
        db = sha1.sha1(b"Italia-Germania 5-3").data
        flipped = sum(bin(x ^ y).count("1") for x, y in zip(da, db))
        assert flipped >= 60


class TestReferenceVectors:
    @pytest.mark.parametrize("message,expected", SHA1_REFERENCE_VECTORS,
                             ids=[f"len{len(m)}" for m, _ in SHA1_REFERENCE_VECTORS])
    def test_vector(self, message, expected):
        assert sha1.hex_upper(sha1.sha1(message)) == expected


class TestStreaming:
    def test_split_equals_one_shot(self):
        rng = random.Random(111)
        for _ in range(200):
            data = rng.randbytes(rng.randrange(0, 400))
            cut = rng.randrange(0, len(data) + 1)
            ctx = Sha1()
            ctx.update(data[:cut])
            ctx.update(data[cut:])
            assert ctx.digest() == sha1.sha1(data)

    @given(data=st.binary(max_size=300), cuts=st.lists(st.integers(0, 300), max_size=4))
    def test_arbitrary_fragmentation(self, data, cuts):
        ctx = Sha1()
        prev = 0
        for cut in sorted(min(c, len(data)) for c in cuts):
            ctx.update(data[prev:cut])
            prev = cut
        ctx.update(data[prev:])
        assert ctx.digest() == sha1.sha1(data)

    def test_digest_does_not_consume_context(self):
        ctx = Sha1(b"ab")
        first = ctx.digest()
        assert first == sha1.sha1(b"ab")
        ctx.update(b"c")
        assert ctx.digest() == sha1.sha1(b"abc")

    def test_update_chains(self):
        assert Sha1().update(b"ab").update(b"c").digest() == sha1.sha1(b"abc")

    def test_refused_update_leaves_the_context_as_it_was(self, monkeypatch):
        monkeypatch.setattr(sha1, "MAX_MESSAGE_BYTES", 100)
        ctx = Sha1(b"a" * 60)
        with pytest.raises(ValueError, match="too long"):
            ctx.update(b"b" * 60)
        assert ctx.digest().data == hashlib.sha1(b"a" * 60).digest()
        assert ctx.update(b"c" * 39).digest().data == hashlib.sha1(b"a" * 60 + b"c" * 39).digest()

    def test_refused_str_update_leaves_the_context_as_it_was(self):
        ctx = Sha1(b"abc")
        with pytest.raises(TypeError):
            ctx.update("x")
        assert ctx.digest() == sha1.sha1(b"abc")
        assert ctx.update(b"d").digest() == sha1.sha1(b"abcd")


# Sha1 expands the schedules of its whole blocks side by side, up to RUN at
# once; these block counts sit on either side of a run's edges
RUN = sha1._RUN_BLOCKS
RUN_EDGES = [0, 1, 2, 3, RUN - 1, RUN, RUN + 1, 2 * RUN + 1]
TAIL_EDGES = [0, 55, 56, 63, 64]  # bytes after the whole blocks: one or two padding blocks


def ff_tailed(length):
    """Draws messages of one length: a drawn head, then 0xFF bytes up to length.

    The 0xFF tails make words near 2**32 - 1, so the round sums carry as
    far as they can: into the top bits of each lane, and through the bits
    above the low word of the doubled words.
    """
    return st.binary(max_size=length).map(lambda head: (head + b"\xff" * length)[:length])


WORD = st.integers(0, sha1._MASK)


class TestRuns:
    @given(blocks=st.sampled_from(RUN_EDGES), tail=st.sampled_from(TAIL_EDGES),
           seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_run_edges_match_hashlib(self, blocks, tail, seed):
        data = random.Random(seed).randbytes(64 * blocks + tail)
        assert Sha1(data).digest().data == hashlib.sha1(data).digest()

    @given(sizes=st.lists(st.one_of(st.integers(0, 130),
                                    st.sampled_from([64 * RUN - 1, 64 * RUN + 1, 64 * (RUN + 1) + 9])),
                          max_size=4),
           seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_chunked_updates_match_hashlib(self, sizes, seed):
        # the buffer plus each chunk holds 0, 1 or many whole blocks and a remainder
        rng = random.Random(seed)
        chunks = [rng.randbytes(size) for size in sizes]
        ctx = Sha1()
        for chunk in chunks:
            ctx.update(chunk)
        assert ctx.digest().data == hashlib.sha1(b"".join(chunks)).digest()

    @given(blocks=st.lists(st.binary(min_size=64, max_size=64), min_size=1, max_size=40))
    @example(blocks=[b"\xff" * 64, bytes(64), b"\xff" * 64])
    def test_lane_schedules_equal_one_lane_schedules(self, blocks):
        count = len(blocks)
        (words,) = sha1._lane_words(b"".join(blocks), sha1.BLOCK_BYTES)
        lanes = sha1._schedule(words, sha1._MASK * sha1._lane_ones(count))
        assert len(lanes) == 80
        for i, block in enumerate(blocks):  # block i sits in lane i, counted from the top
            shift = 64 * (count - 1 - i)
            expected = sha1._schedule(struct.unpack(">16I", block), sha1._MASK)
            assert [(w >> shift) & (2**64 - 1) for w in lanes] == expected
        assert all(w >> 64 * count == 0 for w in lanes)


class TestChainedRounds:
    @given(state=st.tuples(*[WORD] * 5), w=st.lists(WORD, min_size=80, max_size=80))
    @example(state=(0xFFFFFFFF,) * 5, w=[0xFFFFFFFF] * 80)
    @example(state=(0xFFFFFFFF,) * 5, w=[0] * 80)
    @example(state=(0,) * 5, w=[0xFFFFFFFF] * 80)
    def test_equals_one_lane_rounds(self, state, w):
        wk = [x + k for x, k in zip(w, sha1._KT)]  # the caller adds K_t
        assert sha1._chained_rounds(state, wk) == sha1._rounds(state, w, sha1._MASK, 1)

    @given(message=st.tuples(st.sampled_from(RUN_EDGES), st.sampled_from(TAIL_EDGES))
           .flatmap(lambda edge: ff_tailed(64 * edge[0] + edge[1])))
    @example(message=b"\xff" * (64 * (RUN + 1)))
    @settings(max_examples=40, deadline=None)
    def test_ff_tailed_runs_match_hashlib(self, message):
        assert Sha1(message).digest().data == hashlib.sha1(message).digest()


PADDING_EDGES = [0, 55, 56, 63, 64, 119, 120, 200]


@st.composite
def equal_length_messages(draw):
    """1..40 messages of one length in 0..200, each a drawn head then 0xFF bytes."""
    length = draw(st.one_of(st.sampled_from(PADDING_EDGES), st.integers(0, 200)))
    return draw(st.lists(ff_tailed(length), min_size=1, max_size=40))


class TestSideBySide:
    @given(messages=equal_length_messages())
    @example(messages=[b"\xff" * 55] * 3 + [bytes(55)])
    @example(messages=[b"\xff" * 120] * 3 + [bytes(120)])
    def test_matches_hashlib(self, messages):
        expected = b"".join(hashlib.sha1(m).digest() for m in messages)
        assert sha1.digests(messages) == expected

    def test_empty_list(self):
        assert sha1.digests([]) == b""

    def test_unequal_lengths_refused(self):
        with pytest.raises(ValueError):
            sha1.digests([b"ab", b"abc"])

    @given(message=st.binary(max_size=200))
    def test_one_lane_equals_sha1(self, message):
        assert sha1.digests([message]) == sha1.sha1(message).data


# digests reads its messages BATCH at a time; 2 * BATCH + 1 makes three batches
BATCH = sha1._BATCH_MESSAGES


class TestBatches:
    @staticmethod
    def messages(count):
        return [i.to_bytes(4, "big") * 3 for i in range(count)]

    def test_three_batches_match_hashlib(self, monkeypatch):
        messages = self.messages(2 * BATCH + 1)
        drawn = []

        def draw():
            for m in messages:
                drawn.append(m)
                yield m

        # (lanes, messages drawn so far) of each pass: no lane set is wider
        # than a batch, and none is packed before its batch is drawn
        passes = []
        lane_ones = sha1._lane_ones
        monkeypatch.setattr(sha1, "_lane_ones", lambda count: passes.append((count, len(drawn)))
                            or lane_ones(count))
        assert sha1.digests(draw()) == b"".join(hashlib.sha1(m).digest() for m in messages)
        assert passes == [(BATCH, BATCH), (BATCH, 2 * BATCH), (1, 2 * BATCH + 1)]

    def test_unequal_length_in_a_later_batch_refused(self):
        messages = self.messages(BATCH + 5) + [b"longer than the rest"]
        with pytest.raises(ValueError, match="same length"):
            sha1.digests(messages)


class TestDeterminism:
    def test_repeated_calls(self):
        rng = random.Random(112)
        calls = 0
        while calls < 1000:
            data = rng.randbytes(rng.randrange(0, 200))
            reference = sha1.sha1(data)
            for _ in range(10):
                assert sha1.sha1(data) == reference
                calls += 1


class TestBirthdayBound:
    def test_truncated_collisions_near_expectation(self):
        # 2**16 samples into 2**32 bins: about half a collision expected;
        # more than two would sit outside three sigma.
        rng = random.Random(0x5EED)
        inputs = set()
        while len(inputs) < 2**16:
            inputs.add(rng.getrandbits(64).to_bytes(8, "big"))
        inputs = list(inputs)
        hashed = sha1.digests(inputs)
        truncated = [hashed[i : i + 4] for i in range(0, len(hashed), sha1.DIGEST_BYTES)]
        assert len(truncated) == 2**16
        collisions = len(truncated) - len(set(truncated))
        assert collisions <= 2


class TestHexForms:
    def test_round_trip_table_digests(self):
        for text in (DIGEST_ITALIA_4_3, DIGEST_ITALIA_5_3):
            assert sha1.hex_upper(sha1.parse_hex(text)) == text

    def test_all_zero(self):
        d = Digest(bytes(20))
        assert sha1.hex_upper(d) == "0" * 40
        assert sha1.parse_hex("0" * 40) == d

    def test_lowercase_accepted_uppercase_emitted(self):
        d = sha1.parse_hex(DIGEST_ITALIA_4_3.lower())
        assert sha1.hex_upper(d) == DIGEST_ITALIA_4_3

    @pytest.mark.parametrize("bad", ["", "ab", "0" * 39, "0" * 41, "g" * 40])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            sha1.parse_hex(bad)

    def test_digest_length_enforced(self):
        with pytest.raises(ValueError):
            Digest(b"\x00" * 19)

    def test_str_is_upper_hex(self):
        assert str(sha1.sha1(b"abc")) == sha1.hex_upper(sha1.sha1(b"abc"))
