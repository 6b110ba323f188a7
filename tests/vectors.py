"""Shared reference data for the test suite.

The digest vectors were cross-checked against hashlib (FIPS-conformant)
before being frozen here; the first three and the million-'a' input are the
classic published SHA-1 examples.  The prime table is a verbatim
transcription of a printed table of the 168 primes below 1000.
"""

# (message, 40-char uppercase hex digest)
SHA1_REFERENCE_VECTORS = [
    (b"", "DA39A3EE5E6B4B0D3255BFEF95601890AFD80709"),
    (b"abc", "A9993E364706816ABA3E25717850C26C9CD0D89D"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983E441C3BD26EBAAE4AA1F95129E5E54670F1",
    ),
    (b"a", "86F7E437FAA5A7FCE15D1DDCB9EAEAEA377667B8"),
    (
        b"0123456701234567012345670123456701234567012345670123456701234567" * 10,
        "DEA356A2CDDD90C7A7ECEDC5EBB563934F460452",
    ),
    (b"a" * 1000000, "34AA973CD4C4DAA4F61EEB2BDBAD27316534016F"),
]

DIGEST_ITALIA_4_3 = "6CF5982ECB6BBE81882A03BC205D8857697C9AA6"
DIGEST_ITALIA_5_3 = "A3BB835E86561F172E233A8F495E75E94FE640EE"

# transcribed row by row from the printed table
PRIMES_BELOW_1000 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
    79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
    157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
    313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397,
    401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467, 479,
    487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563, 569, 571, 577,
    587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757,
    761, 769, 773, 787, 797, 809, 811, 821, 823, 827, 829, 839, 853, 857,
    859, 863, 877, 881, 883, 887, 907, 911, 919, 929, 937, 941, 947, 953,
    967, 971, 977, 983, 991, 997,
]

CAESAR_PLAIN = "Nel mezzo del cammin di nostra vita"
CAESAR_CIPHER = "Qho phccr gho fdpplq gl qrvwud ylwd"

# Seeded CLI output, pinned byte for byte: seeded determinism must survive
# any change to the exponentiation kernels or to prime generation's checks.
DH_DEMO_SEED_7 = (
    "p=23\ng=5\nalice-secret=12\nalice-public=18\nbob-secret=6\nbob-public=8\n"
    "alice-shared=8\nbob-shared=8\neve-exponent=12\neve-steps=12\neve-shared=8\n"
)
# the .pub and .key files of `toycrypt keygen --bits 256 --seed 1`
KEYGEN_256_SEED_1_PUB = (
    "n=0xc1c1384ecceea5e38f562ec6fdc959d9c88d0cbd6e2b0e3599599862227b8be3\n"
    "e=0x10001\n"
)
KEYGEN_256_SEED_1_KEY = (
    "n=0xc1c1384ecceea5e38f562ec6fdc959d9c88d0cbd6e2b0e3599599862227b8be3\n"
    "d=0xbe73d38981dfc3a89fa8b36a5ee4a12fc01215f0774d069a67b0a86fd09afbe1\n"
    "p=0xdb487d33a185cc8ea8ea37f7523d2a55\n"
    "q=0xe23276a2afe673f6d6730839e1e48557\n"
)
# the primes of rsa.keygen_random(1024, 65537, random.Random("keygen-0")),
# the first key of the benchmark's keygen pool: a change to is_prime's
# checks must not move the keys drawn from a seeded rng
KEYGEN_1024_SEED_KEYGEN_0_P = int(
    "dd863578d657894139a48b808048d134cbf5169c62b69cc6fa31c27e96dd4e82"
    "6c2f50f65fb07608e790735358db114a48dffebed1a8a97abe451c12b1f20875", 16
)
KEYGEN_1024_SEED_KEYGEN_0_Q = int(
    "e38ac27d5370c3c6c68d51afc23725639214c8c1f2d7c5bdba26ad61490371d8"
    "13be220653e5ce2afa5718201144de27196faefa28e1b96f2ef7a1fc666711bf", 16
)
# SHA-1 (by hashlib, in the test only) of rsa.write_private_key of that key:
# pins n, d, p and q of a 1024-bit seeded key byte for byte
KEYGEN_1024_SEED_KEYGEN_0_KEY_SHA1 = "d71288e008a903f5f721ec98f29b91117409bd81"
# SHA-1 (by hashlib, in the test only) of the decimal primes of
# numtheory.random_prime(bits, random.Random(f"prime-{bits}-{i}")) for i in
# 0..9, one a line: pins the prime search's draws from a seeded rng, so a
# change to is_prime's checks cannot move a seeded prime unnoticed
RANDOM_PRIME_SEEDED_SHA1 = {
    64: "6e2eae61ecc6484a871087b987ebce79aa809049",
    128: "eff91390d0319b8025f3826e478fa41ede5a4017",
    256: "84df09d7d027f4d47107713d95f862c7a850df76",
    512: "d635e5a2b248eec2db37d9895274efcb00201871",
    1024: "ec2d6ff8e137f26b899defe5d7d2f2bb2b148605",
}
