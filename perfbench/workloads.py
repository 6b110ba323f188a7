"""The benchmark's workloads: seeded inputs, timed ops, and output checks.

The load is a closed loop with one client: one process, one thread, each op
waits for the previous one.  A round is a fixed sequence of ops; its latency
is the sum of their timed durations.  Checks run outside the timed region.
Oracle checks use only `hashlib` and built-in `pow`, never toycrypt.

Calls go through module attributes (`rsa.keygen_random`, not a bound name)
so the span tracer sees them when it is installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from toycrypt import dh, ecc, envelope, numtheory, rsa

import spans

E = rsa.DEFAULT_PUBLIC_EXPONENT
KEY_BITS = 1024
DH_BITS = 1024
DH_GENERATOR = 5
CURVE_BITS = 128
BULK_BYTES = 16 * 1024
EXCHANGE_BYTES = (32, 512)
CLI_KEY_BITS = 256
CLI_BYTES = (256, 2048)
# Per-key cost swings about 4x with the seed, so keygen walks one fixed pool
# of key seeds in whole passes; the workload seed only picks where to start.
KEYGEN_POOL = tuple(f"keygen-{k}" for k in range(12))
# The set-up key and DH prime are fixed for the same reason: set-up time
# would otherwise follow the seed.  Messages, secrets and the curve do not.
FIXTURE_KEY_SEED = "fixture-rsa-1024"
FIXTURE_DH_SEED = "fixture-dh-1024"
SUBPROCESS_TIMEOUT_S = 60
# On a shared virtual machine the speed can swing 1.8x for tens of seconds
# at a time (measured on 2 vCPUs).  Every reported time is scaled by a
# nominal time over the time of a fixed reference measured next to it, so
# that the swings cancel: times read as on a machine where the reference
# takes its nominal time.  Different code slows by different amounts, so the
# reference for computation mirrors the workloads' own kernels, and process
# start (the CLI chain, the import probes) is scaled by a bare interpreter
# start.
CPU_REF_S = 0.010
SPAWN_REF_S = 0.075
_REF_MODULUS = (1 << 1023) | 0x5DEECE66D


def _ref_compress(block_words, state):
    # a SHA-1-shaped compression: 32-bit interpreter work like the sha1 layer's
    w = list(block_words)
    for t in range(16, 80):
        x = w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]
        w.append(((x << 1) | (x >> 31)) & 0xFFFFFFFF)
    a, b, c, d, e = state
    for t in range(80):
        if t < 20:
            f, k = (b & c) | (~b & d), 0x5A827999
        elif t < 40:
            f, k = b ^ c ^ d, 0x6ED9EBA1
        elif t < 60:
            f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
        else:
            f, k = b ^ c ^ d, 0xCA62C1D6
        new_a = ((((a << 5) | (a >> 27)) & 0xFFFFFFFF) + f + e + k + w[t]) & 0xFFFFFFFF
        a, b, c, d, e = new_a, a, ((b << 30) | (b >> 2)) & 0xFFFFFFFF, c, d
    return tuple((s + v) & 0xFFFFFFFF for s, v in zip(state, (a, b, c, d, e)))


def cpu_reference_s(root: Path) -> float:
    """Time the two kinds of work the in-process workloads spend their time on.

    60 SHA-1-shaped compressions, and one square-and-multiply with a 1024-bit
    modulus and exponent, both in pure Python.  This mirrors the toycrypt
    kernels but is frozen here, so changes to toycrypt leave it alone.
    """
    start = perf_counter()
    state = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
    for _ in range(60):
        state = _ref_compress(range(16), state)
    m = _REF_MODULUS
    result, exp = 1, m - 1
    for i in range(exp.bit_length() - 1, -1, -1):
        result = result * result % m
        if (exp >> i) & 1:
            result = result * 3 % m
    return perf_counter() - start


def spawn_reference_s(root: Path) -> float:
    """Time a new interpreter that does nothing."""
    start = perf_counter()
    run_python([sys.executable, "-c", "pass"], root).check_returncode()
    return perf_counter() - start


CPU = (cpu_reference_s, CPU_REF_S)
SPAWN = (spawn_reference_s, SPAWN_REF_S)


class SpeedGauge:
    """Measures a reference around each measured section."""

    def __init__(self, kind, root: Path):
        self.reference, self.nominal_s = kind
        self.root = root
        self.last = self.reference(root)

    def scale(self) -> float:
        """Nominal time over the mean reference time before and after the section."""
        now = self.reference(self.root)
        factor = 2 * self.nominal_s / (self.last + now)
        self.last = now
        return factor


class OpFailed(Exception):
    """A timed op raised; the rest of its round is skipped."""


class Recorder:
    """Times ops and counts attempts and failures; tags spans with an op id."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.totals = spans.empty()  # span totals reported by child processes
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.round_ops: list[tuple[str, float]] = []

    def timed(self, op, fn, *args):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
            fn = self.tracer.wrap(f"op.{op}", fn)
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the program under test failed this op
            self.fail(op, f"raised {exc!r}")
            raise OpFailed(op) from exc
        self.round_ops.append((op, perf_counter() - start))
        return result

    def check(self, op, ok, what):
        if not ok:
            self.fail(op, what)

    def fail(self, op, why):
        self.failed += 1
        self.errors.append(f"{op}: {why}")


# --- oracles -----------------------------------------------------------------


def sha1_int(data: bytes) -> int:
    return int.from_bytes(hashlib.sha1(data).digest(), "big")


def oracle_open(env, priv) -> bytes:
    """Open an envelope with built-in pow and hashlib only."""
    stream = env.wrapped_key
    raw = b"".join(pow(c, priv.d, priv.n).to_bytes(stream.width, "big") for c in stream.blocks)
    key = raw[: len(raw) - stream.pad]
    pad = b"".join(
        hashlib.sha1(key + i.to_bytes(8, "big")).digest() for i in range(-(-len(env.body) // 20))
    )
    return bytes(b ^ k for b, k in zip(env.body, pad))


def oracle_scalar_mul(a, p, k, point):
    """Affine double-and-add with built-in modular inverse; None is infinity."""

    def add(p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        if p1[0] == p2[0] and (p1[1] + p2[1]) % p == 0:
            return None
        if p1 == p2:
            slope = (3 * p1[0] * p1[0] + a) * pow(2 * p1[1], -1, p) % p
        else:
            slope = (p2[1] - p1[1]) * pow(p2[0] - p1[0], -1, p) % p
        x3 = (slope * slope - p1[0] - p2[0]) % p
        return x3, (slope * (p1[0] - x3) - p1[1]) % p

    acc = None
    for bit in bin(k)[2:]:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, point)
    return acc


def key_ok(pub, priv, bits) -> bool:
    """n = p*q with the stated length, and e*d = 1 (mod phi), by built-in pow."""
    return (
        pub.n == priv.n == priv.p * priv.q
        and pub.n.bit_length() == bits
        and pub.e * priv.d % ((priv.p - 1) * (priv.q - 1)) == 1
        and pow(pow(2, pub.e, pub.n), priv.d, pub.n) == 2
    )


# --- workloads ---------------------------------------------------------------


class Workload:
    """A seeded workload.  setup() builds fixtures; run_round(i) does round i."""

    # a run stops only after a multiple of this many rounds
    rounds_multiple = 1
    # rounds replayed under the tracer
    trace_rounds = 1
    # the reference that tracks the speed of what a round spends its time on
    gauge = CPU

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def rng(self, i) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{i}")

    def setup(self) -> None:
        pass

    def run_round(self, i: int, rec: Recorder) -> None:
        raise NotImplementedError

    def context(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class Keygen(Workload):
    """rsa.keygen_random(1024) over a fixed pool of key seeds."""

    name = "keygen"
    rounds_multiple = len(KEYGEN_POOL)
    trace_rounds = 3

    def setup(self):
        start = self.seed % len(KEYGEN_POOL)
        self.order = KEYGEN_POOL[start:] + KEYGEN_POOL[:start]

    def run_round(self, i, rec):
        key_rng = random.Random(self.order[i % len(self.order)])
        pub, priv = rec.timed("keygen", rsa.keygen_random, KEY_BITS, E, key_rng)
        rec.check("keygen", key_ok(pub, priv, KEY_BITS), "inconsistent key")

    def context(self):
        return {"key_bits": KEY_BITS, "key_seeds": list(KEYGEN_POOL), "start": self.order[0]}


def fixture_key():
    return rsa.keygen_random(KEY_BITS, E, random.Random(FIXTURE_KEY_SEED))


class Bulk(Workload):
    """seal, open, sign, verify on one fixed-size message under one key."""

    name = "bulk"
    trace_rounds = 3

    def setup(self):
        self.pub, self.priv = fixture_key()
        self.message = random.Random(f"bulk/{self.seed}").randbytes(BULK_BYTES)

    def run_round(self, i, rec):
        envelope_round(self, i, rec, self.message, self.rng(i))

    def context(self):
        return {"key_bits": KEY_BITS, "message_bytes": BULK_BYTES}


def envelope_round(wl, i, rec, message, rng):
    """sign, verify, seal and open one message; shared by bulk and exchange."""
    pub, priv = wl.pub, wl.priv
    signed = rec.timed("sign", envelope.sign, message, priv)
    rec.check("sign", pow(signed.signature, pub.e, pub.n) == sha1_int(message), "bad signature")
    ok = rec.timed("verify", envelope.verify, signed, pub)
    rec.check("verify", ok is True, "valid signature rejected")
    env = rec.timed("seal", envelope.seal, message, pub, rng)
    # the private-exponent oracle is one pow per block, so only round 0 pays it
    rec.check("seal", len(env.body) == len(message) and (i or oracle_open(env, priv) == message),
              "envelope does not open to the message")
    opened = rec.timed("open", envelope.open_envelope, env, priv)
    rec.check("open", opened == message, "round trip differs")


class Exchange(Workload):
    """Short messages through the RSA ops, plus one DH and one ECDH agreement."""

    name = "exchange"
    trace_rounds = 20

    def setup(self):
        self.pub, self.priv = fixture_key()
        p = numtheory.random_prime(DH_BITS, random.Random(FIXTURE_DH_SEED))
        self.params = dh.make_params(p, DH_GENERATOR)
        # (x0, y0, a) on a random prime field fixes b, so G is on the curve
        rng = random.Random(f"exchange/{self.seed}/curve")
        q = numtheory.random_prime(CURVE_BITS, rng)
        while True:
            x0, y0, a = rng.randrange(q), rng.randrange(1, q), rng.randrange(q)
            b = (y0 * y0 - x0 * x0 * x0 - a * x0) % q
            if (4 * a**3 + 27 * b * b) % q:
                break
        self.curve = ecc.make_curve(a, b, q)
        self.base = ecc.EccPoint(x0, y0)

    def run_round(self, i, rec):
        rng = self.rng(i)
        message = rng.randbytes(rng.randint(*EXCHANGE_BYTES))
        envelope_round(self, i, rec, message, rng)

        params = self.params

        def dh_agree():
            alice = dh.gen_keypair(params, rng)
            bob = dh.gen_keypair(params, rng)
            return (
                alice,
                dh.shared_secret(params, alice.secret, bob.public),
                dh.shared_secret(params, bob.secret, alice.public),
            )

        alice, s1, s2 = rec.timed("dh", dh_agree)
        rec.check("dh", s1 == s2 and (i or pow(params.g, alice.secret, params.p) == alice.public),
                  "DH sides disagree")

        curve, base = self.curve, self.base
        ka, kb = rng.randrange(1, curve.p), rng.randrange(1, curve.p)

        def ecdh_agree():
            pa = ecc.scalar_mul(curve, ka, base)
            pb = ecc.scalar_mul(curve, kb, base)
            return pa, ecc.scalar_mul(curve, ka, pb), ecc.scalar_mul(curve, kb, pa)

        pa, s1, s2 = rec.timed("ecdh", ecdh_agree)
        rec.check(
            "ecdh",
            s1 == s2 and (i or (pa.x, pa.y) == oracle_scalar_mul(curve.a, curve.p, ka, (base.x, base.y))),
            "ECDH sides disagree",
        )

    def context(self):
        return {
            "key_bits": KEY_BITS,
            "message_bytes": list(EXCHANGE_BYTES),
            "dh_bits": DH_BITS,
            "curve_bits": CURVE_BITS,
        }


class CliChain(Workload):
    """keygen -> seal -> open through the toycrypt command, a fresh process each."""

    name = "cli_chain"
    trace_rounds = 3
    gauge = SPAWN

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _cli(self, rec, op, args):
        if rec.tracer is None:
            cmd = [sys.executable, "-m", "toycrypt", *args]
        else:
            out = self.dir / "spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(out), *args]
        done = rec.timed(op, run_python, cmd, self.root)
        if done.returncode != 0:
            rec.fail(op, f"exit {done.returncode}: {done.stderr.decode(errors='replace').strip()}")
            raise OpFailed(op)
        if rec.tracer is not None:
            rec.totals = spans.merge(rec.totals, json.loads(out.read_text()))

    def run_round(self, i, rec):
        rng = self.rng(i)
        key_seed = rng.randrange(1 << 31)
        message = rng.randbytes(rng.randint(*CLI_BYTES))
        d = self.dir
        for name in ("k.pub", "k.key", "env", "out"):
            (d / name).unlink(missing_ok=True)
        (d / "msg").write_bytes(message)
        self._cli(rec, "cli_keygen", ["keygen", "--bits", str(CLI_KEY_BITS), "--seed", str(key_seed),
                                      "--out", str(d / "k")])
        fields = dict(line.split("=") for line in (d / "k.key").read_text().split())
        n, p, q = (int(fields[k], 16) for k in "npq")
        rec.check("cli_keygen", n == p * q and n.bit_length() == CLI_KEY_BITS, "inconsistent key file")
        self._cli(rec, "cli_seal", ["seal", "--key", str(d / "k.pub"), "--in", str(d / "msg"),
                                    "--out", str(d / "env"), "--seed", str(key_seed)])
        self._cli(rec, "cli_open", ["open", "--key", str(d / "k.key"), "--in", str(d / "env"),
                                    "--out", str(d / "out")])
        rec.check("cli_open", (d / "out").read_bytes() == message, "round trip differs")

    def context(self):
        return {"key_bits": CLI_KEY_BITS, "message_bytes": list(CLI_BYTES)}


WORKLOADS = {w.name: w for w in (Keygen, Bulk, Exchange, CliChain)}


def timed_round(wl, rec, i, gauge=None) -> float:
    """Run round i; return its latency, the sum of its timed ops.

    With a gauge, the round's op times are scaled to reference speed.
    """
    rec.round_ops = []
    try:
        wl.run_round(i, rec)
    except OpFailed:
        pass
    factor = gauge.scale() if gauge else 1.0
    for op, seconds in rec.round_ops:
        rec.samples[op].append(seconds * factor)
    return factor * sum(seconds for _, seconds in rec.round_ops)


def python_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_python(cmd, root: Path):
    """Run one child process to completion; it never outlives the call."""
    return subprocess.run(cmd, cwd=root, env=python_env(root), capture_output=True,
                          timeout=SUBPROCESS_TIMEOUT_S)


def fresh_import_s(module: str, repeats: int, root: Path, gauge: SpeedGauge) -> float:
    """Median time, at reference speed, of a new interpreter that only imports `module`."""
    cmd = [sys.executable, "-c", f"import {module}"]
    times = []
    for _ in range(repeats):
        start = perf_counter()
        run_python(cmd, root).check_returncode()
        times.append((perf_counter() - start) * gauge.scale())
    return statistics.median(times)
