"""Span tracing for the benchmark, applied from outside the package.

`traced(tracer)` swaps chosen toycrypt functions for wrappers that record a
span per call, and puts the originals back on exit.  A name is replaced in
every toycrypt module that holds it, because some modules bind functions at
import (`envelope` does `from .sha1 import sha1`), so patching only the
defining module would miss those callers.

A span is (name, start, end, parent, op id, info).  Spans stay in memory;
`summarize` folds them into additive totals, which `layer_metrics` turns
into the per-layer metrics.  Totals from several processes can be merged by
adding them, which is how the traced CLI runs report back.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sha1_compressions(args, kwargs, result):
    # one-shot SHA-1 pads with 0x80 and an 8-byte length: ceil((L + 9) / 64) blocks
    return (len(_arg(args, kwargs, 0, "message")) + 8) // 64 + 1


# span name -> (module, function names, extractor of the counted quantity)
LAYERS = {
    "bigmod.mod_pow": ("bigmod", ("mod_pow",), lambda a, k, r: _arg(a, k, 1, "exp").bit_length()),
    "bigmod.mod_inv": ("bigmod", ("mod_inv",), None),
    "numtheory.is_prime": ("numtheory", ("is_prime",), lambda a, k, r: r.rounds),
    "numtheory.random_prime": ("numtheory", ("random_prime",), None),
    "rsa.keygen_random": ("rsa", ("keygen_random",), None),
    "rsa.keygen_from_primes": ("rsa", ("keygen_from_primes",), None),
    "rsa.private_op": ("rsa", ("private_op", "decrypt_block"), None),
    "rsa.public_op": ("rsa", ("public_op", "encrypt_block"), None),
    "rsa.framing": (
        "rsa",
        ("encode_message", "decode_message", "encrypt_message", "decrypt_message"),
        None,
    ),
    "rsa.text": (
        "rsa",
        (
            "write_public_key",
            "write_private_key",
            "read_public_key",
            "read_private_key",
            "write_block_stream",
            "read_block_stream",
        ),
        None,
    ),
    "sha1": ("sha1", ("sha1",), _sha1_compressions),
    "envelope.keystream": ("envelope", ("keystream",), lambda a, k, r: _arg(a, k, 1, "length")),
    "envelope.seal": ("envelope", ("seal",), None),
    "envelope.open": ("envelope", ("open_envelope",), None),
    "envelope.sign": ("envelope", ("sign",), None),
    "envelope.verify": ("envelope", ("verify",), None),
    "classical.otp_apply": ("classical", ("otp_apply",), lambda a, k, r: len(_arg(a, k, 0, "data"))),
    "dh": ("dh", ("make_params", "public_of", "gen_keypair", "shared_secret"), None),
    "ecc.scalar_mul": ("ecc", ("scalar_mul",), None),
    "ecc.point_add": ("ecc", ("point_add",), None),
}

# (child span, parent span) pairs whose call counts the metrics need
EDGES = (
    ("numtheory.is_prime", "numtheory.random_prime"),
    ("numtheory.is_prime", "rsa.keygen_from_primes"),
    ("numtheory.random_prime", "rsa.keygen_random"),
)


class Tracer:
    """Records nested spans from a single thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced_call(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if info is not None:
                record[5] = info(args, kwargs, result)
            return result

        return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every toycrypt lookup of a LAYERS function through the tracer."""
    replacement = {}
    for span, (module, names, info) in LAYERS.items():
        mod = importlib.import_module(f"toycrypt.{module}")
        for fname in names:
            original = getattr(mod, fname)
            replacement[original] = tracer.wrap(span, original, info)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "toycrypt" or modname.startswith("toycrypt.")):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in replacement:
                setattr(mod, attr, replacement[value])
                patched.append((mod, attr, value))
    try:
        yield tracer
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def summarize(spans) -> dict:
    """Additive totals per span name: calls, self seconds, counted quantity."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    quantity = defaultdict(int)
    edges = defaultdict(int)
    wanted = set(EDGES)
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        if info is not None:
            quantity[name] += info
        if parent >= 0 and (name, spans[parent][0]) in wanted:
            edges[f"{name}<{spans[parent][0]}"] += 1
    return {"calls": dict(calls), "self_s": dict(self_s), "quantity": dict(quantity), "edges": dict(edges)}


def merge(a: dict, b: dict) -> dict:
    return {
        key: {k: a[key].get(k, 0) + b[key].get(k, 0) for k in a[key].keys() | b[key].keys()}
        for key in ("calls", "self_s", "quantity", "edges")
    }


def empty() -> dict:
    return {"calls": {}, "self_s": {}, "quantity": {}, "edges": {}}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics from merged totals, as {name: (value, unit)}.

    A layer the workload never calls reads 0.
    """

    def calls(name):
        return totals["calls"].get(name, 0)

    def self_s(name):
        return totals["self_s"].get(name, 0.0)

    def qty(name):
        return totals["quantity"].get(name, 0)

    def edge(child, parent):
        return totals["edges"].get(f"{child}<{parent}", 0)

    compressions = qty("sha1")
    return {
        "numtheory.is_prime.calls": (calls("numtheory.is_prime"), "count"),
        "numtheory.is_prime.self_s": (self_s("numtheory.is_prime"), "s"),
        "numtheory.is_prime.mr_rounds": (qty("numtheory.is_prime"), "count"),
        "numtheory.candidates_per_prime": (
            _ratio(edge("numtheory.is_prime", "numtheory.random_prime"), calls("numtheory.random_prime")),
            "ratio",
        ),
        "numtheory.recheck_calls": (edge("numtheory.is_prime", "rsa.keygen_from_primes"), "count"),
        "numtheory.random_prime.self_s": (self_s("numtheory.random_prime"), "s"),
        "rsa.prime_pairs_per_key": (
            _ratio(edge("numtheory.random_prime", "rsa.keygen_random") / 2, calls("rsa.keygen_random")),
            "ratio",
        ),
        "rsa.keygen_random.self_s": (self_s("rsa.keygen_random"), "s"),
        "rsa.keygen_from_primes.self_s": (self_s("rsa.keygen_from_primes"), "s"),
        "bigmod.mod_pow.calls": (calls("bigmod.mod_pow"), "count"),
        "bigmod.mod_pow.self_s": (self_s("bigmod.mod_pow"), "s"),
        "bigmod.mod_pow.exp_bits": (qty("bigmod.mod_pow"), "bits"),
        "rsa.private_op.calls": (calls("rsa.private_op"), "count"),
        "rsa.private_op.self_s": (self_s("rsa.private_op"), "s"),
        "rsa.public_op.calls": (calls("rsa.public_op"), "count"),
        "rsa.public_op.self_s": (self_s("rsa.public_op"), "s"),
        "rsa.framing.self_s": (self_s("rsa.framing"), "s"),
        "rsa.text.self_s": (self_s("rsa.text"), "s"),
        "sha1.calls": (calls("sha1"), "count"),
        "sha1.self_s": (self_s("sha1"), "s"),
        "sha1.compressions": (compressions, "count"),
        "sha1.compress_per_s": (_ratio(compressions, self_s("sha1")), "1/s"),
        "envelope.keystream.bytes": (qty("envelope.keystream"), "B"),
        "envelope.keystream.self_s": (self_s("envelope.keystream"), "s"),
        "classical.otp_apply.bytes": (qty("classical.otp_apply"), "B"),
        "classical.otp_apply.self_s": (self_s("classical.otp_apply"), "s"),
        "envelope.seal.self_s": (self_s("envelope.seal"), "s"),
        "envelope.open.self_s": (self_s("envelope.open"), "s"),
        "envelope.sign.self_s": (self_s("envelope.sign"), "s"),
        "envelope.verify.self_s": (self_s("envelope.verify"), "s"),
        "dh.self_s": (self_s("dh"), "s"),
        "ecc.scalar_mul.calls": (calls("ecc.scalar_mul"), "count"),
        "ecc.point_add.calls": (calls("ecc.point_add"), "count"),
        "ecc.point_add.self_s": (self_s("ecc.point_add"), "s"),
        "bigmod.mod_inv.calls": (calls("bigmod.mod_inv"), "count"),
        "bigmod.mod_inv.self_s": (self_s("bigmod.mod_inv"), "s"),
    }
