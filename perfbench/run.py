"""Benchmark for toycrypt: seeded workloads, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it imports toycrypt from ./src.  Workloads:
keygen, bulk, exchange, cli_chain (see BENCHMARK.json and README.md).

--trace 0 measures the end-to-end metrics.  --trace 1 makes the same
untraced run, then replays its first rounds with every layer wrapped in
spans, and reports the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TAIL_BEYOND = 10
TAILED_OPS = ("seal", "open", "sign", "verify")


def load_program():
    """Import toycrypt from this checkout's src, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import toycrypt
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import toycrypt from {src}: {exc}") from None
    if not Path(toycrypt.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: toycrypt came from {toycrypt.__file__}, not {src}")


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def p50(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def tail(samples):
    """Highest percentile with TAIL_BEYOND samples above it, as (seconds, percent)."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return 0.0, 0.0
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def op_metrics(workload, samples, rounds, cli_import_s) -> dict:
    """The per-op latencies, from untraced samples; 0 where the op is not run."""
    out = {"keygen_p50_ms": (p50(samples.get("keygen")) * 1e3, "ms")}
    for op in TAILED_OPS:
        ops = samples.get(op, [])
        out[f"{op}_p50_ms"] = (p50(ops) * 1e3, "ms")
        out[f"{op}_tail_ms"] = (tail(ops)[0] * 1e3, "ms")
        out[f"{op}_samples"] = (len(ops), "count")
    out["dh_p50_ms"] = (p50(samples.get("dh")) * 1e3, "ms")
    out["ecdh_p50_ms"] = (p50(samples.get("ecdh")) * 1e3, "ms")
    out["chain_p50_ms"] = (p50(rounds) * 1e3 if workload == "cli_chain" else 0.0, "ms")
    out["cli.import_s"] = (cli_import_s, "s")
    for step in ("keygen", "seal", "open"):
        out[f"cli.{step}_s"] = (p50(samples.get(f"cli_{step}")), "s")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload](seed, ROOT)
    try:
        spawn_gauge = workloads.SpeedGauge(workloads.SPAWN, ROOT)
        import_s = workloads.fresh_import_s("toycrypt", IMPORT_REPEATS, ROOT, spawn_gauge)
        cpu_gauge = workloads.SpeedGauge(workloads.CPU, ROOT)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            wl.setup()
            setup_times.append((perf_counter() - start) * cpu_gauge.scale())
        setup_s = import_s + statistics.median(setup_times)

        rec = workloads.Recorder()
        round_gauge = workloads.SpeedGauge(wl.gauge, ROOT)
        deadline = perf_counter() + seconds
        rounds = []
        while not rounds or len(rounds) % wl.rounds_multiple or perf_counter() < deadline:
            rounds.append(workloads.timed_round(wl, rec, len(rounds), round_gauge))
        op_s = [s for ops in rec.samples.values() for s in ops]
        end_to_end = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
            "round_p50_ms": (p50(rounds) * 1e3, "ms"),
        }
        cli_import_s = 0.0
        if workload == "cli_chain":
            gauge = workloads.SpeedGauge(workloads.SPAWN, ROOT)
            cli_import_s = workloads.fresh_import_s("toycrypt.cli", IMPORT_REPEATS, ROOT, gauge)
        per_op = op_metrics(workload, rec.samples, rounds, cli_import_s)
        attempted, failed, errors = rec.attempted, rec.failed, rec.errors

        print("context " + json.dumps({
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(ROOT),
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "rounds": len(rounds),
            **wl.context(),
        }))
        for op in TAILED_OPS:
            if rec.samples.get(op):
                _, pct = tail(rec.samples[op])
                print(f"tail {op}: p{pct:.1f} of {len(rec.samples[op])} samples")

        if trace:
            # replay the first rounds, each untraced then traced, so drift in
            # machine speed cancels out of the overhead ratio
            tracer = spans.Tracer()
            plain_rec, traced_rec = workloads.Recorder(), workloads.Recorder(tracer)
            plain, traced = [], []
            for i in range(wl.trace_rounds):
                plain.append(workloads.timed_round(wl, plain_rec, i))
                with spans.traced(tracer):
                    traced.append(workloads.timed_round(wl, traced_rec, i))
            metrics = spans.layer_metrics(spans.merge(spans.summarize(tracer.spans), traced_rec.totals))
            metrics.update(per_op)
            metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
            for r in (plain_rec, traced_rec):
                attempted, failed, errors = attempted + r.attempted, failed + r.failed, errors + r.errors
        else:
            metrics = end_to_end
    finally:
        wl.close()

    for name, (value, unit) in {**end_to_end, **per_op, **metrics}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio")
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("keygen", "bulk", "exchange", "cli_chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time, > 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
