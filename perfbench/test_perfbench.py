"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py

They run every workload for one second, untraced once and traced twice,
with a fixed seed: about two minutes on two CPUs.  They check that every
metric BENCHMARK.json names is reported with its unit, and that every
count from the traced run repeats exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from toycrypt import envelope, sha1  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# counts that depend on the inputs only; *_samples depend on speed
COUNT_SUFFIXES = (
    "calls",
    "mr_rounds",
    "exp_bits",
    "compressions",
    "candidates_per_prime",
    "prime_pairs_per_key",
    ".bytes",
)


def bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_with_units(workload):
    result = bench(workload, 0)
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert units(first) == units(second) == expected
    counts = [name for name in expected if name.endswith(COUNT_SUFFIXES)]
    values = [{name: r["metrics"][name]["value"] for name in counts} for r in (first, second)]
    assert values[0] == values[1]
    assert any(values[0].values())


def test_tracer_sees_names_bound_at_import():
    original = envelope.sha1
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert envelope.sha1 is not original
        envelope.keystream(bytes(32), 41)  # three 20-byte digests
    assert envelope.sha1 is original and sha1.sha1 is original
    totals = spans.summarize(tracer.spans)
    assert totals["calls"] == {"envelope.keystream": 1, "sha1": 3}
    assert totals["quantity"] == {"envelope.keystream": 41, "sha1": 3}


def test_self_time_excludes_children():
    # parent 0..10 holds children 1..3 and 4..8; the second child holds 5..6
    fake = [
        ["a", 0.0, 10.0, -1, 1, None],
        ["b", 1.0, 3.0, 0, 1, None],
        ["b", 4.0, 8.0, 0, 1, None],
        ["c", 5.0, 6.0, 2, 1, None],
    ]
    totals = spans.summarize(fake)
    assert totals["self_s"] == {"a": 4.0, "b": 5.0, "c": 1.0}
    assert totals["calls"] == {"a": 1, "b": 2, "c": 1}
