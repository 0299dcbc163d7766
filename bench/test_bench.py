"""Smoke tests of the benchmark itself, at the smoke size.

    python3 -m pytest -q bench/test_bench.py

Every workload runs in seconds, two passes give equal digests, traced and
untraced digests agree, and every metric that BENCHMARK.json names is
printed with its unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines()


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, list[str], dict]:
    code, lines = bench("--workload", workload, "--size", "smoke", "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace))
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = parts[2]
    digests = next(json.loads(line[len("# digests "):]) for line in lines
                   if line.startswith("# digests "))
    return result, digests, printed


def assert_metrics(result: dict, printed: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_passes_give_equal_digests(workload):
    first, digests_a, printed = smoke(workload, 0)
    second, digests_b, _ = smoke(workload, 0)
    assert_metrics(first, printed, SPEC["end_to_end"])
    assert printed["error_rate"] == "ratio"
    common = min(len(digests_a), len(digests_b))
    assert common >= 2 and digests_a[:common] == digests_b[:common]
    assert all(first["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced(workload):
    result, digests, printed = smoke(workload, 1)
    assert_metrics(result, printed, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.digest_mismatches"] == 0
    assert metrics["cli.main.calls"] > 0
    if workload == "noisy_binary":
        assert metrics["noise.noisy_apply.calls"] > 0
    else:
        assert metrics["noise.noisy_apply.calls"] == 0
    if workload == "ideal_stats":
        assert metrics["engine.shots.trajectory"] == 0
        assert metrics["market.rows_in"] > 0


def test_arc_tail_is_exact():
    sys.path.insert(0, HERE)
    import itertools
    import math

    import workloads as wl

    width, steps, shots = 2, 1, 3
    probs = [math.sin(steps * (wl.BASE_ANGLE / 2**k) / 2.0) ** 2 for k in range(width)]
    centre = wl.arc_moments(width, steps)[0]
    outcomes = {}
    for bits in itertools.product([0, 1], repeat=width * shots):
        weight = math.prod(p if b else 1.0 - p for b, p in zip(bits, probs * shots))
        total = sum(b << (i % width) for i, b in enumerate(bits))
        outcomes[total] = outcomes.get(total, 0.0) + weight
    for total in outcomes:
        got = total / shots
        want = sum(w for t, w in outcomes.items()
                   if abs(t / shots - centre) >= abs(got - centre) - 1e-12)
        assert math.isclose(wl.arc_tail(width, steps, shots, got), want, rel_tol=1e-9)
    # a 150-shot mean 6.4 stderr out at steps 1 that working code produced
    assert wl.arc_z(8, 1, 150, 329 / 150) > 6.0
    assert wl.arc_tail(8, 1, 150, 329 / 150) > 1e-4
    problems = []
    wl._check_arc(8, 1, 150, 329 / 150, problems)
    assert problems == []
    wl._check_arc(8, 1, 150, 5.0, problems)
    assert len(problems) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
