#!/usr/bin/env python3
"""Benchmark of the arcwalk CLI: one workload per child process, closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload zeno_arc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of cycles untraced, then the same cycles with every layer traced,
and prints the per-layer metrics and the kernel table. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The lines before it list every metric by name and unit,
the run's environment and the digest of each op's output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import clock  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    WHY = {w["name"]: w["why"] for w in json.load(_fh)["workloads"]}

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170.0
# Environment of every interpreter the benchmark starts: the checkout's
# sources, and numeric libraries held to the one thread they get.
CHILD_ENV = {
    "PYTHONPATH": SRC,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_CODE = "import time\nimport arcwalk.cli\narcwalk.cli.build_parser()\nprint(time.monotonic())\n"
BARE_CODE = "import time\nprint(time.monotonic())\n"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(CHILD_ENV)
    return env


def spawn_seconds(code: str) -> float:
    """Seconds from spawning an interpreter on ``code`` to its last statement."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - t0


def measure_setup() -> tuple[float, float]:
    """Median seconds from spawning an interpreter to a built CLI parser: as
    measured, and scaled by the bare-interpreter spawns around each probe."""
    wall, ref = [], []
    bare = spawn_seconds(BARE_CODE)
    for _ in range(SETUP_PROBES):
        wall.append(spawn_seconds(SETUP_CODE))
        after = spawn_seconds(BARE_CODE)
        ref.append(clock.to_reference(wall[-1], bare, after, clock.SPAWN_REF_S))
        bare = after
    return statistics.median(wall), statistics.median(ref)


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def run_workload(workload: str, size: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up inputs, run one child, and return its result with ``setup_s``."""
    with wl.scratch(ROOT, f"{workload}-") as (inputdir, workdir):
        wl.write_inputs(workload, size, seed, inputdir)
        setup = measure_setup() if trace == 0 else None
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--size", size, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--inputdir", inputdir, "--workdir", workdir,
            "--src", SRC,
        ]
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if setup is not None:
        result["wall"]["setup_s"] = setup[0]
        result["metrics"]["setup_s"] = [setup[1], "s"]
    return result


def report(workload: str, result: dict, env: dict) -> dict:
    """Print the human-readable block and return the final JSON object."""
    print(f"# workload {workload}: {WHY[workload]}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    for name, value in result.get("wall", {}).items():
        print(f"# wall-clock {name} {value!r}")
    print(f"error_rate {result['error_rate']!r} ratio")
    print(f"warmup_s {result['warmup_s']!r} s")
    print(f"cycles {result['cycles']} count")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    print("# digests " + json.dumps(result["digests"]))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                    help="smoke runs every workload in seconds, for the benchmark's tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arcwalk", "cli.py")):
        print(f"bench: no arcwalk sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.size, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError, OSError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(name, result, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
