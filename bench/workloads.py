"""Workloads of the arcwalk benchmark: their commands, inputs and output checks.

A workload is a cycle of ``arcwalk`` CLI commands that the benchmark repeats
in a closed loop. Each cycle gets its own ``--seed``, drawn from the
benchmark's workload seed, so the same workload seed gives the same commands
and the same outputs. This module does not import ``arcwalk``: the checks are
independent of the code they check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# Parameters per size. "full" is what the benchmark measures; "smoke" runs
# every workload in seconds for the benchmark's own tests.
SIZES = {
    "full": {
        "noisy_binary": {"width": 6, "steps": 10, "shots": 16},
        "zeno_arc": {"width": 8, "steps": 20, "shots": 20},
        "cascade_table": {"width": 8, "steps": 8, "circuits": 1},
        "ideal_stats": {
            "width": 8, "steps": 20, "shots": 150, "hist_shots": 2000,
            "price_rows": 50_000, "metros": 500, "months": 100,
        },
    },
    "smoke": {
        "noisy_binary": {"width": 3, "steps": 3, "shots": 4},
        "zeno_arc": {"width": 4, "steps": 4, "shots": 10},
        "cascade_table": {"width": 4, "steps": 2, "circuits": 1},
        "ideal_stats": {
            "width": 4, "steps": 4, "shots": 50, "hist_shots": 50,
            "price_rows": 2000, "metros": 20, "months": 50,
        },
    },
}
WORKLOADS = tuple(SIZES["full"])

# Fixed cycle count of a traced run, so its per-layer counts repeat exactly
# for a given seed. Sized to about eight seconds untraced on a 2-core x86 box.
TRACE_CYCLES = {"noisy_binary": 12, "zeno_arc": 24, "cascade_table": 20, "ideal_stats": 8}

READOUT_FLIP = 0.01
ZENO_PERIODS = (0, 7, 1)
RANDOM_SHOTS = 30  # the CLI's default --random-shots
BASE_ANGLE = math.pi / 2  # the CLI's default --base-angle

# Arc means are checked against the closed form as criterion 04 does: at
# least 95% of a run's means within 4 standard errors. A mean beyond 4
# standard errors also fails its op on its own if the exact probability of a
# deviation at least that large is below ARC_P_MIN. A bound in standard
# errors alone would fail working code: the sampled mean is skewed, since a
# rare hit on a high-weight qubit moves a 150-shot mean at steps 1 by 0.85
# while its standard error is 0.17.
ARC_Z = 4.0
ARC_HIT_SHARE = 0.95
ARC_P_MIN = 1e-9


@dataclass
class Op:
    """One CLI command of a cycle, with what the benchmark knows about it."""

    kind: str  # "sim" or "market"
    argv: list[str]
    outputs: list[str]  # file names written into the op directory
    shots: int = 0  # simulated shots (sim ops)
    in_rows: int = 0  # CSV rows read (market ops)
    params: dict = field(default_factory=dict)


def cycle_seeds(workload: str, seed: int):
    """Per-cycle CLI seeds drawn from the workload seed; cycle 0 is the warm-up."""
    rng = random.Random(f"arcwalk-bench:{workload}:{seed}")
    while True:
        yield rng.randrange(2**31)


def cycle_ops(workload: str, size: str, cli_seed: int, opdir: str, inputdir: str) -> list[Op]:
    """The commands of one cycle; outputs go to ``opdir``."""
    p = SIZES[size][workload]
    seed = str(cli_seed)
    out = os.path.join(opdir, "out.csv")
    if workload == "noisy_binary":
        w, s, shots = p["width"], p["steps"], p["shots"]
        argv = [
            "distance-table", "--designs", "binary", "--width", str(w), "--steps", str(s),
            "--noise", "custom", "--readout-flip", str(READOUT_FLIP), "--shots", str(shots),
            "--seed", seed, "--out", out,
        ]
        params = {"designs": ["binary"], "width": w, "steps": s, "shots": shots, "noisy": True}
        return [Op("sim", argv, ["out.csv"], shots=(s + 1) * shots, params=params)]
    if workload == "zeno_arc":
        w, s, shots = p["width"], p["steps"], p["shots"]
        argv = [
            "zeno", "--width", str(w), "--steps", str(s),
            "--periods", ",".join(map(str, ZENO_PERIODS)), "--shots", str(shots),
            "--seed", seed, "--out", out,
        ]
        params = {"width": w, "steps": s, "shots": shots}
        return [Op("sim", argv, ["out.csv"], shots=len(ZENO_PERIODS) * shots, params=params)]
    if workload == "cascade_table":
        w, s, n = p["width"], p["steps"], p["circuits"]
        designs = ["random_jump", "random_jump_cascading"]
        argv = [
            "distance-table", "--designs", ",".join(designs), "--width", str(w),
            "--steps", str(s), "--random-circuits", str(n), "--seed", seed, "--out", out,
        ]
        params = {"designs": designs, "width": w, "steps": s, "noisy": False}
        shots = (s + 1) * len(designs) * n * RANDOM_SHOTS
        return [Op("sim", argv, ["out.csv"], shots=shots, params=params)]
    if workload == "ideal_stats":
        w, s, shots, hist = p["width"], p["steps"], p["shots"], p["hist_shots"]
        designs = ["binary", "arc", "arc_walk"]
        table = [
            "distance-table", "--designs", ",".join(designs), "--width", str(w),
            "--steps", str(s), "--shots", str(shots), "--seed", seed, "--out", out,
        ]
        walk = [
            "walk-hist", "--design", "arc_walk", "--width", str(w), "--steps", str(s),
            "--two-way", "--shots", str(hist), "--seed", seed,
            "--out", os.path.join(opdir, "hist.csv"),
        ]
        returns = [
            "market", "returns", os.path.join(inputdir, "returns.csv"),
            "--out", os.path.join(opdir, "returns_out.csv"),
        ]
        housing = [
            "market", "housing", os.path.join(inputdir, "housing.csv"),
            "--out-prefix", os.path.join(opdir, "housing"),
        ]
        return [
            Op("sim", table, ["out.csv"], shots=(s + 1) * len(designs) * shots,
               params={"designs": designs, "width": w, "steps": s, "shots": shots,
                       "noisy": False}),
            Op("sim", walk, ["hist.csv"], shots=2 * hist, params={"width": w}),
            Op("market", returns, ["returns_out.csv"], in_rows=p["price_rows"]),
            Op("market", housing, ["housing_per_metro.csv", "housing_report.json"],
               in_rows=p["metros"] * p["months"]),
        ]
    raise KeyError(workload)


# ---------------------------------------------------------------- inputs


@contextmanager
def scratch(root: str, prefix: str):
    """Input and op directories under ``root/.bench_tmp``, removed on exit."""
    base = os.path.join(root, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=base)
    try:
        inputdir, workdir = os.path.join(path, "in"), os.path.join(path, "op")
        os.makedirs(inputdir)
        os.makedirs(workdir)
        yield inputdir, workdir
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # another run still uses it
            pass


def write_inputs(workload: str, size: str, seed: int, inputdir: str) -> None:
    """Generate the workload's input CSVs and their expected statistics from ``seed``."""
    if workload != "ideal_stats":
        return
    import numpy as np

    p = SIZES[size][workload]
    rng = np.random.default_rng([seed, 0xA5C])
    n = p["price_rows"]
    days = (np.datetime64("1800-01-01") + np.arange(n)).astype(str).tolist()
    log_ret = 0.0001 + 0.01 * rng.standard_t(4, n - 1)
    prices = (100.0 * np.exp(np.concatenate([[0.0], np.cumsum(log_ret)]))).tolist()
    with open(os.path.join(inputdir, "returns.csv"), "w") as fh:
        fh.write("date,close\n")
        fh.writelines(f"{d},{c!r}\n" for d, c in zip(days, prices))
    closes = np.array(prices)
    changes = np.diff(closes) / closes[:-1]
    dev = changes - changes.mean()
    m2 = float(np.mean(dev**2))
    returns = {
        "n_changes": int(changes.size),
        "mean": float(changes.mean()),
        "std": float(changes.std(ddof=1)),
        "excess_kurtosis": float(np.mean(dev**4)) / (m2 * m2) - 3.0,
    }

    metros, months = p["metros"], p["months"]
    lines = ["metro,month,sales_count,sale_to_list_ratio\n"]
    per_metro: dict[str, float] = {}
    for m in range(metros):
        name = f"metro{m:04d}"
        rho = rng.uniform(-0.9, 0.9)
        z1 = rng.standard_normal(months)
        z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(months)
        sales = np.maximum(0, np.round(400 + 100 * z1)).astype(int).tolist()
        ratio = (0.97 + 0.015 * z2).tolist()
        for t in range(months):
            lines.append(f"{name},{2000 + t // 12}-{t % 12 + 1:02d},{sales[t]},{ratio[t]!r}\n")
        keep = [(x, y) for x, y in zip(sales, ratio) if y <= 1.0]
        xs = np.array([x for x, _ in keep], dtype=float)
        ys = np.array([y for _, y in keep], dtype=float)
        if len(keep) >= 2 and len(set(xs)) > 1 and len(set(ys)) > 1:
            dx, dy = xs - xs.mean(), ys - ys.mean()
            r = float(np.sum(dx * dy)) / math.sqrt(float(np.sum(dx * dx)) * float(np.sum(dy * dy)))
            per_metro[name] = max(-1.0, min(1.0, r))
    with open(os.path.join(inputdir, "housing.csv"), "w") as fh:
        fh.writelines(lines)
    with open(os.path.join(inputdir, "expected.json"), "w") as fh:
        json.dump({"returns": returns, "housing": {"metros": metros, "per_metro": per_metro}}, fh)


# ---------------------------------------------------------------- checks


def digest(opdir: str, op: Op) -> str:
    """sha256 over every output file of the op, names included."""
    h = hashlib.sha256()
    for name in op.outputs:
        with open(os.path.join(opdir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest()


def arc_moments(width: int, steps: int, base_angle: float = BASE_ANGLE) -> tuple[float, float]:
    """Exact mean and variance of the ideal arc counter: independent qubits k
    read 1 with probability sin^2(steps * base_angle / 2^k / 2)."""
    mean = var = 0.0
    for k in range(width):
        p = math.sin(steps * (base_angle / 2**k) / 2.0) ** 2
        mean += 2**k * p
        var += 4**k * p * (1.0 - p)
    return mean, var


def arc_z(width: int, steps: int, shots: int, got: float) -> float:
    """Distance of a sampled arc mean from the closed form, in standard errors."""
    want, var = arc_moments(width, steps)
    stderr = math.sqrt(var / shots)
    if stderr < 1e-9:
        return 0.0 if abs(got - want) <= 1e-6 else math.inf
    return abs(got - want) / stderr


def arc_tail(width: int, steps: int, shots: int, got: float) -> float:
    """Exact probability that a sampled arc mean lies at least as far from
    the closed form as ``got``. The shot total is the sum over qubits k of
    2^k times a Binomial(shots, p_k) count; its distribution is built by
    convolving those terms."""
    import numpy as np

    total = np.zeros(shots * (2**width - 1) + 1)
    total[0] = 1.0
    log_comb = [math.lgamma(shots + 1) - math.lgamma(c + 1) - math.lgamma(shots - c + 1)
                for c in range(shots + 1)]
    for k in range(width):
        p = math.sin(steps * (BASE_ANGLE / 2**k) / 2.0) ** 2
        if p == 0.0 or p == 1.0:
            pmf = [float(c == shots * p) for c in range(shots + 1)]
        else:
            pmf = [math.exp(lc + c * math.log(p) + (shots - c) * math.log1p(-p))
                   for c, lc in enumerate(log_comb)]
        new = np.zeros_like(total)
        for c, pc in enumerate(pmf):
            if pc > 0.0:
                shift = c * 2**k
                new[shift:] += pc * total[: total.size - shift]
        total = new
    centre = shots * arc_moments(width, steps)[0]
    dev = np.abs(np.arange(total.size) - centre)
    return float(total[dev >= abs(got * shots - centre) - 1e-6].sum())


def _check_arc(width: int, steps: int, shots: int, got: float, problems: list[str]) -> float:
    """The mean's distance from the closed form in standard errors; a
    problem is added if that distance is also improbable under the exact
    distribution."""
    z = arc_z(width, steps, shots, got)
    if z > ARC_Z:
        tail = arc_tail(width, steps, shots, got)
        if tail < ARC_P_MIN:
            problems.append(f"arc mean {got!r} at steps {steps}: {z:.2f} stderr from the "
                            f"closed form, probability {tail:.2g}")
    return z


def _read_csv(path: str) -> tuple[dict, list[str], list[list[str]]]:
    with open(path) as fh:
        text = fh.read()
    first, _, rest = text.partition("\n")
    if not first.startswith("# manifest: "):
        raise ValueError("missing manifest line")
    manifest = json.loads(first[len("# manifest: "):])
    body = [line for line in rest.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return manifest, rows[0], rows[1:]


def check(op: Op, opdir: str, expected: dict | None) -> tuple[list[str], list[float], int]:
    """Check one op's outputs.

    Returns (problems, arc z-scores, CSV data rows written).
    """
    cmd = op.argv[0]
    if cmd == "distance-table":
        return _check_table(op, opdir)
    if cmd == "zeno":
        return _check_zeno(op, opdir)
    if cmd == "walk-hist":
        return _check_hist(op, opdir)
    if op.argv[1] == "returns":
        return _check_returns(op, opdir, expected["returns"])
    return _check_housing(op, opdir, expected["housing"])


def _cli_seed(op: Op) -> int:
    return int(op.argv[op.argv.index("--seed") + 1])


def _check_table(op: Op, opdir: str):
    p = op.params
    manifest, header, rows = _read_csv(os.path.join(opdir, "out.csv"))
    problems, zs = [], []
    if manifest.get("seed") != _cli_seed(op) or manifest.get("designs") != p["designs"]:
        problems.append("manifest does not match the command")
    if header != ["steps", *p["designs"]]:
        problems.append(f"header {header}")
    if [r[0] for r in rows] != [str(s) for s in range(p["steps"] + 1)]:
        problems.append("step column is not 0..steps")
        return problems, zs, len(rows)
    top = 2 ** p["width"] - 1
    for r in rows:
        steps, means = int(r[0]), [float(x) for x in r[1:]]
        if not all(0.0 <= m <= top for m in means):
            problems.append(f"mean out of range at steps {steps}")
        if p["noisy"]:
            continue
        if steps == 0 and any(m != 0.0 for m in means):
            problems.append("ideal means at steps 0 are not 0")
        for design, m in zip(p["designs"], means):
            if design == "binary" and m != float(steps):
                problems.append(f"ideal binary mean {m} at steps {steps}")
            if design == "arc":
                zs.append(_check_arc(p["width"], steps, p["shots"], m, problems))
    return problems, zs, len(rows)


def _check_zeno(op: Op, opdir: str):
    p = op.params
    manifest, header, rows = _read_csv(os.path.join(opdir, "out.csv"))
    problems = []
    if manifest.get("seed") != _cli_seed(op) or manifest.get("periods") != list(ZENO_PERIODS):
        problems.append("manifest does not match the command")
    if header != ["period", "mean"] or [r[0] for r in rows] != [str(x) for x in ZENO_PERIODS]:
        problems.append("unexpected header or periods")
        return problems, [], len(rows)
    means = [float(r[1]) for r in rows]
    if not all(0.0 <= m <= 2 ** p["width"] - 1 for m in means):
        problems.append("mean out of range")
    # period 0 never measures, so it is the ideal arc counter
    z = _check_arc(p["width"], p["steps"], p["shots"], means[0], problems)
    return problems, [z], len(rows)


def _check_hist(op: Op, opdir: str):
    manifest, header, rows = _read_csv(os.path.join(opdir, op.outputs[0]))
    problems = []
    if manifest.get("seed") != _cli_seed(op) or manifest.get("two_way") is not True:
        problems.append("manifest does not match the command")
    top = 2 ** op.params["width"] - 1
    positions = [int(r[0]) for r in rows]
    freqs = [float(r[1]) for r in rows]
    if header != ["position", "frequency"] or positions != sorted(set(positions)):
        problems.append("positions are not sorted and distinct")
    if positions and not -top <= positions[0] <= positions[-1] <= top:
        problems.append("position out of range")
    if any(f <= 0.0 for f in freqs) or abs(sum(freqs) - 1.0) > 1e-9:
        problems.append("frequencies do not sum to 1")
    return problems, [], len(rows)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _check_returns(op: Op, opdir: str, want: dict):
    path = os.path.join(opdir, op.outputs[0])
    _, header, rows = _read_csv(path)
    with open(path) as fh:
        fh.readline()
        summary_line = fh.readline()
    problems = []
    if not summary_line.startswith("# summary: "):
        return ["missing summary line"], [], len(rows)
    got = json.loads(summary_line[len("# summary: "):])
    if got["n_changes"] != want["n_changes"]:
        problems.append(f"n_changes {got['n_changes']} != {want['n_changes']}")
    for key in ("mean", "std", "excess_kurtosis"):
        if not _close(got[key], want[key]):
            problems.append(f"{key} {got[key]!r} != {want[key]!r}")
    if header != ["bin_low", "bin_high", "density", "normal_density"]:
        problems.append(f"header {header}")
    return problems, [], len(rows)


def _check_housing(op: Op, opdir: str, want: dict):
    _, header, rows = _read_csv(os.path.join(opdir, op.outputs[0]))
    with open(os.path.join(opdir, op.outputs[1])) as fh:
        report = json.load(fh)
    problems = []
    got = {r[0]: float(r[1]) for r in rows}
    if set(got) != set(want["per_metro"]):
        problems.append("correlated metros differ from the expected set")
    elif not all(_close(got[m], r) for m, r in want["per_metro"].items()):
        problems.append("a per-metro correlation differs from the expected value")
    if len(report["per_metro"]) + len(report["skipped"]) != want["metros"]:
        problems.append("metros lost between input and report")
    if sum(report["histogram"]["bin_counts"]) != len(report["per_metro"]):
        problems.append("histogram counts do not add up to the correlated metros")
    return problems, [], len(rows)
