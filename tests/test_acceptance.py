"""End-to-end acceptance gate: eleven pinned criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict line.
Criterion 2 checks that the fidelity estimate compounds the per-class gate
fidelities over a 33/18 census; its expected value is the exact rational
product 0.997**33 * 0.978**18, computed with ``fractions.Fraction`` rather
than by the estimator.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from arcwalk import (
    DEFAULT_NOISE,
    Circuit,
    GateCensus,
    GateOp,
    NoiseModel,
    ShotHistogram,
    StateVector,
    WalkConfig,
    arc_expected,
    build_circuit,
    derive_seed,
    distance_table,
    estimate_fidelity,
    excess_kurtosis,
    full_adder_block,
    housing_correlations,
    increment_circuit,
    or_inplace_block,
    pearson,
    run_positions,
    run_shots,
    two_way_distribution,
    walk_step_changes,
    zeno_experiment,
)
from reference import apply_ops
from synthdata import make_housing_records


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {num:02d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def test_criterion_01_binary_counter_exactness():
    ok = True
    for steps in range(11):
        circ = build_circuit(WalkConfig(6, steps, design="binary"))
        pos = run_positions(circ, 1000, base_seed=derive_seed(0, steps))
        if not (pos == steps).all():
            ok = False
            break
    _verdict(1, "binary counter counts 0..10 exactly with zero variance", ok)


def test_criterion_02_fidelity_arithmetic():
    got = estimate_fidelity(GateCensus(33, 18), NoiseModel(0.997, 0.978))
    expected = float(Fraction(997, 1000) ** 33 * Fraction(978, 1000) ** 18)
    ok = math.isclose(got, expected, rel_tol=1e-12)
    _verdict(
        2,
        "compound fidelity 0.997^33 * 0.978^18 equals 0.6068 within rel 1e-12",
        ok,
        detail=f"expected {expected!r}, computed {got!r}",
    )


def test_criterion_03_noisy_binary_collapse():
    means = {}
    for steps in range(4, 11):
        circ = build_circuit(WalkConfig(6, steps, design="binary"))
        pos = run_positions(circ, 1000, noise=DEFAULT_NOISE, base_seed=derive_seed(0, 0, steps))
        means[steps] = float(pos.mean())
    ok = all(27.0 <= m <= 37.0 for m in means.values())
    worst = max(means.values(), key=lambda m: abs(m - 32.0))
    _verdict(
        3,
        "noisy binary counter plateaus in [27, 37] for steps 4..10",
        ok,
        detail=f"means {min(means.values()):.2f}..{max(means.values()):.2f}, farthest {worst:.2f}",
    )


def test_criterion_04_arc_oracle_agreement():
    shots = 2000
    reps = 20
    ok = True
    detail = []
    for width in (4, 6, 8):
        for steps in (1, 5, 10, 20):
            want = arc_expected(width, steps, math.pi / 2)
            circ = build_circuit(WalkConfig(width, steps, design="arc"))
            hits = 0
            for rep in range(reps):
                pos = run_positions(circ, shots, base_seed=derive_seed(101, width, steps, rep))
                mean = float(pos.mean())
                sstd = float(pos.std(ddof=1))
                if abs(mean - want) <= 4.0 * sstd / math.sqrt(shots):
                    hits += 1
            if hits < math.ceil(0.95 * reps):
                ok = False
                detail.append(f"w{width} s{steps}: {hits}/{reps}")
    # the closed form itself must grow over the small-step regime
    for width in (6, 8):
        vals = [arc_expected(width, s, math.pi / 2) for s in range(11)]
        if not all(b > a for a, b in zip(vals, vals[1:])):
            ok = False
            detail.append(f"w{width} closed form not monotone")
    _verdict(
        4,
        "sampled arc means sit within 4 stderr of the closed form (>=95% of reps)",
        ok,
        detail="; ".join(detail) if detail else "all width/step combos passed",
    )


def test_criterion_05_zeno_ordering():
    results = zeno_experiment(8, 20, math.pi / 2, [0, 7, 1], 4000, seed=0)
    means = [m for _, m in results]
    decreasing = means[0] > means[1] > means[2]
    anchored = abs(means[0] - 34.7) <= 0.15 * 34.7
    _verdict(
        5,
        "more frequent mid-measurement strictly freezes the arc counter",
        decreasing and anchored,
        detail=f"means {means[0]:.2f} > {means[1]:.2f} > {means[2]:.2f}, never-measured near 34.7",
    )


def test_criterion_06_block_truth_tables():
    ok = True
    adder = full_adder_block(0, 1, 2, 3)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                state = StateVector.from_basis(4, a | (b << 1) | (c << 2))
                apply_ops(state, adder.ops)
                s = a ^ b ^ c
                carry = (a & b) | (c & (a ^ b))
                ok = ok and state.amps[a | (b << 1) | (s << 2) | (carry << 3)] == 1.0
    orb = or_inplace_block(0, 1, 2)
    for lo in (0, 1):
        for hi in (0, 1):
            state = StateVector.from_basis(3, lo | (hi << 1))
            apply_ops(state, orb.ops)
            want = lo | ((lo | hi) << 1)
            ok = ok and abs(abs(state.amps[want]) - 1.0) <= 1e-12
    for width in (2, 3, 4):
        inc = increment_circuit(width)
        for n in range(1 << width):
            state = StateVector.from_basis(inc.n_qubits, n)
            apply_ops(state, inc.ops)
            ok = ok and state.amps[(n + 1) % (1 << width)] == 1.0
    _verdict(6, "adder, OR-in-place, and increment match their truth tables exactly", ok)


def test_criterion_07_statevector_algebra():
    ok = True
    rng = np.random.default_rng(42)
    state = StateVector(5)
    kinds = ["x", "h", "rx", "cnot", "crx", "swap", "toffoli"]
    for _ in range(300):
        kind = kinds[rng.integers(len(kinds))]
        q = rng.permutation(5)
        if kind == "x":
            state.apply_gate(GateOp.x(int(q[0])))
        elif kind == "h":
            state.apply_gate(GateOp.h(int(q[0])))
        elif kind == "rx":
            state.apply_gate(GateOp.rx(int(q[0]), float(rng.uniform(-7, 7))))
        elif kind == "cnot":
            state.apply_gate(GateOp.cnot(int(q[0]), int(q[1])))
        elif kind == "crx":
            state.apply_gate(GateOp.crx(int(q[0]), int(q[1]), float(rng.uniform(-7, 7))))
        elif kind == "swap":
            state.apply_gate(GateOp.swap(int(q[0]), int(q[1])))
        else:
            state.apply_gate(GateOp.toffoli(int(q[0]), int(q[1]), int(q[2])))
    ok = ok and abs(state.norm_sq() - 1.0) <= 1e-12

    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    base = StateVector(4)
    base.amps[:] = v / np.linalg.norm(v)
    for pair in [
        (GateOp.x(1), GateOp.x(1)),
        (GateOp.h(2), GateOp.h(2)),
        (GateOp.cnot(0, 3), GateOp.cnot(0, 3)),
        (GateOp.swap(1, 2), GateOp.swap(1, 2)),
        (GateOp.toffoli(0, 2, 3), GateOp.toffoli(0, 2, 3)),
    ]:
        probe = base.copy()
        for op in pair:
            probe.apply_gate(op)
        ok = ok and np.allclose(probe.amps, base.amps, atol=1e-12)

    split = base.copy()
    split.apply_gate(GateOp.rx(2, 0.7))
    split.apply_gate(GateOp.rx(2, 1.9))
    joined = base.copy()
    joined.apply_gate(GateOp.rx(2, 2.6))
    ok = ok and np.allclose(split.amps, joined.amps, atol=1e-12)

    bell = Circuit(n_qubits=2, counter=range(0, 2))
    bell.add(GateOp.h(0), GateOp.cnot(0, 1))
    bell.validate()
    shots = 10_000
    hist = run_shots(bell, shots, base_seed=11)
    freq0 = hist.counts.get(0, 0) / shots
    bound = 4.0 * math.sqrt(0.25 / shots)
    ok = ok and set(hist.counts) == {0, 3} and abs(freq0 - 0.5) <= bound
    _verdict(
        7,
        "norm conservation, involutions, rotation additivity, 4-sigma sampling",
        ok,
        detail=f"entangled-pair freq0 {freq0:.4f}",
    )


def test_criterion_08_two_way_walk():
    rng = np.random.default_rng(8)

    def random_hist() -> ShotHistogram:
        counts: dict[int, int] = {}
        for p, c in zip(rng.integers(0, 32, 8), rng.integers(1, 50, 8)):
            counts[int(p)] = counts.get(int(p), 0) + int(c)
        return ShotHistogram(counts, sum(counts.values()))

    ok = True
    for _ in range(100):
        up = random_hist()
        down = random_hist()
        tw = two_way_distribution(up, down)
        ok = ok and abs(tw.mean() - (up.mean() - down.mean())) <= 1e-9
    circ = build_circuit(WalkConfig(6, 10, design="arc_walk"))
    up = run_shots(circ, 500, base_seed=derive_seed(88, 0))
    down = run_shots(circ, 500, base_seed=derive_seed(88, 1))
    tw = two_way_distribution(up, down)
    ok = ok and min(tw.counts) < 0
    _verdict(
        8,
        "two-way distribution is mean-linear and reaches negative positions",
        ok,
        detail=f"support {min(tw.counts)}..{max(tw.counts)}",
    )


def test_criterion_09_cascading_uplift():
    wins = 0
    reps = 10
    last = None
    for rep in range(reps):
        tab = distance_table(
            ["random_jump", "random_jump_cascading"],
             8, 8, seed=derive_seed(202, rep),
        )
        _, cells = tab.rows[-1]
        plain = cells["random_jump"].mean
        cascading = cells["random_jump_cascading"].mean
        last = (plain, cascading)
        wins += cascading > plain
    _verdict(
        9,
        "cascading disjunctions outrun the plain random jump at step 8 (>=9/10 reps)",
        wins >= 9,
        detail=f"{wins}/{reps} wins, last rep plain {last[0]:.2f} vs cascading {last[1]:.2f}",
    )


def test_criterion_10_heavy_tails():
    changes = walk_step_changes("arc_walk", 8, 10, 2000, seed=5)
    k_walk = excess_kurtosis(changes)
    k_norm = excess_kurtosis(np.random.default_rng(12345).standard_normal(changes.size))
    ok = k_walk > 0.0 and abs(k_norm) < 0.1
    _verdict(
        10,
        "walk step changes are heavy-tailed; matched normal sample is not",
        ok,
        detail=f"walk kurtosis {k_walk:.2f}, normal {k_norm:.4f}",
    )


def test_criterion_11_housing_pipeline():
    panel = make_housing_records(metros=50, months=24, rho=0.9, seed=404)
    report = housing_correlations(panel)
    rs = [c.pearson_r for c in report.per_metro.values()]
    pos_frac = sum(r > 0 for r in rs) / len(rs)
    total = sum(report.bin_counts)
    mass_above = (
        sum(c for e, c in zip(report.bin_edges[:-1], report.bin_counts) if e >= 0.0) / total
    )
    months_ok = all(c.months_used == 24 for c in report.per_metro.values())
    xs = [1.0, 2.0, 3.0, 4.0]
    unit_ok = (
        abs(pearson(xs, [2 * x + 1 for x in xs]) - 1.0) <= 1e-12
        and abs(pearson(xs, [-x for x in xs]) + 1.0) <= 1e-12
    )
    ok = (
        len(rs) == 50
        and pos_frac >= 0.95
        and mass_above > 0.9
        and months_ok
        and unit_ok
    )
    _verdict(
        11,
        "recovered metro correlations are nearly all positive; ratio>1 months excluded",
        ok,
        detail=f"positive fraction {pos_frac:.2f}, mass above zero {mass_above:.2f}, min r {min(rs):.3f}",
    )
