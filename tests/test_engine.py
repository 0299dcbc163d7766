"""Shot harness: seeding, decoding, distance tables, mid-measurement runs."""

import math

import numpy as np
import pytest

from arcwalk import (
    DEFAULT_NOISE,
    Circuit,
    ConfigError,
    GateOp,
    OutOfRangeError,
    ShotHistogram,
    StateVector,
    WalkConfig,
    arc_expected,
    build_circuit,
    derive_seed,
    distance_table,
    run_positions,
    run_shots,
    run_single_shot,
    single_qubit_zeno,
    two_way_distribution,
    walk_step_changes,
    with_zeno_measurements,
    zeno_experiment,
)
from arcwalk import engine
from arcwalk.circuits import or_inplace_block
from reference import decode
from test_batched_engine import spy_on_unitaries


# Mean decoded noisy arc value per step count (width 6, quarter-turn base
# angle, default noise): the reference drift profile this harness is expected
# to track within 25 percent at every nonzero step count.
REFERENCE_NOISY_ARC = [
    0.0, 1.312, 3.461, 5.488, 6.824, 8.931,
    10.442, 11.183, 13.148, 14.614, 18.459,
]


def bell_circuit() -> Circuit:
    circ = Circuit(n_qubits=2, counter=range(0, 2))
    circ.add(GateOp.h(0), GateOp.cnot(0, 1))
    return circ.validate()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_distinct_parts_distinct_seeds(self):
        seeds = {derive_seed(1, k) for k in range(64)}
        assert len(seeds) == 64

    def test_range(self):
        s = derive_seed(7)
        assert isinstance(s, int)
        assert 0 <= s < 2**32

    def test_parts_beyond_64_bits_stay_distinct(self):
        assert derive_seed(2**64 + 5, 1) != derive_seed(5, 1)
        # Parts below 2**64 give the seeds they gave when parts were masked to 64 bits.
        assert derive_seed(5, 1) == 3796490668
        assert derive_seed(2**64 - 1, 7) == 651757590


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_positions(bell_circuit(), 2, base_seed=-1),
        lambda: run_single_shot(bell_circuit(), -1),
        lambda: zeno_experiment(3, 2, 1.0, [0], shots=2, seed=-1),
        lambda: walk_step_changes("arc", 3, 1, 2, seed=-1),
        lambda: derive_seed(1, -2),
    ],
    ids=[
        "run_positions", "run_single_shot", "zeno_experiment",
        "walk_step_changes", "derive_seed",
    ],
)
def test_negative_seed_is_config_error(call):
    with pytest.raises(ConfigError, match="nonnegative"):
        call()


class TestDecode:
    def test_qubit_zero_is_least_significant(self):
        assert decode("100", range(0, 3)) == 1
        assert decode("010", range(0, 3)) == 2
        assert decode("110", range(0, 3)) == 3

    def test_counter_window(self):
        # counter occupies qubits 1..2 of a four qubit register
        assert decode("0110", range(1, 3)) == 3
        assert decode("1010", range(1, 3)) == 2

    def test_zero(self):
        assert decode("0000", range(0, 4)) == 0


class TestShotHistogram:
    def test_from_positions(self):
        h = ShotHistogram.from_positions(np.array([3, 3, 1, 0, 3]))
        assert h.counts == {0: 1, 1: 1, 3: 3}
        assert h.total_shots == 5

    def test_statistics_match_numpy(self):
        data = np.array([0, 2, 2, 5, 7, 7, 7, 9])
        h = ShotHistogram.from_positions(data)
        assert h.mean() == pytest.approx(data.mean())
        assert h.variance() == pytest.approx(data.var())
        assert h.sample_std() == pytest.approx(data.std(ddof=1))
        assert h.stderr() == pytest.approx(data.std(ddof=1) / math.sqrt(len(data)))

    def test_frequencies_sorted_and_normalized(self):
        h = ShotHistogram.from_positions(np.array([5, 1, 5, 2]))
        freqs = h.frequencies()
        assert list(freqs) == [1, 2, 5]
        assert sum(freqs.values()) == pytest.approx(1.0)

    def test_single_shot_stats(self):
        h = ShotHistogram.from_positions(np.array([4]))
        assert h.sample_std() == 0.0


class TestRunShots:
    def test_shot_conservation(self):
        circ = build_circuit(WalkConfig(3, 2, design="arc"))
        h = run_shots(circ, 250, base_seed=4)
        assert sum(h.counts.values()) == 250
        assert h.total_shots == 250

    def test_deterministic_in_base_seed(self):
        circ = build_circuit(WalkConfig(3, 3, design="arc_walk"))
        a = run_shots(circ, 100, base_seed=8).counts
        b = run_shots(circ, 100, base_seed=8).counts
        assert a == b

    def test_base_seed_defaults_to_zero(self):
        circ = build_circuit(WalkConfig(3, 3, design="arc_walk"))
        pinned = run_positions(circ, 100, base_seed=0)
        assert np.array_equal(run_positions(circ, 100), pinned)
        assert not np.array_equal(run_positions(circ, 100, base_seed=1), pinned)
        assert run_shots(circ, 100).counts == run_shots(circ, 100, base_seed=0).counts

    def test_empty_circuit_pins_origin(self):
        circ = build_circuit(WalkConfig(4, 0, design="arc"))
        h = run_shots(circ, 50, base_seed=0)
        assert h.counts == {0: 50}

    def test_entangled_pair_support(self):
        h = run_shots(bell_circuit(), 2000, base_seed=11)
        assert set(h.counts) == {0, 3}
        assert 0.47 <= h.counts[0] / 2000 <= 0.53

    def test_shots_validated(self):
        with pytest.raises(ConfigError):
            run_positions(bell_circuit(), 0)

    def test_noisy_register_above_maximum_rejected(self):
        # the trajectory path must refuse before it allocates (1, 2**21) amplitudes
        circ = Circuit(n_qubits=21, counter=range(0, 21)).validate()
        with pytest.raises(OutOfRangeError):
            run_positions(circ, 1, noise=DEFAULT_NOISE)

    def test_fast_path_matches_per_shot_evolution(self):
        circ = build_circuit(WalkConfig(3, 4, design="arc_walk"))
        fast = run_positions(circ, 40, base_seed=17)
        slow = []
        for i in range(40):
            state = StateVector(circ.n_qubits)
            for op in circ.ops:
                state.apply_gate(op)
            bits = state.measure_all(np.random.default_rng(17 + i))
            slow.append(decode(bits, circ.counter))
        assert np.array_equal(fast, np.array(slow))

    def test_single_shot_records_mid_measurements(self):
        circ = Circuit(n_qubits=2, counter=range(0, 2))
        circ.add(GateOp.x(0), GateOp.measure(0), GateOp.reset(0))
        circ.validate()
        assert run_single_shot(circ, 0) == "00"


class TestArcExpected:
    def test_frozen_values(self):
        assert arc_expected(6, 1, math.pi / 2) == pytest.approx(1.0797879195176239, abs=1e-12)
        assert arc_expected(6, 10, math.pi / 2) == pytest.approx(16.389645198102954, abs=1e-12)
        assert arc_expected(8, 20, math.pi / 2) == pytest.approx(34.697290191755094, abs=1e-12)

    def test_no_steps_no_distance(self):
        assert arc_expected(5, 0, math.pi / 2) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            arc_expected(0, 1, 1.0)
        with pytest.raises(ConfigError):
            arc_expected(3, -1, 1.0)


class TestTwoWay:
    def test_exact_cross_correlation(self):
        up = ShotHistogram({0: 1, 1: 1}, 2)
        down = ShotHistogram({0: 1, 2: 1}, 2)
        tw = two_way_distribution(up, down)
        assert tw.counts == {0: 1, -2: 1, 1: 1, -1: 1}
        assert tw.total_shots == 4

    def test_mean_is_difference_of_means(self):
        circ = build_circuit(WalkConfig(4, 6, design="arc_walk"))
        up = run_shots(circ, 500, base_seed=1)
        down = run_shots(circ, 500, base_seed=2)
        tw = two_way_distribution(up, down)
        assert tw.mean() == pytest.approx(up.mean() - down.mean(), abs=1e-9)

    def test_negative_support(self):
        circ = build_circuit(WalkConfig(4, 6, design="arc_walk"))
        up = run_shots(circ, 500, base_seed=1)
        down = run_shots(circ, 500, base_seed=2)
        tw = two_way_distribution(up, down)
        assert min(tw.counts) < 0 < max(tw.counts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            two_way_distribution(ShotHistogram({}, 0), ShotHistogram({0: 1}, 1))


class TestDistanceTable:
    def test_binary_column_is_exact(self):
        tab = distance_table(["binary"], 6, 4, shots=50, seed=3)
        assert tab.column("binary") == [float(s) for s in range(7)]

    def test_arc_column_tracks_closed_form(self):
        tab = distance_table(["arc"], 5, 4, shots=400, seed=9)
        for steps, cells in tab.rows:
            cell = cells["arc"]
            want = arc_expected(4, steps, math.pi / 2)
            assert abs(cell.mean - want) <= 4.0 * cell.stderr + 1e-9, steps

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigError):
            distance_table(["spiral"], 2, 3)

    def test_repeated_design_rejected(self):
        # A second column of one design would overwrite the first in each row's cells.
        with pytest.raises(ConfigError, match="design 'arc' is listed more than once"):
            distance_table(["arc", "binary", "arc"], 2, 3)

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["ideal", "noisy"])
    def test_prefix_designs_sweep_one_circuit(self, noise, monkeypatch):
        # One circuit per design at max_steps; an ideal table evolves each once.
        built, applied, real_build = [], spy_on_unitaries(monkeypatch), engine.build_circuit
        monkeypatch.setattr(engine, "build_circuit", lambda cfg: built.append(cfg) or real_build(cfg))
        designs = ["binary", "arc", "arc_walk"]
        table = distance_table(designs, 4, 4, shots=30, noise=noise, seed=6)
        assert [(cfg.design, cfg.steps) for cfg in built] == [(d, 4) for d in designs]
        if noise is None:
            assert applied == [op for cfg in built for op in real_build(cfg).ops]
        for di, design in enumerate(designs):
            for steps, cells in table.rows:
                pos = run_positions(real_build(WalkConfig(4, steps, design)), 30, noise=noise,
                                    base_seed=derive_seed(6, di, steps))
                assert cells[design].mean == float(pos.mean()), (design, steps)

    def test_noisy_binary_overshoots(self):
        # gate noise breaks the exact count and piles extra flips on top
        circ = build_circuit(WalkConfig(6, 10, design="binary"))
        for rep in range(3):
            noisy = run_shots(circ, 120, noise=DEFAULT_NOISE, base_seed=derive_seed(31, rep))
            assert noisy.mean() > 15.0, rep

    # An arc column beside a cascading one, so a noisy table holds both choices.
    CASCADE = dict(designs=["arc", "random_jump_cascading"], max_steps=3, width=3, shots=200,
                   seed=4, random_circuits=2, random_shots=6)

    def test_cascading_stays_ideal_under_noise(self):
        ideal = distance_table(**self.CASCADE)
        noisy = distance_table(noise=DEFAULT_NOISE, **self.CASCADE)
        want = [cells["random_jump_cascading"] for _, cells in ideal.rows]
        assert [round(cell.mean, 3) for cell in want] == [0.0, 2.083, 2.583, 4.0]
        assert [cells["random_jump_cascading"] for _, cells in noisy.rows] == want
        assert noisy.column("arc") != ideal.column("arc")

    def test_noisy_cascading_runs_every_circuit_under_noise(self):
        table = distance_table(noise=DEFAULT_NOISE, noisy_cascading=True, **self.CASCADE)
        for steps, cells in table.rows:
            pos = np.concatenate([
                run_positions(
                    build_circuit(WalkConfig(3, steps, "random_jump_cascading",
                                             seed=derive_seed(4, 1, steps, c, 0))),
                    6, noise=DEFAULT_NOISE, base_seed=derive_seed(4, 1, steps, c, 1),
                )
                for c in range(2)
            ])
            assert cells["random_jump_cascading"].mean == float(pos.mean()), steps
        ideal = distance_table(**self.CASCADE)
        assert table.column("random_jump_cascading") != ideal.column("random_jump_cascading")

    def test_noisy_arc_profile(self):
        tab = distance_table(
            ["arc"], 10, 6, shots=1000, noise=DEFAULT_NOISE, seed=0
        )
        col = tab.column("arc")
        assert col[0] == 0.0
        for s in range(1, 11):
            ref = REFERENCE_NOISY_ARC[s]
            assert abs(col[s] - ref) <= 0.25 * ref, (s, col[s], ref)


class TestZeno:
    def test_schedule_validation(self):
        circ = build_circuit(WalkConfig(3, 4, design="arc"))
        never = with_zeno_measurements(circ, 0)
        assert (never.ops, never.steps_marks) == (circ.ops, circ.steps_marks)
        with pytest.raises(ConfigError, match="period must be nonnegative, got -1"):
            with_zeno_measurements(circ, -1)
        with pytest.raises(TypeError):
            with_zeno_measurements(circ, 1.5)
        with pytest.raises(ConfigError):
            zeno_experiment(3, 4, math.pi / 2, [1, -1], 10)

    def test_more_frequent_checks_freeze_the_counter(self):
        res = zeno_experiment(4, 8, math.pi / 2, [0, 2, 1], 800, seed=3)
        assert [p for p, _ in res] == [0, 2, 1]
        means = [m for _, m in res]
        assert means[0] > means[1] > means[2]

    def test_period_zero_matches_closed_form(self):
        shots = 400
        res = zeno_experiment(4, 6, math.pi / 2, [0], shots, seed=5)
        mean = res[0][1]
        want = arc_expected(4, 6, math.pi / 2)
        var = sum(
            4**k * (lambda p: p * (1 - p))(math.sin(6 * (math.pi / 2) / 2**k / 2) ** 2)
            for k in range(4)
        )
        assert abs(mean - want) <= 4.0 * math.sqrt(var / shots)

    def test_no_steps_no_motion(self):
        res = zeno_experiment(3, 0, math.pi / 2, [0, 1, 2], 100, seed=0)
        assert [m for _, m in res] == [0.0, 0.0, 0.0]

    def test_markov_chain_oracle(self):
        # rotations never entangle counter qubits, so each follows a two state
        # chain p -> (1-p) sin^2(m t/2) + p cos^2(m t/2) per measured segment
        width, steps, period, shots = 3, 10, 3, 2000
        base_angle = math.pi / 2
        segments = [period] * (steps // period)
        if steps % period:
            segments.append(steps % period)
        mu = 0.0
        var = 0.0
        for k in range(width):
            theta = base_angle / 2**k
            p1 = 0.0
            for m in segments:
                p1 = (1 - p1) * math.sin(m * theta / 2) ** 2 + p1 * math.cos(m * theta / 2) ** 2
            mu += 2**k * p1
            var += 4**k * p1 * (1 - p1)
        circ = build_circuit(WalkConfig(width, steps, design="arc", base_angle=base_angle))
        hist = run_shots(with_zeno_measurements(circ, period), shots, base_seed=909)
        assert abs(hist.mean() - mu) <= 4.0 * math.sqrt(var / shots)


class TestSingleQubitZeno:
    def test_single_segment_at_quarter_turn(self):
        assert single_qubit_zeno(math.pi / 2, 1) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_ten_segments(self):
        assert single_qubit_zeno(math.pi / 2, 10) == pytest.approx(
            0.7805460697811405, abs=1e-15
        )

    def test_strictly_increasing_in_segments(self):
        vals = [single_qubit_zeno(math.pi / 2, m) for m in range(1, 31)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_sampled_agrees_with_closed_form(self):
        # Qubit 0 turns by 2*theta/10 and is measured ten times; the OR block latches
        # a read 1 onto counter qubit 1, so the shots at position 0 never flipped.
        theta, segments, shots = math.pi / 2, 10, 4000
        circuit = Circuit(n_qubits=3, counter=range(1, 2))
        for _ in range(segments):
            circuit.add(GateOp.rx(0, 2.0 * theta / segments), GateOp.measure(0))
            circuit.add(*or_inplace_block(0, 1, 2).ops)
        got = float(np.mean(run_positions(circuit.validate(), shots, base_seed=21) == 0))
        exact = single_qubit_zeno(theta, segments)
        assert abs(got - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / shots)

    def test_validation(self):
        with pytest.raises(ConfigError):
            single_qubit_zeno(1.0, 0)


class TestWalkStepChanges:
    def test_shape_and_determinism(self):
        a = walk_step_changes("arc_walk", 4, 3, 60, seed=2)
        b = walk_step_changes("arc_walk", 4, 3, 60, seed=2)
        assert a.shape == (180,)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ConfigError):
            walk_step_changes("arc_walk", 4, 0, 10)

    @pytest.mark.parametrize("design", ["binary", "arc", "arc_walk", "random_jump"])
    def test_deltas_of_each_step_count_run_alone(self, design):
        per_step = [
            run_positions(build_circuit(WalkConfig(4, s, design, seed=derive_seed(2, 0, s))), 25,
                          base_seed=derive_seed(2, 1, s))
            for s in range(4)
        ]
        want = np.concatenate([per_step[s + 1] - per_step[s] for s in range(3)])
        got = walk_step_changes(design, 4, 3, 25, seed=2)
        assert got.dtype == want.dtype and np.array_equal(got, want)
