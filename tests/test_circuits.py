"""Circuit builders: adders, increments, counter designs, serialization."""

import math
import re

import pytest

from arcwalk import (
    Circuit,
    CircuitParseError,
    ConfigError,
    GateOp,
    InvalidTargetError,
    NoAncillaError,
    StateVector,
    WalkConfig,
    arc_counter_circuit,
    arc_walk_circuit,
    binary_counter_circuit,
    build_circuit,
    full_adder_block,
    halving_weights,
    increment_circuit,
    or_inplace_block,
    random_jump_circuit,
    with_cascading_disjunctions,
)
from reference import apply_ops


def prob_one(state: StateVector, q: int) -> float:
    v = state.probabilities().reshape(-1, 2, 1 << q)
    return float(v[:, 1, :].sum())


def counter_mean(state: StateVector, counter: range) -> float:
    probs = state.probabilities()
    mask = (1 << len(counter)) - 1
    total = 0.0
    for index, p in enumerate(probs):
        total += ((index >> counter.start) & mask) * p
    return total


class TestHalvingWeights:
    def test_width_one(self):
        assert halving_weights(1) == (1.0,)

    def test_width_three(self):
        w = halving_weights(3)
        assert w == pytest.approx((4 / 7, 2 / 7, 1 / 7))

    def test_normalized_and_halving(self):
        w = halving_weights(8)
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
        for k in range(7):
            assert w[k] == pytest.approx(2.0 * w[k + 1])

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            halving_weights(0)


class TestWalkConfig:
    def test_defaults(self):
        cfg = WalkConfig(4, 3)
        assert cfg.design == "arc"
        assert cfg.base_angle == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"counter_width": 0, "steps": 1},
            {"counter_width": 3, "steps": -1},
            {"counter_width": 3, "steps": 1, "design": "spiral"},
            {"counter_width": 3, "steps": 1, "base_angle": 0.0},
            {"counter_width": 3, "steps": 1, "base_angle": math.inf},
            {"counter_width": 3, "steps": 1, "seed": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            WalkConfig(**kwargs)


class TestFullAdder:
    def test_truth_table(self):
        block = full_adder_block(0, 1, 2, 3)
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    state = StateVector.from_basis(4, a | (b << 1) | (c << 2))
                    apply_ops(state, block.ops)
                    s = a ^ b ^ c
                    carry = (a & b) | (c & (a ^ b))
                    expected = a | (b << 1) | (s << 2) | (carry << 3)
                    assert state.amps[expected] == 1.0, (a, b, c)

    def test_gate_budget(self):
        block = full_adder_block(0, 1, 2, 3)
        kinds = [op.kind for op in block.ops]
        assert kinds.count("TOFFOLI") == 2
        assert kinds.count("CNOT") == 3
        assert len(kinds) == 5

    def test_duplicate_wires_rejected(self):
        with pytest.raises(InvalidTargetError):
            full_adder_block(0, 0, 1, 2)


class TestOrInplace:
    @pytest.mark.parametrize("low_val,high_val", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_truth_table(self, low_val, high_val):
        block = or_inplace_block(0, 1, 2)
        state = StateVector.from_basis(3, low_val | (high_val << 1))
        apply_ops(state, block.ops)
        expected = low_val | ((low_val | high_val) << 1)
        assert abs(state.amps[expected]) == pytest.approx(1.0, abs=1e-12), (low_val, high_val)

    def test_dirty_ancilla_is_guarded(self):
        block = or_inplace_block(0, 1, 2)
        state = StateVector.from_basis(3, 0b101)  # low=1, high=0, ancilla dirty
        apply_ops(state, block.ops)
        assert abs(state.amps[0b011]) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_wires_required(self):
        with pytest.raises(InvalidTargetError):
            or_inplace_block(1, 1, 2)


class TestIncrement:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_exhaustive_plus_one(self, width):
        circ = increment_circuit(width)
        for n in range(1 << width):
            state = StateVector.from_basis(circ.n_qubits, n)
            apply_ops(state, circ.ops)
            expected = (n + 1) % (1 << width)
            assert state.amps[expected] == 1.0, (width, n)

    def test_ancilla_allocated_only_when_needed(self):
        assert increment_circuit(3).ancilla is None
        assert increment_circuit(3).n_qubits == 3
        assert increment_circuit(4).ancilla == 4
        assert increment_circuit(4).n_qubits == 5

    def test_dirty_ancilla_restored(self):
        circ = increment_circuit(4)
        for n in (0, 7, 13, 15):
            state = StateVector.from_basis(5, n | 0b10000)
            apply_ops(state, circ.ops)
            expected = ((n + 1) % 16) | 0b10000
            assert state.amps[expected] == 1.0, n

    def test_full_cycle_is_identity(self):
        circ = increment_circuit(3)
        state = StateVector.from_basis(3, 5)
        for _ in range(8):
            apply_ops(state, circ.ops)
        assert state.amps[5] == 1.0


class TestBinaryCounter:
    def test_counts_exactly(self):
        for steps in (0, 1, 5, 7):
            circ = binary_counter_circuit(WalkConfig(3, steps, design="binary"))
            state = StateVector(circ.n_qubits)
            apply_ops(state, circ.ops)
            assert state.amps[steps % 8] == 1.0
            assert circ.n_steps == steps

    def test_wide_counter(self):
        circ = binary_counter_circuit(WalkConfig(6, 10, design="binary"))
        state = StateVector(circ.n_qubits)
        apply_ops(state, circ.ops)
        assert state.amps[10] == 1.0

    def test_only_permutation_gates(self):
        circ = binary_counter_circuit(WalkConfig(4, 3, design="binary"))
        assert {op.kind for op in circ.ops} <= {"X", "CNOT", "TOFFOLI"}


class TestArcCounter:
    def test_no_two_qubit_gates(self):
        from arcwalk import census

        circ = arc_counter_circuit(WalkConfig(6, 10))
        assert census(circ).count_2q == 0

    def test_angle_halving_per_step(self):
        cfg = WalkConfig(4, 2, base_angle=1.3)
        circ = arc_counter_circuit(cfg)
        per_step = circ.ops[: circ.steps_marks[0]]
        assert [op.kind for op in per_step] == ["RX"] * 4
        for k, op in enumerate(per_step):
            assert op.targets == (k,)
            assert op.theta == pytest.approx(1.3 / 2**k)

    def test_base_angle_period(self):
        # qubit 0 turns by pi per step: four steps is a full 4*pi period
        circ = arc_counter_circuit(WalkConfig(3, 4, base_angle=math.pi))
        state = StateVector(circ.n_qubits)
        apply_ops(state, circ.ops)
        assert prob_one(state, 0) <= 1e-12

    def test_width_one_half_turn(self):
        circ = arc_counter_circuit(WalkConfig(1, 1, base_angle=math.pi))
        state = StateVector(1)
        apply_ops(state, circ.ops)
        assert prob_one(state, 0) == pytest.approx(1.0, abs=1e-12)

    def test_mean_matches_closed_form(self):
        from arcwalk import arc_expected

        cfg = WalkConfig(4, 7, base_angle=1.1)
        circ = arc_counter_circuit(cfg)
        state = StateVector(circ.n_qubits)
        apply_ops(state, circ.ops)
        assert counter_mean(state, circ.counter) == pytest.approx(
            arc_expected(4, 7, 1.1), abs=1e-12
        )


class TestArcWalk:
    def test_structure(self):
        cfg = WalkConfig(5, 3, design="arc_walk")
        circ = arc_walk_circuit(cfg)
        assert circ.coin == 5
        assert circ.n_qubits == 6
        assert circ.n_steps == 3
        per_step = circ.ops[: circ.steps_marks[0]]
        assert per_step[0].kind == "H" and per_step[0].targets == (5,)
        assert [op.kind for op in per_step[1:]] == ["CRX"] * 5
        assert all(op.is_unitary for op in circ.ops)

    def test_width_one_half_turn_is_coin_flip(self):
        circ = arc_walk_circuit(WalkConfig(1, 1, design="arc_walk", base_angle=math.pi))
        state = StateVector(circ.n_qubits)
        apply_ops(state, circ.ops)
        assert prob_one(state, 0) == pytest.approx(0.5, abs=1e-12)

    def test_slower_than_uncontrolled_arc(self):
        from arcwalk import arc_expected

        cfg = WalkConfig(6, 10, design="arc_walk")
        circ = arc_walk_circuit(cfg)
        state = StateVector(circ.n_qubits)
        apply_ops(state, circ.ops)
        mean = counter_mean(state, circ.counter)
        assert mean == pytest.approx(4.455603022236881, abs=1e-9)
        assert 0.0 < mean < arc_expected(6, 10, math.pi / 2)

    def test_sampling_matches_statevector(self):
        from arcwalk import run_shots

        cfg = WalkConfig(4, 6, design="arc_walk")
        circ = arc_walk_circuit(cfg)
        state = StateVector(circ.n_qubits)
        apply_ops(state, circ.ops)
        probs = state.probabilities()
        mask = (1 << 4) - 1
        position_probs: dict[int, float] = {}
        for index, p in enumerate(probs):
            pos = index & mask
            position_probs[pos] = position_probs.get(pos, 0.0) + float(p)
        shots = 4000
        freqs = run_shots(circ, shots, base_seed=55).frequencies()
        for pos, p in position_probs.items():
            bound = 4.0 * math.sqrt(max(p * (1 - p), 1e-12) / shots)
            assert abs(freqs.get(pos, 0.0) - p) <= max(bound, 1e-9), pos


class TestRandomJump:
    def test_pure_function_of_config(self):
        cfg = WalkConfig(5, 20, design="random_jump", seed=123)
        a = random_jump_circuit(cfg)
        b = random_jump_circuit(WalkConfig(5, 20, design="random_jump", seed=123))
        assert a.ops == b.ops
        c = random_jump_circuit(WalkConfig(5, 20, design="random_jump", seed=124))
        assert a.ops != c.ops

    def test_step_structure(self):
        cfg = WalkConfig(3, 4, design="random_jump", seed=9)
        circ = random_jump_circuit(cfg)
        assert circ.coin == 3
        assert circ.ancilla is None
        assert circ.n_steps == 4
        kinds = [op.kind for op in circ.ops]
        assert kinds == ["H", "CNOT"] * 4
        for op in circ.ops:
            if op.kind == "CNOT":
                assert op.targets[0] == 3
                assert 0 <= op.targets[1] < 3

    def test_target_frequency_follows_weights(self):
        cfg = WalkConfig(6, 10_000, design="random_jump", seed=77)
        circ = random_jump_circuit(cfg)
        targets = [op.targets[1] for op in circ.ops if op.kind == "CNOT"]
        freq0 = targets.count(0) / len(targets)
        assert abs(freq0 - halving_weights(6)[0]) < 0.02

    def test_cascading_variant_reserves_ancilla(self):
        cfg = WalkConfig(3, 2, design="random_jump_cascading", seed=0)
        circ = random_jump_circuit(cfg)
        assert circ.ancilla == 4
        assert circ.n_qubits == 5


class TestCascading:
    def test_requires_ancilla(self):
        cfg = WalkConfig(4, 3, design="random_jump", seed=0)
        with pytest.raises(NoAncillaError):
            with_cascading_disjunctions(random_jump_circuit(cfg), cfg)

    def test_zero_rate_returns_unchanged_copy(self):
        cfg = WalkConfig(4, 3, design="random_jump_cascading", seed=5)
        base = random_jump_circuit(cfg)
        out = with_cascading_disjunctions(base, cfg, insertion_rate=0.0)
        assert out is not base
        assert out.ops == base.ops
        assert out.steps_marks == base.steps_marks

    def test_same_seed_same_circuit(self):
        cfg = WalkConfig(5, 8, design="random_jump_cascading", seed=31)
        base = random_jump_circuit(cfg)
        a = with_cascading_disjunctions(base, cfg)
        b = with_cascading_disjunctions(base, cfg)
        assert a.ops == b.ops

    def test_full_rate_inserts_one_block_per_step(self):
        cfg = WalkConfig(5, 8, design="random_jump_cascading", seed=31)
        base = random_jump_circuit(cfg)
        out = with_cascading_disjunctions(base, cfg, insertion_rate=1.0)
        assert len(out.ops) == len(base.ops) + 9 * 8
        assert out.n_steps == base.n_steps

    def test_half_rate_skips_steps_on_the_seeded_draws(self):
        # Per step one random(), then random() and integers() only when it inserts.
        cfg = WalkConfig(5, 12, design="random_jump_cascading", seed=31)
        out = with_cascading_disjunctions(random_jump_circuit(cfg), cfg, insertion_rate=0.5)
        wires = []
        for start, stop in zip([0] + out.steps_marks, out.steps_marks):
            ors = [op.targets[:2] for op in out.ops[start:stop] if op.kind == "TOFFOLI"]
            wires.append(ors[0] if ors else None)
        assert wires == [
            (0, 2), (0, 1), None, (1, 3), (1, 2), None, (2, 3), None, None, (0, 2), None, None,
        ]
        assert out.steps_marks[-1] == 78

    def test_block_wires_ordered_within_counter(self):
        cfg = WalkConfig(6, 20, design="random_jump_cascading", seed=12)
        out = with_cascading_disjunctions(random_jump_circuit(cfg), cfg)
        for op in out.ops:
            if op.kind == "TOFFOLI":
                low, high, anc = op.targets
                assert anc == out.ancilla
                assert 0 <= low < high < 6

    def test_rate_validated(self):
        cfg = WalkConfig(4, 3, design="random_jump_cascading", seed=0)
        base = random_jump_circuit(cfg)
        with pytest.raises(ConfigError):
            with_cascading_disjunctions(base, cfg, insertion_rate=1.5)

    def test_single_qubit_counter_unchanged(self):
        cfg = WalkConfig(1, 3, design="random_jump_cascading", seed=0)
        base = random_jump_circuit(cfg)
        out = with_cascading_disjunctions(base, cfg)
        assert out.ops == base.ops


class TestBuildDispatch:
    def test_each_design_routes_to_its_builder(self):
        for design, builder in [
            ("binary", binary_counter_circuit),
            ("arc", arc_counter_circuit),
            ("arc_walk", arc_walk_circuit),
            ("random_jump", random_jump_circuit),
        ]:
            cfg = WalkConfig(4, 3, design=design, seed=6)
            assert build_circuit(cfg).ops == builder(cfg).ops

    def test_cascading_design_composes(self):
        cfg = WalkConfig(4, 3, design="random_jump_cascading", seed=6)
        want = with_cascading_disjunctions(random_jump_circuit(cfg), cfg)
        assert build_circuit(cfg).ops == want.ops


class TestStepPrefix:
    """An s-step circuit of a repeated-step design is the S-step circuit cut at
    its s-th step mark, whatever the seed: ``distance_table`` and
    ``walk_step_changes`` run every step count as one sweep of those cuts."""

    S = 6

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])  # binary gains its ancilla at 4
    @pytest.mark.parametrize("design", ["binary", "arc", "arc_walk"])
    def test_every_step_count_is_a_cut_of_the_longest(self, design, width):
        full = build_circuit(WalkConfig(width, self.S, design, seed=0))
        for s in range(self.S + 1):
            cut = ([0] + full.steps_marks)[s]
            for seed in (0, 91):
                circ = build_circuit(WalkConfig(width, s, design, seed=seed))
                roles = (circ.n_qubits, circ.counter, circ.coin, circ.ancilla)
                assert roles == (full.n_qubits, full.counter, full.coin, full.ancilla)
                assert circ.ops == full.ops[:cut], (s, seed)
                assert circ.steps_marks == full.steps_marks[:s], (s, seed)

    def test_random_jump_is_not_a_cut_across_seeds(self):
        full = build_circuit(WalkConfig(4, self.S, "random_jump", seed=0))
        assert any(
            build_circuit(WalkConfig(4, s, "random_jump", seed=seed)).ops
            != full.ops[: full.steps_marks[s - 1]]
            for s in range(1, self.S + 1)
            for seed in range(1, 5)
        )


class TestTextRoundTrip:
    @pytest.mark.parametrize(
        "design", ["binary", "arc", "arc_walk", "random_jump", "random_jump_cascading"]
    )
    def test_round_trip_identity(self, design):
        cfg = WalkConfig(4, 5, design=design, seed=13, base_angle=0.7)
        circ = build_circuit(cfg)
        assert Circuit.from_text(circ.to_text()) == circ

    @pytest.mark.parametrize(
        "n_ops,marks", [(0, [0]), (3, [0]), (3, [0, 1]), (3, [0, 1, 3]), (3, [1, 3])]
    )
    def test_step_marks_round_trip_from_op_zero(self, n_ops, marks):
        # A mark at op 0 is a '# step 1' line before any op; the marks after it follow.
        ops = [GateOp.h(0), GateOp.x(1), GateOp.cnot(0, 1)][:n_ops]
        circ = Circuit(n_qubits=2, counter=range(0, 2), ops=ops, steps_marks=marks).validate()
        text = circ.to_text()
        assert Circuit.from_text(text) == circ
        assert text.count("# step") == len(marks)

    def test_missing_header_rejected(self):
        with pytest.raises(CircuitParseError, match="nqubits"):
            Circuit.from_text("H 0\n")

    def test_unknown_gate_reports_line(self):
        text = "# nqubits 2\nH 0\nFOO 1\n"
        with pytest.raises(CircuitParseError, match="line 3"):
            Circuit.from_text(text)

    def test_bad_header_reports_line(self):
        with pytest.raises(CircuitParseError, match="line 1"):
            Circuit.from_text("# nqubits x\n")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("# nqubits 2\n# step 7\nH 0\n", "line 2: '# step 7' out of order, expected step 1"),
            ("# nqubits 2\nH 0\n# step 1\n# step 2\n", "line 4: no op completes step 2"),
            ("# nqubits 2\n# step 1\n# step 2\nH 0\n", "line 3: no op completes step 2"),
            ("# nqubits 2\nH 0\n# step\n", "line 3: bad header"),
        ],
    )
    def test_step_lines_checked(self, text, fragment):
        with pytest.raises(CircuitParseError, match=re.escape(fragment)):
            Circuit.from_text(text)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("# nqubits 2\n# nqubits 5\nH 0\n", "line 2: repeated header '# nqubits 5'"),
            ("# nqubits 3\n# counter 0 2\nH 0\n# counter 0 3\n", "line 4: repeated header"),
            ("# nqubits 3\n# coin 2\n# coin 2\n", "line 3: repeated header '# coin 2'"),
            ("# ancilla 2\n# nqubits 3\n# ancilla 1\n", "line 3: repeated header"),
        ],
    )
    def test_repeated_header_rejected(self, text, fragment):
        with pytest.raises(CircuitParseError, match=re.escape(fragment)):
            Circuit.from_text(text)

    def test_counter_defaults_to_full_register(self):
        circ = Circuit.from_text("# nqubits 3\nH 0\n")
        assert circ.counter == range(0, 3)

    def test_angle_survives_round_trip_exactly(self):
        cfg = WalkConfig(3, 2, base_angle=math.pi / 3)
        circ = arc_counter_circuit(cfg)
        back = Circuit.from_text(circ.to_text())
        assert [op.theta for op in back.ops] == [op.theta for op in circ.ops]
