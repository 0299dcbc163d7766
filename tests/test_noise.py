"""Gate census, compound fidelity, Pauli injection, readout flips."""

import math

import numpy as np
import pytest

from arcwalk import (
    DEFAULT_NOISE,
    HIGH_END_NOISE,
    GateCensus,
    GateOp,
    NoiseModel,
    StateVector,
    apply_readout_noise,
    census,
    estimate_fidelity,
    new_state,
    noisy_apply,
)
from arcwalk.noise import _injection_slots, toffoli_decomposition

UNIT_NOISE = NoiseModel(fidelity_1q=1.0, fidelity_2q=1.0)


class TestCensus:
    @pytest.mark.parametrize(
        "ops,expected",
        [
            ([GateOp.h(0), GateOp.h(1), GateOp.h(2)], (3, 0)),
            ([GateOp.cnot(0, 1)], (0, 1)),
            ([GateOp.toffoli(0, 1, 2)], (9, 6)),
            ([GateOp.crx(0, 1, 0.5)], (2, 2)),
            ([GateOp.swap(0, 1)], (0, 3)),
            ([GateOp.measure(0), GateOp.reset(1)], (0, 0)),
            ([GateOp.rx(0, 1.0), GateOp.x(1), GateOp.t(0), GateOp.tdg(1)], (4, 0)),
        ],
    )
    def test_per_kind_totals(self, ops, expected):
        got = census(ops)
        assert (got.count_1q, got.count_2q) == expected

    def test_additive_over_concatenation(self):
        first = [GateOp.h(0), GateOp.toffoli(0, 1, 2)]
        second = [GateOp.crx(1, 2, 0.3), GateOp.swap(0, 2), GateOp.measure(1)]
        assert census(first) + census(second) == census(first + second)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            GateCensus(-1, 0)
        with pytest.raises(ValueError):
            GateCensus(0, -2)


class TestToffoliDecomposition:
    def test_shape(self):
        ops = toffoli_decomposition(0, 1, 2)
        assert sum(op.kind == "CNOT" for op in ops) == 6
        assert sum(op.kind != "CNOT" for op in ops) == 9

    def test_exact_on_all_basis_states(self):
        for index in range(8):
            native = StateVector.from_basis(3, index)
            native.apply_gate(GateOp.toffoli(0, 1, 2))
            expanded = StateVector.from_basis(3, index)
            for op in toffoli_decomposition(0, 1, 2):
                expanded.apply_gate(op)
            assert np.allclose(native.amps, expanded.amps, atol=1e-12)

    def test_exact_on_superposition(self):
        rng = np.random.default_rng(17)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        native = new_state(3)
        native.amps[:] = v / np.linalg.norm(v)
        expanded = native.copy()
        native.apply_gate(GateOp.toffoli(2, 0, 1))
        for op in toffoli_decomposition(2, 0, 1):
            expanded.apply_gate(op)
        assert np.allclose(native.amps, expanded.amps, atol=1e-12)


class TestEstimateFidelity:
    def test_empty_census_is_unity(self):
        assert estimate_fidelity(GateCensus(0, 0), DEFAULT_NOISE) == 1.0

    def test_single_two_qubit_gate(self):
        assert estimate_fidelity(GateCensus(0, 1), DEFAULT_NOISE) == pytest.approx(0.978)

    def test_frozen_compound_value(self):
        got = estimate_fidelity(GateCensus(33, 18), DEFAULT_NOISE)
        assert got == pytest.approx(0.6067916703838052, abs=1e-15)

    def test_monotone_in_gate_count(self):
        base = estimate_fidelity(GateCensus(10, 5), DEFAULT_NOISE)
        assert estimate_fidelity(GateCensus(11, 5), DEFAULT_NOISE) < base
        assert estimate_fidelity(GateCensus(10, 6), DEFAULT_NOISE) < base

    def test_matches_census_of_circuit(self):
        ops = [GateOp.h(0), GateOp.toffoli(0, 1, 2), GateOp.cnot(1, 2)]
        counts = census(ops)
        want = DEFAULT_NOISE.fidelity_1q**counts.count_1q * (
            DEFAULT_NOISE.fidelity_2q**counts.count_2q
        )
        assert estimate_fidelity(counts, DEFAULT_NOISE) == pytest.approx(want)


class TestNoiseAccounting:
    """The noise channel kicks each qubit of a 2q constituent on its own,
    while the fidelity estimate charges the constituent once."""

    @pytest.mark.parametrize(
        "op,slots_2q,slots_1q,counts",
        [
            (GateOp.cnot(0, 1), 2, 0, (0, 1)),
            (GateOp.swap(0, 1), 6, 0, (0, 3)),
            (GateOp.crx(0, 1, 0.5), 4, 2, (2, 2)),
            (GateOp.toffoli(0, 1, 2), 12, 9, (9, 6)),
        ],
    )
    def test_slots_beside_census(self, op, slots_2q, slots_1q, counts):
        slots = _injection_slots(op)
        assert sum(is_2q for is_2q, _ in slots) == slots_2q
        assert sum(not is_2q for is_2q, _ in slots) == slots_1q
        got = census([op])
        assert (got.count_1q, got.count_2q) == counts
        assert slots_2q == 2 * got.count_2q and slots_1q == got.count_1q

    def test_isolated_cnot_survival_is_f2_squared_but_estimate_is_f2(self):
        model = NoiseModel(fidelity_1q=0.99, fidelity_2q=0.9)
        op = GateOp.cnot(0, 1)
        survival = math.prod(
            model.fidelity_2q if is_2q else model.fidelity_1q for is_2q, _ in _injection_slots(op)
        )
        assert survival == model.fidelity_2q**2
        assert estimate_fidelity(census([op]), model) == model.fidelity_2q


class TestNoiseModel:
    def test_presets(self):
        assert DEFAULT_NOISE == NoiseModel(0.997, 0.978, 0.0)
        assert HIGH_END_NOISE.fidelity_2q == 0.999
        assert HIGH_END_NOISE.fidelity_1q == 0.997

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fidelity_1q": 0.0},
            {"fidelity_1q": 1.2},
            {"fidelity_2q": -0.1},
            {"fidelity_2q": 0.0},
            {"readout_flip": 1.0},
            {"readout_flip": -0.01},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NoiseModel(**kwargs)


class TestNoisyApply:
    def test_unit_fidelities_match_ideal(self):
        for op in [GateOp.h(0), GateOp.cnot(0, 1), GateOp.toffoli(0, 1, 2), GateOp.swap(1, 2)]:
            noisy = new_state(3)
            noisy.apply_gate(GateOp.rx(0, 0.9))
            ideal = noisy.copy()
            noisy_apply(noisy, op, UNIT_NOISE, np.random.default_rng(0))
            ideal.apply_gate(op)
            assert np.allclose(noisy.amps, ideal.amps, atol=1e-15)

    def test_nonunitary_ops_rejected(self):
        state = new_state(1)
        with pytest.raises(ValueError):
            noisy_apply(state, GateOp.measure(0), NoiseModel(0.5, 0.5), np.random.default_rng(0))

    def test_cnot_error_channel_frequencies(self):
        # one 2q constituent exposes two qubits; each errs w.p. 1/2 and
        # flips its readout bit in 2 of 3 Pauli picks, so bit flip prob is 1/3
        model = NoiseModel(fidelity_1q=1.0, fidelity_2q=0.5)
        n = 2000
        counts = {"00": 0, "10": 0, "01": 0, "11": 0}
        for i in range(n):
            rng = np.random.default_rng(1000 + i)
            state = new_state(2)
            noisy_apply(state, GateOp.cnot(0, 1), model, rng)
            counts[state.measure_all(rng)] += 1
        expected = {"00": 4 / 9, "10": 2 / 9, "01": 2 / 9, "11": 1 / 9}
        for bits, p in expected.items():
            bound = 4.0 * math.sqrt(p * (1 - p) / n)
            assert abs(counts[bits] / n - p) <= bound, (bits, counts[bits] / n, p)

    def test_norm_preserved_under_noise(self):
        model = NoiseModel(fidelity_1q=0.9, fidelity_2q=0.8)
        rng = np.random.default_rng(4)
        state = new_state(3)
        for _ in range(50):
            noisy_apply(state, GateOp.toffoli(0, 1, 2), model, rng)
            noisy_apply(state, GateOp.h(0), model, rng)
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)


class TestReadoutNoise:
    def test_zero_flip_is_identity(self):
        assert apply_readout_noise("0110", DEFAULT_NOISE, np.random.default_rng(0)) == "0110"

    def test_flip_rate(self):
        model = NoiseModel(readout_flip=0.1)
        bits = "0" * 10_000
        out = apply_readout_noise(bits, model, np.random.default_rng(3))
        frac = out.count("1") / len(bits)
        assert 0.088 <= frac <= 0.112

    def test_flips_both_directions(self):
        model = NoiseModel(readout_flip=0.5)
        out = apply_readout_noise("01" * 50, model, np.random.default_rng(9))
        assert len(out) == 100
        assert set(out) <= {"0", "1"}
        assert out != "01" * 50
