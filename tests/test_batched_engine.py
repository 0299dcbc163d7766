"""The chunked trajectory engine against a per-shot oracle.

The oracle evolves each shot alone through the public single-state API
(``StateVector``, ``noisy_apply``, ``apply_readout_noise``, ``decode``) with
its own ``default_rng(base_seed + i)``, drawing in the documented order. The
engine must return the same positions element for element: shots in a chunk
share each op but never each other's random draws.
"""

import numpy as np
import pytest

from arcwalk import (
    DESIGNS,
    Circuit,
    GateOp,
    NoiseModel,
    StateVector,
    WalkConfig,
    ZenoSchedule,
    apply_readout_noise,
    build_circuit,
    decode,
    noisy_apply,
    run_positions,
)
from arcwalk.circuits import or_inplace_block
from arcwalk.engine import CHUNK_AMPS
from arcwalk.sim import index_to_bits, sample_cdf

NOISY = NoiseModel(0.97, 0.9, 0.05)


def oracle_positions(circuit, shots, noise=None, schedule=None, base_seed=0):
    period = schedule.period if schedule is not None else 0
    fires = [
        mark
        for step, mark in enumerate(circuit.steps_marks, start=1)
        if period and step % period == 0
    ]
    out = []
    for i in range(shots):
        rng = np.random.default_rng(base_seed + i)
        state = StateVector(circuit.n_qubits)

        def gate(op):
            if noise is None:
                state.apply_gate(op)
            else:
                noisy_apply(state, op, noise, rng)

        for j in range(len(circuit.ops) + 1):
            for _ in range(fires.count(j)):
                for q in circuit.counter:
                    state.measure_qubit(q, rng)
            if j == len(circuit.ops):
                break
            op = circuit.ops[j]
            if op.kind == "MEASURE":
                state.measure_qubit(op.targets[0], rng)
            elif op.kind == "RESET":
                if state.measure_qubit(op.targets[0], rng) == 1:
                    gate(GateOp.x(op.targets[0]))
            else:
                gate(op)
        bits = state.measure_all(rng)
        if noise is not None:
            bits = apply_readout_noise(bits, noise, rng)
        out.append(decode(bits, circuit.counter))
    return np.array(out, dtype=np.int64)


def assert_engine_matches_oracle(circuit, shots, noise=None, schedule=None, base_seed=0):
    got = run_positions(circuit, shots, noise=noise, schedule=schedule, base_seed=base_seed)
    want = oracle_positions(circuit, shots, noise=noise, schedule=schedule, base_seed=base_seed)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("period", [None, 1, 3])
@pytest.mark.parametrize("noise", [None, NOISY], ids=["ideal", "noisy"])
@pytest.mark.parametrize("design", DESIGNS)
def test_every_design_matches_per_shot_oracle(design, noise, period):
    circuit = build_circuit(WalkConfig(3, 4, design=design, seed=5))
    schedule = None if period is None else ZenoSchedule(period)
    assert_engine_matches_oracle(circuit, 24, noise=noise, schedule=schedule, base_seed=101)


def measure_reset_circuit():
    circuit = Circuit(n_qubits=4, counter=range(0, 4))
    circuit.add(GateOp.h(0), GateOp.rx(1, 1.1), GateOp.h(2), GateOp.measure(2))
    circuit.add(*or_inplace_block(0, 1, 2).ops)
    circuit.add(GateOp.h(2), GateOp.cnot(2, 3), GateOp.measure(3), GateOp.reset(2))
    return circuit.validate()


@pytest.mark.parametrize("noise", [None, NOISY], ids=["ideal", "noisy"])
def test_explicit_measure_and_reset_match_per_shot_oracle(noise):
    assert_engine_matches_oracle(measure_reset_circuit(), 40, noise=noise, base_seed=7)


def test_frozen_positions():
    # Positions of the per-shot engine the batched one replaced. The oracle
    # above shares the kernels and the noise channel with the engine, so
    # these literals are what catches a change of draw order in either.
    zeno = build_circuit(WalkConfig(3, 4, design="random_jump_cascading", seed=5))
    got = run_positions(zeno, 24, noise=NOISY, schedule=ZenoSchedule(1), base_seed=101)
    assert got.tolist() == [
        4, 7, 5, 3, 7, 7, 5, 0, 4, 6, 1, 7, 4, 7, 7, 1, 5, 6, 6, 6, 1, 2, 6, 2,
    ]
    got = run_positions(measure_reset_circuit(), 24, noise=NOISY, base_seed=7)
    assert got.tolist() == [
        8, 3, 9, 8, 1, 2, 2, 11, 9, 14, 9, 11, 2, 2, 15, 8, 2, 9, 9, 8, 11, 11, 14, 11,
    ]
    got = run_positions(measure_reset_circuit(), 24, base_seed=7)
    assert got.tolist() == [
        3, 8, 11, 2, 3, 0, 3, 11, 0, 0, 0, 3, 3, 8, 3, 11, 3, 11, 0, 11, 3, 2, 0, 11,
    ]


def with_measures_every(circuit, period):
    """The circuit with a MEASURE of each counter qubit after every ``period``-th step."""
    out = Circuit(circuit.n_qubits, circuit.counter, circuit.coin, circuit.ancilla)
    prev = 0
    for step, mark in enumerate(circuit.steps_marks, start=1):
        out.add(*circuit.ops[prev:mark])
        prev = mark
        if step % period == 0:
            out.add(*(GateOp.measure(q) for q in circuit.counter))
        out.mark_step()
    out.add(*circuit.ops[prev:])
    return out.validate()


@pytest.mark.parametrize("noise", [None, NOISY], ids=["ideal", "noisy"])
@pytest.mark.parametrize("design,width,steps", [("arc", 4, 6), ("binary", 3, 4)])
def test_schedule_equals_explicit_measure_ops(design, width, steps, noise):
    circuit = build_circuit(WalkConfig(width, steps, design=design))
    for period in sorted({1, 2, 3, steps}):
        got = run_positions(circuit, 32, noise=noise, schedule=ZenoSchedule(period), base_seed=9)
        want = run_positions(with_measures_every(circuit, period), 32, noise=noise, base_seed=9)
        assert np.array_equal(got, want), period
    never = run_positions(circuit, 32, noise=noise, schedule=ZenoSchedule(0), base_seed=9)
    beyond = run_positions(circuit, 32, noise=noise, schedule=ZenoSchedule(steps + 1), base_seed=9)
    assert np.array_equal(beyond, never)


def test_ten_qubits_span_several_chunks_and_end_partial():
    circuit = build_circuit(WalkConfig(8, 3, design="random_jump_cascading", seed=2))
    assert circuit.n_qubits == 10
    chunk = CHUNK_AMPS >> circuit.n_qubits
    shots = 2 * chunk + chunk // 2
    assert_engine_matches_oracle(
        circuit, shots, noise=NOISY, schedule=ZenoSchedule(2), base_seed=31
    )


def test_ideal_run_shares_one_row_over_several_chunks():
    # Every shot samples the one evolved row, CHUNK_AMPS shots per chunk.
    circuit = build_circuit(WalkConfig(9, 3, design="arc_walk"))
    assert circuit.n_qubits == 10 and all(op.is_unitary for op in circuit.ops)
    shots = CHUNK_AMPS + CHUNK_AMPS // 2
    state = StateVector(circuit.n_qubits)
    for op in circuit.ops:
        state.apply_gate(op)
    cdf = np.cumsum(state.probabilities())
    want = [
        decode(index_to_bits(int(sample_cdf(cdf, np.random.default_rng(3 + i).random())),
                             circuit.n_qubits), circuit.counter)
        for i in range(shots)
    ]
    assert np.array_equal(run_positions(circuit, shots, base_seed=3), np.array(want))


def test_noisy_circuit_without_ops_shares_one_row():
    # Nothing draws before the final sample, so only readout flips act on the shared |000>.
    circuit = build_circuit(WalkConfig(3, 0, design="arc"))
    assert circuit.ops == []
    assert_engine_matches_oracle(circuit, CHUNK_AMPS + 3, noise=NOISY, base_seed=11)
