"""The per-shot reference simulator that the engine's tests compare against.

Each shot runs alone on its own ``StateVector`` with its own
``default_rng(base_seed + i)``, its own Pauli channel and its own readout flips,
drawing in the documented order. Nothing here reads the engine's batched draw
sources or its shot loop, so an engine that shares draws or rows wrongly between
shots disagrees with it.
"""

import numpy as np

from arcwalk import GateOp, StateVector, apply_readout_noise
from arcwalk.noise import _injection_slots


def decode(bits: str, counter: range) -> int:
    """Counter value of a qubit-0-first bitstring: sum of 2^k over set counter bits."""
    window = bits[counter.start : counter.stop]
    return int(window[::-1], 2)


def apply_ops(state: StateVector, ops, rng=None) -> None:
    """Run ``ops`` on ``state``, collapsing at each MEASURE and RESET with ``rng``
    (``default_rng(0)`` if None)."""
    if rng is None:
        rng = np.random.default_rng(0)
    for op in ops:
        if op.kind == "MEASURE":
            state.measure_qubit(op.targets[0], rng)
        elif op.kind == "RESET":
            state.reset_qubit(op.targets[0], rng)
        else:
            state.apply_gate(op)


PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),  # X
    np.array([[0, 1j], [-1j, 0]], dtype=np.complex128),  # Y up to global phase
    np.array([[1, 0], [0, -1]], dtype=np.complex128),  # Z
)


def pauli_channel(state, op, noise, rng):
    """After ``op``: one uniform per noise slot, an error where it is below
    1 - fidelity of the slot's class, then per error in slot order an
    ``integers(3)`` pick of X, Y or Z on the slot's qubit."""
    slots = _injection_slots(op)
    p = [1.0 - (noise.fidelity_2q if is_2q else noise.fidelity_1q) for is_2q, _ in slots]
    for (_, q), hit in zip(slots, rng.random(len(slots)) < p):
        if hit:
            state.apply_matrix_1q(PAULIS[rng.integers(3)], q)


def oracle_positions(circuit, shots, noise=None, period=None, base_seed=0):
    """Per-shot positions, measuring every counter qubit after each ``period``-th step."""
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
            state.apply_gate(op)
            if noise is not None:
                pauli_channel(state, op, noise, rng)

        for j in range(len(circuit.ops) + 1):
            for _ in range(fires.count(j)):
                for q in circuit.counter:
                    state.measure_qubit(q, rng)
            if j == len(circuit.ops):
                break
            op = circuit.ops[j]
            if op.kind == "MEASURE":
                state.measure_qubit(op.targets[0], rng)
            elif op.kind == "RESET":  # every shot draws the X's noise; a shot that read 0
                if state.measure_qubit(op.targets[0], rng) == 1:  # on a throwaway copy
                    gate(GateOp.x(op.targets[0]))
                elif noise is not None:
                    pauli_channel(state.copy(), GateOp.x(op.targets[0]), noise, rng)
            else:
                gate(op)
        bits = state.measure_all(rng)
        if noise is not None:
            bits = apply_readout_noise(bits, noise, rng)
        out.append(decode(bits, circuit.counter))
    return np.array(out, dtype=np.int64)
