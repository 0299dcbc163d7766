"""The per-shot reference simulator that the engine's tests compare against.

Each shot runs alone on its own ``StateVector`` with its own
``default_rng(base_seed + i)``, its own Pauli channel and its own readout flips,
drawing in the documented order. Nothing here reads the engine's batched draw
sources or its shot loop, so an engine that shares draws or rows wrongly between
shots disagrees with it.

It also holds the per-metro correlation that the grouped market kernel is
checked against, bit for bit: one metro at a time, on its 1-D usable slice.
"""

import math

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


def reference_pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    """Product-moment r of two float64 arrays from ``np.mean`` and ``np.sum`` over each
    whole 1-D array, ``math.sqrt`` and a clamp to [-1, 1]. None where ``pearson`` raises
    DegenerateVarianceError: an array constant as float64, a sum of products or product
    of the sums of squares that is not finite (overflow), or that product 0."""
    if x.min() == x.max() or y.min() == y.max():
        return None
    with np.errstate(all="ignore"):
        dx = x - np.mean(x)
        dy = y - np.mean(y)
        sxx, syy, sxy = float(np.sum(dx * dx)), float(np.sum(dy * dy)), float(np.sum(dx * dy))
    spread = sxx * syy
    if not (math.isfinite(sxy) and math.isfinite(spread)) or spread == 0.0:
        return None
    return max(-1.0, min(1.0, sxy / math.sqrt(spread)))


def reference_housing(panel, bins: int):
    """``housing_correlations`` metro by metro: the (metro, r, months used) of each
    correlated metro and the skipped metros, both in name order, and the histogram
    counts. A metro is skipped with under two usable months (ratio at most 1), or
    where ``reference_pearson`` gives None."""
    correlated, skipped = [], []
    for code, name in enumerate(panel.metro_names):
        usable = (panel.metro == code) & (panel.sale_to_list_ratio <= 1.0)
        x = panel.sales_count[usable].astype(float)
        y = panel.sale_to_list_ratio[usable]
        r = reference_pearson(x, y) if x.size >= 2 else None
        if r is None:
            skipped.append(name)
        else:
            correlated.append((name, r, x.size))
    counts, _ = np.histogram([r for _, r, _ in correlated], bins=bins, range=(-1.0, 1.0))
    return correlated, skipped, counts.tolist()
