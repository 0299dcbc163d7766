"""Gate census, fidelity budgeting, and Pauli-trajectory gate noise.

Composite gates are charged per constituent after expansion to the
{single-qubit, CNOT} basis: the three-qubit gate by its exact 6-CNOT
phase-gate expansion, SWAP as 3 CNOT, and the controlled rotation as
2 CNOT plus 2 single-qubit rotations.

The two accountings differ for 2q constituents. ``estimate_fidelity``
charges each one ``fidelity_2q`` once, but ``noisy_apply`` kicks each of
its two qubits on its own with probability ``1 - fidelity_2q``: an isolated
CNOT is error-free with probability ``fidelity_2q**2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sim import GateOp, StateVector, apply_1q, apply_unitary

_PAULI_INJECTIONS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),    # X
    np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=np.complex128),  # Y up to global phase
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),   # Z
)
for _m in _PAULI_INJECTIONS:
    _m.setflags(write=False)


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate-class fidelities plus an independent readout flip probability."""

    fidelity_1q: float = 0.997
    fidelity_2q: float = 0.978
    readout_flip: float = 0.0

    def __post_init__(self):
        for name in ("fidelity_1q", "fidelity_2q"):
            f = getattr(self, name)
            if not 0.0 < f <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {f}")
        if not 0.0 <= self.readout_flip < 1.0:
            raise ValueError(f"readout_flip must be in [0, 1), got {self.readout_flip}")


DEFAULT_NOISE = NoiseModel()
HIGH_END_NOISE = NoiseModel(fidelity_2q=0.999)


@dataclass(frozen=True)
class GateCensus:
    """Gate totals after decomposition to the {single-qubit, CNOT} basis."""

    count_1q: int = 0
    count_2q: int = 0

    def __post_init__(self):
        if self.count_1q < 0 or self.count_2q < 0:
            raise ValueError("gate counts must be nonnegative")

    def __add__(self, other: "GateCensus") -> "GateCensus":
        return GateCensus(self.count_1q + other.count_1q, self.count_2q + other.count_2q)


@lru_cache(maxsize=None)
def toffoli_decomposition(control_a: int, control_b: int, target: int) -> tuple[GateOp, ...]:
    """Exact expansion of the double-controlled NOT: 6 CNOT and 9 phase/H gates."""
    g = GateOp
    a, b, t = control_a, control_b, target
    return (
        g.h(t),
        g.cnot(b, t),
        g.tdg(t),
        g.cnot(a, t),
        g.t(t),
        g.cnot(b, t),
        g.tdg(t),
        g.cnot(a, t),
        g.t(b),
        g.t(t),
        g.h(t),
        g.cnot(a, b),
        g.tdg(b),
        g.cnot(a, b),
        g.t(a),
    )


@lru_cache(maxsize=8192)
def constituents(op: GateOp) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(gate class, qubits) entries for one op after decomposition.

    Classes are "1q" and "2q"; measurement and reset contribute nothing.
    """
    kind = op.kind
    if kind in ("X", "H", "RX", "T", "TDG"):
        return (("1q", op.targets),)
    if kind == "CNOT":
        return (("2q", op.targets),)
    if kind == "SWAP":
        entry = ("2q", op.targets)
        return (entry, entry, entry)
    if kind == "CRX":
        c, t = op.targets
        return (("2q", (c, t)), ("2q", (c, t)), ("1q", (t,)), ("1q", (t,)))
    if kind == "TOFFOLI":
        a, b, t = op.targets
        return tuple(
            ("2q" if g.kind == "CNOT" else "1q", g.targets)
            for g in toffoli_decomposition(a, b, t)
        )
    return ()


@lru_cache(maxsize=8192)
def _injection_slots(op: GateOp) -> tuple[tuple[bool, int], ...]:
    """Flattened (is_two_qubit, qubit) noise slots for one op."""
    return tuple((cls == "2q", q) for cls, qubits in constituents(op) for q in qubits)


def census(circuit) -> GateCensus:
    """Gate totals for a circuit (or any iterable of ops) after decomposition."""
    ops = getattr(circuit, "ops", circuit)
    c1 = c2 = 0
    for op in ops:
        for cls, _ in constituents(op):
            if cls == "1q":
                c1 += 1
            else:
                c2 += 1
    return GateCensus(c1, c2)


def estimate_fidelity(counts: GateCensus, model: NoiseModel) -> float:
    """Compound circuit fidelity: fidelity_1q^count_1q * fidelity_2q^count_2q."""
    return model.fidelity_1q**counts.count_1q * model.fidelity_2q**counts.count_2q


def noisy_apply(state, op: GateOp, model: NoiseModel, rng) -> None:
    """Apply the ideal gate, then inject Pauli errors per constituent gate qubit.

    ``state`` is a ``StateVector`` drawing from the generator ``rng``, or a
    (B, 2**n) chunk of trajectories whose row r draws from ``rng[r]``. Each
    constituent (after decomposition) exposes its qubits to an independent
    error of probability 1 - fidelity of its class; a realized error applies
    one of X, Y (up to phase), or Z chosen uniformly. Each row draws
    ``random(len(slots))``, then ``integers(3)`` per realized error in slot
    order; kicks reach their rows grouped by (slot, Pauli), in slot order.
    """
    if isinstance(state, StateVector):
        state.apply_gate(op)
        state, rng = state.amps.reshape(1, -1), (rng,)
    else:
        apply_unitary(state, op)
    slots = _injection_slots(op)
    if not slots:
        return
    p1 = 1.0 - model.fidelity_1q
    p2 = 1.0 - model.fidelity_2q
    probs = np.array([p2 if is_2q else p1 for is_2q, _ in slots])
    rows, hits = np.nonzero(np.array([g.random(len(slots)) for g in rng]) < probs)
    groups: dict[tuple[int, int], list[int]] = {}
    for r, j in zip(rows.tolist(), hits.tolist()):
        groups.setdefault((j, int(rng[r].integers(3))), []).append(r)
    for (j, pauli), sel in sorted(groups.items()):
        kicked = state[sel]
        apply_1q(kicked, _PAULI_INJECTIONS[pauli], slots[j][1])
        state[sel] = kicked


def apply_readout_noise(bits: str, model: NoiseModel, rng: np.random.Generator) -> str:
    """Flip each measured bit independently with probability ``readout_flip``."""
    flips = rng.random(len(bits)) < model.readout_flip
    if not flips.any():
        return bits
    return "".join("10"[int(b)] if f else b for b, f in zip(bits, flips))
