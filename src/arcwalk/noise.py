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

from .sim import ConfigError, GateOp, apply_unitary

# A Pauli kick is a signed permutation: out[i] = 1j**phase * (-1)**parity(z & src) * a[src]
# with src = i ^ x. Pick 0, 1, 2 is X, Y up to global phase ([[0, 1j], [-1j, 0]]), Z; on
# qubit bit b it is (phase, x, z) = (0, b, 0), (3, b, b), (0, 0, b).
_PICKS = ((0, 1, 0), (3, 1, 1), (0, 0, 1))  # (phase, x / b, z / b)
_PHASES = np.array([1, 1j, -1, -1j] * 2)  # 1j**phase, for phase 0 .. 7


class _Window:
    """Row s of a (streams, width) block holds raw outputs of bit generator s, and
    ``pos[s]`` is the column of its next unread one."""

    def __init__(self, bit_generators, width: int):
        self.gens = bit_generators
        self.raw = np.empty((len(bit_generators), max(1, width)), np.uint64)
        self.pos = np.full(len(bit_generators), self.raw.shape[1])  # the first read fills
        self.half = [None] * len(bit_generators)  # the kept high half of each stream, if any

    def take(self, ids, k):
        """(len(ids), k) next raw outputs of the distinct streams ``ids``."""
        pos = self.pos[ids]
        if pos.max() > self.raw.shape[1] - k:
            self.refill(ids[pos > self.raw.shape[1] - k], k)
            pos = self.pos[ids]
        self.pos[ids] = pos + k
        w = self.raw.shape[1]
        return self.raw.reshape(-1)[(ids * w + pos)[:, None] + np.arange(k)]

    def take_one(self, s: int) -> int:
        """The next raw output of stream ``s``."""
        pos = self.pos.item(s)
        if pos == self.raw.shape[1]:
            self.refill((s,), 1)
            pos = 0
        self.pos[s] = pos + 1
        return self.raw.item(s, pos)

    def refill(self, ids, k):
        """Move the unread outputs of streams ``ids`` to the front and fill the rest."""
        raw, pos = self.raw, self.pos
        if k > raw.shape[1]:  # a wider window: every stream moves into it
            self.raw, ids = np.empty((len(raw), k), np.uint64), range(len(raw))
        for s in ids:
            rest = raw[s, pos[s] :]
            self.raw[s, : len(rest)] = rest
            self.raw[s, len(rest) :] = self.gens[s].random_raw(self.raw.shape[1] - len(rest))
            pos[s] = 0


class ShotStreams:
    """Per-shot PCG64 streams, read through a window of raw outputs.

    Stream s draws exactly what ``np.random.Generator(bit_generators[s])``
    would, in the same order. Its raw 64-bit outputs are read ``width`` at a
    time with ``random_raw`` into row s of a (shots, width) block, where a
    cursor per shot marks the next unread output. ``random(k)`` reads k
    outputs as ``(x >> 11) * 2**-53``; ``integers3`` replays
    ``Generator.integers(3)``, which draws by Lemire's method on 32-bit
    values: the low half of a fresh output, with the high half kept for the
    next 32-bit draw (``random`` leaves it kept), and the value redrawn while
    it is 0. The window widens only when one read needs more columns.
    ``view(held)`` reads the streams ``held`` through the same block.
    """

    def __init__(self, bit_generators, width: int):
        self._window, self.ids = _Window(bit_generators, width), np.arange(len(bit_generators))

    def view(self, held: np.ndarray) -> "ShotStreams":
        """The streams ``held`` (indices into this view), sharing its window."""
        out = object.__new__(ShotStreams)
        out._window, out.ids = self._window, self.ids[held]
        return out

    def random(self, k: int) -> np.ndarray:
        """(shots, k) uniforms in [0, 1): each stream's next ``random(k)``."""
        return (self._window.take(self.ids, k) >> np.uint64(11)) * (1.0 / (1 << 53))

    def integers3(self, at: np.ndarray) -> list[int]:
        """One ``integers(3)`` draw from stream ``at[i]`` for each i, in order."""
        window, out = self._window, []
        for s in self.ids[at].tolist():
            v = 0
            while not v:  # Lemire redraws while 3 * v mod 2**32 < 1, that is v == 0
                v, window.half[s] = window.half[s], None
                if v is None:
                    x = window.take_one(s)
                    v, window.half[s] = x & 0xFFFFFFFF, x >> 32
            out.append(v * 3 >> 32)
        return out


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
                raise ConfigError(f"{name} must be in (0, 1], got {f}")
        if not 0.0 <= self.readout_flip < 1.0:
            raise ConfigError(f"readout_flip must be in [0, 1), got {self.readout_flip}")


DEFAULT_NOISE = NoiseModel()
HIGH_END_NOISE = NoiseModel(fidelity_2q=0.999)


@dataclass(frozen=True)
class GateCensus:
    """Gate totals after decomposition to the {single-qubit, CNOT} basis."""

    count_1q: int = 0
    count_2q: int = 0

    def __post_init__(self):
        if self.count_1q < 0 or self.count_2q < 0:
            raise ConfigError("gate counts must be nonnegative")

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


@lru_cache(maxsize=8192)
def _slot_probs(op: GateOp, model: NoiseModel) -> np.ndarray:
    """Read-only error probability of each of the op's noise slots under ``model``."""
    p1, p2 = 1.0 - model.fidelity_1q, 1.0 - model.fidelity_2q
    probs = np.array([p2 if is_2q else p1 for is_2q, _ in _injection_slots(op)])
    probs.setflags(write=False)
    return probs


@lru_cache(maxsize=None)
def _sign_phases(size: int) -> np.ndarray:
    """Read-only 2 * parity(i) for i in 0 .. size - 1 (a power of two): the phase of
    (-1)**parity(i) in steps of 1j, one byte each."""
    table = np.zeros(1, np.uint8)
    while len(table) < size:
        table = np.concatenate([table, table ^ 2])
    table.setflags(write=False)
    return table


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


def noisy_apply(rows: np.ndarray, op: GateOp, model: NoiseModel, streams, cls: np.ndarray):
    """Apply the ideal gate, then inject Pauli errors per constituent gate qubit.

    ``rows`` is a (U, 2**n) array of distinct states; shot s holds row
    ``cls[s]`` and draws from stream s of ``streams`` (a ``ShotStreams``).
    Returns the rows and each shot's row. Each constituent (after
    decomposition) exposes its qubits to an independent error of probability
    1 - fidelity of its class; a realized error applies one of X, Y (up to
    phase), or Z chosen uniformly. Each shot draws ``random(len(slots))``,
    then ``integers(3)`` per realized error in slot order. A shot's kicks, in
    slot order, fold into one signed permutation; rows take theirs in place if
    no row's shots were kicked apart, else first part into one row per
    realized (row, kicks).
    """
    apply_unitary(rows, op)
    slots = _injection_slots(op)
    shots, hits = np.nonzero(streams.random(len(slots)) < _slot_probs(op, model))
    if not len(shots):
        return rows, cls
    kicks: dict[int, tuple[int, int, int]] = {}  # shot -> its kicks so far, composed
    for s, j, pick in zip(shots.tolist(), hits.tolist(), streams.integers3(shots)):
        b, (dp, dx, dz) = 1 << slots[j][1], _PICKS[pick]
        phase, x, z = kicks.get(s, (0, 0, 0))
        kicks[s] = (phase + dp + (2 if x & b * dz else 0), x ^ b * dx, z ^ b * dz)
    phase, x, z = np.array(list(kicks.values())).T
    return _kick(rows, cls, np.array(list(kicks)), phase & 3, x, z)


def _kick(state, cls, shots, phase, x, z):
    """Apply to the row of shot ``shots[i]`` the signed permutation
    (``phase[i]``, ``x[i]``, ``z[i]``) in one gather and one multiply; returns
    the rows and each shot's row."""
    size = state.shape[1]
    if len(state) < len(cls):  # shared rows part: one row per realized (row, kicks)
        key = cls * (4 * size * size)
        key[shots] += (phase * size + x) * size + z
        alike, first, ids = np.unique(key, return_index=True, return_inverse=True)
        if len(alike) > len(state):
            state, cls = state[cls[first]], ids.reshape(-1)
        rows, at = np.unique(cls[shots], return_index=True)  # a row's shots were kicked alike
        phase, x, z = phase[at], x[at], z[at]
    else:
        rows = cls[shots]
    src = np.arange(size) ^ x[:, None]
    coef = _PHASES[phase[:, None] + _sign_phases(size)[z[:, None] & src]]
    state[rows] = state.reshape(-1)[rows[:, None] * size + src] * coef
    return state, cls


def apply_readout_noise(bits: str, model: NoiseModel, rng: np.random.Generator) -> str:
    """Flip each measured bit independently with probability ``readout_flip``."""
    flips = rng.random(len(bits)) < model.readout_flip
    if not flips.any():
        return bits
    return "".join("10"[int(b)] if f else b for b, f in zip(bits, flips))
