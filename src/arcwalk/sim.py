"""Statevector simulation core: gate algebra, measurement, and reset.

Amplitude convention: basis index ``i`` stores qubit ``k`` in bit ``k`` of
``i``, so qubit 0 is the least significant bit. Bitstrings returned by
measurement are written qubit-0 first (``bits[k]`` is the value of qubit k).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 20

RX_PERIOD = 4.0 * math.pi


class OutOfRangeError(ValueError):
    """Register width outside the supported simulation range."""


class InvalidTargetError(ValueError):
    """Gate target indices out of range, duplicated, or of the wrong arity."""


class DegenerateStateError(ValueError):
    """A measurement branch with vanishing norm cannot be realized."""


_ARITY = {
    "X": 1,
    "H": 1,
    "RX": 1,
    "T": 1,
    "TDG": 1,
    "CNOT": 2,
    "CRX": 2,
    "SWAP": 2,
    "TOFFOLI": 3,
    "MEASURE": 1,
    "RESET": 1,
}

ROTATION_KINDS = frozenset({"RX", "CRX"})
NONUNITARY_KINDS = frozenset({"MEASURE", "RESET"})


@dataclass(frozen=True)
class GateOp:
    """A single circuit operation: a unitary gate or a measure/reset marker.

    ``T``/``TDG`` never appear in built circuits; they exist so the
    three-qubit gate has an exact expansion over {single-qubit, CNOT}.
    """

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None
    classical_slot: int | None = None

    def __post_init__(self):
        arity = _ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        targets = tuple(int(q) for q in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(targets) != arity:
            raise InvalidTargetError(f"{self.kind} takes {arity} target(s), got {len(targets)}")
        if len(set(targets)) != len(targets):
            raise InvalidTargetError(f"{self.kind} targets must be distinct, got {targets}")
        if min(targets) < 0:
            raise InvalidTargetError(f"negative qubit index in {targets}")
        if self.kind in ROTATION_KINDS:
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError(f"{self.kind} needs a finite angle, got {self.theta!r}")
            object.__setattr__(self, "theta", float(self.theta) % RX_PERIOD)
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")
        if self.classical_slot is not None and self.kind != "MEASURE":
            raise ValueError(f"{self.kind} takes no classical slot")

    @property
    def is_unitary(self) -> bool:
        return self.kind not in NONUNITARY_KINDS

    @classmethod
    def x(cls, q: int) -> "GateOp":
        return cls("X", (q,))

    @classmethod
    def h(cls, q: int) -> "GateOp":
        return cls("H", (q,))

    @classmethod
    def t(cls, q: int) -> "GateOp":
        return cls("T", (q,))

    @classmethod
    def tdg(cls, q: int) -> "GateOp":
        return cls("TDG", (q,))

    @classmethod
    def rx(cls, q: int, theta: float) -> "GateOp":
        return cls("RX", (q,), theta=theta)

    @classmethod
    def cnot(cls, control: int, target: int) -> "GateOp":
        return cls("CNOT", (control, target))

    @classmethod
    def crx(cls, control: int, target: int, theta: float) -> "GateOp":
        return cls("CRX", (control, target), theta=theta)

    @classmethod
    def toffoli(cls, control_a: int, control_b: int, target: int) -> "GateOp":
        return cls("TOFFOLI", (control_a, control_b, target))

    @classmethod
    def swap(cls, qa: int, qb: int) -> "GateOp":
        return cls("SWAP", (qa, qb))

    @classmethod
    def measure(cls, q: int, slot: int | None = None) -> "GateOp":
        return cls("MEASURE", (q,), classical_slot=slot)

    @classmethod
    def reset(cls, q: int) -> "GateOp":
        return cls("RESET", (q,))


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of one explicit mid-circuit measurement."""

    slot: int | None
    qubit: int
    outcome: int

    def __post_init__(self):
        if self.outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {self.outcome}")


_SQ2 = 1.0 / math.sqrt(2.0)

MATRICES_1Q = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "T": np.array([[1.0, 0.0], [0.0, cmath.exp(0.25j * math.pi)]], dtype=np.complex128),
    "TDG": np.array([[1.0, 0.0], [0.0, cmath.exp(-0.25j * math.pi)]], dtype=np.complex128),
}
for _m in MATRICES_1Q.values():
    _m.setflags(write=False)


def rx_matrix(theta: float) -> np.ndarray:
    """X rotation with ``cos(theta/2)`` diagonal and ``i sin(theta/2)`` off-diagonal."""
    c = math.cos(0.5 * theta)
    s = 1j * math.sin(0.5 * theta)
    return np.array([[c, s], [s, c]], dtype=np.complex128)


def index_to_bits(index: int, n_qubits: int) -> str:
    """Basis index as a qubit-0-first bitstring."""
    return format(index, f"0{n_qubits}b")[::-1]


@lru_cache(maxsize=None)
def _pair_indices(n_qubits: int, controls: tuple[int, ...], target: int, flip: int):
    """Basis indices with every control set and the target clear, and ``lo ^ flip``."""
    basis = np.arange(1 << n_qubits)
    keep = (basis >> target) & 1 == 0
    for c in controls:
        keep &= (basis >> c) & 1 == 1
    lo = basis[keep]
    hi = lo ^ flip
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


# Batch-aware kernels. ``amps`` is one state of shape (2**n,) or a chunk of
# trajectories of shape (B, 2**n), C-contiguous; every row gets the same
# elementwise arithmetic as a lone state, so results agree bit for bit.


def apply_1q(amps: np.ndarray, matrix: np.ndarray, q: int) -> None:
    """Apply a 2x2 matrix to qubit ``q`` of every row in place."""
    v = amps.reshape(-1, 2, 1 << q)  # a 2**(q+1) block never straddles two rows
    a0, a1 = v[:, 0, :], v[:, 1, :]
    b0 = matrix[0, 0] * a0 + matrix[0, 1] * a1
    b1 = matrix[1, 0] * a0 + matrix[1, 1] * a1
    v[:, 0, :], v[:, 1, :] = b0, b1


def apply_unitary(amps: np.ndarray, op: GateOp) -> None:
    """Apply one unitary op to every row in place; targets are not checked.

    CNOT, CRX and TOFFOLI pair the basis states with every control set and
    the target clear with their target-set partners; SWAP pairs (first set,
    second clear) with (first clear, second set).
    """
    kind = op.kind
    if kind == "RX":
        return apply_1q(amps, rx_matrix(op.theta), op.targets[0])
    if kind in MATRICES_1Q:
        return apply_1q(amps, MATRICES_1Q[kind], op.targets[0])
    if kind in NONUNITARY_KINDS:
        raise ValueError(f"{kind} is not unitary; use measure_qubit or reset_qubit")
    *controls, t = op.targets
    flip = (1 << t) | (1 << controls[0] if kind == "SWAP" else 0)
    n = amps.shape[-1].bit_length() - 1
    lo, hi = _pair_indices(n, tuple(sorted(controls)), t, flip)
    # Gather through one flat view: 1-D fancy indexing is several times
    # cheaper per call than indexing the last axis of a 2-D chunk.
    flat = amps.reshape(-1)
    if flat.size > amps.shape[-1]:
        offsets = np.arange(0, flat.size, amps.shape[-1])[:, None]
        lo, hi = lo + offsets, hi + offsets
    a_lo = flat[lo]
    a_hi = flat[hi]
    if kind == "CRX":
        u = rx_matrix(op.theta)
        flat[lo] = u[0, 0] * a_lo + u[0, 1] * a_hi
        flat[hi] = u[1, 0] * a_lo + u[1, 1] * a_hi
    else:
        flat[lo] = a_hi
        flat[hi] = a_lo


def measure_rows(amps: np.ndarray, q: int, rngs) -> np.ndarray:
    """Measure qubit ``q`` of row r with one ``rngs[r].random()``, collapse and
    renormalize every row; returns True where the outcome is 1."""
    rows = len(rngs)
    v = amps.reshape(rows, -1, 2, 1 << q)
    sq = v.real**2 + v.imag**2
    # Contiguous copies, so each row sums pairwise in the order a lone state does.
    p0 = sq[:, :, 0, :].reshape(rows, -1).sum(axis=1)
    p1 = sq[:, :, 1, :].reshape(rows, -1).sum(axis=1)
    total = p0 + p1
    if not (np.isfinite(total) & (total > 0.0)).all():
        raise DegenerateStateError("state has no measurable norm")
    ones = np.array([rng.random() for rng in rngs]) * total >= p0
    branch = np.where(ones, p1, p0)
    if (branch < 1e-290).any():
        raise DegenerateStateError(f"projection branch of qubit {q} underflows")
    np.copyto(v[:, :, 0, :], 0.0, where=ones[:, None, None])
    np.copyto(v[:, :, 1, :], 0.0, where=~ones[:, None, None])
    v /= np.sqrt(branch)[:, None, None, None]
    return ones


def sample_cdf(cdf: np.ndarray, u):
    """First index whose cumulative weight exceeds ``u * total``, at most N - 1.

    ``cdf`` is one cumulative weight vector searched for every ``u`` (scalar
    or array), or a (B, N) stack of them with one ``u`` per row.
    """
    if cdf.ndim == 2:
        idx = (cdf <= (u * cdf[:, -1])[:, None]).sum(axis=1)
    else:
        idx = np.searchsorted(cdf, u * cdf[-1], side="right")
    return np.minimum(idx, cdf.shape[-1] - 1)


class StateVector:
    """Dense complex amplitudes over every basis state of an n-qubit register."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, max_qubits: int = MAX_QUBITS):
        if n_qubits < 1 or n_qubits > max_qubits:
            raise OutOfRangeError(f"n_qubits must be in 1..{max_qubits}, got {n_qubits}")
        self.n_qubits = n_qubits
        self.amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        self.amps[0] = 1.0

    @classmethod
    def from_basis(cls, n_qubits: int, index: int, max_qubits: int = MAX_QUBITS) -> "StateVector":
        state = cls(n_qubits, max_qubits=max_qubits)
        if not 0 <= index < (1 << n_qubits):
            raise OutOfRangeError(f"basis index {index} out of range for {n_qubits} qubits")
        state.amps[0] = 0.0
        state.amps[index] = 1.0
        return state

    def copy(self) -> "StateVector":
        dup = object.__new__(StateVector)
        dup.n_qubits = self.n_qubits
        dup.amps = self.amps.copy()
        return dup

    def norm_sq(self) -> float:
        return float(np.sum(self.amps.real**2 + self.amps.imag**2))

    def probabilities(self) -> np.ndarray:
        return self.amps.real**2 + self.amps.imag**2

    def _check_target(self, q: int) -> None:
        if not 0 <= q < self.n_qubits:
            raise InvalidTargetError(f"qubit {q} out of range for {self.n_qubits}-qubit state")

    def apply_matrix_1q(self, matrix: np.ndarray, q: int) -> None:
        """Apply an arbitrary 2x2 matrix to one qubit (used by noise injection too)."""
        self._check_target(q)
        apply_1q(self.amps, matrix, q)

    def apply_gate(self, op: GateOp) -> None:
        """Apply one unitary op in place; measurement/reset ops are rejected."""
        for q in op.targets:
            self._check_target(q)
        apply_unitary(self.amps, op)

    def measure_all(self, rng: np.random.Generator) -> str:
        """Sample a full basis state, collapse onto it, and return its bits."""
        idx = int(sample_cdf(np.cumsum(self.probabilities()), rng.random()))
        self.amps.fill(0.0)
        self.amps[idx] = 1.0
        return index_to_bits(idx, self.n_qubits)

    def measure_qubit(self, q: int, rng: np.random.Generator) -> int:
        """Sample one qubit from its marginal, collapse, and renormalize."""
        self._check_target(q)
        return int(measure_rows(self.amps, q, (rng,))[0])

    def reset_qubit(self, q: int, rng: np.random.Generator) -> None:
        """Measure one qubit and flip it back to |0> if the outcome was 1."""
        if self.measure_qubit(q, rng) == 1:
            self.apply_matrix_1q(MATRICES_1Q["X"], q)

    def allclose_up_to_phase(self, other: "StateVector", atol: float = 1e-12) -> bool:
        """Amplitude equality modulo one common phase factor."""
        if self.n_qubits != other.n_qubits:
            return False
        j = int(np.argmax(np.abs(self.amps)))
        ref = self.amps[j]
        if abs(ref) < atol:
            return bool(np.allclose(self.amps, other.amps, atol=atol))
        if abs(other.amps[j]) < atol:
            return False
        phase = other.amps[j] / ref
        phase /= abs(phase)
        return bool(np.allclose(self.amps * phase, other.amps, atol=atol))


def new_state(n_qubits: int, max_qubits: int = MAX_QUBITS) -> StateVector:
    """Fresh |0...0> register."""
    return StateVector(n_qubits, max_qubits=max_qubits)
