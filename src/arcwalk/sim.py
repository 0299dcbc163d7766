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


class ConfigError(ValueError):
    """An argument outside its documented range; the CLI maps it to exit code 2."""


class OutOfRangeError(ConfigError):
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
    def measure(cls, q: int) -> "GateOp":
        return cls("MEASURE", (q,))

    @classmethod
    def reset(cls, q: int) -> "GateOp":
        return cls("RESET", (q,))


_SQ2 = 1.0 / math.sqrt(2.0)

MATRICES_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "T": np.array([[1.0, 0.0], [0.0, cmath.exp(0.25j * math.pi)]], dtype=np.complex128),
    "TDG": np.array([[1.0, 0.0], [0.0, cmath.exp(-0.25j * math.pi)]], dtype=np.complex128),
}
for _m in MATRICES_1Q.values():
    _m.setflags(write=False)


@lru_cache(maxsize=1024)
def rx_matrix(theta: float) -> np.ndarray:
    """X rotation, ``cos(theta/2)`` diagonal and ``i sin(theta/2)`` off it; cached, read-only."""
    c, s = math.cos(0.5 * theta), 1j * math.sin(0.5 * theta)
    m = np.array([[c, s], [s, c]], dtype=np.complex128)
    m.setflags(write=False)
    return m


def index_to_bits(index: int, n_qubits: int) -> str:
    """Basis index as a qubit-0-first bitstring."""
    return format(index, f"0{n_qubits}b")[::-1]


@lru_cache(maxsize=None)
def _pair_indices(n_qubits: int, targets: tuple[int, ...], swap: bool):
    """The (lo, hi) basis-index pairs a two-level op on ``targets`` acts on: lo has
    every control set and the target (the last) clear, and hi flips the target too,
    and for SWAP also its one control, the first target."""
    *controls, target = targets
    flip = (1 << target) | (1 << controls[0] if swap else 0)
    basis = np.arange(1 << n_qubits)
    keep = (basis >> target) & 1 == 0
    for c in controls:
        keep &= (basis >> c) & 1 == 1
    lo = basis[keep]
    hi = lo ^ flip
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


def gather_index(n_qubits: int, ops) -> np.ndarray:
    """The index ``g`` for which ``np.take(amps, g, axis=-1)`` equals applying the
    permutation ops (X, CNOT, SWAP, TOFFOLI) in order, composed from their pair tables."""
    g = np.arange(1 << n_qubits)
    for op in ops:
        lo, hi = _pair_indices(n_qubits, op.targets, op.kind == "SWAP")
        g[lo], g[hi] = g[hi], g[lo]
    return g


def gather(amps: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each row of ``amps`` gathered by ``g``, C-contiguous (``amps[:, g]`` is F-ordered)."""
    return np.take(amps, g, axis=-1)


def permute_basis(idx: np.ndarray, kind: str, targets) -> np.ndarray:
    """Each basis index of ``idx`` (intp) moved by a permutation op of ``kind`` (X, CNOT,
    SWAP, TOFFOLI) on ``targets``: ints, or one array per target with an entry per index.
    X, CNOT and TOFFOLI flip the target (the last) where every control is set; SWAP
    flips both of its qubits where they differ."""
    *controls, target = targets
    if kind == "SWAP":
        differ = ((idx >> controls[0]) ^ (idx >> target)) & 1
        return idx ^ ((differ << controls[0]) | (differ << target))
    flip = 1
    for c in controls:
        flip = flip & (idx >> c)
    return idx ^ ((flip & 1) << target)


# Batch-aware kernels. ``amps`` is one state of shape (2**n,) or a chunk of
# trajectories of shape (B, 2**n), C-contiguous; every row gets the same
# elementwise arithmetic as a lone state, so results agree bit for bit.


def _view(amps: np.ndarray, *shape: int) -> np.ndarray:
    """``amps`` reshaped as a view: ``reshape`` copies one that is not C-contiguous."""
    if not amps.flags.c_contiguous:
        raise ValueError("amplitude kernels need a C-contiguous array")
    return amps.reshape(shape)


def apply_1q(amps: np.ndarray, matrix: np.ndarray, q: int) -> None:
    """Apply a 2x2 matrix to qubit ``q`` of every row in place."""
    v = _view(amps, -1, 2, 1 << q)  # a 2**(q+1) block never straddles two rows
    a0, a1 = v[:, 0, :], v[:, 1, :]
    b0 = matrix[0, 0] * a0 + matrix[0, 1] * a1
    b1 = matrix[1, 0] * a0 + matrix[1, 1] * a1
    v[:, 0, :], v[:, 1, :] = b0, b1


def _matrix(op: GateOp):
    """A unitary op's 2x2 matrix; None for X, CNOT, SWAP and TOFFOLI, which swap pairs."""
    if op.kind in ROTATION_KINDS:
        return rx_matrix(op.theta)
    return MATRICES_1Q.get(op.kind)


def is_permutation(op: GateOp) -> bool:
    """True for X, CNOT, SWAP and TOFFOLI, the unitary ops whose ``_matrix`` is None."""
    return op.kind in {"X", "CNOT", "SWAP", "TOFFOLI"}


def apply_unitary(amps: np.ndarray, op: GateOp) -> None:
    """Apply one unitary op to every row in place; targets are not checked.

    X, CNOT, CRX and TOFFOLI pair the basis states with every control set
    (X has none) and the target clear with their target-set partners; SWAP
    pairs (first set, second clear) with (first clear, second set).
    """
    if op.kind in NONUNITARY_KINDS:
        raise ValueError(f"{op.kind} is not unitary; use measure_qubit or reset_qubit")
    u = _matrix(op)
    if u is not None and len(op.targets) == 1:
        return apply_1q(amps, u, op.targets[0])
    lo, hi = _pair_indices(amps.shape[-1].bit_length() - 1, op.targets, op.kind == "SWAP")
    _pair_update(amps, lo, hi, u)


def apply_rows(amps: np.ndarray, ops, which: np.ndarray) -> None:
    """Apply ``ops[which[r]]`` to row r of a ``(B, 2**n)`` chunk in place, for unitary ops
    of one kind: their pair tables (a 1q op's has no controls) have one length, so one
    ``(B, pairs)`` table, and a ``(2, 2, B, 1)`` stack if they have matrices, serve every row."""
    n = amps.shape[-1].bit_length() - 1
    tables = [_pair_indices(n, op.targets, op.kind == "SWAP") for op in ops]
    lo, hi = (np.stack(half)[which] for half in zip(*tables))
    matrices = [_matrix(op) for op in ops]
    u = None if matrices[0] is None else np.stack(matrices, axis=-1)[:, :, which, None]
    _pair_update(amps, lo, hi, u)


def _pair_update(amps: np.ndarray, lo: np.ndarray, hi: np.ndarray, u) -> None:
    """Swap (``u`` None) or rotate by ``u`` each pair (lo, hi) of every row: one table and
    2x2 ``u`` for all rows, or a ``(B, pairs)`` table and a ``(2, 2, B, 1)`` ``u`` per row."""
    # Gather through one flat view: 1-D fancy indexing is several times
    # cheaper per call than indexing the last axis of a 2-D chunk.
    flat = _view(amps, -1)
    if flat.size > amps.shape[-1]:
        offsets = np.arange(0, flat.size, amps.shape[-1])[:, None]
        lo, hi = lo + offsets, hi + offsets
    a_lo = flat[lo]
    a_hi = flat[hi]
    if u is None:
        flat[lo] = a_hi
        flat[hi] = a_lo
    else:
        flat[lo] = u[0, 0] * a_lo + u[0, 1] * a_hi
        flat[hi] = u[1, 0] * a_lo + u[1, 1] * a_hi


def measure_rows(amps: np.ndarray, op: GateOp, u: np.ndarray, cls: np.ndarray, owner=None,
                 merge: bool = True):
    """Measure the qubit of a MEASURE or RESET ``op`` per shot: shot s holds row ``cls[s]``
    of ``amps`` (every row is held) and reads 1 if its uniform ``u[s] * total >= p0`` for its row.

    Returns one collapsed row per realized (row, outcome), in place if no row was read
    both ways, with rows of equal bytes merged (exact: equal bytes in give equal bytes out)
    if they come from rows of one ``owner`` (when given, one int per row); each shot's row;
    and True for the rows that read 1. A RESET then moves each such row's 1-half into its
    0-half after the merge, so a row that read 1 never merges with one that read 0, and
    ``ones[cls]`` is each shot's outcome. The discarded half reads +0.0. Without ``merge``
    equal rows stay apart and a zero may read -0.0, with the same values, until a call
    with ``merge`` turns every zero to +0.0 and merges.
    """
    rows, q = len(amps), op.targets[0]
    v = _view(amps, rows, -1, 2, 1 << q)
    sq = v.real**2
    sq += v.imag**2
    # One contiguous copy, so each row sums pairwise in the order a lone state does.
    p0, p1 = np.ascontiguousarray(sq.transpose(2, 0, 1, 3)).reshape(2, rows, -1).sum(axis=2)
    total = p0 + p1
    if not (np.isfinite(total) & (total > 0.0)).all():
        raise DegenerateStateError("state has no measurable norm")
    key = 2 * cls + (u * total[cls] >= p0[cls])
    pairs = np.flatnonzero(np.bincount(key, minlength=2 * rows))  # 2 * row + outcome
    cls, ones, parent = np.searchsorted(pairs, key), (pairs & 1).astype(bool), pairs >> 1
    amps = amps[parent] if len(pairs) > rows else amps  # a row read both ways is copied
    branch = np.where(ones, p1[parent], p0[parent])
    if (branch < 1e-290).any():
        raise DegenerateStateError(f"projection branch of qubit {q} underflows")
    # numpy's complex / real is (re + im*0) * (1/c); + 0.0 turns -0.0 to +0.0 for the merge.
    f = amps.view(np.float64).reshape(len(amps), -1, 2, 2 << q)
    f *= ((ones[:, None] == (False, True)) / np.sqrt(branch)[:, None])[:, None, :, None]
    if merge:  # rows of one owner with equal bytes become one
        f += 0.0
        keys = amps.view(np.dtype((np.void, amps.shape[1] * 16))).ravel().tolist()
        if owner is not None:
            keys = zip(owner[parent].tolist(), keys)
        seen: dict = {}
        ids = np.array([seen.setdefault(key, len(seen)) for key in keys])
        if len(seen) < len(amps):
            first = np.unique(ids, return_index=True)[1]
            amps, ones, cls = amps[first], ones[first], ids[cls]
    if op.kind == "RESET":
        v = amps.reshape(len(amps), -1, 2, 1 << q)
        v[ones] = v[ones, :, ::-1]  # the 0-half of a row that read 1 holds +0.0
    return amps, cls, ones


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

    def __init__(self, n_qubits: int):
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise OutOfRangeError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
        self.n_qubits = n_qubits
        self.amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        self.amps[0] = 1.0

    @classmethod
    def from_basis(cls, n_qubits: int, index: int) -> "StateVector":
        state = cls(n_qubits)
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
        """Apply an arbitrary 2x2 matrix to one qubit."""
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
        u = np.array([rng.random()])
        _, _, ones = measure_rows(self.amps.reshape(1, -1), GateOp.measure(q), u,
                                  np.zeros(1, np.intp))
        return int(ones[0])

    def reset_qubit(self, q: int, rng: np.random.Generator) -> None:
        """Measure one qubit and flip it back to |0> if the outcome was 1."""
        if self.measure_qubit(q, rng) == 1:
            self.apply_gate(GateOp.x(q))
