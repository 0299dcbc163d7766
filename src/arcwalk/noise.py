"""Gate census, fidelity budgeting, and Pauli-trajectory gate noise.

Composite gates are charged per constituent after expansion to the
{single-qubit, CNOT} basis: the three-qubit gate by its exact 6-CNOT
phase-gate expansion, SWAP as 3 CNOT, and the controlled rotation as
2 CNOT plus 2 single-qubit rotations.

The two accountings differ for 2q constituents. ``estimate_fidelity``
charges each one ``fidelity_2q`` once, but the Pauli channel kicks each of
its two qubits on its own with probability ``1 - fidelity_2q``: an isolated
CNOT is error-free with probability ``fidelity_2q**2``.

Noise is one step after each op: the engine applies every op as in an ideal run,
then ``noisy_apply`` applies the kicks its shots drew there. A noisy shot's draws do
not depend on its amplitudes (every shot draws a RESET's X, whatever it reads), so
``KickTape`` resolves them before its state runs, from each shot's PCG64 stream: one
PCG64 takes the shot's seeded state (all computed at once) and seeks forward in it.

Every folded kick is a signed permutation, so where a chunk's ops are X, CNOT, SWAP
and TOFFOLI alone, each shot stays 1, -1, 1j or -1j times one basis state and the
engine tracks only its index: a kick XORs in its x and drops its phase and z. That is
exact: the final sample reads |amplitude|**2, 1.0 at the index and 0.0 elsewhere,
whatever the phase. It needs a composite op's kicks to follow the whole op; kicks
inside a Toffoli's H and T constituents would make TOFFOLI no longer qualify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .sim import ConfigError, GateOp, is_permutation

# A Pauli kick is a signed permutation: out[i] = 1j**phase * (-1)**parity(z & src) * a[src]
# with src = i ^ x. Pick 0, 1, 2 is X, Y up to global phase ([[0, 1j], [-1j, 0]]), Z; on
# qubit bit b it is (phase, x, z) = (0, b, 0), (3, b, b), (0, 0, b).
_PICKS = np.array([(0, 3, 0), (1, 1, 0), (0, 1, 1)])  # rows: phase, x / b, z / b of each pick
_PHASES = np.array([1, 1j, -1, -1j] * 2)  # 1j**phase, for phase 0 .. 7


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


def _injection_slots(op: GateOp) -> tuple[tuple[bool, int], ...]:
    """Flattened (is_two_qubit, qubit) noise slots for one op."""
    return tuple((cls == "2q", q) for cls, qubits in constituents(op) for q in qubits)


class _Columns(NamedTuple):
    """One op's columns under a noise model: a gate's noise slots; a MEASURE's uniform; a
    RESET's uniform, then its X's slots."""

    thresh: tuple[int, ...]  # per column, the raw output below which it errs; 0: a uniform
    words: np.ndarray  # (2, columns) uint64: max(thresh, 1) - 1, then 1 << qubit (0: none)


@lru_cache(maxsize=8192)
def _columns(op: GateOp, model: NoiseModel) -> _Columns:
    """The op's columns. With error probability p, ``random() < p`` reads
    ``(x >> 11) * 2**-53 < p``, that is ``x < ceil(p * 2**53) << 11``, which is 2**64
    (every output) when p rounds to 1; ``max(t, 1) - 1`` fits a uint64."""
    gate = GateOp.x(op.targets[0]) if op.kind == "RESET" else op  # a MEASURE has no slots
    p1, p2 = 1.0 - model.fidelity_1q, 1.0 - model.fidelity_2q
    cols = [(0, 0)] * (not op.is_unitary)  # a MEASURE's or RESET's uniform, then slots
    cols += [(math.ceil((p2 if is_2q else p1) * 2.0**53) << 11, 1 << q)
             for is_2q, q in _injection_slots(gate)]
    thresh, bits = zip(*cols)
    words = np.array([[max(t, 1) - 1 for t in thresh], bits], np.uint64)
    words.setflags(write=False)
    return _Columns(thresh, words)


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


class _Piece(NamedTuple):
    """A piece's columns as ``KickTape._batch`` and ``KickTape._walk`` read them. Numpy
    compares outputs with ``<=`` a threshold less 1, which stays below 2**64 (a slot with
    p = 1 errs on every output); a slot that never errs then passes an output of 0,
    which the walk's exact ``<`` turns down."""

    thresh: list[int]  # per column, its threshold (see _columns); 0 for a uniform
    ends: list[int]  # per column, the end of its op's columns (a uniform's is never read)
    below: np.ndarray  # per column, max(thresh, 1) - 1 as uint64, then a 0
    below_max: np.uint64  # the largest of them
    mcols: np.ndarray  # the MEASURE and RESET columns, then a 0
    span: int  # more than any column a shot reads


class KickTape:
    """Every draw of a chunk's noisy shots, resolved from their streams before the state
    runs, one piece of ops at a time.

    Shot s draws what ``np.random.Generator`` would over a PCG64 in the ``(state, inc)``
    ``states[s]``, in the engine's order: per noisy gate ``random(len(slots))``, then
    ``integers(3)`` per realized slot; one ``random()`` per MEASURE or RESET; and when it
    retires (at op position ``stops[s]``), ``random(1)`` and ``random(n)``. A RESET's X
    draws as a noisy gate right after the RESET's ``random()``, whatever the shot reads,
    and its kicks are listed at the RESET for every shot: only the shots that read 1
    take them. So no draw depends on the amplitudes, and a piece ends only where a row
    would not fit a block.

    Raw outputs live in one block of at most ``draws`` words per batch of shots that
    ``resolve`` reads. A block row is one ``random_raw`` read of a shot's columns plus
    ``spare`` for its picks, by the tape's one PCG64 set to the shot's state and
    advanced past the outputs the shot has used; a piece ends before one shot's row
    would not fit (it holds at least one op). That count then moves to the first output
    the row left unread, so between pieces a shot holds nothing but the count and its
    kept half (see below). A slot errs when its output is below the slot's threshold (see
    ``_columns``), so a block is searched once for the outputs below the piece's
    largest threshold. A shot with none at its slots keeps its alignment; the others are
    walked one at a time over those outputs. The picks of a gate replay
    ``integers(3)``, Lemire's method on 32-bit values: the kept high half of the shot's
    last fresh output first, then fresh outputs right after the gate's slots, each
    giving its low half and keeping its high half, and a value of 0 is redrawn. Each
    fresh output moves the shot's later columns one output on. Last, every (shot,
    gate)'s kicks fold into one signed permutation, for all of them at once (see
    ``_fold``). The engine's loop reads ``readout_flip`` here too, and ``basis``: if the
    ops up to the last stop are all X, CNOT, SWAP or TOFFOLI (see the module docstring).
    """

    def __init__(self, states, ops, variants, circs, stops, model, n, draws, spare):
        self.states, self.ops, self.variants, self.circs = states, ops, variants, circs
        self.stops, self.model, self.n, self.draws = stops, model, n, draws
        self.readout_flip = model.readout_flip
        self.basis = all(map(is_permutation, ops[: stops[-1]]))
        self.spare = max(1, spare)
        self.gen = np.random.PCG64(0)  # seeks to each shot's stream as it is read
        self.used = np.zeros(len(states), np.int64)  # outputs each shot has used
        self.half = [None] * len(states)  # the kept high half, if any
        self.next = 0  # the op position whose piece comes next, or -1: none

    def resolve(self, at: int, live: int) -> None:
        """Resolve the piece that starts at op position ``at`` for the shots ``live`` on."""
        ops, model, retire = self.ops, self.model, 1 + self.n
        laid, starts, end = [], [0], at  # each op's _Columns; where each op's columns start
        measured, mcols, varied = {}, [], []  # MEASURE/RESET: uniform index, column; variants
        while end < len(ops):
            op = ops[end]
            cols = _columns(op, model)
            if end > at and starts[-1] + len(cols.thresh) + retire + self.spare > self.draws:
                break
            if end in self.variants:
                varied.append((end, starts[-1]))
            elif not op.is_unitary:
                measured[end] = len(mcols)
                mcols.append(starts[-1])
            laid.append(cols)
            starts.append(starts[-1] + len(cols.thresh))
            end += 1
        last = end == len(ops)  # the shots that stop at the end retire here
        self.next = -1 if last else end
        widths = np.diff(starts)
        thresh = list(chain.from_iterable(c.thresh for c in laid))
        below, bits = np.concatenate([c.words for c in laid] + [np.zeros((2, 1), np.uint64)], 1)
        # Shot live + i reads columns [0, lim[i]), then its retiring draws if it stops here.
        stops = self.stops[live:]
        lim = np.array(starts)[np.minimum(stops, end) - at]
        top = lim + retire * ((stops < end) | last)
        self.first, self.at, self.measured = live, at, measured
        self.uniforms = np.empty((len(stops), len(measured) + retire))
        piece = _Piece(thresh, np.repeat(starts[1:], widths).tolist(), below, below.max(),
                       np.array(mcols + [0]), len(thresh) + retire + 1)
        hits, picks, owner = [], [], []
        widest = int(top.max(initial=0)) + self.spare  # a block row, at most
        batch = max(1, self.draws // widest)
        for a in range(0, len(stops), batch):
            b = slice(a, a + batch)
            got = self._batch(piece, live + a, lim[b], top[b])
            hits += got[0]
            picks += got[1]
            owner += got[2]
        hits, picks, owner = (np.array(v, np.intp) for v in (hits, picks, owner))
        pos, bit = np.repeat(np.arange(at, end), widths)[hits], bits[hits].astype(np.intp)
        for j, first in varied:  # the kicked qubits come from each shot's own op
            on = np.flatnonzero(pos == j)
            if len(on):
                vops, which = self.variants[j]
                vbits = np.array([_columns(vop, model).words[1] for vop in vops], np.intp)
                bit[on] = vbits[which[self.circs[owner[on]]], hits[on] - first]
        first, phase, x, z = _fold(owner * (end - at) + pos, bit, picks)
        kshot, kpos = owner[first], pos[first]
        order = np.lexsort((kshot, kpos))
        self.kshot, self.kphase, self.kx, self.kz = kshot[order], phase[order], x[order], z[order]
        self.kstart = np.searchsorted(kpos[order], np.arange(at, end + 1)).tolist()

    def _raw(self, s: int, at: int, count: int) -> np.ndarray:
        """Outputs ``at`` to ``at + count`` of shot s's stream, by a forward seek."""
        state, inc = self.states[s]
        self.gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
        if at:
            self.gen.advance(at)
        return self.gen.random_raw(count)

    def _read(self, s0: int, need: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
        """A block of the raw outputs of the shots ``s0`` on, row w for shot s0 + w: the
        next ``need[w]`` outputs of its stream and ``spare`` more. Returns the block, its
        row width and each row's length."""
        size = need + self.spare
        width = int(size.max())
        block = np.empty((len(need), width), np.uint64)
        used = self.used[s0 : s0 + len(need)].tolist()
        for w, count in enumerate(size.tolist()):
            block[w, :count] = self._raw(s0 + w, used[w], count)
        return block, width, size

    def _batch(self, piece, s0, lim, top):
        """Resolve the shots ``s0`` on (one per entry of ``lim``) from one block of their
        raw outputs (see ``_read``). Column c of shot s0 + w reads ``block[w, c]`` until a
        pick moves it on. Only the shots with an error at that first alignment are
        walked; the others kick nowhere, so it holds throughout. Each shot's count of
        used outputs then moves on to the first output its row left unread. Returns the
        hit columns, their picks and their shots.
        """
        spare, below, shots = self.spare, piece.below, len(lim)
        block, width, size = self._read(s0, top)
        cand = np.flatnonzero(block <= piece.below_max)  # only these outputs can err
        who, pos = np.divmod(cand, width)
        real = pos < size[who]
        cand, who, pos = cand[real], who[real], pos[real]
        vals = block.ravel()[cand]
        first = (pos < lim[who]) & (vals <= below[np.minimum(pos, len(below) - 1)])
        bounds = np.searchsorted(who, np.arange(shots + 1)).tolist()
        pos, vals = pos.tolist(), vals.tolist()
        end = top.copy()  # where each shot's reads end in its row
        hits, picks, owner, grown = [], [], [], {}  # grown: the rows walks read on past
        # Per shift of a shot's columns: the shot, the column from which it holds, its d.
        shift_shot, shift_col, shift_d = [-1], [0], [0]
        for w in np.flatnonzero(np.bincount(who[first], minlength=shots)).tolist():
            s, row, mine = s0 + w, block[w, : size[w]], slice(bounds[w], bounds[w + 1])
            args = int(lim[w]), int(top[w])
            got = self._walk(piece, s, row, pos[mine], vals[mine], *args)
            while got is None:  # its picks ran past its row (rare): read on, walk it again
                more = self._raw(s, int(self.used[s]) + len(row), spare)
                row = grown[w] = np.concatenate([row, more])
                new = np.flatnonzero(row <= piece.below_max)
                got = self._walk(piece, s, row, new.tolist(), row[new].tolist(), *args)
            shot_hits, shot_picks, cols, ds, self.half[s] = got
            hits += shot_hits
            picks += shot_picks
            owner += [s] * len(shot_hits)
            shift_shot += [w] * len(cols)
            shift_col += cols
            shift_d += ds
            if ds:
                end[w] = top[w] + ds[-1]
        self.used[s0 : s0 + shots] += end  # the next piece reads on from there
        # Each shot's uniforms: its MEASUREs before its stop, then its retiring draws.
        mcols, measures, span = piece.mcols, len(piece.mcols) - 1, piece.span
        q = np.searchsorted(mcols[:measures], lim)
        count = q + top - lim
        u_shot = np.repeat(np.arange(shots), count)
        j = np.arange(len(u_shot)) - np.repeat(np.cumsum(count) - count, count)
        early = j < q[u_shot]
        u_col = np.where(early, mcols[np.minimum(j, measures)], lim[u_shot] + j - q[u_shot])
        shift_shot, shift_d = np.array(shift_shot), np.array(shift_d)
        i = np.searchsorted(shift_shot * span + np.array(shift_col), u_shot * span + u_col,
                            side="right") - 1
        u_pos = u_col + np.where(shift_shot[i] == u_shot, shift_d[i], 0)
        raw = block[u_shot, np.minimum(u_pos, width - 1)]
        for w, row in grown.items():
            mine = u_shot == w
            raw[mine] = row[u_pos[mine]]
        self.uniforms[s0 - self.first + u_shot, np.where(early, j, measures + j - q[u_shot])] = (
            (raw >> np.uint64(11)) * (1.0 / (1 << 53)))
        return hits, picks, owner

    def _walk(self, piece, s, raw, cand, vals, lim, top):
        """Walk shot s from its first candidate: ``cand`` are the indices into ``raw`` of
        its outputs below the largest threshold, ``vals`` those outputs, and its column c
        reads ``raw[c + d]``, with d = 0 until a pick moves it on. Returns its hit columns,
        picks, the columns from which d grew and d from each on, and its kept half; or
        None if it would read past the end of ``raw``."""
        thresh, ends, half = piece.thresh, piece.ends, self.half[s]
        d, floor, k, stop = 0, 0, 0, len(raw)
        hits, picks, moved, shifts = [], [], [], []
        while k < len(cand) and cand[k] - d < lim:  # d grows only at a hit below lim
            i, k = cand[k], k + 1
            c = i - d
            if i < floor or vals[k - 1] >= thresh[c]:
                continue
            e = ends[c]  # the gate's slots end at column e: find its other errors
            if e + d > stop:
                return None
            hits.append(c)
            count = 1
            while k < len(cand) and cand[k] < e + d:
                if vals[k] < thresh[cand[k] - d]:
                    hits.append(cand[k] - d)
                    count += 1
                k += 1
            r = e + d
            for _ in range(count):
                v = 0
                while not v:  # Lemire redraws while 3 * v mod 2**32 < 1, that is v == 0
                    if half is None:
                        if r == stop:
                            return None
                        word, r = raw.item(r), r + 1
                        v, half = word & 0xFFFFFFFF, word >> 32
                    else:
                        v, half = half, None
                picks.append(v * 3 >> 32)
            if r > e + d:
                d, floor = r - e, r
                moved.append(e)
                shifts.append(d)
        if top + d > stop:
            return None
        return hits, picks, moved, shifts, half

    def kicks(self, j: int, live: int):
        """(shots, phase, x, z) of the kicks at op position ``j``, shot i being ``live + i``:
        what ``noisy_apply`` applies after the op (at a RESET, every shot's kicks of the
        X, which only the shots that read 1 take)."""
        at = slice(*self.kstart[j - self.at : j - self.at + 2])
        return self.kshot[at] - live, self.kphase[at], self.kx[at], self.kz[at]

    def measure(self, j: int, live: int) -> np.ndarray:
        """The uniforms of the shots ``live`` on at the MEASURE or RESET at position ``j``."""
        return self.uniforms[live - self.first :, self.measured[j]]

    def retire(self, live: int, end: int) -> np.ndarray:
        """(end - live, 1 + n) uniforms of the shots ``live`` to ``end`` as they retire:
        the final sample's, then the readout flips'."""
        return self.uniforms[live - self.first : end - self.first, len(self.measured) :]


def _fold(keys, bits, picks):
    """Fold kicks, in order, into one signed permutation per run of equal ``keys``: kick
    i is Pauli ``picks[i]`` (X, Y, Z) on the qubit ``bits[i]``. Returns each run's first
    kick and its (phase, x, z), composed as ``noisy_apply`` applies them."""
    dp, dx, dz = _PICKS[:, picks]
    xb, zb = bits * dx, bits * dz
    new = np.ones(len(keys), bool)
    new[1:] = keys[1:] != keys[:-1]
    first = np.flatnonzero(new)
    before = np.bitwise_xor.accumulate(xb) ^ xb  # the x of all earlier kicks, then of the run's
    before ^= before[first][np.cumsum(new) - 1]
    phase = np.add.reduceat(dp + 2 * ((before & zb) != 0), first) & 3
    return first, phase, np.bitwise_xor.reduceat(xb, first), np.bitwise_xor.reduceat(zb, first)


def noisy_apply(state: np.ndarray, cls: np.ndarray, kicks):
    """Apply each shot's Pauli errors at one op, resolved ahead by a ``KickTape``, after
    the engine has applied the op ideally (a chunk that tracks basis indices instead
    applies only each kick's x).

    ``state`` is a (U, 2**n) array of distinct states and shot s holds row ``cls[s]``.
    Each constituent of the op (after decomposition) exposes its qubits to an
    independent error of probability 1 - fidelity of its class; a realized error
    applies one of X, Y (up to phase), or Z chosen uniformly. ``kicks`` is (shots,
    phase, x, z): shot ``shots[i]``'s errors at the op, in slot order, folded into one
    signed permutation ``(phase[i], x[i], z[i])``, which its row takes in one gather and
    one multiply. Returns the rows and each shot's row: rows take their kicks in place
    if no row's shots were kicked apart, else first part into one row per realized
    (row, kicks).
    """
    shots, phase, x, z = kicks
    if not len(shots):
        return state, cls
    size = state.shape[1]
    key = cls * (4 * size * size)  # shared rows part: one row per realized (row, kicks)
    key[shots] += (phase * size + x) * size + z
    alike, first, ids = np.unique(key, return_index=True, return_inverse=True)
    if len(alike) > len(state):
        state, cls = state[cls[first]], ids.reshape(-1)
    rows, at = np.unique(cls[shots], return_index=True)  # a row's shots were kicked alike
    phase, x, z = phase[at], x[at], z[at]
    src = np.arange(size) ^ x[:, None]
    coef = _PHASES[phase[:, None] + _sign_phases(size)[z[:, None] & src]]
    state[rows] = state.reshape(-1)[rows[:, None] * size + src] * coef
    return state, cls


def apply_readout_noise(bits: str, model: NoiseModel, rng: np.random.Generator) -> str:
    """Flip each measured bit independently with probability ``readout_flip``."""
    flips = rng.random(len(bits)) < model.readout_flip
    return "".join("10"[int(b)] if f else b for b, f in zip(bits, flips))
