"""Shot execution, position decoding, and the distance/Zeno experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .circuits import DESIGNS, Circuit, WalkConfig, build_circuit, with_zeno_measurements
from .noise import KickTape, NoiseModel, noisy_apply
from .sim import MAX_QUBITS, ConfigError, GateOp, OutOfRangeError, apply_rows, apply_unitary
from .sim import gather, gather_index, index_to_bits, is_permutation, measure_rows, permute_basis
from .sim import sample_cdf

RANDOM_JUMP_CIRCUITS = 30
RANDOM_JUMP_SHOTS = 30
RANDOM_DESIGNS = ("random_jump", "random_jump_cascading")  # a new circuit per step count

# A run's shots (every cut's of every circuit's, sorted by stop) run in chunks, which may
# end inside a cut. An ideal chunk buffers at most CHUNK_DRAWS draws (2 MiB), k = 1 +
# collapses uniforms per shot. A noisy chunk holds at most 768 shots (one without ops may
# hold 1024). Beside the one block of at most CHUNK_DRAWS // 4 raw outputs that its kick
# tape reads each piece into, that cap bounds what its shots hold: a seeded PCG64 state
# each (two 128-bit ints, about 150 B), and a piece's uniforms and kick lists. A block
# row reads WINDOW_COLUMNS outputs past a shot's columns for its picks; between pieces a
# shot holds none, only a count of the outputs it used. CHUNK_AMPS (512 KiB) caps the
# rows that run together. A noisy chunk whose ops can part its shots holds at most
# CHUNK_AMPS amplitudes even if every shot parts to its own row. An ideal chunk may hold
# more shots: when its circuits (one |0...0> row each) or a collapse give more than
# CHUNK_AMPS >> n rows, its shots split into row-disjoint groups of that many rows, run
# one after another. A group's start rows are built when it runs; a collapse may double
# the rows for a moment, and the groups it leaves waiting hold copies of their rows, so
# a chunk holds at most the cap's rows per collapse on the running group's path, plus
# that doubling. ``_uniforms`` computes its rows in passes of CHUNK_SHOTS, with about 11
# times a pass's output in temporaries. A kick tape fills a block row by row with its one
# PCG64: per shot it sets the state (about 2.6 us), advances past the used outputs if any
# (about 1.2 us) and makes one ``random_raw`` call (about 1 us plus 3.6 ns per output on
# a 2 vCPU x86 host); while it resolves a block its temporaries take about as much again.
# A piece ends before one shot's row would pass the block (it holds at least one op). A
# piece's uniforms are one per MEASURE or RESET and 1 + n to retire, per shot.
# No chunk or group size changes a draw: shot r of a cut run at seed s draws from s + r.
CHUNK_SHOTS = 1 << 12
CHUNK_AMPS = 1 << 15
CHUNK_DRAWS = 1 << 18
WINDOW_COLUMNS = 1 << 8


def derive_seed(*parts: int) -> int:
    """Stable, order-sensitive child seed from nonnegative integer parts.

    The parts are packed as 32-bit SeedSequence words, so distinct part lists
    can alias: ``derive_seed(7, 0, 0) == derive_seed(7, 0)`` and
    ``derive_seed(2**32 + 5, 0) == derive_seed(5, 1)``.
    """
    if min(parts, default=0) < 0:
        raise ConfigError(f"seed parts must be nonnegative, got {parts}")
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiply) constants of n successive SeedSequence hash steps, as (n, 1) columns."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & 0xFFFFFFFF
        mults.append(init)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


_POOL_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, 16)  # 4 entropy words, then 12 mixes
_STATE_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # generate_state(4, np.uint64)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mult
    return v ^ (v >> np.uint32(16))


@lru_cache(maxsize=256)
def _pcg_jumps(k: int) -> np.ndarray:
    """Rows A_hi, A_lo, B_hi, B_lo: 64-bit halves of A_j and B_j, where after seeding and
    j = 0..k draws the LCG state is A_j * initstate + B_j * inc mod 2**128: seeding steps
    twice, each draw once, so A_j = M**(j+1), B_j = 1 + M + ... + M**(j+1)."""
    rows, power, total, low = [], _PCG64_MULT, 1 + _PCG64_MULT, (1 << 64) - 1
    for _ in range(k + 1):
        rows.append((power >> 64, power & low, total >> 64, total & low))
        power = power * _PCG64_MULT % (1 << 128)
        total = (total + power) % (1 << 128)
    out = np.array(rows, np.uint64).T
    out.setflags(write=False)
    return out


def _mul128(x_hi, x_lo, c_hi, c_lo):
    """(hi, lo) halves of x * c mod 2**128; the high half of x_lo * c_lo in 32-bit limbs."""
    m, s = np.uint64(0xFFFFFFFF), np.uint64(32)
    x0, x1, c0, c1 = x_lo & m, x_lo >> s, c_lo & m, c_lo >> s
    p01, p10 = x0 * c1, x1 * c0
    mid = (x0 * c0 >> s) + (p01 & m) + (p10 & m)
    hi = x1 * c1 + (p01 >> s) + (p10 >> s) + (mid >> s) + x_lo * c_hi + x_hi * c_lo
    return hi, x_lo * c_lo


def _shot_seeds(seeds: list[int], shots: int) -> np.ndarray:
    """Seed of every shot of the cuts run at ``seeds``, cut-major: shot r of cut j draws
    from ``seeds[j] + r``. uint64, or Python ints if a seed reaches 2**64."""
    if max(seeds) + shots <= 1 << 64:
        return (np.array(seeds, np.uint64)[:, None] + np.arange(shots, dtype=np.uint64)).ravel()
    return np.array([seed + r for seed in seeds for r in range(shots)], dtype=object)


def _pcg_lcg(seeds: np.ndarray, jumps: np.ndarray) -> tuple[np.ndarray, ...]:
    """(hi, lo) halves of each seed's PCG64 LCG state at each column of ``jumps`` (see
    ``_pcg_jumps``), then (hi, lo) of its increment as columns, for every seed at once.
    SeedSequence hashing of each seed as 4 entropy words (missing words act as zeros) and
    ``generate_state(4, np.uint64)`` (initstate, initseq; inc = 2 * initseq + 1) replay
    in wrapping uint32/uint64 arithmetic; Python-int seeds (``_shot_seeds`` gives them
    when one reaches 2**64) take their words from ``SeedSequence`` itself."""
    u32, u64 = np.uint32, np.uint64
    if seeds.dtype == object:
        words = np.array([np.random.SeedSequence(seed).generate_state(4, u64)
                          for seed in seeds.tolist()]).T
    else:
        pool = np.zeros((4, len(seeds)), u32)
        pool[0], pool[1] = seeds & u64(0xFFFFFFFF), seeds >> u64(32)
        xor, mult = _POOL_HASH
        pool = _hashmix(pool, xor[:4], mult[:4])
        for src in range(4):  # each word mixes into the other three, in order
            dst, at = [d for d in range(4) if d != src], slice(4 + 3 * src, 7 + 3 * src)
            mixed = _hashmix(pool[src], xor[at], mult[at])
            r = u32(0xCA01F9DD) * pool[dst] - u32(0x4973F715) * mixed
            pool[dst] = r ^ (r >> u32(16))
        state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_STATE_HASH).astype(u64)
        words = state[0::2] | state[1::2] << u64(32)
    init_hi, init_lo, seq_hi, seq_lo = words[:, :, None]
    inc_hi, inc_lo = seq_hi << u64(1) | seq_lo >> u64(63), seq_lo << u64(1) | u64(1)
    a_hi, a_lo, b_hi, b_lo = jumps
    hi_a, lo_a = _mul128(init_hi, init_lo, a_hi, a_lo)
    hi_b, lo_b = _mul128(inc_hi, inc_lo, b_hi, b_lo)
    lo = lo_a + lo_b
    return hi_a + hi_b + (lo < lo_a), lo, inc_hi, inc_lo


def _pcg_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """Per seed, ``(state, inc)`` of ``np.random.PCG64(seed).state["state"]`` as Python ints:
    the state after seeding is M * initstate + (M + 1) * inc mod 2**128 (see ``_pcg_lcg``)."""
    hi, lo, inc_hi, inc_lo = (v.ravel().tolist() for v in _pcg_lcg(seeds, _pcg_jumps(0)))
    return [(h << 64 | l, ih << 64 | il) for h, l, ih, il in zip(hi, lo, inc_hi, inc_lo)]


def _uniforms(seeds: np.ndarray, k: int) -> np.ndarray:
    """(len(seeds), k) array whose row i equals ``default_rng(seeds[i]).random(k)`` bit
    for bit, for every row at once: each draw's LCG state (see ``_pcg_lcg``) and its
    XSL-RR output as ``(x >> 11) * 2**-53``. tests/test_streams.py checks the rows."""
    if len(seeds) > CHUNK_SHOTS:  # in passes, which bound the temporaries below
        return np.concatenate([_uniforms(seeds[a : a + CHUNK_SHOTS], k)
                               for a in range(0, len(seeds), CHUNK_SHOTS)])
    u64 = np.uint64
    hi, lo = _pcg_lcg(seeds, _pcg_jumps(k)[:, 1:])[:2]
    x, rot = hi ^ lo, hi >> u64(58)
    x = x >> rot | x << ((u64(64) - rot) & u64(63))
    return (x >> u64(11)) * (1.0 / (1 << 53))


@dataclass
class ShotHistogram:
    """Counts of decoded positions. Totals may be fractional for derived histograms."""

    counts: dict[int, float]
    total_shots: float

    @classmethod
    def from_positions(cls, positions: np.ndarray) -> "ShotHistogram":
        values, counts = np.unique(np.asarray(positions, dtype=np.int64), return_counts=True)
        return cls({int(v): int(c) for v, c in zip(values, counts)}, int(len(positions)))

    def frequencies(self) -> dict[int, float]:
        return {p: c / self.total_shots for p, c in sorted(self.counts.items())}

    def mean(self) -> float:
        return sum(p * c for p, c in self.counts.items()) / self.total_shots

    def variance(self) -> float:
        m = self.mean()
        return sum((p - m) ** 2 * c for p, c in self.counts.items()) / self.total_shots

    def sample_std(self) -> float:
        n = self.total_shots
        if n <= 1:
            return 0.0
        return math.sqrt(self.variance() * n / (n - 1))

    def stderr(self) -> float:
        return self.sample_std() / math.sqrt(self.total_shots)


def _decode_index(index: np.ndarray, counter: range) -> np.ndarray:
    return (index >> counter.start) & ((1 << len(counter)) - 1)


class UniformTape:
    """The draws of a chunk's ideal shots, read as ``_trajectories`` reads a ``KickTape``:
    one ``random()`` per MEASURE or RESET, then one for the final sample. Row i of
    ``block`` holds shot i's, its c-th draw in column c; ``columns[j]`` counts the MEASURE
    and RESET ops before position j (a family shares them, so one map serves every
    circuit). Nothing resolves ahead (``next`` is -1), and no shot is kicked or flipped."""

    next, basis, readout_flip = -1, False, 0.0

    def __init__(self, block: np.ndarray, columns: list[int], stops: np.ndarray):
        self.block, self.columns, self.stops = block, columns, stops

    def take(self, idx: np.ndarray) -> UniformTape:
        """The draws of a group split off the chunk, row i for shot ``idx[i]``."""
        return UniformTape(self.block[idx], self.columns, self.stops[idx])

    def measure(self, j: int, live: int) -> np.ndarray:
        """The uniforms of the shots ``live`` on at the MEASURE or RESET at position ``j``."""
        return self.block[live:, self.columns[j]]

    def retire(self, live: int, end: int) -> np.ndarray:
        """(end - live, 1) final-sample uniforms of the shots ``live`` to ``end``, at one stop."""
        return self.block[live:end, self.columns[self.stops[live]], None]

    def kicks(self, j: int, live: int) -> None:
        """None: no shot is kicked, so the loop calls no ``noisy_apply``."""


def _trajectories(n: int, ops: list[GateOp], variants: dict, gathers: dict, stops: np.ndarray,
                  circs: np.ndarray, tape) -> np.ndarray:
    """Final basis index per shot of one chunk of a family's shots on n qubits, shot i
    running op positions ``[0, stops[i])`` of circuit ``circs[i]`` from |0...0>; see
    ``_sweep``. ``ops`` is the family's longest circuit, and
    ``variants[j] = (distinct ops, each circuit's index into them)`` at each position j
    where the circuits' ops differ (none for a family of one). Each circuit starts on a
    row of its own, and rows merge only within one circuit, after a RESET and after the
    MEASURE that ends a run of them: the next position holds no MEASURE, or a shot
    retires there (inside a run, equal rows stay apart). The ``stops`` ascend, so the
    running shots are a suffix: at its stop a shot retires (it samples its row's CDF and
    takes its readout flips), and rows that no running shot holds are dropped.
    ``gathers[j] = (end, index)`` spans positions ``[j, end)`` of shared permutation ops,
    run as one ``gather`` of every row; every other position is one kernel call: a shared
    unitary on every row (``apply_unitary``), a differing position's ops per row
    (``apply_rows``), or a collapse per shot (``measure_rows``, which also flips a RESET's
    rows that read 1 back to |0>); ``noisy_apply`` then applies the op's kicks, if any
    (at a RESET, only the shots that read 1 take the X's).
    ``tape``, a ``UniformTape`` or a ``KickTape``, holds each shot's draws, what its own
    ``default_rng`` gives it alone (see ``_sweep``): one ``random()`` per collapse, each
    noisy gate's, one ``random()`` for the final sample and ``random(n)`` for readout
    flips, which a ``readout_flip`` of 0.0 skips. A tape that sets ``basis`` (a noisy
    chunk of X, CNOT, SWAP and TOFFOLI ops up to its last stop) leaves no rows: each shot
    holds the index of the one basis state it stays on, up to a phase (see ``noise``),
    from 0; ``permute_basis`` moves it through each op (per shot at a differing position),
    each kick XORs in its x, and the shot retires with its index, which its row's CDF
    gives for every u in [0, 1). When more than ``CHUNK_AMPS >> n`` rows would run
    together (at the start or after a collapse), the running shots split into groups of
    at most that many rows, each with its shots' draws (``tape.take``), run one by one;
    a waiting group holds a copy of its rows, or none before its start rows are built
    (a noisy chunk holds no more shots than that, so it never splits).
    This is the one loop that runs shots and the one place a CDF is sampled."""
    shots, basis = len(stops), tape.basis
    cap, out, pending = max(1, CHUNK_AMPS >> n), np.empty(shots, np.intp), []

    def owner(amps, cls, idx):
        """The circuit of each row."""
        rows = np.empty(len(amps), np.intp)
        rows[cls] = circs[idx]
        return rows

    def push(at, amps, cls, idx):
        """Queue the shots ``idx`` (shot i on row ``cls[i]``) in row-disjoint groups of
        at most cap rows, the first on top. ``amps`` None stands for one |0...0> row per
        row, built when the group runs."""
        for lo in reversed(range(0, int(cls.max()) + 1, cap)):
            held = np.flatnonzero((cls >= lo) & (cls < lo + cap))
            rows = None if amps is None else amps[lo : lo + cap].copy()
            pending.append((at, rows, cls[held] - lo, idx[held]))

    # Each group: (next op position, rows, each shot's row, chunk shots).
    push(0, None, np.unique(circs, return_inverse=True)[1].reshape(-1), np.arange(shots))
    while pending:
        at, amps, cls, idx = pending.pop()
        if amps is None and basis:  # the basis index of each running shot
            amps = np.zeros(len(idx), np.intp)
        elif amps is None:
            amps = np.eye(1, 1 << n, dtype=np.complex128).repeat(int(cls.max()) + 1, axis=0)
        draws = tape if len(idx) == shots else tape.take(idx)  # row i for shot idx[i]
        # The group's shots with stops at or before op ``at`` are its first ``ends[at]``.
        ends = np.searchsorted(stops[idx], np.arange(stops[idx[-1]] + 1), side="right").tolist()
        live = 0  # the shots before it have retired; cls covers the rest
        while True:
            if at == draws.next:
                draws.resolve(at, live)
            if ends[at] > live:  # the shots that stop here sample their rows and retire
                end, gone = ends[at], ends[at] - live
                retired = draws.retire(live, end)
                if basis:  # |amp|**2 is exactly 1.0 at the index: the CDF gives it for every u
                    sampled = amps[:gone]
                else:
                    cdf = np.cumsum(amps.real**2 + amps.imag**2, axis=1)
                    sampled = sample_cdf(cdf[cls[:gone]] if len(cdf) > 1 else cdf[0], retired[:, 0])
                if draws.readout_flip:  # bit k of the mask flips qubit k
                    sampled ^= (retired[:, 1:] < draws.readout_flip) @ (1 << np.arange(n))
                out[idx[live:end]], live, cls = sampled, end, cls[gone:]
                if live == len(idx):
                    break
                if basis:
                    amps = amps[gone:]
                elif len(amps) > 1:  # drop the rows no running shot holds
                    keep, cls = np.unique(cls, return_inverse=True)
                    amps, cls = amps[keep], cls.reshape(-1)
            if len(amps) > cap:  # a collapse parted the rows beyond the cap
                push(at, amps, cls, idx[live:])
                break
            if at in gathers:
                at, g = gathers[at]
                amps = gather(amps, g)
                continue
            op, diff = ops[at], variants.get(at)
            at += 1
            if basis:  # a differing position's targets come per shot, from its circuit
                targets = op.targets if diff is None else (
                    np.array([vop.targets for vop in diff[0]]).T[:, diff[1][circs[idx[live:]]]])
                amps = permute_basis(amps, op.kind, targets)
            elif diff is not None:
                vops, which = diff
                apply_rows(amps, vops, which[owner(amps, cls, idx[live:])])
            elif op.is_unitary:
                apply_unitary(amps, op)
            else:
                # Rows merge once per run of MEASUREs that no retire parts, at its end.
                merge = op.kind == "RESET" or ends[at] > live or ops[at].kind != "MEASURE"
                rows_of = owner(amps, cls, idx[live:]) if variants and merge else None
                amps, cls, ones = measure_rows(amps, op, draws.measure(at - 1, live), cls,
                                               rows_of, merge)
            kicks = draws.kicks(at - 1, live)
            if basis:  # a kick moves the index by its x; its phase and z leave |amp| at 1
                amps[kicks[0]] ^= kicks[2]
            elif kicks is not None:  # each shot's Pauli kicks at the op
                if op.kind == "RESET":  # every shot drew the X's kicks; those that read 1 take them
                    kicks = tuple(k[ones[cls[kicks[0]]]] for k in kicks)
                amps, cls = noisy_apply(amps, cls, kicks)
    return out


def _sweep(circuits: list[Circuit], cuts: list[list[int]], shots: int,
           seeds: list[list[int]], noise: NoiseModel | None) -> list[np.ndarray]:
    """Final basis index per shot after each op-prefix length ``cuts[c]`` (ascending) of
    each circuit c, shot r of ``cuts[c][j]`` drawing from ``default_rng(seeds[c][j] + r)``;
    listed circuit by circuit, cut by cut. The circuits form a family: at each op
    position they hold ops of one kind, and the same MEASURE or RESET op (a circuit
    may end early). One circuit is a family of one. While the run is ideal, each span of
    two or more shared permutation ops that no cut parts is one gather. Every shot,
    sorted by stop, runs from |0...0> in one batch of ``_trajectories`` chunks: each
    chunk runs its longest prefix once, from a row per circuit, with its shots' draws
    on a ``UniformTape`` (ideal) or a ``KickTape`` (noisy), and each shot retires at its
    own cut."""
    n = circuits[0].n_qubits
    if shots < 1:
        raise ConfigError(f"shots must be positive, got {shots}")
    if min(map(min, seeds)) < 0:
        raise ConfigError(f"seed must be nonnegative, got {min(map(min, seeds))}")
    if n > MAX_QUBITS:
        raise OutOfRangeError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n}")
    if any(c.n_qubits != n for c in circuits):
        raise ConfigError("a family's circuits must have one register width")
    runs = [c.ops[: last[-1]] for c, last in zip(circuits, cuts)]
    ops, variants = max(runs, key=len), {}  # position -> (distinct ops, each circuit's index)
    for j in range(len(ops) if len(runs) > 1 else 0):
        seen: dict[GateOp, int] = {}
        which = [seen.setdefault(run[j], len(seen)) if j < len(run) else 0 for run in runs]
        if len(seen) > 1:
            if len({op.kind for op in seen}) > 1 or not ops[j].is_unitary:
                raise ConfigError(f"op {j} of a family's circuits differs beyond targets or angle")
            variants[j] = (tuple(seen), np.array(which))
    # Ideal spans of shared permutation ops (X, CNOT, SWAP, TOFFOLI; under noise each op
    # draws its kicks): start -> (end, gather index), equal spans sharing one index.
    gathers, composed = {}, {}
    permutes = [noise is None and j not in variants and is_permutation(op)
                for j, op in enumerate(ops)]
    edges = sorted({0, *(c for run in cuts for c in run)})
    for a, b in zip(edges, edges[1:]):
        for permute, span in groupby(range(a, b), permutes.__getitem__):
            span = list(span)
            if permute and len(span) > 1:
                key = tuple(ops[span[0] : span[-1] + 1])
                g = composed.get(key)  # a tuple does not cache its hash: hash it once
                if g is None:
                    g = composed[key] = gather_index(n, key)
                gathers[span[0]] = (span[-1] + 1, g)
    # Draws per shot: ideal, one uniform per collapse and one to sample; noisy, the spare
    # its picks may read, which with the kick tape's block of CHUNK_DRAWS // 4 (if ops
    # follow) sets the shot cap (see CHUNK_DRAWS).
    columns = np.cumsum([0] + [not op.is_unitary for op in ops]).tolist()
    k = 1 + columns[-1] if noise is None else WINDOW_COLUMNS
    chunk = max(1, CHUNK_DRAWS // k if noise is None or not ops else
                min((CHUNK_DRAWS - CHUNK_DRAWS // 4) // k, CHUNK_AMPS >> n))
    stops = np.repeat([c for run in cuts for c in run], shots)
    order = np.argsort(stops, kind="stable")
    shot_seeds = _shot_seeds([s for run in seeds for s in run], shots)[order]
    shot_stops = stops[order]
    # The circuit of each shot; circuits that never differ run as one.
    shot_circs = np.repeat([c if variants else 0 for c, run in enumerate(cuts) for _ in run],
                           shots)[order]

    def tape(s: slice):
        if noise is None:
            return UniformTape(_uniforms(shot_seeds[s], k), columns, shot_stops[s])
        return KickTape(_pcg_states(shot_seeds[s]), ops, variants, shot_circs[s],
                        shot_stops[s], noise, n, CHUNK_DRAWS // 4, k)

    out = np.empty(len(order), np.intp)
    out[order] = np.concatenate([
        _trajectories(n, ops, variants, gathers, shot_stops[s], shot_circs[s], tape(s))
        for s in (slice(a, a + chunk) for a in range(0, len(order), chunk))])
    return list(out.reshape(-1, shots))


def run_single_shot(circuit: Circuit, seed: int, noise: NoiseModel | None = None) -> str:
    """One full trajectory: returns the final bitstring."""
    idx = _sweep([circuit], [[len(circuit.ops)]], 1, [[seed]], noise)[0][0]
    return index_to_bits(int(idx), circuit.n_qubits)


def run_positions(
    circuit: Circuit, shots: int, noise: NoiseModel | None = None, base_seed: int = 0
) -> np.ndarray:
    """Decoded counter value per shot; shot i uses seed ``base_seed + i``.

    The engine runs the circuit's ops as they stand: a Zeno schedule is a
    circuit too, made by ``circuits.with_zeno_measurements``. The run's one batch runs
    them chunk by chunk, each chunk from one |0...0> row: an ideal chunk holds up to
    ``2**18 // k`` shots (k uniforms each) and splits into groups of at most
    ``2**15 // 2**n`` rows when its rows part beyond that; a noisy chunk whose ops can
    part its shots holds at most that many shots, and at most 768, each with its seeded
    PCG64 state, beside one block of raw outputs that its kick tape reads. Each distinct
    state is evolved once and each shot holds its row's index: shots part by outcome at a
    collapse or by kicks at a noisy gate, and rows with equal bytes merge after a RESET
    and at the end of each run of MEASUREs, so a register readout merges once (exact:
    equal bytes in give equal bytes out). A run is a family of one circuit (see
    ``run_family``). Each shot draws what ``default_rng(base_seed + i)`` would give it
    alone, in the same order: ideal shots, which draw only ``random()``, take their
    uniforms from one vectorized block per chunk (``UniformTape``), and noisy shots
    take theirs from a kick tape (``KickTape``), resolved before the state runs: one
    PCG64 seeks forward through each shot's raw outputs, and it replays ``random()`` and
    ``integers(3)`` on them, folding each shot's Pauli kicks at a gate into one signed
    permutation of its row. A noisy chunk of X, CNOT, SWAP and TOFFOLI ops alone (a
    ``binary`` circuit's) keeps each shot on one basis state up to phase, so it holds
    just that state's index, moved by bit arithmetic per op and by each kick's x.
    """
    return run_family([circuit], shots, [base_seed], noise)[0]


def run_family(
    circuits: list[Circuit], shots: int, base_seeds: list[int], noise: NoiseModel | None = None
) -> list[np.ndarray]:
    """``run_positions`` of each circuit at its base seed, with the same bits, as one
    batch. The circuits form a family: one register width, an op of one kind at each
    position (targets and angles may differ, and a circuit may end early), and the
    same MEASURE and RESET ops. Each circuit's shots start on a row of their own, and
    rows merge after a collapse only within one circuit; a position where the circuits
    differ runs as one per-row kernel call (``apply_rows``), whatever its kind, and under
    noise the kicks follow. The random-jump designs' circuits at every step count form
    one family.
    """
    if len(base_seeds) != len(circuits):
        raise ConfigError(f"need {len(circuits)} base seeds, one per circuit, "
                          f"got {len(base_seeds)}")
    if not circuits:
        return []
    cuts, seeds = [[len(c.ops)] for c in circuits], [[b] for b in base_seeds]
    return [_decode_index(idx, c.counter)
            for idx, c in zip(_sweep(circuits, cuts, shots, seeds, noise), circuits)]


def run_step_positions(
    circuit: Circuit, shots: int, base_seeds: list[int], noise: NoiseModel | None = None
) -> list[np.ndarray]:
    """``run_positions`` of the circuit cut at each step mark, ``n_steps + 1`` arrays:
    cut 0 has no ops, cut s the first ``steps_marks[s - 1]``, run at ``base_seeds[s]``.

    The cuts share one sweep, with the same bits: every cut's shots run from |0...0> as
    one batch, each op once per chunk for all of them, and a cut's shots retire at its
    mark. An ideal sweep with no MEASURE or RESET fits one chunk of up to ``2**18``
    shots, so its ops are evolved once, on the one row every cut samples; there each
    step of a ``binary`` circuit, whose ops all permute basis states, is one gather.
    """
    marks = [0, *circuit.steps_marks]
    if len(base_seeds) != len(marks):
        raise ConfigError(f"need {len(marks)} base seeds, one per cut, got {len(base_seeds)}")
    return [_decode_index(idx, circuit.counter)
            for idx in _sweep([circuit], [marks], shots, [base_seeds], noise)]


def run_shots(
    circuit: Circuit, shots: int, noise: NoiseModel | None = None, base_seed: int = 0
) -> ShotHistogram:
    """Histogram of decoded counter values over ``shots`` trajectories."""
    return ShotHistogram.from_positions(run_positions(circuit, shots, noise, base_seed))


def arc_expected(width: int, steps: int, base_angle: float) -> float:
    """Closed-form mean of the arc counter: sum of 2^k sin^2(steps * theta_k / 2)."""
    if width < 1:
        raise ConfigError(f"width must be positive, got {width}")
    if steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {steps}")
    return sum(
        2**k * math.sin(steps * (base_angle / 2**k) / 2.0) ** 2 for k in range(width)
    )


def two_way_distribution(up: ShotHistogram, down: ShotHistogram) -> ShotHistogram:
    """Signed-position distribution of (up position - down position).

    Exact discrete cross-correlation of the two frequency tables; no
    resampling. The result's total is the product of the input totals, so
    its frequencies are exactly the products of the input frequencies.
    """
    if not up.counts or not down.counts:
        raise ValueError("two-way distribution needs nonempty histograms")
    counts: dict[int, float] = {}
    for u, cu in up.counts.items():
        for d, cd in down.counts.items():
            key = u - d
            counts[key] = counts.get(key, 0) + cu * cd
    return ShotHistogram(counts, up.total_shots * down.total_shots)


@dataclass(frozen=True)
class DistanceCell:
    mean: float
    stderr: float
    shots: int


@dataclass
class DistanceTable:
    """Mean decoded distance per design and step count, rows indexed 0..max_steps."""

    rows: list[tuple[int, dict[str, DistanceCell]]]

    def column(self, design: str) -> list[float]:
        return [cells[design].mean for _, cells in self.rows]


def distance_table(
    designs: list[str],
    max_steps: int,
    width: int,
    shots: int = 1000,
    noise: NoiseModel | None = None,
    base_angle: float = math.pi / 2,
    seed: int = 0,
    noisy_cascading: bool = False,
    random_circuits: int = RANDOM_JUMP_CIRCUITS,
    random_shots: int = RANDOM_JUMP_SHOTS,
) -> DistanceTable:
    """Mean decoded distance for each design at step counts 0..max_steps.

    Random-jump designs average ``random_circuits`` seeded circuits at
    ``random_shots`` shots each, new ones per step count, and every circuit of the
    column runs in one ``run_family`` batch; other designs run ``shots`` shots of the
    cuts of their ``max_steps`` circuit in one ``run_step_positions`` sweep.
    Cascading runs stay ideal under noise unless ``noisy_cascading`` is set (their
    resets then measure and noisily flip).
    """
    for i, design in enumerate(designs):
        if design not in DESIGNS:
            raise ConfigError(f"unknown design {design!r}; expected one of {DESIGNS}")
        if design in designs[:i]:
            raise ConfigError(f"design {design!r} is listed more than once")
    if max_steps < 0:
        raise ConfigError(f"max_steps must be nonnegative, got {max_steps}")
    if min(shots, random_circuits, random_shots) < 1:
        raise ConfigError(f"counts must be positive: {shots=}, {random_circuits=}, {random_shots=}")
    columns, counts = [], range(max_steps + 1)  # per design, positions per step count
    for di, design in enumerate(designs):
        run_noise = None if design == "random_jump_cascading" and not noisy_cascading else noise
        if design not in RANDOM_DESIGNS:
            circuit = build_circuit(WalkConfig(width, max_steps, design, base_angle, seed))
            seeds = [derive_seed(seed, di, steps) for steps in counts]
            columns.append(run_step_positions(circuit, shots, seeds, run_noise))
            continue
        runs = [(steps, derive_seed(seed, di, steps, c, 0), derive_seed(seed, di, steps, c, 1))
                for steps in counts for c in range(random_circuits)]  # (steps, circuit, base seed)
        family = [build_circuit(WalkConfig(width, steps, design, base_angle, s))
                  for steps, s, _ in runs]
        pos = run_family(family, random_shots, [b for *_, b in runs], run_noise)
        columns.append([np.concatenate(pos[s * random_circuits : (s + 1) * random_circuits])
                        for s in counts])

    def cell(pos: np.ndarray) -> DistanceCell:
        stderr = float(pos.std(ddof=1) / math.sqrt(len(pos))) if len(pos) > 1 else 0.0
        return DistanceCell(float(pos.mean()), stderr, len(pos))

    rows = [{design: cell(column[steps]) for design, column in zip(designs, columns)}
            for steps in counts]
    return DistanceTable(list(enumerate(rows)))


def zeno_experiment(
    width: int,
    steps: int,
    base_angle: float,
    periods: list[int],
    shots: int = 2000,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Mean decoded arc-counter value under each mid-measurement period."""
    circuit = build_circuit(WalkConfig(width, steps, design="arc", base_angle=base_angle))
    periods = [int(period) for period in periods]
    zeno = [with_zeno_measurements(circuit, period) for period in periods]  # checked before any run
    return [
        (period, run_shots(z, shots, base_seed=derive_seed(seed, idx, period)).mean())
        for idx, (period, z) in enumerate(zip(periods, zeno))
    ]


def single_qubit_zeno(theta: float, segments: int) -> float:
    """Probability a qubit rotated by 2*theta in measured segments never flips.

    Closed form: cos^2(theta/segments) ** segments.
    """
    if segments < 1:
        raise ConfigError(f"segments must be positive, got {segments}")
    return (math.cos(theta / segments) ** 2) ** segments


def walk_step_changes(
    design: str,
    width: int,
    max_steps: int,
    shots: int,
    base_angle: float = math.pi / 2,
    seed: int = 0,
) -> np.ndarray:
    """Per-shot position deltas between runs at consecutive step counts (ideal).

    Returns the concatenation over s of positions(s+1) - positions(s), with
    independent seeds per step count, for tail diagnostics on walk output.
    Random-jump designs build one circuit per step count and run them as one
    ``run_family`` batch; other designs run one ``run_step_positions`` sweep.
    """
    if max_steps < 1:
        raise ConfigError(f"max_steps must be at least 1, got {max_steps}")
    steps = range(max_steps + 1)
    configs = [WalkConfig(width, s, design, base_angle, derive_seed(seed, 0, s)) for s in steps]
    seeds = [derive_seed(seed, 1, s) for s in steps]
    if design in RANDOM_DESIGNS:
        per_step = run_family([build_circuit(c) for c in configs], shots, seeds)
    else:
        per_step = run_step_positions(build_circuit(configs[-1]), shots, seeds)
    return np.diff(per_step, axis=0).ravel()  # positions(s + 1) - positions(s), s = 0, 1, ...
