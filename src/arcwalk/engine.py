"""Shot execution, position decoding, and the distance/Zeno experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import DESIGNS, Circuit, WalkConfig, build_circuit, with_zeno_measurements
from .noise import NoiseModel, ShotStreams, noisy_apply
from .sim import MAX_QUBITS, ConfigError, GateOp, OutOfRangeError, apply_unitary
from .sim import index_to_bits, measure_rows, sample_cdf

RANDOM_JUMP_CIRCUITS = 30
RANDOM_JUMP_SHOTS = 30
RANDOM_DESIGNS = ("random_jump", "random_jump_cascading")  # a new circuit per step count

# A run's shots (every cut's, listed cut-major) run in chunks, which may end inside a cut.
# A chunk buffers k draws per shot, at most CHUNK_DRAWS in all (2 MiB): an ideal shot's
# 1 + collapses uniforms, or a noisy shot's window of WINDOW_COLUMNS raw outputs, so a
# noisy chunk holds at most 1024 shots. One whose ops can part its shots (a MEASURE or
# RESET, or any op under noise) also holds at most CHUNK_AMPS amplitudes (512 KiB) even if
# every shot parts to its own row. ``_uniforms`` computes its rows in passes of CHUNK_SHOTS,
# with about 11 times a pass's output in temporaries. A noisy shot holds a PCG64 (about
# 0.7 KB), and its window widens only if one read needs more (a Toffoli's 21 slots, or
# readout's n). A refill calls ``random_raw`` once per shot, about 1 us plus 3.6 ns per
# output on a 2 vCPU x86 host, so 2**8 columns cost about 4 ns per output.
# No chunk size changes a draw: shot r of a cut run at seed s draws from s + r.
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
def _pcg_jumps(k: int) -> tuple[np.ndarray, ...]:
    """64-bit halves A_hi, A_lo, B_hi, B_lo of A_j and B_j for draws j = 1..k, where
    draw j outputs from the LCG state A_j * initstate + B_j * inc mod 2**128: seeding
    steps twice, each draw once, so A_j = M**(j+1), B_j = 1 + M + ... + M**(j+1)."""
    rows, power, total, low = [], _PCG64_MULT, 1 + _PCG64_MULT, (1 << 64) - 1
    for _ in range(k):
        power = power * _PCG64_MULT % (1 << 128)
        total = (total + power) % (1 << 128)
        rows.append((power >> 64, power & low, total >> 64, total & low))
    out = np.array(rows, np.uint64).T
    out.setflags(write=False)
    return tuple(out)


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


def _uniforms(seeds: np.ndarray, k: int) -> np.ndarray:
    """(len(seeds), k) array whose row i equals ``default_rng(seeds[i]).random(k)``
    bit for bit, computed for every row at once.

    It replays numpy's algorithms in wrapping uint32/uint64 arithmetic:
    SeedSequence hashing of each seed as 4 entropy words (a seed's missing
    words act as zeros), ``generate_state(4, np.uint64)`` and PCG64 seeding, a
    jump to each draw's 128-bit LCG state, and the XSL-RR output as
    ``(x >> 11) * 2**-53``. Seeds as Python ints (``_shot_seeds`` gives them when one
    reaches 2**64) take ``default_rng`` row by row. tests/test_streams.py checks the
    rows against numpy.
    """
    if seeds.dtype == object:
        return np.array([np.random.default_rng(seed).random(k) for seed in seeds.tolist()])
    if len(seeds) > CHUNK_SHOTS:  # in passes, which bound the temporaries below
        return np.concatenate([_uniforms(seeds[a : a + CHUNK_SHOTS], k)
                               for a in range(0, len(seeds), CHUNK_SHOTS)])
    u32, u64 = np.uint32, np.uint64
    pool = np.zeros((4, len(seeds)), u32)
    pool[0], pool[1] = seeds & u64(0xFFFFFFFF), seeds >> u64(32)
    xor, mult = _POOL_HASH
    pool = _hashmix(pool, xor[:4], mult[:4])
    for src in range(4):  # each word mixes into the other three, in order
        dst, at = [d for d in range(4) if d != src], slice(4 + 3 * src, 7 + 3 * src)
        r = u32(0xCA01F9DD) * pool[dst] - u32(0x4973F715) * _hashmix(pool[src], xor[at], mult[at])
        pool[dst] = r ^ (r >> u32(16))
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_STATE_HASH).astype(u64)
    init_hi, init_lo, seq_hi, seq_lo = (state[0::2] | state[1::2] << u64(32))[:, :, None]
    inc_hi, inc_lo = seq_hi << u64(1) | seq_lo >> u64(63), seq_lo << u64(1) | u64(1)
    a_hi, a_lo, b_hi, b_lo = _pcg_jumps(k)
    hi_a, lo_a = _mul128(init_hi, init_lo, a_hi, a_lo)
    hi_b, lo_b = _mul128(inc_hi, inc_lo, b_hi, b_lo)
    lo = lo_a + lo_b
    hi = hi_a + hi_b + (lo < lo_a)
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


def _trajectories(start: np.ndarray, ops: list[GateOp], seeds: np.ndarray, stops: np.ndarray,
                  noise, draws):
    """Final basis index per shot of one chunk, shot i running ``ops[:stops[i]]`` from
    the one ``(1, 2**n)`` row ``start``, which every shot holds at first; see
    ``run_positions``. The ``stops`` ascend, so the running shots are a suffix: when the
    op loop reaches a shot's stop, the shot retires (it samples its row's CDF and, under
    noise, draws its readout flips), and rows that no running shot holds are dropped.
    Shot i draws from ``default_rng(seeds[i])``: one ``random()`` per collapse, each
    noisy gate's draws, one ``random()`` for the final sample, and ``random(n)`` for
    readout flips. Ideal shots draw only the ``random()`` calls, at most ``draws`` each,
    so they take them from one ``_uniforms`` block whose column c serves every shot's
    c-th draw; noisy shots read their streams through one ``ShotStreams`` window of
    ``draws`` columns, refilled as they reach its end, the running ones through a view
    of it. This is the one loop that runs shots and the one place a CDF is sampled."""
    n, shots = start.shape[1].bit_length() - 1, len(seeds)
    amps, cls, out = start.copy(), np.zeros(shots, np.intp), np.empty(shots, np.intp)
    # The shots with stops at or before op ``at`` are the first ``ends[at]``.
    ends = np.searchsorted(stops, np.arange(stops[-1] + 1), side="right").tolist()
    if noise is None:
        block, column = _uniforms(seeds, draws), 0
    else:
        streams = ShotStreams([np.random.PCG64(seed) for seed in seeds.tolist()], draws)

    def gate(amps, op, cls, held=None):
        if noise is None:
            apply_unitary(amps, op)
            return amps, cls
        return noisy_apply(amps, op, noise, streams if held is None else streams.view(held), cls)

    live = 0  # the shots before it have retired; cls and streams cover the rest
    for at in range(len(ends)):
        if ends[at] > live:  # the shots that stop here sample their rows and retire
            end, gone = ends[at], ends[at] - live
            if noise is None:
                u = block[live:end, column]
            else:
                retired, streams = streams.view(slice(gone)), streams.view(slice(gone, None))
                u = retired.random(1)[:, 0]
            cdf = np.cumsum(amps.real**2 + amps.imag**2, axis=1)
            idx = sample_cdf(cdf[cls[:gone]] if len(cdf) > 1 else cdf[0], u)
            if noise is not None:  # readout flips: bit k of the mask flips qubit k
                idx ^= (retired.random(n) < noise.readout_flip) @ (1 << np.arange(n))
            out[live:end], live, cls = idx, end, cls[gone:]
            if live == shots:
                break
            if len(amps) > 1:  # drop the rows no running shot holds
                keep, cls = np.unique(cls, return_inverse=True)
                amps, cls = amps[keep], cls.reshape(-1)
        op = ops[at]
        if op.is_unitary:
            amps, cls = gate(amps, op, cls)
            continue
        if noise is None:
            u, column = block[live:, column], column + 1
        else:
            u = streams.random(1)[:, 0]
        q = op.targets[0]
        amps, cls, ones = measure_rows(amps, q, u, cls)
        if op.kind == "RESET" and ones.any():  # flip the rows that read 1 back to |0>
            order = np.argsort(ones, kind="stable")  # the rows that read 1 go last
            amps, cls, k = amps[order], np.argsort(order)[cls], len(ones) - int(ones.sum())
            held = np.flatnonzero(cls >= k)
            flipped, sub = gate(amps[k:], GateOp.x(q), cls[held] - k, held)
            amps, cls[held] = np.concatenate([amps[:k], flipped]), sub + k
    return out


def _sweep(circuit: Circuit, cuts: list[int], shots: int, seeds: list[int],
           noise: NoiseModel | None) -> list[np.ndarray]:
    """Final basis index per shot after each op-prefix length of the ascending ``cuts``,
    shot r of cut j drawing from ``default_rng(seeds[j] + r)``. While the run is ideal,
    the unitary ops before the first cut and the first MEASURE or RESET draw nothing, so
    they are applied once per run to the start row. Every cut's shots, listed cut-major,
    then run from that row as one batch of ``_trajectories`` chunks: each chunk runs the
    rest of its longest prefix once, and each shot retires at its own cut."""
    n, ops = circuit.n_qubits, circuit.ops
    if shots < 1:
        raise ConfigError(f"shots must be positive, got {shots}")
    if min(seeds) < 0:
        raise ConfigError(f"seed must be nonnegative, got {min(seeds)}")
    if n > MAX_QUBITS:
        raise OutOfRangeError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n}")
    row, done = np.eye(1, 1 << n, dtype=np.complex128), 0
    while noise is None and done < cuts[0] and ops[done].is_unitary:
        apply_unitary(row, ops[done])
        done += 1
    ops = ops[done : cuts[-1]]
    # Draws each shot buffers: ideal, one uniform per collapse and one to sample; noisy, a window.
    k = 1 + sum(not op.is_unitary for op in ops) if noise is None else WINDOW_COLUMNS
    parts = k > 1 if noise is None else bool(ops)  # shots may part onto rows of their own
    total = shots * len(cuts)
    chunk = max(1, min(CHUNK_DRAWS // k, CHUNK_AMPS >> n if parts else total))
    shot_seeds, shot_stops = _shot_seeds(seeds, shots), np.repeat([c - done for c in cuts], shots)
    return list(np.concatenate([
        _trajectories(row, ops, shot_seeds[a : a + chunk], shot_stops[a : a + chunk], noise, k)
        for a in range(0, total, chunk)]).reshape(len(cuts), shots))


def run_single_shot(circuit: Circuit, seed: int, noise: NoiseModel | None = None) -> str:
    """One full trajectory: returns the final bitstring."""
    idx = _sweep(circuit, [len(circuit.ops)], 1, [seed], noise)[0][0]
    return index_to_bits(int(idx), circuit.n_qubits)


def run_positions(
    circuit: Circuit, shots: int, noise: NoiseModel | None = None, base_seed: int = 0
) -> np.ndarray:
    """Decoded counter value per shot; shot i uses seed ``base_seed + i``.

    The engine runs the circuit's ops as they stand: a Zeno schedule is a
    circuit too, made by ``circuits.with_zeno_measurements``. Every shot starts on
    one shared row. In an ideal run the ops before the first MEASURE or RESET draw
    nothing, so they are evolved once per run on that row; under noise every gate
    draws, and the row is |0...0>. From there the run's one batch runs the rest,
    chunk by chunk.
    Each distinct state is evolved once and each shot holds its row's index:
    shots part by outcome at a collapse or by kicks at a noisy gate, and rows
    with equal bytes merge after a collapse (exact: equal bytes in give equal
    bytes out). Each shot draws what
    ``default_rng(base_seed + i)`` would give it alone, in the same order:
    ideal shots, which draw only ``random()``, take their uniforms from one
    vectorized block per chunk, and noisy shots read raw PCG64 outputs
    through one window per chunk (``ShotStreams``), which replays numpy's
    ``random()`` and ``integers(3)`` on them. A noisy gate folds each shot's
    Pauli kicks into one signed permutation of its row.
    """
    idx = _sweep(circuit, [len(circuit.ops)], shots, [base_seed], noise)[0]
    return _decode_index(idx, circuit.counter)


def run_step_positions(
    circuit: Circuit, shots: int, base_seeds: list[int], noise: NoiseModel | None = None
) -> list[np.ndarray]:
    """``run_positions`` of the circuit cut at each step mark, ``n_steps + 1`` arrays:
    cut 0 has no ops, cut s the first ``steps_marks[s - 1]``, run at ``base_seeds[s]``.

    The cuts share one sweep, with the same bits: every cut's shots run from |0...0> as
    one batch, each op once per chunk for all of them, and a cut's shots retire at its
    mark. An ideal sweep with no MEASURE or RESET fits one chunk of up to ``2**18``
    shots, so its ops are evolved once, on the one row every cut samples.
    """
    marks = [0, *circuit.steps_marks]
    if len(base_seeds) != len(marks):
        raise ConfigError(f"need {len(marks)} base seeds, one per cut, got {len(base_seeds)}")
    return [_decode_index(idx, circuit.counter)
            for idx in _sweep(circuit, marks, shots, base_seeds, noise)]


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
    ``random_shots`` shots each, new ones per step count; other designs run
    ``shots`` shots of the cuts of their ``max_steps`` circuit in one
    ``run_step_positions`` sweep. Cascading runs stay ideal under noise unless
    ``noisy_cascading`` is set (their resets then measure and noisily flip).
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
    columns = []  # per design, positions per step count
    for di, design in enumerate(designs):
        run_noise = None if design == "random_jump_cascading" and not noisy_cascading else noise
        if design not in RANDOM_DESIGNS:
            circuit = build_circuit(WalkConfig(width, max_steps, design, base_angle, seed))
            seeds = [derive_seed(seed, di, steps) for steps in range(max_steps + 1)]
            columns.append(run_step_positions(circuit, shots, seeds, run_noise))
            continue
        column = []
        for steps in range(max_steps + 1):
            runs = [(derive_seed(seed, di, steps, c, 0), derive_seed(seed, di, steps, c, 1))
                    for c in range(random_circuits)]  # (circuit seed, base seed)
            column.append(np.concatenate([
                run_positions(build_circuit(WalkConfig(width, steps, design, base_angle, s)),
                              random_shots, run_noise, b) for s, b in runs]))
        columns.append(column)

    def cell(pos: np.ndarray) -> DistanceCell:
        stderr = float(pos.std(ddof=1) / math.sqrt(len(pos))) if len(pos) > 1 else 0.0
        return DistanceCell(float(pos.mean()), stderr, len(pos))

    rows = [{design: cell(column[steps]) for design, column in zip(designs, columns)}
            for steps in range(max_steps + 1)]
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
    Designs other than random-jump ones run one ``run_step_positions`` sweep.
    """
    if max_steps < 1:
        raise ConfigError(f"max_steps must be at least 1, got {max_steps}")
    steps = range(max_steps + 1)
    configs = [WalkConfig(width, s, design, base_angle, derive_seed(seed, 0, s)) for s in steps]
    seeds = [derive_seed(seed, 1, s) for s in steps]
    if design in RANDOM_DESIGNS:
        per_step = [run_positions(build_circuit(c), shots, None, b) for c, b in zip(configs, seeds)]
    else:
        per_step = run_step_positions(build_circuit(configs[-1]), shots, seeds)
    return np.diff(per_step, axis=0).ravel()  # positions(s + 1) - positions(s), s = 0, 1, ...
