"""Shot execution, position decoding, and the distance/Zeno experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import DESIGNS, Circuit, WalkConfig, build_circuit
from .noise import NoiseModel, noisy_apply
from .sim import MAX_QUBITS, ConfigError, GateOp, OutOfRangeError, apply_unitary
from .sim import index_to_bits, measure_rows, sample_cdf

RANDOM_JUMP_CIRCUITS = 30
RANDOM_JUMP_SHOTS = 30

# Chunks of parted rows hold at most this many amplitudes (64 KiB of complex128); larger
# ones ran faster but their times spread more from run to run, and 2**14 page-faulted.
# Shots that share one row come this many to a chunk.
CHUNK_AMPS = 1 << 12


def derive_seed(*parts: int) -> int:
    """Stable, order-sensitive child seed from integer parts."""
    entropy = [int(p) & 0xFFFFFFFFFFFFFFFF for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class ZenoSchedule:
    """Mid-circuit measurement cadence: period 0 never fires, k fires every k steps."""

    period: int = 0

    def __post_init__(self):
        if self.period < 0:
            raise ConfigError(f"period must be nonnegative, got {self.period}")


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


def decode(bits: str, counter: range) -> int:
    """Counter value of a qubit-0-first bitstring: sum of 2^k over set counter bits."""
    window = bits[counter.start : counter.stop]
    return int(window[::-1], 2)


def _decode_index(index: np.ndarray, counter: range) -> np.ndarray:
    return (index >> counter.start) & ((1 << len(counter)) - 1)


def _scheduled_ops(circuit: Circuit, schedule: ZenoSchedule | None) -> list[GateOp]:
    """The circuit's ops with a MEASURE of every counter qubit after each fired step."""
    period = schedule.period if schedule is not None else 0
    if period == 0:
        return circuit.ops
    collapse = [GateOp.measure(q) for q in circuit.counter]
    ops, prev = [], 0
    for mark in circuit.steps_marks[period - 1 :: period]:
        ops += circuit.ops[prev:mark] + collapse
        prev = mark
    return ops + circuit.ops[prev:]


def _rng_chunks(base_seed: int, shots: int, rows: int):
    """Generators of shots 0..shots-1 (shot i seeded ``base_seed + i``), ``rows`` at a time."""
    for start in range(0, shots, rows):
        yield [np.random.default_rng(base_seed + i) for i in range(start, min(shots, start + rows))]


def _trajectories(circuit: Circuit, row: np.ndarray, ops: list[GateOp], rngs, noise) -> np.ndarray:
    """Final basis index per shot running ``ops`` on from the evolved (1, 2**n) ``row``,
    which the shots share if no op is left. Shot r draws from ``rngs[r]`` exactly
    what it would draw alone, in order: one ``random()`` per collapse, each noisy
    gate's draws, one ``random()`` for the final sample, and ``random(n)`` for
    readout flips."""
    amps = np.repeat(row, len(rngs), axis=0) if ops else row

    def gate(chunk, op, gens):
        return apply_unitary(chunk, op) if noise is None else noisy_apply(chunk, op, noise, gens)

    for op in ops:
        if op.is_unitary:
            gate(amps, op, rngs)
            continue
        q = op.targets[0]
        ones = measure_rows(amps, q, rngs)
        if op.kind == "RESET" and ones.any():  # flip the rows that read 1 back to |0>
            sel = np.flatnonzero(ones)
            flipped = amps[sel]
            gate(flipped, GateOp.x(q), [rngs[r] for r in sel])
            amps[sel] = flipped
    cdf = np.cumsum(amps.real**2 + amps.imag**2, axis=1)
    idx = sample_cdf(cdf if len(cdf) > 1 else cdf[0], np.array([g.random() for g in rngs]))
    if noise is not None:  # readout flips: bit k of the mask flips qubit k
        flips = np.array([g.random(circuit.n_qubits) for g in rngs]) < noise.readout_flip
        idx ^= flips @ (1 << np.arange(circuit.n_qubits))
    return idx


def _run(
    circuit: Circuit, shots: int, noise: NoiseModel | None, schedule: ZenoSchedule | None, seed: int
) -> np.ndarray:
    """Final basis index of each shot; the ops before the first one that draws
    (a MEASURE or RESET, or any gate under noise) are evolved once, on one row."""
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise OutOfRangeError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n}")
    ops = _scheduled_ops(circuit, schedule)
    draws = (i for i, op in enumerate(ops) if noise is not None or not op.is_unitary)
    first = next(draws, len(ops))
    row = np.eye(1, 1 << n, dtype=np.complex128)  # |0...0>
    for op in ops[:first]:
        apply_unitary(row, op)
    rest = ops[first:]  # a chunk holds CHUNK_AMPS amplitudes of parted rows, or shots of one row
    chunks = _rng_chunks(seed, shots, max(1, CHUNK_AMPS >> n) if rest else CHUNK_AMPS)
    return np.concatenate([_trajectories(circuit, row, rest, rngs, noise) for rngs in chunks])


def run_single_shot(
    circuit: Circuit,
    seed: int,
    noise: NoiseModel | None = None,
    schedule: ZenoSchedule | None = None,
) -> str:
    """One full trajectory: returns the final bitstring."""
    return index_to_bits(int(_run(circuit, 1, noise, schedule, seed)[0]), circuit.n_qubits)


def run_positions(
    circuit: Circuit,
    shots: int,
    noise: NoiseModel | None = None,
    schedule: ZenoSchedule | None = None,
    base_seed: int = 0,
) -> np.ndarray:
    """Decoded counter value per shot; shot i uses seed ``base_seed + i``.

    A schedule adds a MEASURE of every counter qubit after each fired step.
    The ops before the first one that draws (a MEASURE or RESET, or any gate
    under noise) are evolved once per run. The shots then part into rows of
    chunks of at most ``CHUNK_AMPS`` amplitudes; if no op is left, they all
    sample that one row, and a noise-free unitary run is evolved just once.
    """
    if shots < 1:
        raise ConfigError(f"shots must be positive, got {shots}")
    return _decode_index(_run(circuit, shots, noise, schedule, base_seed), circuit.counter)


def run_shots(
    circuit: Circuit,
    shots: int,
    noise: NoiseModel | None = None,
    schedule: ZenoSchedule | None = None,
    base_seed: int = 0,
) -> ShotHistogram:
    """Histogram of decoded counter values over ``shots`` trajectories."""
    return ShotHistogram.from_positions(
        run_positions(circuit, shots, noise=noise, schedule=schedule, base_seed=base_seed)
    )


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


def _positions_for(
    design: str,
    design_index: int,
    steps: int,
    width: int,
    shots: int,
    noise: NoiseModel | None,
    base_angle: float,
    seed: int,
    noisy_cascading: bool,
    random_circuits: int,
    random_shots: int,
) -> np.ndarray:
    noise_eff = noise
    if design == "random_jump_cascading" and noise is not None and not noisy_cascading:
        noise_eff = None
    if design in ("random_jump", "random_jump_cascading"):
        chunks = []
        for c in range(random_circuits):
            cfg = WalkConfig(
                width,
                steps,
                design=design,
                base_angle=base_angle,
                seed=derive_seed(seed, design_index, steps, c, 0),
            )
            chunks.append(
                run_positions(
                    build_circuit(cfg),
                    random_shots,
                    noise=noise_eff,
                    base_seed=derive_seed(seed, design_index, steps, c, 1),
                )
            )
        return np.concatenate(chunks)
    cfg = WalkConfig(width, steps, design=design, base_angle=base_angle, seed=seed)
    return run_positions(
        build_circuit(cfg),
        shots,
        noise=noise_eff,
        base_seed=derive_seed(seed, design_index, steps),
    )


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
    ``random_shots`` shots each; other designs run ``shots`` shots of their
    single circuit. Cascading runs stay ideal under noise unless
    ``noisy_cascading`` is set (their resets then measure and noisily flip).
    """
    for design in designs:
        if design not in DESIGNS:
            raise ConfigError(f"unknown design {design!r}; expected one of {DESIGNS}")
    if max_steps < 0:
        raise ConfigError(f"max_steps must be nonnegative, got {max_steps}")
    if min(shots, random_circuits, random_shots) < 1:
        raise ConfigError(f"counts must be positive: {shots=}, {random_circuits=}, {random_shots=}")
    rows = []
    for steps in range(max_steps + 1):
        cells = {}
        for di, design in enumerate(designs):
            pos = _positions_for(
                design, di, steps, width, shots, noise, base_angle, seed,
                noisy_cascading, random_circuits, random_shots,
            )
            n = len(pos)
            stderr = float(pos.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            cells[design] = DistanceCell(float(pos.mean()), stderr, n)
        rows.append((steps, cells))
    return DistanceTable(rows)


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
    schedules = [ZenoSchedule(int(period)) for period in periods]  # all checked before any run
    out = []
    for idx, schedule in enumerate(schedules):
        hist = run_shots(
            circuit,
            shots,
            schedule=schedule,
            base_seed=derive_seed(seed, idx, schedule.period),
        )
        out.append((schedule.period, hist.mean()))
    return out


def single_qubit_zeno(theta: float, segments: int) -> float:
    """Probability a qubit rotated by 2*theta in measured segments never flips.

    Closed form: cos^2(theta/segments) ** segments.
    """
    if segments < 1:
        raise ConfigError(f"segments must be positive, got {segments}")
    return (math.cos(theta / segments) ** 2) ** segments


def single_qubit_zeno_sampled(theta: float, segments: int, shots: int, seed: int = 0) -> float:
    """Monte Carlo cross-check of ``single_qubit_zeno`` via RX + measure sequences."""
    if segments < 1:
        raise ConfigError(f"segments must be positive, got {segments}")
    if shots < 1:
        raise ConfigError(f"shots must be positive, got {shots}")
    step = GateOp.rx(0, 2.0 * theta / segments)
    survived = 0
    for rngs in _rng_chunks(seed, shots, CHUNK_AMPS >> 1):
        amps = np.zeros((len(rngs), 2), dtype=np.complex128)
        amps[:, 0] = 1.0
        flipped = np.zeros(len(rngs), dtype=bool)
        for _ in range(segments):  # draws after a row's first 1 cannot revive it
            apply_unitary(amps, step)
            flipped |= measure_rows(amps, 0, rngs)
        survived += len(rngs) - int(flipped.sum())
    return survived / shots


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
    """
    if max_steps < 1:
        raise ConfigError(f"max_steps must be at least 1, got {max_steps}")
    per_step = []
    for s in range(max_steps + 1):
        cfg = WalkConfig(width, s, design=design, base_angle=base_angle, seed=derive_seed(seed, 0, s))
        per_step.append(
            run_positions(build_circuit(cfg), shots, base_seed=derive_seed(seed, 1, s))
        )
    deltas = [per_step[s + 1] - per_step[s] for s in range(max_steps)]
    return np.concatenate(deltas)
