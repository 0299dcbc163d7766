"""The chunked trajectory engine against a per-shot oracle.

The oracle evolves each shot alone through the public single-state API
(``StateVector``, ``apply_readout_noise``), its own ``decode`` and its own Pauli
channel, with its own ``default_rng(base_seed + i)``, drawing in the
documented order. The engine must return the same positions element for
element: shots in a chunk share each op but never each other's random draws.
"""

import math

import numpy as np
import pytest

from arcwalk import (
    DEFAULT_NOISE,
    DESIGNS,
    Circuit,
    ConfigError,
    GateOp,
    NoiseModel,
    OutOfRangeError,
    StateVector,
    WalkConfig,
    apply_readout_noise,
    build_circuit,
    derive_seed,
    run_positions,
    with_zeno_measurements,
)
from arcwalk import engine
from arcwalk.circuits import or_inplace_block
from arcwalk.engine import CHUNK_AMPS, CHUNK_SHOTS
from arcwalk.noise import _injection_slots
from arcwalk.sim import MAX_QUBITS, apply_unitary, gather, gather_index, index_to_bits
from arcwalk.sim import measure_rows, sample_cdf


def decode(bits: str, counter: range) -> int:
    """Counter value of a qubit-0-first bitstring: sum of 2^k over set counter bits."""
    window = bits[counter.start : counter.stop]
    return int(window[::-1], 2)

NOISY = NoiseModel(0.97, 0.9, 0.05)

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


def assert_engine_matches_oracle(circuit, shots, noise=None, period=None, base_seed=0):
    """The engine runs ``with_zeno_measurements(circuit, period)`` (``circuit`` itself
    when ``period`` is None); the oracle inserts the measurements on its own."""
    zeno = circuit if period is None else with_zeno_measurements(circuit, period)
    got = run_positions(zeno, shots, noise=noise, base_seed=base_seed)
    want = oracle_positions(circuit, shots, noise=noise, period=period, base_seed=base_seed)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("period", [None, 1, 3])
@pytest.mark.parametrize("noise", [None, NOISY], ids=["ideal", "noisy"])
@pytest.mark.parametrize("design", DESIGNS)
def test_every_design_matches_per_shot_oracle(design, noise, period):
    circuit = build_circuit(WalkConfig(3, 4, design=design, seed=5))
    assert_engine_matches_oracle(circuit, 24, noise=noise, period=period, base_seed=101)


def measure_reset_circuit():
    circuit = Circuit(n_qubits=4, counter=range(0, 4))
    circuit.add(GateOp.h(0), GateOp.rx(1, 1.1), GateOp.h(2), GateOp.measure(2))
    circuit.add(*or_inplace_block(0, 1, 2).ops)
    circuit.add(GateOp.h(2), GateOp.cnot(2, 3), GateOp.measure(3), GateOp.reset(2))
    return circuit.validate()


@pytest.mark.parametrize("noise", [None, NOISY], ids=["ideal", "noisy"])
def test_explicit_measure_and_reset_match_per_shot_oracle(noise):
    assert_engine_matches_oracle(measure_reset_circuit(), 40, noise=noise, base_seed=7)


@pytest.mark.parametrize(
    "circuit,period",
    [
        (measure_reset_circuit(), None),
        (build_circuit(WalkConfig(3, 4, design="arc")), 1),
    ],
    ids=["measure_reset", "zeno_arc"],
)
def test_shot_seeds_across_two_to_the_32_match_per_shot_oracle(circuit, period):
    # Shot seeds from 2**32 on enter SeedSequence as two 32-bit words.
    assert_engine_matches_oracle(circuit, 24, period=period, base_seed=2**32 - 10)


def test_frozen_positions():
    # Positions of the per-shot engine the batched one replaced. The oracle
    # above shares the kernels with the engine and follows the same draw
    # order, so these literals are what catches a change to either.
    zeno = build_circuit(WalkConfig(3, 4, design="random_jump_cascading", seed=5))
    got = run_positions(with_zeno_measurements(zeno, 1), 24, noise=NOISY, base_seed=101)
    assert got.tolist() == [
        6, 7, 6, 6, 3, 0, 0, 7, 3, 4, 4, 6, 1, 6, 5, 2, 7, 2, 7, 4, 4, 5, 5, 0,
    ]
    got = run_positions(measure_reset_circuit(), 24, noise=NOISY, base_seed=7)
    assert got.tolist() == [
        11, 0, 10, 3, 9, 11, 11, 11, 1, 10, 2, 8, 11, 2, 11, 8, 9, 0, 2, 3, 11, 10, 11, 11,
    ]
    got = run_positions(measure_reset_circuit(), 24, base_seed=7)
    assert got.tolist() == [
        3, 8, 11, 2, 3, 0, 3, 11, 0, 0, 0, 3, 3, 8, 3, 11, 3, 11, 0, 11, 3, 2, 0, 11,
    ]


def with_measures_every(circuit, period):
    """The circuit with a MEASURE of each counter qubit after every ``period``-th step."""
    out = Circuit(circuit.n_qubits, circuit.counter, circuit.coin, circuit.ancilla)
    prev = 0
    for step, mark in enumerate(circuit.steps_marks, start=1):
        out.add(*circuit.ops[prev:mark])
        prev = mark
        if step % period == 0:
            out.add(*(GateOp.measure(q) for q in circuit.counter))
        out.mark_step()
    out.add(*circuit.ops[prev:])
    return out.validate()


TRAILING_OPS = """\
# nqubits 3
# counter 0 2
H 0
# step 1
CNOT 0 1
RX 1 0.7
# step 2
H 2
CNOT 2 0
"""


@pytest.mark.parametrize("noise", [None, NOISY], ids=["ideal", "noisy"])
@pytest.mark.parametrize(
    "circuit",
    [
        build_circuit(WalkConfig(4, 6, design="arc")),
        build_circuit(WalkConfig(3, 4, design="binary")),
        Circuit.from_text(TRAILING_OPS),
        measure_reset_circuit(),
    ],
    ids=["arc-4-6", "binary-3-4", "ops_after_last_step", "no_step_marks"],
)
def test_schedule_equals_explicit_measure_ops(circuit, noise):
    steps = circuit.n_steps
    for period in sorted({1, 2, 3, steps} - {0}):
        got, want = with_zeno_measurements(circuit, period), with_measures_every(circuit, period)
        assert (got.ops, got.steps_marks) == (want.ops, want.steps_marks), period
        got = run_positions(got, 32, noise=noise, base_seed=9)
        want = run_positions(want, 32, noise=noise, base_seed=9)
        assert np.array_equal(got, want), period
    for period in (0, steps + 1):  # never fires: the same ops and marks
        same = with_zeno_measurements(circuit, period)
        assert (same.ops, same.steps_marks) == (circuit.ops, circuit.steps_marks), period


def chunk_of(circuit):
    """Shots per noisy chunk, and rows per ideal chunk or group, of a circuit of 8 or
    more qubits whose shots may part."""
    return CHUNK_AMPS >> circuit.n_qubits


def test_ten_qubits_span_several_chunks_and_end_partial():
    circuit = build_circuit(WalkConfig(8, 3, design="random_jump_cascading", seed=2))
    assert circuit.n_qubits == 10
    chunk = chunk_of(circuit)
    shots = 2 * chunk + chunk // 2
    assert_engine_matches_oracle(circuit, shots, noise=NOISY, period=2, base_seed=31)


def spy_on_unitaries(monkeypatch):
    """The ops the engine applies through ``apply_unitary``, in order; a span of
    permutation ops applied as one gather counts as its ops."""
    applied, spans = [], {}

    def spy(amps, op):
        applied.append(op)
        apply_unitary(amps, op)

    def compose(n, ops):
        g = gather_index(n, ops)
        spans[id(g)] = (g, list(ops))
        return g

    def take(amps, g):
        applied.extend(spans[id(g)][1])
        return gather(amps, g)

    monkeypatch.setattr(engine, "apply_unitary", spy)
    monkeypatch.setattr(engine, "gather_index", compose)
    monkeypatch.setattr(engine, "gather", take)
    return applied


def test_ideal_run_shares_one_row_over_several_chunks(monkeypatch):
    # The row is evolved once and every shot samples it, 4096 shots per chunk.
    monkeypatch.setattr(engine, "CHUNK_DRAWS", 4096)
    applied, chunks = spy_on_unitaries(monkeypatch), spy_on_chunks(monkeypatch)
    circuit = build_circuit(WalkConfig(9, 3, design="arc_walk"))
    assert circuit.n_qubits == 10 and all(op.is_unitary for op in circuit.ops)
    shots = 4096 + 2048
    state = StateVector(circuit.n_qubits)
    for op in circuit.ops:
        state.apply_gate(op)
    cdf = np.cumsum(state.probabilities())
    want = [
        decode(index_to_bits(int(sample_cdf(cdf, np.random.default_rng(3 + i).random())),
                             circuit.n_qubits), circuit.counter)
        for i in range(shots)
    ]
    assert np.array_equal(run_positions(circuit, shots, base_seed=3), np.array(want))
    assert chunks == [4096, 2048]
    assert applied == circuit.ops


def test_noisy_circuit_without_ops_shares_one_row():
    # Nothing draws before the final sample, so only readout flips act on the shared |000>.
    circuit = build_circuit(WalkConfig(3, 0, design="arc"))
    assert circuit.ops == []
    assert_engine_matches_oracle(circuit, CHUNK_SHOTS + 3, noise=NOISY, base_seed=11)


def spy_on_chunks(monkeypatch):
    """The shot count of every chunk the engine runs, in order."""
    chunks, run_chunk = [], engine._trajectories

    def spy(start, ops, variants, seeds, *rest):
        chunks.append(len(seeds))
        return run_chunk(start, ops, variants, seeds, *rest)

    monkeypatch.setattr(engine, "_trajectories", spy)
    return chunks


def test_noisy_circuit_without_ops_runs_whole_chunks(monkeypatch):
    # No op can part the shots, so the CHUNK_AMPS cap (32 shots at 10 qubits) is not applied.
    chunks = spy_on_chunks(monkeypatch)
    circuit = Circuit(n_qubits=10, counter=range(0, 10))
    assert_engine_matches_oracle(circuit, 1000, noise=NOISY, base_seed=5)
    assert chunks == [1000]


def uniforms_per_shot(circuit):
    """An ideal shot's uniforms: one per MEASURE or RESET, and one to sample."""
    return 1 + sum(not op.is_unitary for op in circuit.ops)


def test_ideal_zeno_run_evolves_its_prefix_once_over_several_chunks(monkeypatch):
    # Three chunks of 8 shots: the ops before the first MEASURE are applied once, and
    # the ops after it once per chunk.
    circuit = with_zeno_measurements(build_circuit(WalkConfig(3, 4, design="arc_walk")), 2)
    monkeypatch.setattr(engine, "CHUNK_DRAWS", 8 * uniforms_per_shot(circuit))
    chunks = spy_on_chunks(monkeypatch)
    applied = spy_on_unitaries(monkeypatch)
    assert_engine_matches_oracle(circuit, 24, base_seed=13)
    first = next(i for i, op in enumerate(circuit.ops) if not op.is_unitary)
    rest = [op for op in circuit.ops[first:] if op.is_unitary]
    assert chunks == [8, 8, 8]
    assert first > 0 and applied == circuit.ops[:first] + 3 * rest


ZENO_ARC = (WalkConfig(8, 6, design="arc"), 2)
CASCADING_10Q = (WalkConfig(8, 6, design="random_jump_cascading", seed=1), 0)


@pytest.mark.parametrize(
    "case,noise,merges",
    [
        (ZENO_ARC, None, True),
        (ZENO_ARC, NOISY, True),
        # Its parted rows differ beyond the reset ancilla, so none merge again.
        (CASCADING_10Q, None, False),
        # Under NOISY's 2q fidelity of 0.9 kicks soon give nearly every shot a row of its
        # own (29 rows for 32 shots at the second RESET), and no shared row is read both
        # ways; the default model's shots share rows longer (a shared row parted, and
        # parted rows merged, at base seeds 1-5 and 17).
        (CASCADING_10Q, DEFAULT_NOISE, True),
    ],
    ids=["zeno_arc-ideal", "zeno_arc-noisy", "cascading_10q-ideal", "cascading_10q-noisy"],
)
def test_shared_rows_split_and_merge_as_the_oracle(case, noise, merges, monkeypatch):
    # Shots hold indices into the distinct states: a collapse parts a row into
    # (row, outcome) rows, and rows with equal bytes merge again.
    collapses = []

    def spy(amps, op, u, cls, owner=None, merge=True):
        before = cls.tolist()
        out, cls, ones = measure_rows(amps, op, u, cls, owner, merge)
        pairs = len(set(zip(before, ones[cls].tolist())))
        collapses.append((len(amps), pairs, len(out)))
        return out, cls, ones

    monkeypatch.setattr(engine, "measure_rows", spy)
    config, period = case
    circuit = build_circuit(config)
    shots = 2 * chunk_of(circuit) + 5
    assert_engine_matches_oracle(circuit, shots, noise=noise, period=period, base_seed=17)
    assert any(pairs > rows for rows, pairs, _ in collapses)  # a shared row parted
    if merges:
        assert any(out < pairs for _, pairs, out in collapses)  # parted rows merged


def spy_on_merges(monkeypatch):
    """The rows, and each row's owner (None outside a family), of every collapse that
    merges its rows."""
    merged = []

    def spy(amps, op, u, cls, owner=None, merge=True):
        was = None if owner is None else owner[cls]
        out, cls, ones = measure_rows(amps, op, u, cls, owner, merge)
        if merge:
            owners = np.zeros(len(out), np.intp)
            if was is not None:
                owners[cls] = was
            merged.append((out.copy(), owners))
        return out, cls, ones

    monkeypatch.setattr(engine, "measure_rows", spy)
    return merged


def assert_merged_rows(merged):
    """No merged row holds -0.0, and no two rows of one owner are equal in value."""
    for rows, owners in merged:
        flat = rows.view(np.float64)
        assert not (np.signbit(flat) & (flat == 0.0)).any()
        alike = (rows[:, None] == rows[None]).all(axis=2) & (owners[:, None] == owners[None])
        assert np.array_equal(alike, np.eye(len(rows), dtype=bool))


@pytest.mark.parametrize(
    "width,angles,noise",
    [(4, [math.pi / 2], None), (8, [math.pi / 2], None), (3, [1.1, 2.3], None),
     (3, [1.1, 2.3], NOISY)],
    ids=["arc4", "arc8", "family-ideal", "family-noisy"],
)
def test_a_register_readout_merges_its_rows_once(width, angles, noise, monkeypatch):
    # Period 1 measures every counter qubit after each of the 20 steps: 20 runs of
    # ``width`` MEASUREs, on at most 100 rows, so no group splits. Rows merge at the end
    # of each run, once, not after each of its MEASUREs. A family's circuits differ in
    # angle, so its rows carry their circuit as owner: after a run every row is a basis
    # state up to phase, and some rows of two circuits are equal but stay apart.
    merged = spy_on_merges(monkeypatch)
    circuits = [with_zeno_measurements(build_circuit(WalkConfig(width, 20, "arc", angle)), 1)
                for angle in angles]
    shots, seeds = 100 // len(circuits), [3 + 100 * c for c in range(len(circuits))]
    got = engine.run_family(circuits, shots, seeds, noise)
    for circuit, seed, positions in zip(circuits, seeds, got):
        assert np.array_equal(positions, oracle_positions(circuit, shots, noise, base_seed=seed))
    assert len(merged) == 20
    assert_merged_rows(merged)
    if len(circuits) > 1:
        assert any(((rows[:, None] == rows[None]).all(axis=2)
                    & (owners[:, None] != owners[None])).any() for rows, owners in merged)


PREFIX_DESIGNS = ["binary", "arc", "arc_walk"]


def each_step_count(design, width, steps, shots, seeds, noise=None, period=None):
    """``run_positions`` of each step count's own circuit, with its Zeno measurements."""
    out = []
    for s, base_seed in zip(range(steps + 1), seeds):
        circuit = build_circuit(WalkConfig(width, s, design=design))
        if period is not None:
            circuit = with_zeno_measurements(circuit, period)
        out.append(run_positions(circuit, shots, noise=noise, base_seed=base_seed))
    return out


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for s, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and np.array_equal(g, w), s


@pytest.mark.parametrize("width", [3, 4])  # binary gains its ancilla at 4
@pytest.mark.parametrize("design", PREFIX_DESIGNS)
def test_ideal_step_sweep_evolves_once_and_samples_each_step_count(design, width, monkeypatch):
    # 7 cuts of 40 shots in chunks of 64 uniforms, one per shot: four full chunks and a
    # partial one, each applying once the ops up to its furthest cut.
    monkeypatch.setattr(engine, "CHUNK_DRAWS", 64)
    applied, chunks = spy_on_unitaries(monkeypatch), spy_on_chunks(monkeypatch)
    full = build_circuit(WalkConfig(width, 6, design=design))
    seeds = [derive_seed(8, s) for s in range(7)]
    got = engine.run_step_positions(full, 40, seeds)
    assert chunks == [64] * 4 + [24]
    shot_marks = np.repeat([0, *full.steps_marks], 40)
    assert applied == [op for end in np.cumsum(chunks) for op in full.ops[: shot_marks[end - 1]]]
    # Against the per-shot oracle, which shares no sampling code with the sweep ...
    for mark, positions, seed in zip([0, *full.steps_marks], got, seeds):
        cut = Circuit(full.n_qubits, full.counter, ops=full.ops[:mark])
        assert np.array_equal(positions, oracle_positions(cut, 40, base_seed=seed)), mark
    # ... and against run_positions of each step count's own circuit.
    assert_same_arrays(got, each_step_count(design, width, 6, 40, seeds))


@pytest.mark.parametrize("width", [3, 5])
def test_ideal_binary_sweep_gathers_each_step_once(width, monkeypatch):
    # Every binary step is the same span of X, CNOT and TOFFOLI ops, which no cut parts:
    # one gather index is composed, and the one chunk takes one gather per step.
    applied, composed, gathered = [], [], []
    monkeypatch.setattr(engine, "apply_unitary", lambda amps, op: applied.append(op))
    monkeypatch.setattr(engine, "gather_index",
                        lambda n, ops: composed.append(ops) or gather_index(n, ops))
    monkeypatch.setattr(engine, "gather", lambda amps, g: gathered.append(g) or gather(amps, g))
    full = build_circuit(WalkConfig(width, 6, design="binary"))
    seeds = [derive_seed(19, s) for s in range(7)]
    got = engine.run_step_positions(full, 40, seeds)
    step = full.ops[: full.steps_marks[0]]
    assert len(step) > 1 and full.ops == 6 * step
    assert applied == [] and composed == [tuple(step)] and len(gathered) == 6
    assert_cuts_match_oracle(full, got, 40, seeds, None)


def test_ideal_step_sweep_runs_every_cut_in_one_chunk_and_one_uniform_block(monkeypatch):
    # No MEASURE or RESET: all 7 cuts' 280 shots retire from one shared row inside one
    # chunk, whose uniforms come from one vectorized block.
    chunks, blocks, uniforms = spy_on_chunks(monkeypatch), [], engine._uniforms

    def spy(seeds, k):
        blocks.append((len(seeds), k))
        return uniforms(seeds, k)

    monkeypatch.setattr(engine, "_uniforms", spy)
    full = build_circuit(WalkConfig(3, 6, design="arc_walk"))
    assert all(op.is_unitary for op in full.ops)
    seeds = [derive_seed(18, s) for s in range(7)]
    got = engine.run_step_positions(full, 40, seeds)
    assert chunks == [280] and blocks == [(280, 1)]
    assert_cuts_match_oracle(full, got, 40, seeds, None)


@pytest.mark.parametrize("design", PREFIX_DESIGNS)
def test_zeno_step_sweep_shares_one_row_until_the_first_measure(design, monkeypatch):
    # Period 3 measures after step 3. Every cut's shots run as one chunk of 168 shots
    # from |0...0>: the ops before that first MEASURE are evolved once on the shared row,
    # the rest of the longest prefix once on the rows it parts into, and each cut's shots
    # retire at its mark.
    applied, chunks = spy_on_unitaries(monkeypatch), spy_on_chunks(monkeypatch)
    full = with_zeno_measurements(build_circuit(WalkConfig(3, 6, design=design)), 3)
    marks = [0, *full.steps_marks]
    seeds = [derive_seed(10, s) for s in range(7)]
    got = engine.run_step_positions(full, 24, seeds)
    assert chunks == [24 * 7]
    first = next(i for i, op in enumerate(full.ops) if not op.is_unitary)
    assert marks[2] < first < marks[3]
    batch = [op for op in full.ops[first : marks[-1]] if op.is_unitary]
    assert applied == full.ops[:first] + batch
    assert_same_arrays(got, each_step_count(design, 3, 6, 24, seeds, period=3))


@pytest.mark.parametrize(
    "noise,period",
    [(DEFAULT_NOISE, None), (None, 2), (DEFAULT_NOISE, 2)],
    ids=["noisy", "zeno", "noisy_zeno"],
)
@pytest.mark.parametrize("design", PREFIX_DESIGNS)
def test_step_sweep_runs_each_cut_when_shots_draw_between_gates(design, noise, period):
    full = build_circuit(WalkConfig(3, 4, design=design))
    if period is not None:
        full = with_zeno_measurements(full, period)
    seeds = [derive_seed(9, s) for s in range(5)]
    got = engine.run_step_positions(full, 24, seeds, noise=noise)
    assert_same_arrays(got, each_step_count(design, 3, 4, 24, seeds, noise=noise, period=period))


KICKS = "kicks"  # a noisy_apply call in the list spy_on_noisy_gates returns


def spy_on_noisy_gates(monkeypatch):
    """The ops the engine runs through ``apply_unitary`` and its ``noisy_apply`` calls
    (``KICKS``), in order."""
    applied, apply_unitary, noisy_apply = [], engine.apply_unitary, engine.noisy_apply

    def spy_gate(rows, op):
        applied.append(op)
        return apply_unitary(rows, op)

    def spy_kicks(rows, cls, kicks):
        applied.append(KICKS)
        return noisy_apply(rows, cls, kicks)

    monkeypatch.setattr(engine, "apply_unitary", spy_gate)
    monkeypatch.setattr(engine, "noisy_apply", spy_kicks)
    return applied


def spy_on_basis(monkeypatch):
    """The (kind, targets) of every ``permute_basis`` call the engine makes, in order."""
    moved, real = [], engine.permute_basis

    def spy(idx, kind, targets):
        moved.append((kind, targets))
        return real(idx, kind, targets)

    monkeypatch.setattr(engine, "permute_basis", spy)
    return moved


def assert_cuts_match_oracle(full, got, shots, seeds, noise):
    for mark, positions, seed in zip([0, *full.steps_marks], got, seeds):
        cut = Circuit(full.n_qubits, full.counter, ops=full.ops[:mark])
        assert np.array_equal(positions, oracle_positions(cut, shots, noise, base_seed=seed)), mark


@pytest.mark.parametrize("design", PREFIX_DESIGNS)
def test_noisy_step_sweep_runs_every_cut_in_one_batch(design, monkeypatch):
    # Every cut's shots run together: each op of the longest prefix runs once, and a
    # cut's shots retire at its mark. A binary circuit's ops all permute basis states,
    # so each moves the shots' basis indices in one permute_basis call and no dense
    # kernel runs; on the other designs each op runs, then noisy_apply once.
    chunks, gates = spy_on_chunks(monkeypatch), spy_on_noisy_gates(monkeypatch)
    moved = spy_on_basis(monkeypatch)
    full = build_circuit(WalkConfig(3, 4, design=design))
    marks, seeds = [0, *full.steps_marks], [derive_seed(12, s) for s in range(5)]
    got = engine.run_step_positions(full, 24, seeds, noise=NOISY)
    assert chunks == [24 * len(marks)]
    if design == "binary":
        assert moved == [(op.kind, op.targets) for op in full.ops[: marks[-1]]]
        assert gates == []
    else:
        assert gates == [step for op in full.ops[: marks[-1]] for step in (op, KICKS)]
        assert moved == []
    assert_same_arrays(got, each_step_count(design, 3, 4, 24, seeds, noise=NOISY))
    assert_cuts_match_oracle(full, got, 24, seeds, NOISY)


@pytest.mark.parametrize(
    "noise,period", [(NOISY, None), (None, 2)], ids=["noisy", "ideal_zeno"]
)
def test_step_sweep_chunk_ends_inside_a_cut(noise, period, monkeypatch):
    # 5 cuts of 24 shots in chunks of 10: chunk boundaries fall inside cuts, and a
    # chunk's shots of different cuts still retire at their own marks. A noisy chunk
    # is capped by CHUNK_AMPS, an ideal one by CHUNK_DRAWS.
    full = build_circuit(WalkConfig(3, 4, design="arc_walk"))
    if period is not None:
        full = with_zeno_measurements(full, period)
    if noise is None:
        monkeypatch.setattr(engine, "CHUNK_DRAWS", 10 * uniforms_per_shot(full))
    else:
        monkeypatch.setattr(engine, "CHUNK_AMPS", 10 << full.n_qubits)
    chunks = spy_on_chunks(monkeypatch)
    seeds = [derive_seed(14, s) for s in range(5)]
    got = engine.run_step_positions(full, 24, seeds, noise=noise)
    assert chunks == [10] * 12
    assert_same_arrays(got, each_step_count("arc_walk", 3, 4, 24, seeds, noise, period))
    assert_cuts_match_oracle(full, got, 24, seeds, noise)


@pytest.mark.parametrize(
    "noise,period", [(NOISY, None), (None, 1)], ids=["noisy", "ideal_zeno"]
)
def test_step_sweep_cut_seeds_may_overlap(noise, period):
    # Cut j + 1 starts 3 seeds after cut j, so most shot seeds recur across cuts: each
    # shot still draws from its own cut's seed plus its index.
    full = build_circuit(WalkConfig(3, 4, design="binary"))
    if period is not None:
        full = with_zeno_measurements(full, period)
    seeds = [40 + 3 * s for s in range(5)]
    got = engine.run_step_positions(full, 8, seeds, noise=noise)
    assert_same_arrays(got, each_step_count("binary", 3, 4, 8, seeds, noise, period))
    assert_cuts_match_oracle(full, got, 8, seeds, noise)


def test_noisy_cascading_sweep_retires_shots_between_resets():
    full = build_circuit(WalkConfig(3, 5, design="random_jump_cascading", seed=3))
    resets = [i for i, op in enumerate(full.ops) if op.kind == "RESET"]
    assert any(resets[0] < mark < resets[-1] for mark in full.steps_marks)
    seeds = [derive_seed(16, s) for s in range(full.n_steps + 1)]
    got = engine.run_step_positions(full, 24, seeds, noise=NOISY)
    assert_cuts_match_oracle(full, got, 24, seeds, NOISY)


def test_step_sweep_validation():
    full = build_circuit(WalkConfig(3, 2, design="arc"))
    with pytest.raises(ConfigError, match="need 3 base seeds, one per cut, got 2"):
        engine.run_step_positions(full, 5, [0, 1])
    with pytest.raises(ConfigError, match="nonnegative"):
        engine.run_step_positions(full, 5, [0, -1, 2])
    with pytest.raises(ConfigError, match="positive"):
        engine.run_step_positions(full, 0, [0, 1, 2])


@pytest.mark.parametrize("n_qubits", [MAX_QUBITS + 1, 64])
@pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["ideal", "noisy"])
def test_step_sweep_rejects_a_wide_register_before_allocating(n_qubits, noise, monkeypatch):
    # An amplitude array of 2**64 entries cannot be made, so only a check made first
    # raises OutOfRangeError; at MAX_QUBITS + 1 no op may be applied either. Every
    # entry shares the one check.
    monkeypatch.setattr(engine, "apply_unitary", lambda amps, op: pytest.fail("evolved"))
    circuit = Circuit(n_qubits=n_qubits, counter=range(0, 3))
    circuit.add(GateOp.x(n_qubits - 1))
    circuit.mark_step()
    circuit.validate()
    for run in (
        lambda: engine.run_step_positions(circuit, 5, [0, 1], noise=noise),
        lambda: run_positions(circuit, 5, noise=noise),
        lambda: engine.run_single_shot(circuit, 0, noise=noise),
    ):
        with pytest.raises(OutOfRangeError, match=f"got {n_qubits}"):
            run()
