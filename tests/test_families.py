"""Circuit families against the per-shot oracle.

A family is a list of circuits with one op-kind skeleton: at each position every
circuit holds an op of one kind, unitary targets and angles may differ, MEASURE and
RESET ops are shared, and a circuit may end early. The engine runs a family as one
batch, with a start row per circuit, and its chunks are capped by the rows they
hold. Each member's positions must equal those of the oracle, which
runs every shot of that circuit alone.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcwalk import Circuit, ConfigError, GateOp, WalkConfig, build_circuit, engine
from arcwalk.circuits import with_zeno_measurements
from arcwalk.engine import run_family, run_positions
from arcwalk.sim import apply_rows, apply_unitary, gather_index, measure_rows
from reference import oracle_positions
from test_batched_engine import NOISY, spy_on_basis

ARITY = {"X": 1, "H": 1, "RX": 1, "T": 1, "TDG": 1, "MEASURE": 1, "RESET": 1,
         "CNOT": 2, "CRX": 2, "SWAP": 2, "TOFFOLI": 3}
# Seeds near 2**32 enter SeedSequence as two words; shot seeds past 2**64 take the
# engine's per-shot path.
SEED_BASES = (0, 2**32 - 6, 2**64 - 6)
PERMUTATIONS = ("X", "CNOT", "SWAP", "TOFFOLI")


@st.composite
def families(draw, kinds=tuple(ARITY)):
    """(circuits, cuts, seeds, shots): 1-4 circuits of one skeleton of ``kinds`` on 1-6
    qubits, each cut at 1-3 ascending prefix lengths, with one base seed per cut. A
    MEASURE or RESET is shared, and so is a drawn share of the other positions, so that
    shared ops sit next to differing ones. A member's length, and then its top cut, is
    the whole of what it may hold about half the time, so that few cuts part its ops."""
    n = draw(st.integers(1, 6))
    kinds = sorted(kind for kind in kinds if ARITY[kind] <= n)
    skeleton = draw(st.lists(st.sampled_from(kinds), max_size=10))
    members = [[] for _ in range(draw(st.integers(1, 4)))]

    def op(kind):
        targets = draw(st.permutations(range(n)))[: ARITY[kind]]
        theta = draw(st.sampled_from([0.3, 1.1, 2.5])) if kind in ("RX", "CRX") else None
        return GateOp(kind, tuple(targets), theta)

    for kind in skeleton:
        shared = None
        if kind in ("MEASURE", "RESET") or draw(st.booleans()):
            shared = op(kind)
        for ops in members:
            ops.append(op(kind) if shared is None else shared)
    circuits, cuts, seeds = [], [], []
    base = draw(st.sampled_from(SEED_BASES))
    for ops in members:
        length = draw(st.sampled_from([len(ops), draw(st.integers(0, len(ops)))]))
        circuit = Circuit(n, range(0, n))
        circuit.add(*ops[:length])
        circuits.append(circuit.validate())
        top = draw(st.sampled_from([length, draw(st.integers(0, length))]))
        cuts.append(sorted({top, *draw(st.sets(st.integers(0, top), max_size=2))}))
        seeds.append([base + draw(st.integers(0, 20)) for _ in cuts[-1]])
    return circuits, cuts, seeds, draw(st.integers(1, 6))


@st.composite
def permutation_runs(draw, uncut=False):
    """(circuits, cuts, seeds, shots) as ``families`` gives them: 2-4 circuits on 2-6
    qubits that share one layer, then run 2-10 X, CNOT, SWAP and TOFFOLI ops, each
    shared or drawn per member, and at least one drawn per member, so that a member that
    ran another's permutation at a differing position would sample other positions.
    The layer is RX with angles that differ by qubit, so the basis states'
    probabilities nearly all differ, and each member is cut at its end and at 0-3
    points inside the run. ``uncut`` members are cut at their end alone, so that one
    gather could span the whole run, and their layer is H on a drawn proper subset of
    the qubits: a uniform state over the basis states whose other qubits read 0, which
    most permutations move (H on every qubit is uniform over all basis states, which
    no permutation moves)."""
    n = draw(st.integers(2, 6))
    kinds = [kind for kind in PERMUTATIONS if ARITY[kind] <= n]
    if uncut:
        layer = [GateOp.h(q) for q in sorted(draw(st.sets(st.integers(0, n - 1),
                                                          max_size=n - 1)))]
    else:
        layer = [GateOp.rx(q, 0.4 + 0.5 * q) for q in range(n)]
    members = [list(layer) for _ in range(draw(st.integers(2, 4)))]
    skeleton = draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=10))
    differ = draw(st.sets(st.integers(0, len(skeleton) - 1), min_size=1))

    def op(kind):
        return GateOp(kind, tuple(draw(st.permutations(range(n)))[: ARITY[kind]]))

    for j, kind in enumerate(skeleton):
        shared = None if j in differ else op(kind)
        for ops in members:
            ops.append(op(kind) if shared is None else shared)
    circuits, cuts, seeds = [], [], []
    base = draw(st.sampled_from(SEED_BASES))
    for ops in members:
        circuits.append(Circuit(n, range(0, n), ops=ops).validate())
        inside = set() if uncut else draw(st.sets(st.integers(len(layer) + 1, len(ops) - 1),
                                                  max_size=3))
        cuts.append(sorted({len(ops), *inside}))
        seeds.append([base + draw(st.integers(0, 20)) for _ in cuts[-1]])
    return circuits, cuts, seeds, draw(st.integers(4, 12))


@st.composite
def measure_runs(draw):
    """(circuits, cuts, seeds, shots) as ``families`` gives them: 1-3 circuits on 1-5
    qubits, each an RX layer, then 1-3 runs of 2-6 MEASUREs (a qubit may repeat inside
    a run), each ended by a RESET, by another RX layer or by the circuit's end. Each RX
    is shared or drawn per member, so that a family's rows may carry their circuit as
    owner. A member may end early, and its cuts fall inside runs about half the time,
    as a ``run_step_positions`` mark may."""
    n = draw(st.integers(1, 5))
    members = [[] for _ in range(draw(st.integers(1, 3)))]
    angles = st.sampled_from([0.3, 1.1, 2.5])

    def add(op):
        for ops in members:
            ops.append(op)

    def layer():
        for q in range(n):
            theta = draw(st.one_of(st.none(), angles))
            for ops in members:
                ops.append(GateOp.rx(q, draw(angles) if theta is None else theta))

    layer()
    for _ in range(draw(st.integers(1, 3))):
        for q in draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=6)):
            add(GateOp.measure(q))
        end = draw(st.sampled_from(["RESET", "RX", "end"]))
        if end == "end":
            break
        if end == "RESET":
            add(GateOp.reset(draw(st.integers(0, n - 1))))
        else:
            layer()
    circuits, cuts, seeds = [], [], []
    base = draw(st.sampled_from(SEED_BASES))
    for ops in members:
        length = draw(st.sampled_from([len(ops), draw(st.integers(0, len(ops)))]))
        circuits.append(Circuit(n, range(0, n), ops=ops[:length]).validate())
        inside = [j for j in range(1, length) if ops[j - 1].kind == ops[j].kind == "MEASURE"]
        top = draw(st.sampled_from([length, *inside[-1:]]))
        extra = draw(st.sets(st.sampled_from([0, *inside]), max_size=2))
        cuts.append(sorted({top, *(c for c in extra if c <= top)}))
        seeds.append([base + draw(st.integers(0, 20)) for _ in cuts[-1]])
    return circuits, cuts, seeds, draw(st.integers(2, 12))


def small_chunks(mp, n, rows, draws, window):
    mp.setattr(engine, "CHUNK_AMPS", rows << n)
    mp.setattr(engine, "CHUNK_DRAWS", draws)
    mp.setattr(engine, "WINDOW_COLUMNS", window)


def assert_members_match_oracle(got, circuits, cuts, seeds, shots, noise):
    want = [
        oracle_positions(Circuit(c.n_qubits, c.counter, ops=c.ops[:cut]), shots, noise,
                         base_seed=seed)
        for c, run, run_seeds in zip(circuits, cuts, seeds)
        for cut, seed in zip(run, run_seeds)
    ]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@settings(max_examples=120, deadline=None)
@given(case=families(), noisy=st.booleans(), rows=st.integers(1, 3),
       draws=st.integers(1, 40), window=st.integers(1, 8))
def test_every_member_matches_the_per_shot_oracle(case, noisy, rows, draws, window):
    circuits, cuts, seeds, shots = case
    noise = NOISY if noisy else None
    with pytest.MonkeyPatch.context() as mp:
        small_chunks(mp, circuits[0].n_qubits, rows, draws, window)
        got = engine._sweep(circuits, cuts, shots, seeds, noise)
    assert_members_match_oracle(got, circuits, cuts, seeds, shots, noise)


@settings(max_examples=60, deadline=None)
@given(case=permutation_runs())
def test_ideal_spans_stop_at_differing_positions(case):
    # A gather span of shared permutation ops must not take in a differing position,
    # where each member runs its own op, whether or not a cut falls inside the run.
    circuits, cuts, seeds, shots = case
    got = engine._sweep(circuits, cuts, shots, seeds, None)
    assert_members_match_oracle(got, circuits, cuts, seeds, shots, None)


@settings(max_examples=60, deadline=None)
@given(case=permutation_runs(uncut=True))
def test_an_uncut_span_stops_at_differing_positions(case):
    # No cut parts the run, so only the differing positions can end its spans.
    circuits, cuts, seeds, shots = case
    got = engine._sweep(circuits, cuts, shots, seeds, None)
    assert_members_match_oracle(got, circuits, cuts, seeds, shots, None)


@settings(max_examples=100, deadline=None)
@given(case=measure_runs(), noisy=st.booleans(), rows=st.integers(1, 3),
       draws=st.integers(1, 40), window=st.integers(1, 8))
def test_runs_of_measures_match_the_per_shot_oracle(case, noisy, rows, draws, window):
    # Rows merge once per run of MEASUREs, at its end: before a RESET, an RX, a cut or
    # the circuit's end. In between, equal rows stay apart and may hold -0.0, and groups
    # may split on them; every position must still equal the oracle's.
    circuits, cuts, seeds, shots = case
    noise = NOISY if noisy else None
    with pytest.MonkeyPatch.context() as mp:
        small_chunks(mp, circuits[0].n_qubits, rows, draws, window)
        got = engine._sweep(circuits, cuts, shots, seeds, noise)
    assert_members_match_oracle(got, circuits, cuts, seeds, shots, noise)


def no_dense_kernel(mp):
    """Make every dense kernel of the engine fail the test if it is called."""
    for name in ("apply_unitary", "apply_rows", "noisy_apply", "measure_rows", "gather"):
        mp.setattr(engine, name, lambda *args, name=name: pytest.fail(f"{name} was called"))


@settings(max_examples=80, deadline=None)
@given(case=families(PERMUTATIONS), rows=st.integers(1, 3), draws=st.integers(1, 40),
       window=st.integers(1, 8))
def test_noisy_permutation_family_runs_on_basis_indices(case, rows, draws, window):
    # Every op is X, CNOT, SWAP or TOFFOLI, and every Pauli kick a signed permutation,
    # so each noisy shot stays on one basis state up to a phase: its index alone runs,
    # with no amplitude row, and its readout flips (0.05) still apply.
    circuits, cuts, seeds, shots = case
    with pytest.MonkeyPatch.context() as mp:
        small_chunks(mp, circuits[0].n_qubits, rows, draws, window)
        no_dense_kernel(mp)
        got = engine._sweep(circuits, cuts, shots, seeds, NOISY)
    assert_members_match_oracle(got, circuits, cuts, seeds, shots, NOISY)


def permutation_family(extra=None):
    """Two 3-qubit circuits of X, CNOT, SWAP and TOFFOLI ops that differ at their CNOT
    and SWAP positions, with ``extra`` spliced in after the CNOT when given."""
    circuits = []
    for cnot, swap in [(GateOp.cnot(0, 1), GateOp.swap(1, 2)),
                       (GateOp.cnot(0, 2), GateOp.swap(0, 1))]:
        ops = [GateOp.x(0), cnot, GateOp.toffoli(0, 1, 2), swap, GateOp.x(1),
               GateOp.toffoli(2, 1, 0)]
        if extra is not None:
            ops.insert(2, extra)
        circuits.append(Circuit(3, range(0, 3), ops=ops * 2).validate())
    return circuits


def test_noisy_permutation_family_moves_indices_once_per_position(monkeypatch):
    # One permute_basis call per position, with per-shot target arrays where the
    # members differ, and no dense kernel call.
    circuits = permutation_family()
    moved = spy_on_basis(monkeypatch)
    no_dense_kernel(monkeypatch)
    got = run_family(circuits, 30, [5, 2**64 - 40], NOISY)
    assert [kind for kind, _ in moved] == [op.kind for op in circuits[0].ops]
    for (_, targets), a, b in zip(moved, circuits[0].ops, circuits[1].ops):
        if a == b:
            assert targets == a.targets
        else:  # one array per target, one entry per shot: 30 of each circuit
            assert [t.tolist() for t in targets] == [[ta] * 30 + [tb] * 30
                                                     for ta, tb in zip(a.targets, b.targets)]
    for circuit, seed, positions in zip(circuits, [5, 2**64 - 40], got):
        assert np.array_equal(positions, oracle_positions(circuit, 30, NOISY, base_seed=seed))


@pytest.mark.parametrize("extra", [GateOp.h(1), GateOp.rx(2, 1.1), GateOp.measure(0)],
                         ids=["H", "RX", "MEASURE"])
def test_one_dense_op_keeps_a_noisy_permutation_family_on_rows(extra, monkeypatch):
    # An H, RX or MEASURE among the permutation ops can leave a shot in a superposition,
    # so the chunk runs on amplitude rows, and still matches the oracle.
    circuits = permutation_family(extra)
    moved, rows = spy_on_basis(monkeypatch), spy_on_rows(monkeypatch)
    got = run_family(circuits, 30, [9, 2**32 - 3], NOISY)
    assert moved == [] and rows
    for circuit, seed, positions in zip(circuits, [9, 2**32 - 3], got):
        assert np.array_equal(positions, oracle_positions(circuit, 30, NOISY, base_seed=seed))


@pytest.mark.parametrize("noise", [None, NOISY], ids=["ideal", "noisy"])
def test_rows_start_apart_by_circuit_and_merge_only_within_one(noise):
    # Each circuit starts on a row of its own. After the resets and the MEASURE both
    # circuits' rows are |000>, byte for byte, but they stay apart, since their last
    # ops differ.
    a, b = Circuit(3, range(0, 3)), Circuit(3, range(0, 3))
    a.add(GateOp.x(1), GateOp.reset(1), GateOp.reset(2), GateOp.measure(0), GateOp.x(0))
    b.add(GateOp.x(2), GateOp.reset(1), GateOp.reset(2), GateOp.measure(0), GateOp.x(1))
    got = run_family([a.validate(), b.validate()], 40, [0, 50], noise)
    if noise is None:
        assert got[0].tolist() == [1] * 40 and got[1].tolist() == [2] * 40
    assert np.array_equal(got[0], oracle_positions(a, 40, noise, base_seed=0))
    assert np.array_equal(got[1], oracle_positions(b, 40, noise, base_seed=50))


def spy_on_rows(monkeypatch):
    """The row count of every chunk or group each kernel call runs on."""
    held = []

    def spy(kernel):
        def call(amps, *args):
            held.append(len(amps))
            return kernel(amps, *args)
        return call

    for name, kernel in [("apply_unitary", apply_unitary), ("measure_rows", measure_rows),
                         ("apply_rows", apply_rows)]:
        monkeypatch.setattr(engine, name, spy(kernel))
    return held


def parting(n, lead=None):
    """H on every qubit, then a MEASURE of each: every shot may part onto its own row."""
    circuit = Circuit(n, range(0, n))
    if lead is not None:
        circuit.add(lead)
    circuit.add(*(GateOp.h(q) for q in range(n)), *(GateOp.measure(q) for q in range(n)))
    return circuit.validate()


@pytest.mark.parametrize("members", [1, 6], ids=["one", "six"])
def test_row_parting_family_keeps_every_group_within_the_cap(members, monkeypatch):
    # 4 rows of 5 qubits per chunk or group: the first MEASUREs part the rows beyond it,
    # and a six-circuit family starts on six rows, one per circuit.
    n, cap, shots = 5, 4, 60
    monkeypatch.setattr(engine, "CHUNK_AMPS", cap << n)
    circuits = [parting(n)] if members == 1 else [parting(n, GateOp.x(c % n)) for c in range(6)]
    held = spy_on_rows(monkeypatch)
    got = run_family(circuits, shots, [7 + 100 * c for c in range(members)])
    assert held and max(held) <= cap
    for c, (circuit, positions) in enumerate(zip(circuits, got)):
        assert np.array_equal(positions, oracle_positions(circuit, shots, base_seed=7 + 100 * c))


def test_a_wide_family_builds_its_rows_group_by_group(monkeypatch):
    # 48 circuits of 12 qubits (64 KiB a row) under a cap of 2 rows: each group's start
    # rows are built when it runs, and a collapse's groups are copies, so the run never
    # holds the 48 rows, one per circuit, at once (3 MiB). Its peak, temporaries and all,
    # stays under 24 rows; the first run fills the pair-table caches.
    n, cap, shots = 12, 2, 3
    circuits = []
    for c in range(48):
        circuit = Circuit(n, range(0, n))
        circuit.add(GateOp.h(0), GateOp.cnot(0, 1 + c % (n - 1)), GateOp.measure(0), GateOp.h(0))
        circuits.append(circuit.validate())
    seeds = [11 * c for c in range(48)]
    monkeypatch.setattr(engine, "CHUNK_AMPS", cap << n)
    run_family(circuits, shots, seeds)
    tracemalloc.start()
    try:
        got = run_family(circuits, shots, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * cap * (16 << n)
    for circuit, seed, positions in zip(circuits, seeds, got):
        assert np.array_equal(positions, oracle_positions(circuit, shots, base_seed=seed))


def test_family_of_one_builds_no_variant_tables(monkeypatch):
    # The same ops in every member is a family with no differing position, run like one
    # circuit; so is one circuit.
    tables = []
    monkeypatch.setattr(engine, "apply_rows", lambda *args: tables.append(args))
    circuit = build_circuit(WalkConfig(4, 3, design="random_jump_cascading", seed=3))
    alone = run_positions(circuit, 20, base_seed=5)
    twice = run_family([circuit, circuit], 20, [5, 5])
    assert not tables
    assert np.array_equal(twice[0], alone) and np.array_equal(twice[1], alone)


def test_noisy_family_permutes_its_differing_positions_in_one_call(monkeypatch):
    # Noise is a step after each op: a differing CNOT position of a noisy family runs
    # as one per-row gather, as when ideal, and the kicks follow.
    tables, real = [], apply_rows
    monkeypatch.setattr(engine, "apply_rows",
                        lambda amps, ops, which: tables.append(ops) or real(amps, ops, which))
    circuits = [build_circuit(WalkConfig(3, 6, design="random_jump", seed=s)) for s in range(4)]
    differ = [j for j in range(6 * 2) if len({c.ops[j] for c in circuits}) > 1]
    seeds = [13 * c for c in range(len(circuits))]
    got = run_family(circuits, 25, seeds, NOISY)
    assert differ and len(tables) == len(differ)
    assert all(op.kind == "CNOT" for ops in tables for op in ops)
    for circuit, seed, positions in zip(circuits, seeds, got):
        assert np.array_equal(positions, oracle_positions(circuit, 25, NOISY, base_seed=seed))


def test_a_differing_position_ends_a_span_of_shared_permutations(monkeypatch):
    # X(0) X(1), a CNOT that differs, then X(0) X(1) again: two equal spans of shared
    # ops, one gather index for both, and the CNOT runs per row between them.
    composed = []
    monkeypatch.setattr(engine, "gather_index",
                        lambda n, ops: composed.append(ops) or gather_index(n, ops))
    circuits = [Circuit(3, range(0, 3), ops=[GateOp.x(0), GateOp.x(1), cnot, GateOp.x(0),
                                             GateOp.x(1)]).validate()
                for cnot in (GateOp.cnot(0, 2), GateOp.cnot(2, 0))]
    got = run_family(circuits, 20, [3, 40])
    assert composed == [(GateOp.x(0), GateOp.x(1))]
    assert got[0].tolist() == [4] * 20 and got[1].tolist() == [0] * 20
    for circuit, seed, positions in zip(circuits, [3, 40], got):
        assert np.array_equal(positions, oracle_positions(circuit, 20, base_seed=seed))


def angle_family():
    """Members differing only in angles: arc at two base angles, and arc_walk at four
    angles with a Zeno MEASURE of every counter qubit after each step."""
    arc = [build_circuit(WalkConfig(3, 4, design="arc", base_angle=a)) for a in (0.7, 2.1)]
    walk = [with_zeno_measurements(build_circuit(WalkConfig(3, 3, design="arc_walk",
                                                            base_angle=a)), 1)
            for a in (0.4, 1.3, 2.2, 3.0)]
    return [arc, walk]


@pytest.mark.parametrize("circuits", angle_family(), ids=["arc", "zeno_arc_walk"])
@pytest.mark.parametrize("noise", [None, NOISY], ids=["ideal", "noisy"])
def test_angle_family_applies_each_differing_position_in_one_call(circuits, noise, monkeypatch):
    # RX and CRX positions whose angles differ run as one per-row kernel call each,
    # beside the shared MEASUREs.
    calls, real = [], apply_rows
    monkeypatch.setattr(engine, "apply_rows",
                        lambda amps, ops, which: calls.append(ops) or real(amps, ops, which))
    differ = [j for j in range(len(circuits[0].ops)) if len({c.ops[j] for c in circuits}) > 1]
    seeds = [31 * c for c in range(len(circuits))]
    got = run_family(circuits, 20, seeds, noise)
    assert differ and len(calls) == len(differ)
    assert {op.kind for ops in calls for op in ops} <= {"RX", "CRX"}
    for circuit, seed, positions in zip(circuits, seeds, got):
        assert np.array_equal(positions, oracle_positions(circuit, 20, noise, base_seed=seed))


@pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
def test_random_design_column_is_one_engine_call(noisy, monkeypatch):
    # Every circuit of every step count runs in one sweep.
    sweeps, real = [], engine._sweep
    monkeypatch.setattr(engine, "_sweep", lambda *args: sweeps.append(args) or real(*args))
    table = engine.distance_table(["random_jump_cascading"], 3, 3, seed=4, random_circuits=2,
                                  random_shots=5, noise=NOISY if noisy else None,
                                  noisy_cascading=True)
    assert len(sweeps) == 1 and len(sweeps[0][0]) == 4 * 2
    assert [cells["random_jump_cascading"].shots for _, cells in table.rows] == [10] * 4


def test_a_family_must_share_its_skeleton():
    a, b = Circuit(2, range(0, 2)), Circuit(2, range(0, 2))
    a.add(GateOp.x(0))
    b.add(GateOp.h(0))
    with pytest.raises(ConfigError, match="op 0 of a family's circuits differs"):
        run_family([a, b], 3, [0, 1])
    a.ops[0], b.ops[0] = GateOp.measure(0), GateOp.measure(1)
    with pytest.raises(ConfigError, match="op 0 of a family's circuits differs"):
        run_family([a, b], 3, [0, 1])
    with pytest.raises(ConfigError, match="one register width"):
        run_family([a, Circuit(3, range(0, 2))], 3, [0, 1])
    with pytest.raises(ConfigError, match="need 2 base seeds, one per circuit, got 1"):
        run_family([a, b], 3, [0])


def test_an_empty_family_runs_nothing():
    assert run_family([], 8, []) == []
    with pytest.raises(ConfigError, match="need 0 base seeds, one per circuit, got 1"):
        run_family([], 8, [1])
