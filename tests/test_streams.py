"""Vectorized per-shot streams against numpy's own generators.

``_uniforms`` and ``_pcg_states`` replay SeedSequence and PCG64 seeding (and
``_uniforms`` ``random()``) in numpy integer arithmetic, and ``KickTape`` replays
``random(k)`` and ``integers(3)`` on raw PCG64 outputs, ahead of the state. If
numpy changes any of them, these tests fail, so seeded outputs cannot change
without notice. Both draw sources the engine reads, ``UniformTape`` and
``KickTape``, are read here as the engine reads them.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcwalk import DEFAULT_NOISE, Circuit, GateOp, NoiseModel, WalkConfig, build_circuit, engine
from arcwalk import run_positions
from arcwalk.engine import CHUNK_DRAWS, CHUNK_SHOTS, WINDOW_COLUMNS, UniformTape, _shot_seeds
from arcwalk.engine import _pcg_states, _uniforms
from arcwalk.noise import KickTape, _injection_slots
from reference import oracle_positions


def numpy_rows(base_seed, shots, k):
    return np.array([np.random.default_rng(base_seed + i).random(k) for i in range(shots)])


@pytest.mark.parametrize(
    "base_seed,shots,k",
    [
        (0, 50_000, 1),
        (2**32 - 3_000, 6_000, 2),  # one word, then two, inside one call
        (0, 2_000, 7),
        (2**32 - 100, 200, 161),
        (2**64 - 3, 3, 7),  # the largest seed the vectorized path takes
        (2**64 - 3, 6, 2),  # crosses 2**64: words from SeedSequence itself
        (2**64 + 12_345, 4, 3),
    ],
)
def test_rows_equal_default_rng(base_seed, shots, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy warns on scalar uint64 overflow
        got = _uniforms(_shot_seeds([base_seed], shots), k)
    assert got.shape == (shots, k) and got.dtype == np.float64
    assert np.array_equal(got, numpy_rows(base_seed, shots, k))


def pcg_state(bit_generator):
    """The ``(state, inc)`` pair of a PCG64, as ``_pcg_states`` gives it."""
    state = bit_generator.state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1, 2**64 + 5,
                                  2**130])
def test_seeded_states_equal_pcg64(seed):
    # Seeds past uint64 come as Python ints and take their words from SeedSequence itself.
    seeds = np.array([seed], np.uint64 if seed < 2**64 else object)
    assert _pcg_states(seeds) == [pcg_state(np.random.PCG64(seed))]


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
def test_seeded_states_equal_pcg64_for_any_uint64_seeds(seeds):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _pcg_states(np.array(seeds, np.uint64))
    assert got == [pcg_state(np.random.PCG64(seed)) for seed in seeds]


PICKS = ((0, 1, 0), (3, 1, 1), (0, 0, 1))  # X, Y, Z as (phase, x / b, z / b)


def generator_draws(bit_generator, ops, model, stop, n):
    """What ``np.random.Generator(bit_generator)`` gives one shot that runs ``ops[:stop]``,
    read in the engine's order: {position: (phase, x, z)} of its kicks, folded in slot
    order; {position: uniform} of its MEASUREs and RESETs; and its retiring uniforms.
    After a RESET's uniform the shot draws the X's noise, whatever it reads."""
    gen, kicks, uniforms = np.random.Generator(bit_generator), {}, {}

    def noisy(j, op):
        slots = _injection_slots(op)
        p = [1.0 - (model.fidelity_2q if is_2q else model.fidelity_1q) for is_2q, _ in slots]
        errs = gen.random(len(slots)) < p
        phase = x = z = 0
        for (_, q), err in zip(slots, errs):
            if err:
                b, (dp, dx, dz) = 1 << q, PICKS[int(gen.integers(3))]
                phase, x, z = phase + dp + (2 if x & b * dz else 0), x ^ b * dx, z ^ b * dz
        if errs.any():  # kicks that compose to the identity still count
            kicks[j] = (phase & 3, x, z)

    for j, op in enumerate(ops[:stop]):
        if op.is_unitary:
            noisy(j, op)
            continue
        uniforms[j] = gen.random()
        if op.kind == "RESET":
            noisy(j, GateOp.x(op.targets[0]))
    return kicks, uniforms, gen.random(1 + n)


def tape_draws(tape, ops, stops):
    """The same, for every shot, read from ``tape`` as the engine reads it (``stops``
    ascending); a ``UniformTape`` has no kicks."""
    shots, live = len(stops), 0
    kicks, uniforms, retired = [{} for _ in stops], [{} for _ in stops], [None] * shots
    for j in range(len(ops) + 1):
        if j == tape.next:
            tape.resolve(j, live)
        end = int(np.searchsorted(stops, j, side="right"))
        if end > live:
            for s, row in zip(range(live, end), tape.retire(live, end)):
                retired[s] = row
            live = end
        if live == shots:
            break
        if not ops[j].is_unitary:
            for s, u in enumerate(tape.measure(j, live), start=live):
                uniforms[s][j] = u
        for s, phase, x, z in zip(*tape.kicks(j, live) or ()):  # a RESET's: every shot's X
            kicks[live + s][j] = (phase, x, z)
    return kicks, uniforms, retired


def assert_tape_matches_generators(states, twins, ops, model, stops, n, draws, spare):
    """The tape over the PCG64 ``(state, inc)`` pairs ``states`` against numpy Generators
    over ``twins``, bit generators in those states."""
    tape = KickTape(states, ops, {}, np.zeros(len(stops), np.intp), stops, model, n,
                    draws, spare)
    got = tape_draws(tape, ops, stops)
    for s, twin in enumerate(twins):
        kicks, uniforms, retired = generator_draws(twin, ops, model, stops[s], n)
        assert got[0][s] == kicks, s
        assert got[1][s] == uniforms, s
        assert np.array_equal(got[2][s], retired), s
    return got


@pytest.mark.parametrize("base_seed", [0, 2**32 - 5, 2**64 - 6])  # the last crosses 2**64
def test_uniform_tape_replays_default_rng(base_seed):
    # An ideal chunk's draws, read as the engine reads them, for the whole chunk and for a
    # group split off it: a shot's uniforms at its MEASUREs and RESETs, then its final
    # sample's, are default_rng(seed).random(k) column for column.
    ops = [GateOp.h(0), GateOp.measure(0), GateOp.x(1), GateOp.reset(1), GateOp.measure(0),
           GateOp.h(2), GateOp.reset(0)]
    stops = np.array([0, 1, 2, 2, 4, 5, 6, 7, 7])
    columns = np.cumsum([0] + [not op.is_unitary for op in ops]).tolist()
    seeds = _shot_seeds([base_seed], len(stops))
    tape = UniformTape(_uniforms(seeds, 1 + columns[-1]), columns, stops)
    assert (tape.next, tape.basis, tape.readout_flip) == (-1, False, 0.0)
    for idx in (np.arange(len(stops)), np.array([1, 3, 4, 7])):
        group = tape if len(idx) == len(stops) else tape.take(idx)
        kicks, uniforms, retired = tape_draws(group, ops, stops[idx])
        for s, i in enumerate(idx.tolist()):
            drawn = [*uniforms[s].values(), *retired[s]]
            assert kicks[s] == {} and len(drawn) == 1 + columns[stops[i]], i
            assert drawn == np.random.default_rng(int(seeds[i])).random(len(drawn)).tolist(), i


KINDS = (GateOp.x(0), GateOp.h(1), GateOp.cnot(0, 2), GateOp.swap(1, 2),
         GateOp.crx(2, 0, 0.4), GateOp.toffoli(0, 1, 2), GateOp.measure(1), GateOp.reset(2))


@pytest.mark.parametrize("width", [1, 2, 5, 64])
@pytest.mark.parametrize("base_seed", [0, 97, 2**32 - 3, 2**63 + 11])
def test_windows_replay_generator_draws(base_seed, width):
    # Random op lists, with kick-heavy noise so that odd pick counts carry a kept half
    # across gates, pieces cut by a small draw budget and spares of ``width`` outputs.
    shots, rng = 6, np.random.default_rng(base_seed % 1000 + width)
    for _ in range(4):
        ops = [KINDS[i] for i in rng.integers(0, len(KINDS), size=int(rng.integers(0, 30)))]
        stops = np.sort(rng.integers(0, len(ops) + 1, size=shots))
        model = NoiseModel(*rng.choice([0.5, 0.9, 1.0], size=2), 0.0)
        draws = int(rng.choice([1, 30, 100, CHUNK_DRAWS]))
        states = _pcg_states(_shot_seeds([base_seed], shots))
        twins = [np.random.PCG64(base_seed + i) for i in range(shots)]
        assert_tape_matches_generators(states, twins, ops, model, stops, 3, draws, width)


@pytest.mark.parametrize("k", [0, 1, 7, 256, 2**20])
@pytest.mark.parametrize("seed", [0, 2**63 + 11])
def test_seek_reads_one_continuous_stream(seed, k):
    # A tape reads a shot's block row with one PCG64 that takes the shot's seeded state
    # (has_uint32 0) and advance(k) past the k outputs it has used: what one stream
    # reads after k outputs, including after another shot's state was set in between.
    twin = np.random.PCG64(seed)
    state, inc = pcg_state(twin)
    seeded = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
              "has_uint32": 0, "uinteger": 0}
    bit_generator = np.random.PCG64(1)
    bit_generator.random_raw(3)
    bit_generator.state = seeded
    bit_generator.advance(k)
    twin.random_raw(k)
    assert np.array_equal(bit_generator.random_raw(300), twin.random_raw(300))


PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def state_before(outputs_next: int, inc: int) -> int:
    """The PCG64 LCG state whose next step outputs ``outputs_next``: inverts XSL-RR
    (output = rotr64(hi ^ lo, hi >> 58) of the stepped state) and one LCG step."""
    rot = 37
    hi = rot << 58 | 0x2A5A5A5A5A5A5A5
    xored = (outputs_next << rot | outputs_next >> (64 - rot)) & (2**64 - 1)
    stepped = hi << 64 | (xored ^ hi)
    return (stepped - inc) * pow(PCG64_MULT, -1, 2**128) % 2**128


def primed(outputs_next: int, inc: int = 0xDA3E39CB94B95BDB) -> np.random.PCG64:
    bit_generator = np.random.PCG64(0)
    state = {"state": state_before(outputs_next, inc), "inc": inc}
    bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0,
                           "uinteger": 0}
    return bit_generator


@pytest.mark.parametrize(
    "raw,reads",
    [
        (0xDEADBEEF_00000000, ["int", "int", "random", "int"]),  # low half 0: redrawn
        (0x00000000_9ABCDEF1, ["int", "random", "int", "int"]),  # kept half 0: redrawn
        (0, ["int", "int", "random", "int"]),  # both halves 0
        (0, ["random", "int", "int", "int"]),  # random() reads the 0 itself
    ],
)
def test_lemire_rejection_matches_generator(raw, reads):
    probe = primed(raw)
    assert int(probe.random_raw()) == raw
    # "int" is an X gate whose slot errs (its fidelity is about 0): a uniform, then a
    # pick; "random" is three MEASUREs. The primed word is the second output: the first
    # pick, or the first "random"'s second uniform.
    ops = [op for read in reads for op in
           ([GateOp.x(0)] if read == "int" else [GateOp.measure(0)] * 3)]

    def rewound():
        bit_generator = primed(raw)
        bit_generator.advance((1 << 128) - 1)  # one output back
        return bit_generator

    stops = np.array([len(ops)])
    model = NoiseModel(fidelity_1q=1e-12)
    kicks, uniforms, _ = assert_tape_matches_generators(
        [pcg_state(rewound())], [rewound()], ops, model, stops, 2, CHUNK_DRAWS, 1)
    assert len(kicks[0]) == reads.count("int")
    if reads[0] == "random":
        assert uniforms[0][1] == 0.0


def test_kick_heavy_toffolis_match_the_oracle():
    # Half of all 21 slots of each Toffoli err, so most gates kick an odd number of
    # times and the kept half crosses gates.
    circuit = Circuit(3, range(0, 3))
    circuit.add(GateOp.h(0), *[GateOp.toffoli(i % 3, (i + 1) % 3, (i + 2) % 3) for i in range(12)])
    noise = NoiseModel(0.5, 0.5, 0.1)
    got = run_positions(circuit.validate(), 40, noise=noise, base_seed=31)
    assert np.array_equal(got, oracle_positions(circuit, 40, noise, base_seed=31))


@pytest.mark.parametrize("base_seed", [7, 2**64 - 3])  # the second crosses 2**64
def test_noisy_measure_and_reset_match_the_oracle(base_seed):
    circuit = Circuit(3, range(0, 3))
    circuit.add(GateOp.h(0), GateOp.cnot(0, 1), GateOp.measure(1), GateOp.rx(2, 1.2),
                GateOp.reset(0), GateOp.toffoli(1, 2, 0), GateOp.reset(2), GateOp.h(2))
    noise = NoiseModel(0.6, 0.5, 0.05)
    got = run_positions(circuit.validate(), 6, noise=noise, base_seed=base_seed)
    assert np.array_equal(got, oracle_positions(circuit, 6, noise, base_seed=base_seed))


@pytest.mark.parametrize("fidelity", [1e-17, 2.0**-54])
def test_slots_that_always_err_match_the_oracle(fidelity, monkeypatch):
    # 1 - fidelity rounds to 1, so every 1q slot errs: its threshold is 2**64. A small
    # draw budget cuts a shot's 122 columns into pieces, so each shot seeks on in its
    # stream and carries its kept half across pieces, noisy RESETs among them.
    monkeypatch.setattr(engine, "CHUNK_DRAWS", 1 << 8)
    monkeypatch.setattr(engine, "WINDOW_COLUMNS", 1 << 2)
    opened, resolved = spy_on_tapes(monkeypatch), spy_on_pieces(monkeypatch)
    circuit = build_circuit(WalkConfig(2, 3, design="random_jump_cascading"))
    noise = NoiseModel(fidelity, 0.9, 0.02)
    assert 1.0 - noise.fidelity_1q == 1.0
    got = run_positions(circuit, 30, noise=noise, base_seed=3)
    assert len(opened) == 1 and len(resolved) > 1
    assert np.array_equal(got, oracle_positions(circuit, 30, noise, base_seed=3))


class CountedReads:
    """A bit generator that records the size of each ``random_raw`` read."""

    def __init__(self, bit_generator, reads):
        self.bit_generator, self.reads = bit_generator, reads

    @property
    def state(self):
        return self.bit_generator.state

    @state.setter
    def state(self, value):
        self.bit_generator.state = value

    def random_raw(self, size):
        self.reads.append(size)
        return self.bit_generator.random_raw(size)

    def advance(self, delta):
        return self.bit_generator.advance(delta)


def spy_on_tapes(monkeypatch):
    """Every tape the engine opens, with the size of each raw read (``reads``) and of
    each block it reads into (``blocks``)."""
    opened = []

    class Spy(KickTape):
        def __init__(self, *args):
            super().__init__(*args)
            self.reads, self.blocks = [], []
            self.gen = CountedReads(self.gen, self.reads)
            opened.append(self)

        def _read(self, s0, need):
            block, width, size = super()._read(s0, need)
            self.blocks.append(block.size)
            return block, width, size

    monkeypatch.setattr(engine, "KickTape", Spy)
    return opened


def spy_on_pieces(monkeypatch):
    """The tape of every piece the engine resolves, once per piece."""
    resolved, real = [], engine.KickTape.resolve
    monkeypatch.setattr(engine.KickTape, "resolve",
                        lambda tape, *args: resolved.append(tape) or real(tape, *args))
    return resolved


@pytest.mark.parametrize(
    "config,shots",
    [
        (WalkConfig(1, 100, design="arc"), CHUNK_SHOTS),  # many shots: CHUNK_DRAWS binds
        (WalkConfig(6, 4, design="binary"), 16),  # long draws: WINDOW_COLUMNS binds
        (WalkConfig(3, 0, design="arc"), 8),  # only readout draws
        # Noisy RESETs under a draw budget of 2 pieces per shot: every shot of a full
        # chunk seeks on in its stream between pieces.
        (WalkConfig(3, 2, design="random_jump_cascading"), 800),
    ],
)
def test_noisy_window_memory_is_bounded(config, shots, monkeypatch):
    # A tape reads each batch of shots into one block of at most CHUNK_DRAWS // 4 raw
    # outputs and holds none between pieces.
    if config.design == "random_jump_cascading":  # 84 columns per shot, 2 pieces
        monkeypatch.setattr(engine, "CHUNK_DRAWS", 1 << 8)
        monkeypatch.setattr(engine, "WINDOW_COLUMNS", 1 << 2)
    draws, window = engine.CHUNK_DRAWS, engine.WINDOW_COLUMNS
    opened = spy_on_tapes(monkeypatch)
    circuit = build_circuit(config)
    run_positions(circuit, shots, noise=NoiseModel(0.99, 0.97, 0.01), base_seed=5)
    assert opened
    for tape in opened:
        assert tape.spare <= window and max(tape.reads) <= draws // 4
        assert max(tape.blocks) <= draws // 4
    if config.design == "random_jump_cascading":
        full = (draws - draws // 4) // window  # 48 shots
        assert max(len(tape.states) for tape in opened) == full


def test_pieces_keep_reads_within_a_small_draw_budget(monkeypatch):
    # 2,700 columns per shot in pieces that each read at most 256 raw outputs, with the
    # outputs still those the oracle draws.
    monkeypatch.setattr(engine, "CHUNK_DRAWS", 1 << 10)
    monkeypatch.setattr(engine, "WINDOW_COLUMNS", 1 << 4)
    opened = spy_on_tapes(monkeypatch)
    circuit = build_circuit(WalkConfig(6, 4, design="binary"))
    got = run_positions(circuit, 12, noise=NoiseModel(0.99, 0.97, 0.01), base_seed=5)
    assert len(opened) == 1 and max(opened[0].reads) <= 1 << 8
    assert len(opened[0].reads) >= 3 * 12  # at least three pieces per shot
    assert np.array_equal(got, oracle_positions(circuit, 12, NoiseModel(0.99, 0.97, 0.01),
                                                base_seed=5))


def test_a_long_noisy_run_resolves_two_pieces_at_the_shipped_budget(monkeypatch):
    # A noisy binary counter at width 10 and 20 steps reads more columns per shot than
    # one block row of CHUNK_DRAWS // 4 holds, so with no budget patched each shot's
    # stream seeks on between two pieces.
    resolved = spy_on_pieces(monkeypatch)
    circuit = build_circuit(WalkConfig(10, 20, design="binary"))
    got = run_positions(circuit, 4, noise=DEFAULT_NOISE, base_seed=11)
    assert len(resolved) == 2
    assert np.array_equal(got, oracle_positions(circuit, 4, DEFAULT_NOISE, base_seed=11))


def test_noisy_resets_resolve_one_piece_per_chunk(monkeypatch):
    # Every shot draws a RESET's X noise, whatever it reads, so no draw waits on an
    # outcome: with no draw-budget split, each chunk's tape resolves one piece. Chunks
    # of 16 shots.
    circuit = build_circuit(WalkConfig(3, 4, design="random_jump_cascading", seed=2))
    monkeypatch.setattr(engine, "CHUNK_AMPS", 16 << circuit.n_qubits)
    opened, resolved = spy_on_tapes(monkeypatch), spy_on_pieces(monkeypatch)
    noise = NoiseModel(0.99, 0.97, 0.01)
    got = run_positions(circuit, 100, noise=noise, base_seed=9)
    assert sum(op.kind == "RESET" for op in circuit.ops) >= 4
    assert len(opened) == 7 and resolved == opened
    assert np.array_equal(got, oracle_positions(circuit, 100, noise, base_seed=9))
