"""Vectorized per-shot streams against numpy's own generators.

``_uniforms`` replays SeedSequence, PCG64 and ``random()`` in numpy integer
arithmetic, and ``ShotStreams`` replays ``random(k)`` and ``integers(3)`` on
raw PCG64 outputs. If numpy changes any of them, these tests fail, so seeded
outputs cannot change without notice.
"""

import warnings

import numpy as np
import pytest

from arcwalk import NoiseModel, WalkConfig, build_circuit, engine, run_positions
from arcwalk.engine import CHUNK_DRAWS, CHUNK_SHOTS, WINDOW_COLUMNS, _shot_seeds, _uniforms
from arcwalk.noise import ShotStreams


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
        (2**64 - 3, 6, 2),  # crosses 2**64: the default_rng fallback
        (2**64 + 12_345, 4, 3),
    ],
)
def test_rows_equal_default_rng(base_seed, shots, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy warns on scalar uint64 overflow
        got = _uniforms(_shot_seeds([base_seed], shots), k)
    assert got.shape == (shots, k) and got.dtype == np.float64
    assert np.array_equal(got, numpy_rows(base_seed, shots, k))



def replay(streams, gens, steps, rng):
    """Random interleaved reads, each checked against the streams' own Generators."""
    shots, widest = len(gens), 0
    for _ in range(steps):
        held = np.arange(shots)
        view = streams
        if rng.random() < 0.25:  # a view reads a subset through the same window
            held = np.sort(rng.choice(shots, size=int(rng.integers(1, shots)), replace=False))
            view = streams.view(held)
        if rng.random() < 0.5:
            k = int(rng.choice([1, 2, 3, 7, 21, 40]))
            widest = max(widest, k)
            want = np.array([gens[s].random(k) for s in held]).reshape(len(held), k)
            assert np.array_equal(view.random(k), want)
        else:  # odd and repeated draws per stream carry a kept half across reads
            at = rng.integers(0, len(held), size=int(rng.integers(0, 2 * shots + 2)))
            assert view.integers3(at) == [int(gens[held[i]].integers(3)) for i in at]
    return widest


@pytest.mark.parametrize("width", [1, 2, 5, 64])
@pytest.mark.parametrize("base_seed", [0, 97, 2**32 - 3, 2**63 + 11])
def test_windows_replay_generator_draws(base_seed, width):
    shots = 6
    streams = ShotStreams([np.random.PCG64(base_seed + i) for i in range(shots)], width)
    gens = [np.random.default_rng(base_seed + i) for i in range(shots)]
    rng = np.random.default_rng(base_seed % 1000 + width)
    widest = replay(streams, gens, 150, rng)
    # Refills keep the width; it grows only to the largest single read.
    assert streams._window.raw.shape[1] == max(width, widest)


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
    streams = ShotStreams([primed(raw)], 2)
    gen = np.random.Generator(primed(raw))
    for read in reads:
        if read == "int":
            assert streams.integers3(np.zeros(1, np.intp)) == [int(gen.integers(3))]
        else:
            assert np.array_equal(streams.random(3), gen.random((1, 3)))


@pytest.mark.parametrize(
    "config,shots",
    [
        (WalkConfig(1, 100, design="arc"), CHUNK_SHOTS),  # many shots: CHUNK_DRAWS binds
        (WalkConfig(6, 4, design="binary"), 16),  # long draws: WINDOW_COLUMNS binds
        (WalkConfig(3, 0, design="arc"), 8),  # only readout draws
    ],
)
def test_noisy_window_memory_is_bounded(config, shots, monkeypatch):
    opened = []

    class Spy(ShotStreams):
        def __init__(self, bit_generators, width):
            super().__init__(bit_generators, width)
            opened.append((len(bit_generators), width, self))

    monkeypatch.setattr(engine, "ShotStreams", Spy)
    circuit = build_circuit(config)
    run_positions(circuit, shots, noise=NoiseModel(0.99, 0.97, 0.01), base_seed=5)
    assert opened
    for streams_shots, width, streams in opened:
        assert streams_shots * width <= CHUNK_DRAWS and width <= WINDOW_COLUMNS
        widest_read = max(width, circuit.n_qubits, 21)  # readout, or a Toffoli's slots
        assert streams._window.raw.shape[1] <= widest_read
