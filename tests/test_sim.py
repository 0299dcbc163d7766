"""Statevector core: gates, measurement, collapse, conventions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcwalk import (
    DegenerateStateError,
    GateOp,
    InvalidTargetError,
    OutOfRangeError,
    StateVector,
)
from arcwalk.sim import MATRICES_1Q, apply_1q, apply_rows, apply_unitary, gather, gather_index
from arcwalk.sim import measure_rows, rx_matrix, sample_cdf

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_state(n_qubits: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    state = StateVector(n_qubits)
    v = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    state.amps[:] = v / np.linalg.norm(v)
    return state


def bell_state() -> StateVector:
    state = StateVector(2)
    state.apply_gate(GateOp.h(0))
    state.apply_gate(GateOp.cnot(0, 1))
    return state


class TestConstruction:
    def test_new_state_single_qubit(self):
        assert np.array_equal(StateVector(1).amps, [1, 0])

    def test_new_state_two_qubits(self):
        assert np.array_equal(StateVector(2).amps, [1, 0, 0, 0])

    def test_zero_qubits_rejected(self):
        with pytest.raises(OutOfRangeError):
            StateVector(0)

    def test_width_above_maximum_rejected(self):
        with pytest.raises(OutOfRangeError):
            StateVector(21)

    def test_from_basis(self):
        state = StateVector.from_basis(3, 5)
        assert state.amps[5] == 1.0
        assert state.norm_sq() == pytest.approx(1.0)
        with pytest.raises(OutOfRangeError):
            StateVector.from_basis(3, 8)


class TestGates:
    def test_hadamard_on_zero(self):
        state = StateVector(1)
        state.apply_gate(GateOp.h(0))
        assert np.allclose(state.amps, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_rx_pi_full_flip(self):
        state = StateVector(1)
        state.apply_gate(GateOp.rx(0, math.pi))
        assert abs(state.amps[0]) < 1e-15
        assert state.amps[1] == pytest.approx(1j, abs=1e-15)

    def test_bell_preparation(self):
        state = bell_state()
        assert np.allclose(state.amps, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)

    def test_toffoli_both_controls_set(self):
        # qubits 0 and 1 set, target qubit 2: index 3 -> index 7
        state = StateVector.from_basis(3, 0b011)
        state.apply_gate(GateOp.toffoli(0, 1, 2))
        assert state.amps[0b111] == 1.0

    def test_toffoli_one_control_unset(self):
        state = StateVector.from_basis(3, 0b001)
        state.apply_gate(GateOp.toffoli(0, 1, 2))
        assert state.amps[0b001] == 1.0

    def test_swap_basis(self):
        state = StateVector.from_basis(2, 0b01)
        state.apply_gate(GateOp.swap(0, 1))
        assert state.amps[0b10] == 1.0

    def test_crx_control_unset_is_identity(self):
        state = StateVector(2)
        state.apply_gate(GateOp.crx(0, 1, 1.23))
        assert state.amps[0] == 1.0

    def test_crx_control_set_rotates_target(self):
        state = StateVector.from_basis(2, 0b01)
        state.apply_gate(GateOp.crx(0, 1, math.pi))
        # target qubit 1 flips with an i phase, control stays set
        assert state.amps[0b11] == pytest.approx(1j, abs=1e-15)

    def test_duplicate_targets_rejected(self):
        with pytest.raises(InvalidTargetError):
            GateOp.cnot(1, 1)
        with pytest.raises(InvalidTargetError):
            GateOp.toffoli(0, 2, 2)

    def test_out_of_range_target_rejected(self):
        state = StateVector(2)
        with pytest.raises(InvalidTargetError):
            state.apply_gate(GateOp.x(2))

    def test_nonunitary_op_rejected_by_apply_gate(self):
        state = StateVector(1)
        with pytest.raises(ValueError):
            state.apply_gate(GateOp.measure(0))
        with pytest.raises(ValueError):
            state.apply_gate(GateOp.reset(0))

    def test_angle_normalized_mod_4pi(self):
        theta = 0.7
        assert GateOp.rx(0, theta + 4 * math.pi).theta == pytest.approx(theta)
        assert GateOp.rx(0, theta).theta == theta

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ValueError):
            GateOp.rx(0, math.inf)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_x_gather_equals_matrix_product(self, rows):
        # X runs as a permutation gather; it must equal the 2x2 product on
        # every qubit of every row (up to the sign of a zero).
        n = 5
        rng = np.random.default_rng(rows)
        chunk = rng.standard_normal((rows, 1 << n)) + 1j * rng.standard_normal((rows, 1 << n))
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        for q in range(n):
            got = chunk.copy()
            apply_unitary(got if rows > 1 else got.reshape(-1), GateOp.x(q))
            want = chunk.copy()
            apply_1q(want, matrix, q)
            assert np.array_equal(got, want), q


def random_rows(rng, rows: int, n_qubits: int) -> np.ndarray:
    v = rng.standard_normal((rows, 1 << n_qubits)) + 1j * rng.standard_normal((rows, 1 << n_qubits))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


UNITARY_ARITY = {"X": 1, "H": 1, "RX": 1, "T": 1, "TDG": 1,
                 "CNOT": 2, "CRX": 2, "SWAP": 2, "TOFFOLI": 3}


class TestRowKernels:
    @pytest.mark.parametrize("kind", sorted(UNITARY_ARITY))
    def test_apply_rows_equals_each_row_alone(self, kind):
        # Row r takes ops[which[r]]; the bytes must equal apply_unitary on that row alone.
        rng = np.random.default_rng(len(kind))
        for n in range(UNITARY_ARITY[kind], 7):
            for distinct in (1, 2, 3):
                ops = [GateOp(kind, tuple(rng.permutation(n)[: UNITARY_ARITY[kind]]),
                              float(rng.uniform(0, 7)) if kind in ("RX", "CRX") else None)
                       for _ in range(distinct)]
                which = np.arange(5) % distinct
                chunk = random_rows(rng, 5, n)
                got = chunk.copy()
                apply_rows(got, ops, which)
                for r, v in enumerate(which.tolist()):
                    want = chunk[r].copy()
                    apply_unitary(want, ops[v])
                    assert got[r].tobytes() == want.tobytes(), (n, distinct, r)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reset_rows_equal_measure_then_x_on_the_ones(self, n):
        # Row 3 is row 0 with qubit q flipped, so after the RESET the two hold equal bytes
        # when row 0 reads 0 and row 3 reads 1; they must stay apart, as after a MEASURE
        # and an X. Row 4 equals row 2, and both read 0 under one owner, so the two merge.
        rng = np.random.default_rng(n)
        for q in range(n):
            chunk = random_rows(rng, 5, n)
            chunk[3] = chunk[0]
            apply_unitary(chunk[3:4], GateOp.x(q))
            chunk[4] = chunk[2]
            cls = np.concatenate([np.arange(5), rng.integers(0, 5, 9)])
            u = rng.random(len(cls))
            u[np.isin(cls, [0, 2, 4])], u[cls == 3] = 0.0, 1.0 - 2.0**-53
            owner = np.array([0, 0, 1, 0, 1])
            got, got_cls, got_ones = measure_rows(chunk.copy(), GateOp.reset(q), u, cls, owner)
            want, want_cls, want_ones = measure_rows(chunk.copy(), GateOp.measure(q), u, cls,
                                                     owner)
            flip = np.flatnonzero(want_ones)
            rows = want[flip]
            apply_unitary(rows, GateOp.x(q))
            want[flip] = rows
            assert got.tobytes() == want.tobytes(), q
            assert np.array_equal(got_cls, want_cls) and np.array_equal(got_ones, want_ones)
            assert not got_ones[got_cls[cls == 0]].any() and got_ones[got_cls[cls == 3]].all()
            zero, one = got_cls[cls == 0][0], got_cls[cls == 3][0]
            assert zero != one and got[zero].tobytes() == got[one].tobytes()
            assert got_cls[cls == 2][0] == got_cls[cls == 4][0]

    @pytest.mark.parametrize("kind", ["MEASURE", "RESET"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_collapse_equals_the_complex_division(self, kind, n):
        # Every row is read both ways (u = 0 reads 0, u just below 1 reads 1), and some
        # inputs hold -0.0. Each shot's row must equal, in value, its source row with the
        # discarded half set to 0.0 and divided by the kept half's norm (then, for a RESET
        # that read 1, the kept half moved into the 0-half); the discarded half is +0.0.
        rng = np.random.default_rng(10 * n + len(kind))
        for q in range(n):
            chunk = random_rows(rng, 4, n)
            chunk.real[rng.random(chunk.shape) < 0.2] = -0.0
            chunk.imag[rng.random(chunk.shape) < 0.2] = -0.0
            cls = np.tile(np.arange(4), 2)
            u = np.repeat([0.0, 1.0 - 2.0**-53], 4)
            got, got_cls, got_ones = measure_rows(chunk.copy(), GateOp(kind, (q,)), u, cls)
            assert len(got) == 8 and got_ones[got_cls].tolist() == [0] * 4 + [1] * 4
            for s, row in enumerate(cls.tolist()):
                one = int(got_ones[got_cls[s]])
                want = chunk[row].copy().reshape(-1, 2, 1 << q)
                kept = want[:, one, :]
                branch = np.ascontiguousarray(kept.real**2 + kept.imag**2).sum()
                want[:, 1 - one, :] = 0.0
                want /= np.sqrt(branch)
                if kind == "RESET" and one:
                    want[:, 0, :], want[:, 1, :] = want[:, 1, :], 0.0
                out = got[got_cls[s]].reshape(-1, 2, 1 << q)
                assert np.array_equal(out, want), (q, s)
                discarded = out[:, 1 if kind == "RESET" else 1 - one, :]
                assert not np.signbit([discarded.real, discarded.imag]).any(), (q, s)

    @pytest.mark.parametrize("kind", ["MEASURE", "RESET"])
    def test_rows_differing_only_in_the_discarded_half_merge(self, kind):
        # Row 1 is row 0 with its 1-half negated, so once both read 0 the discarded halves
        # are 0 * x for x of opposite signs: they must both read +0.0, and the rows merge.
        rng = np.random.default_rng(len(kind))
        for n in range(1, 7):
            for q in range(n):
                chunk = random_rows(rng, 2, n)
                halves = chunk.reshape(2, -1, 2, 1 << q)
                halves[1, :, 0, :] = halves[0, :, 0, :]
                halves[1, :, 1, :] = -halves[0, :, 1, :]
                cls = np.array([0, 1, 1])
                got, got_cls, got_ones = measure_rows(chunk, GateOp(kind, (q,)), np.zeros(3),
                                                      cls, np.zeros(2, np.intp))
                assert len(got) == 1 and got_cls.tolist() == [0, 0, 0], (n, q)
                assert not got_ones.any()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_a_run_merged_at_its_end_equals_a_merge_after_each_collapse(self, n):
        # A run of MEASUREs over every qubit, the first again at its end, on rows that
        # hold -0.0; rows 1 and 3 are equal in value but differ in the signs of their
        # zeros. Without a merge until the run's last MEASURE, every shot must read the
        # same outcomes and end on a row of the same bytes as with a merge after each,
        # and the run must end on as many rows, none holding -0.0.
        rng = np.random.default_rng(n)
        chunk = random_rows(rng, 4, n)
        chunk.real[rng.random(chunk.shape) < 0.2] = -0.0
        chunk.imag[rng.random(chunk.shape) < 0.2] = -0.0
        chunk[3] = chunk[1]
        zeros = chunk[3].real
        zeros[zeros == 0.0] *= -1.0
        start = np.concatenate([np.arange(4), rng.integers(0, 4, 36)])
        qubits = [*rng.permutation(n).tolist(), 0]
        uniforms = rng.random((len(qubits), len(start)))
        ends = []
        for merge_each in (True, False):
            amps, cls, owner = chunk.copy(), start, np.array([0, 1, 1, 1])
            reads = []
            for j, q in enumerate(qubits):
                merge = merge_each or j == len(qubits) - 1
                was = owner[cls]
                amps, cls, ones = measure_rows(amps, GateOp.measure(q), uniforms[j], cls,
                                               owner, merge)
                owner = np.empty(len(amps), np.intp)
                owner[cls] = was
                reads.append(ones[cls])
            ends.append((amps, cls, reads))
        (want, want_cls, want_reads), (got, got_cls, got_reads) = ends
        assert np.array_equal(got_reads, want_reads)
        assert len(got) == len(want)
        for s in range(len(start)):
            assert got[got_cls[s]].tobytes() == want[want_cls[s]].tobytes(), s
        flat = got.view(np.float64)
        assert not (np.signbit(flat) & (flat == 0.0)).any()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_copy_half_sums_equal_each_half_copied_alone(self, n):
        # measure_rows sums both halves of every row from one contiguous copy; each sum
        # must equal, byte for byte, that of the row's half copied out on its own.
        rng = np.random.default_rng(n)
        for rows in (1, 3, 14):
            v_rows = random_rows(rng, rows, n)
            for q in range(n):
                v = v_rows.reshape(rows, -1, 2, 1 << q)
                sq = v.real**2
                sq += v.imag**2
                p = np.ascontiguousarray(sq.transpose(2, 0, 1, 3)).reshape(2, rows, -1).sum(axis=2)
                want = [[np.ascontiguousarray(sq[r, :, h, :]).reshape(-1).sum()
                         for r in range(rows)] for h in (0, 1)]
                assert p.tobytes() == np.array(want).tobytes(), (rows, q)

    def test_rx_matrix_is_cached_read_only(self):
        m = rx_matrix(0.7)
        assert rx_matrix(0.7) is m and not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
        # Rows that share an angle share the cached array; each row must still equal
        # apply_unitary on that row alone.
        rng = np.random.default_rng(7)
        for kind in ("RX", "CRX"):
            for n in range(UNITARY_ARITY[kind], 6):
                ops = [GateOp(kind, tuple(rng.permutation(n)[: UNITARY_ARITY[kind]]), theta)
                       for theta in (0.7, 0.7, 2.5)]
                which = np.arange(6) % 3
                chunk = random_rows(rng, 6, n)
                got = chunk.copy()
                apply_rows(got, ops, which)
                for r, v in enumerate(which.tolist()):
                    want = chunk[r].copy()
                    apply_unitary(want, ops[v])
                    assert got[r].tobytes() == want.tobytes(), (kind, n, r)
        assert rx_matrix(0.7) is m and m.tobytes() == rx_matrix.__wrapped__(0.7).tobytes()


PERMUTATION_ARITY = {"X": 1, "CNOT": 2, "SWAP": 2, "TOFFOLI": 3}


@st.composite
def permutation_spans(draw):
    """(n, rows, ops): 1-6 qubits, 1-4 rows and 1-12 X, CNOT, SWAP and TOFFOLI ops."""
    n = draw(st.integers(1, 6))
    kinds = sorted(kind for kind, arity in PERMUTATION_ARITY.items() if arity <= n)
    ops = [GateOp(kind, tuple(draw(st.permutations(range(n)))[: PERMUTATION_ARITY[kind]]))
           for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=12))]
    return n, draw(st.integers(1, 4)), ops


class TestGather:
    @settings(max_examples=200, deadline=None)
    @given(case=permutation_spans(), seed=st.integers(0, 2**32 - 1))
    def test_composed_gather_equals_each_op_in_turn(self, case, seed):
        n, rows, ops = case
        chunk = random_rows(np.random.default_rng(seed), rows, n)
        got = gather(chunk, gather_index(n, ops))
        want = chunk.copy()
        for op in ops:
            apply_unitary(want, op)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    def test_kernels_reject_a_chunk_that_is_not_c_contiguous(self):
        # reshape copies such a chunk, so an in-place write would be lost without a word.
        chunk = random_rows(np.random.default_rng(3), 4, 3)
        g = gather_index(3, [GateOp.swap(0, 2)])
        u, cls = np.full(4, 0.5), np.arange(4)
        kernels = [
            lambda a: apply_1q(a, MATRICES_1Q["H"], 1),
            lambda a: apply_unitary(a, GateOp.x(0)),
            lambda a: apply_unitary(a, GateOp.cnot(0, 1)),
            lambda a: apply_unitary(a, GateOp.rx(2, 0.3)),
            lambda a: apply_rows(a, [GateOp.x(0), GateOp.x(1)], np.arange(4) % 2),
            lambda a: measure_rows(a, GateOp.measure(1), u, cls),
        ]
        for bad in (np.asfortranarray(chunk), chunk[:, g]):
            assert not bad.flags.c_contiguous
            before = bad.copy()
            for kernel in kernels:
                with pytest.raises(ValueError, match="C-contiguous"):
                    kernel(bad)
            assert bad.tobytes() == before.tobytes()


class TestProbabilities:
    def test_bell_distribution(self):
        probs = bell_state().probabilities()
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[3] == pytest.approx(0.5, abs=1e-12)
        assert probs[1] == pytest.approx(0.0, abs=1e-15)
        assert probs[2] == pytest.approx(0.0, abs=1e-15)

    def test_ground_state(self):
        probs = StateVector(3).probabilities()
        assert probs[0] == 1.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_half_rotation(self):
        state = StateVector(1)
        state.apply_gate(GateOp.rx(0, math.pi / 2))
        probs = state.probabilities()
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[1] == pytest.approx(0.5, abs=1e-12)


class TestMeasureAll:
    def test_bell_outcomes_correlated(self):
        for seed in range(40):
            outcome = bell_state().measure_all(np.random.default_rng(seed))
            assert outcome in ("00", "11")

    def test_ground_state_deterministic(self):
        assert StateVector(5).measure_all(np.random.default_rng(0)) == "00000"

    def test_bit_order_is_qubit_index(self):
        state = StateVector(3)
        state.apply_gate(GateOp.x(0))
        assert state.measure_all(np.random.default_rng(0)) == "100"

    def test_collapse_after_measure_all(self):
        state = bell_state()
        rng = np.random.default_rng(7)
        first = state.measure_all(rng)
        assert state.measure_all(rng) == first

    def test_hadamard_frequency_three_sigma(self):
        ones = 0
        for seed in range(10_000):
            state = StateVector(1)
            state.apply_gate(GateOp.h(0))
            ones += state.measure_all(np.random.default_rng(seed)) == "1"
        assert 0.47 <= ones / 10_000 <= 0.53


# A CDF row: zeros, then weights that may hold zeros and subnormals, then one nonzero
# weight and zeros after it; or zeros alone, where every u reaches the N - 1 clamp.
CDF_WEIGHTS = st.one_of(st.just(0.0), st.floats(0.0, 1e3),
                        st.sampled_from([5e-324, 1e-300, 1.0, 2.0**60]))
CDF_ROWS = st.one_of(
    st.tuples(st.integers(0, 5), st.lists(CDF_WEIGHTS, max_size=20),
              st.one_of(st.floats(5e-324, 1e3), st.sampled_from([5e-324, 1.0])),
              st.integers(0, 5)).map(lambda r: [0.0] * r[0] + r[1] + [r[2]] + [0.0] * r[3]),
    st.integers(1, 8).map(lambda n: [0.0] * n),
)
CDF_US = st.lists(st.one_of(st.sampled_from([0.0, 1.0 - 2.0**-53]),
                            st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=8)


class TestSampleCdf:
    # The trajectory loop samples a lone row's CDF in the 1-D form and a stack of rows in
    # the 2-D form; a shot's index must not depend on which form ran.
    @settings(max_examples=400, deadline=None)
    @given(weights=CDF_ROWS, us=CDF_US)
    @example(weights=[0.0, 0.0, 0.0], us=[0.0, 1.0 - 2.0**-53])
    @example(weights=[0.0, 0.0, 5e-324], us=[0.0, 1.0 - 2.0**-53])
    def test_one_row_and_stacked_forms_agree(self, weights, us):
        cdf, u = np.cumsum(weights), np.array(us)
        one = sample_cdf(cdf, u)
        assert one.tolist() == sample_cdf(np.repeat(cdf[None], len(u), 0), u).tolist()
        assert ((0 <= one) & (one < len(cdf))).all()


class TestMeasureQubit:
    def test_bell_collapse_both_branches(self):
        seen = set()
        for seed in range(30):
            state = bell_state()
            outcome = state.measure_qubit(0, np.random.default_rng(seed))
            seen.add(outcome)
            expected = np.zeros(4, dtype=complex)
            expected[0b11 if outcome else 0b00] = 1.0
            assert np.allclose(state.amps, expected, atol=1e-12)
        assert seen == {0, 1}

    def test_definite_qubit_unchanged(self):
        state = StateVector.from_basis(1, 1)
        assert state.measure_qubit(0, np.random.default_rng(0)) == 1
        assert state.amps[1] == 1.0

    def test_projection_is_exact(self):
        for seed in range(20):
            state = StateVector(1)
            state.apply_gate(GateOp.rx(0, math.pi / 2))
            if state.measure_qubit(0, np.random.default_rng(seed)) == 0:
                assert state.amps[1] == 0.0
                assert abs(state.amps[0]) == pytest.approx(1.0, abs=1e-12)
                break
        else:
            pytest.fail("no zero outcome in 20 seeds")

    def test_collapse_idempotent(self):
        rng = np.random.default_rng(12)
        state = random_state(4, 99)
        first = state.measure_qubit(2, rng)
        assert state.measure_qubit(2, rng) == first

    def test_degenerate_state_rejected(self):
        state = StateVector(2)
        state.amps[:] = 0.0
        with pytest.raises(DegenerateStateError):
            state.measure_qubit(0, np.random.default_rng(0))


class TestReset:
    def test_reset_clears_qubit_one(self):
        state = StateVector.from_basis(2, 0b11)
        state.reset_qubit(1, np.random.default_rng(0))
        assert state.amps[0b01] == pytest.approx(1.0)

    def test_reset_ground_state_noop(self):
        state = StateVector(3)
        state.reset_qubit(1, np.random.default_rng(0))
        assert state.amps[0] == 1.0

    def test_reset_entangled_qubit_keeps_measured_branch(self):
        seen = set()
        for seed in range(30):
            state = bell_state()
            state.reset_qubit(1, np.random.default_rng(seed))
            # qubit 1 cleared; qubit 0 keeps the branch that was measured
            idx = int(np.argmax(np.abs(state.amps)))
            assert abs(state.amps[idx]) == pytest.approx(1.0, abs=1e-12)
            assert idx in (0b00, 0b01)
            seen.add(idx)
        assert seen == {0b00, 0b01}


class TestAlgebraProperties:
    def test_norm_preserved_by_random_circuit(self):
        rng = np.random.default_rng(42)
        state = StateVector(5)
        kinds = ["x", "h", "rx", "cnot", "crx", "swap", "toffoli"]
        for _ in range(300):
            kind = kinds[rng.integers(len(kinds))]
            qubits = rng.permutation(5)
            if kind == "x":
                state.apply_gate(GateOp.x(int(qubits[0])))
            elif kind == "h":
                state.apply_gate(GateOp.h(int(qubits[0])))
            elif kind == "rx":
                state.apply_gate(GateOp.rx(int(qubits[0]), float(rng.uniform(-7, 7))))
            elif kind == "cnot":
                state.apply_gate(GateOp.cnot(int(qubits[0]), int(qubits[1])))
            elif kind == "crx":
                state.apply_gate(
                    GateOp.crx(int(qubits[0]), int(qubits[1]), float(rng.uniform(-7, 7)))
                )
            elif kind == "swap":
                state.apply_gate(GateOp.swap(int(qubits[0]), int(qubits[1])))
            else:
                state.apply_gate(
                    GateOp.toffoli(int(qubits[0]), int(qubits[1]), int(qubits[2]))
                )
        assert abs(state.norm_sq() - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "ops",
        [
            (GateOp.x(1), GateOp.x(1)),
            (GateOp.h(2), GateOp.h(2)),
            (GateOp.cnot(0, 3), GateOp.cnot(0, 3)),
            (GateOp.swap(1, 2), GateOp.swap(1, 2)),
            (GateOp.toffoli(0, 2, 3), GateOp.toffoli(0, 2, 3)),
        ],
    )
    def test_involutions(self, ops):
        state = random_state(4, 7)
        reference = state.amps.copy()
        for op in ops:
            state.apply_gate(op)
        assert np.allclose(state.amps, reference, atol=1e-12)

    def test_rx_additivity(self):
        for seed, (t1, t2) in enumerate([(0.3, 1.1), (-2.0, 0.5), (3.9, 3.9)]):
            a = random_state(3, seed)
            b = a.copy()
            a.apply_gate(GateOp.rx(1, t1))
            a.apply_gate(GateOp.rx(1, t2))
            b.apply_gate(GateOp.rx(1, t1 + t2))
            assert np.allclose(a.amps, b.amps, atol=1e-12)

    def test_transition_law(self):
        # Rx(2*theta) from |0> puts sin^2(theta) of the probability on |1>
        for theta in np.linspace(0.05, math.pi / 2, 12):
            state = StateVector(1)
            state.apply_gate(GateOp.rx(0, 2.0 * float(theta)))
            assert state.probabilities()[1] == pytest.approx(
                math.sin(theta) ** 2, abs=1e-12
            )

    def test_measurement_frequencies_match_probabilities(self):
        state = StateVector(2)
        state.apply_gate(GateOp.rx(0, 1.1))
        state.apply_gate(GateOp.crx(0, 1, 2.3))
        probs = state.probabilities()
        n = 6000
        counts = np.zeros(4)
        for seed in range(n):
            bits = state.copy().measure_all(np.random.default_rng(seed))
            counts[int(bits[::-1], 2)] += 1
        for i in range(4):
            p = probs[i]
            bound = 4.0 * math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(counts[i] / n - p) <= max(bound, 1e-9)
