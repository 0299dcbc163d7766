"""Layer tracing for the arcwalk benchmark, installed from outside the package.

``Tracer.install`` wraps the public functions of each arcwalk module (and
the ``StateVector`` kernels) at every name a caller looks them up by, since
modules import names directly (``arcwalk.engine.noisy_apply``,
``arcwalk.cli.distance_table``, ...). Each wrapper opens a span; a span's
self time is its duration minus the durations of the spans it caused. Spans
are aggregated by name as they close rather than stored one by one: a single
noisy op opens about 10^5 of them. Tracing draws no random numbers and
changes no argument, so traced outputs must equal untraced ones.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import clock

GATE_KINDS = ("RX", "X", "H", "CNOT", "CRX", "SWAP", "TOFFOLI")
KERNEL_QUBITS = (4, 8, 12)

# Share of the 2^n amplitudes a kernel reads and writes: 1q gates and
# measurements walk the whole state, CNOT/CRX/SWAP gather the half with the
# control (or exactly one swap qubit) set, TOFFOLI the quarter with both
# controls set.
TOUCHED_SHARE = {
    "RX": 1.0, "X": 1.0, "H": 1.0, "T": 1.0, "TDG": 1.0,
    "CNOT": 0.5, "CRX": 0.5, "SWAP": 0.5, "TOFFOLI": 0.25,
    "measure_qubit": 1.0, "measure_all": 1.0, "apply_matrix_1q": 1.0,
}
AMP_BYTES = 16  # complex128
PASSES = 2  # each touched amplitude is read once and written once

# (module, attribute, span name) of every traced free function.
FUNCTIONS = (
    ("noise", "noisy_apply", "noise.noisy_apply"),
    ("noise", "apply_readout_noise", "noise.readout"),
    ("engine", "run_positions", "engine.run_positions"),
    ("engine", "run_single_shot", "engine.run_single_shot"),
    ("engine", "run_shots", "engine.run_shots"),
    ("engine", "distance_table", "engine.harness.distance_table"),
    ("engine", "zeno_experiment", "engine.harness.zeno_experiment"),
    ("engine", "two_way_distribution", "engine.harness.two_way_distribution"),
    ("circuits", "build_circuit", "circuits.build_circuit"),
    ("cli", "main", "cli.main"),
    ("market", "ingest_prices", "market.ingest"),
    ("market", "ingest_metro", "market.ingest"),
    ("market", "relative_changes", "market.stats.relative_changes"),
    ("market", "fit_normal", "market.stats.fit_normal"),
    ("market", "excess_kurtosis", "market.stats.excess_kurtosis"),
    ("market", "housing_correlations", "market.stats.housing_correlations"),
)
METHODS = ("apply_gate", "apply_matrix_1q", "measure_qubit", "measure_all", "reset_qubit")
MODULES = ("arcwalk", "arcwalk.sim", "arcwalk.circuits", "arcwalk.noise",
           "arcwalk.engine", "arcwalk.market", "arcwalk.cli")


class Tracer:
    """Aggregated spans and counters for one traced phase."""

    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _span(self, name, fn, args, kwargs):
        frame = [name, 0.0]
        stack = self.stack
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            self.calls[name] += 1
            self.total_s[name] += dt
            self.self_s[name] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

    def _parent(self) -> str:
        return self.stack[-1][0] if self.stack else ""

    def _touch(self, kernel: str, n_qubits: int) -> None:
        self.counts["sim.amps_touched"] += TOUCHED_SHARE[kernel] * (1 << n_qubits)

    # ------------------------------------------------------------ wrappers

    def _wrap_function(self, fn, name):
        span = self._span

        if name == "noise.readout":
            counts = self.counts

            def wrapper(bits, *args, **kwargs):
                out = span(name, fn, (bits, *args), kwargs)
                counts["noise.readout.flips"] += sum(a != b for a, b in zip(bits, out))
                return out
        elif name == "engine.run_positions":
            calls, counts, total_s = self.calls, self.counts, self.total_s

            def wrapper(circuit, shots, *args, **kwargs):
                before = calls["engine.run_single_shot"]
                t_before = total_s[name]
                out = span(name, fn, (circuit, shots, *args), kwargs)
                dt = total_s[name] - t_before
                trajectories = calls["engine.run_single_shot"] - before
                path = "trajectory" if trajectories else "exact"
                counts[f"engine.shots.{path}"] += shots
                counts[f"engine.time.{path}"] += dt
                return out
        elif name == "circuits.build_circuit":
            counts = self.counts

            def wrapper(*args, **kwargs):
                circuit = span(name, fn, args, kwargs)
                counts["circuits.ops_built"] += len(circuit.ops)
                return circuit
        elif name == "market.ingest":
            counts = self.counts

            def wrapper(*args, **kwargs):
                rows = span(name, fn, args, kwargs)
                counts["market.rows_in"] += len(rows)
                return rows
        else:

            def wrapper(*args, **kwargs):
                return span(name, fn, args, kwargs)

        return wrapper

    def _wrap_method(self, fn, attr):
        span, touch, parent = self._span, self._touch, self._parent
        if attr == "apply_gate":

            def wrapper(state, op):
                touch(op.kind, state.n_qubits)
                return span("sim.apply_gate." + op.kind, fn, (state, op), {})
        elif attr == "apply_matrix_1q":
            counts = self.counts

            def wrapper(state, matrix, q):
                caller = parent()
                if caller.startswith("sim.apply_gate."):
                    return fn(state, matrix, q)  # part of the gate's own span
                if caller == "noise.noisy_apply":
                    counts["noise.kicks"] += 1
                touch("apply_matrix_1q", state.n_qubits)
                return span("sim.apply_matrix_1q", fn, (state, matrix, q), {})
        elif attr in ("measure_qubit", "measure_all"):
            name = "sim." + attr

            def wrapper(state, *args):
                touch(attr, state.n_qubits)
                return span(name, fn, (state, *args), {})
        else:
            name = "sim." + attr

            def wrapper(state, *args):
                return span(name, fn, (state, *args), {})

        return wrapper

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(m) for m in MODULES]
        for modname, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module("arcwalk." + modname), attr)
            wrapper = self._wrap_function(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        from arcwalk.sim import StateVector

        for attr in METHODS:
            original = StateVector.__dict__[attr]
            self._undo.append((StateVector, attr, original))
            setattr(StateVector, attr, self._wrap_method(original, attr))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # ------------------------------------------------------------ metrics

    def metrics(self, time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; every duration is multiplied by ``time_scale``."""
        calls, counts = self.calls, self.counts
        self_s = defaultdict(float, {k: v * time_scale for k, v in self.self_s.items()})
        total_s = defaultdict(float, {k: v * time_scale for k, v in self.total_s.items()})
        m: dict[str, tuple[float, str]] = {}

        def ratio(a, b):
            return a / b if b else 0.0

        for kind in GATE_KINDS:
            m[f"sim.apply_gate.{kind}.calls"] = (calls[f"sim.apply_gate.{kind}"], "count")
            m[f"sim.apply_gate.{kind}.self_s"] = (self_s[f"sim.apply_gate.{kind}"], "s")
        for attr in ("measure_qubit", "measure_all", "apply_matrix_1q"):
            m[f"sim.{attr}.calls"] = (calls[f"sim.{attr}"], "count")
            m[f"sim.{attr}.self_s"] = (self_s[f"sim.{attr}"], "s")
        m["sim.reset_qubit.calls"] = (calls["sim.reset_qubit"], "count")
        gate_names = [n for n in calls if n.startswith("sim.apply_gate.")]
        gate_calls = sum(calls[n] for n in gate_names)
        gate_time = sum(total_s[n] for n in gate_names)
        m["sim.us_per_gate"] = (1e6 * ratio(gate_time, gate_calls), "us")
        amps = counts["sim.amps_touched"]
        sim_self = sum(v for n, v in self_s.items() if n.startswith("sim."))
        m["sim.amps_touched"] = (amps, "count")
        m["sim.bytes_moved_computed"] = (AMP_BYTES * PASSES * amps, "B")
        m["sim.ns_per_amp"] = (1e9 * ratio(sim_self, amps), "ns")

        noisy = calls["noise.noisy_apply"]
        m["noise.noisy_apply.calls"] = (noisy, "count")
        m["noise.noisy_apply.self_s"] = (self_s["noise.noisy_apply"], "s")
        m["noise.kicks"] = (counts["noise.kicks"], "count")
        m["noise.kicks_per_call"] = (ratio(counts["noise.kicks"], noisy), "ratio")
        m["noise.readout.calls"] = (calls["noise.readout"], "count")
        m["noise.readout.self_s"] = (self_s["noise.readout"], "s")
        m["noise.readout.flips"] = (counts["noise.readout.flips"], "count")

        m["engine.run_positions.calls"] = (calls["engine.run_positions"], "count")
        m["engine.run_positions.self_s"] = (self_s["engine.run_positions"], "s")
        for path in ("exact", "trajectory"):
            shots = counts[f"engine.shots.{path}"]
            m[f"engine.shots.{path}"] = (shots, "count")
            m[f"engine.us_per_shot.{path}"] = (
                1e6 * time_scale * ratio(counts[f"engine.time.{path}"], shots), "us")
        m["engine.run_single_shot.self_s"] = (self_s["engine.run_single_shot"], "s")
        for fn in ("distance_table", "zeno_experiment", "two_way_distribution"):
            m[f"engine.harness.{fn}.self_s"] = (self_s[f"engine.harness.{fn}"], "s")
        engine_self = sum(v for n, v in self_s.items() if n.startswith("engine."))
        op_time = total_s["cli.main"]
        m["engine.self_share"] = (ratio(engine_self, op_time), "ratio")

        built = counts["circuits.ops_built"]
        m["circuits.build_circuit.calls"] = (calls["circuits.build_circuit"], "count")
        m["circuits.build_circuit.self_s"] = (self_s["circuits.build_circuit"], "s")
        m["circuits.ops_built"] = (built, "count")
        m["circuits.us_per_op_built"] = (
            1e6 * ratio(total_s["circuits.build_circuit"], built), "us")

        m["cli.main.calls"] = (calls["cli.main"], "count")
        m["cli.self_s"] = (self_s["cli.main"], "s")

        m["market.ingest.self_s"] = (self_s["market.ingest"], "s")
        m["market.rows_in"] = (counts["market.rows_in"], "count")
        for fn in ("relative_changes", "fit_normal", "excess_kurtosis", "housing_correlations"):
            m[f"market.stats.{fn}.self_s"] = (self_s[f"market.stats.{fn}"], "s")
        return m


# ---------------------------------------------------------------- kernel table


def kernel_table(seed: int, repeats: int = 7) -> dict[str, tuple[float, str]]:
    """Untraced µs per call and ns per touched amplitude of each kernel at 4, 8
    and 12 qubits: the median of ``repeats`` timed batches, at the reference
    speed of ``clock``."""
    import numpy as np

    from arcwalk.sim import GateOp, StateVector

    out: dict[str, tuple[float, str]] = {}
    for n in KERNEL_QUBITS:
        ops = {
            "RX": GateOp.rx(n // 2, 0.3),
            "X": GateOp.x(n // 2),
            "H": GateOp.h(n // 2),
            "CNOT": GateOp.cnot(0, n - 1),
            "CRX": GateOp.crx(0, n - 1, 0.3),
            "SWAP": GateOp.swap(0, n - 1),
            "TOFFOLI": GateOp.toffoli(0, 1, n - 1),
        }
        batch = max(20, 4096 >> n)
        for kind in (*GATE_KINDS, "measure_qubit"):
            state = StateVector(n)
            for q in range(n):
                state.apply_gate(GateOp.h(q))
            rng = np.random.default_rng(seed)
            if kind == "measure_qubit":
                def call(state=state, rng=rng, q=n // 2):
                    state.measure_qubit(q, rng)
            else:
                def call(state=state, op=ops[kind]):
                    state.apply_gate(op)
            call()  # fills the index caches
            cal = clock.calibrate()
            samples = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(batch):
                    call()
                samples.append((time.perf_counter() - t0) / batch)
            per_call = clock.to_reference(statistics.median(samples), cal, clock.calibrate())
            touched = TOUCHED_SHARE[kind] * (1 << n)
            out[f"kernel.{kind}.q{n}.us_per_call"] = (1e6 * per_call, "us")
            out[f"kernel.{kind}.q{n}.ns_per_amp"] = (1e9 * per_call / touched, "ns")
    return out
