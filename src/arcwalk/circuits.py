"""Builders for the counting-circuit designs, plus a line-based text format.

Register layout used by every builder: counter qubits first (qubit 0 is the
least significant counter bit), then the coin qubit when the design has one,
then the ancilla when the design needs one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sim import ConfigError, GateOp, InvalidTargetError, sample_cdf

DESIGNS = ("binary", "arc", "arc_walk", "random_jump", "random_jump_cascading")


class NoAncillaError(ValueError):
    """The circuit lacks the ancilla qubit an augmentation needs."""


class CircuitParseError(ValueError):
    """A circuit text file could not be parsed."""


def halving_weights(width: int) -> tuple[float, ...]:
    """The {1/2, 1/4, 1/8, ...} qubit-selection weights renormalized to ``width``."""
    if width < 1:
        raise ConfigError(f"width must be positive, got {width}")
    raw = [2.0 ** -(k + 1) for k in range(width)]
    total = sum(raw)
    return tuple(w / total for w in raw)


@dataclass
class WalkConfig:
    """Parameters shared by the circuit builders."""

    counter_width: int
    steps: int
    design: str = "arc"
    base_angle: float = math.pi / 2
    seed: int = 0

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ConfigError(f"unknown design {self.design!r}; expected one of {DESIGNS}")
        if self.counter_width < 1:
            raise ConfigError(f"counter_width must be positive, got {self.counter_width}")
        if self.steps < 0:
            raise ConfigError(f"steps must be nonnegative, got {self.steps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not (math.isfinite(self.base_angle) and self.base_angle > 0.0):
            raise ConfigError(f"base_angle must be positive and finite, got {self.base_angle}")


@dataclass
class Circuit:
    """An ordered gate program over a counter register with optional coin/ancilla.

    ``steps_marks[j]`` is the length of the op prefix that completes step j+1.
    Builders return validated circuits; treat them as immutable afterwards.
    """

    n_qubits: int
    counter: range
    coin: int | None = None
    ancilla: int | None = None
    ops: list[GateOp] = field(default_factory=list)
    steps_marks: list[int] = field(default_factory=list)

    def add(self, *ops: GateOp) -> None:
        self.ops.extend(ops)

    def mark_step(self) -> None:
        self.steps_marks.append(len(self.ops))

    @property
    def n_steps(self) -> int:
        return len(self.steps_marks)

    def copy(self) -> "Circuit":
        return Circuit(
            n_qubits=self.n_qubits,
            counter=self.counter,
            coin=self.coin,
            ancilla=self.ancilla,
            ops=list(self.ops),
            steps_marks=list(self.steps_marks),
        )

    def validate(self) -> "Circuit":
        if not (0 <= self.counter.start < self.counter.stop <= self.n_qubits):
            raise ValueError(f"counter {self.counter} outside register of {self.n_qubits}")
        if self.counter.step != 1:
            raise ValueError("counter range must be contiguous")
        special = [q for q in (self.coin, self.ancilla) if q is not None]
        for q in special:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"role qubit {q} outside register of {self.n_qubits}")
            if q in self.counter:
                raise ValueError(f"role qubit {q} overlaps the counter range")
        if len(set(special)) != len(special):
            raise ValueError("coin and ancilla must be distinct qubits")
        for op in self.ops:
            for q in op.targets:
                if q >= self.n_qubits:
                    raise InvalidTargetError(
                        f"op {op.kind} targets qubit {q} outside register of {self.n_qubits}"
                    )
        last = -1
        for mark in self.steps_marks:
            if mark <= last:
                raise ValueError(f"steps_marks must increase strictly, got {self.steps_marks}")
            last = mark
        if self.steps_marks and self.steps_marks[-1] > len(self.ops):
            raise ValueError("final step mark exceeds op count")
        return self

    def to_text(self) -> str:
        """Serialize to the line format: one op per line, '# step N' markers."""
        lines = [
            "# arcwalk-circuit v1",
            f"# nqubits {self.n_qubits}",
            f"# counter {self.counter.start} {self.counter.stop}",
        ]
        if self.coin is not None:
            lines.append(f"# coin {self.coin}")
        if self.ancilla is not None:
            lines.append(f"# ancilla {self.ancilla}")
        mark_at = 0
        for j, op in enumerate(self.ops):
            parts = [op.kind] + [str(q) for q in op.targets]
            if op.theta is not None:
                parts.append(repr(op.theta))
            lines.append(" ".join(parts))
            while mark_at < len(self.steps_marks) and self.steps_marks[mark_at] == j + 1:
                lines.append(f"# step {mark_at + 1}")
                mark_at += 1
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        n_qubits = None
        counter = None
        coin = None
        ancilla = None
        ops: list[GateOp] = []
        marks: list[int] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if not fields:
                    continue
                key = fields[0]
                try:
                    if key == "nqubits":
                        n_qubits = int(fields[1])
                    elif key == "counter":
                        counter = range(int(fields[1]), int(fields[2]))
                    elif key == "coin":
                        coin = int(fields[1])
                    elif key == "ancilla":
                        ancilla = int(fields[1])
                    elif key == "step":
                        marks.append(len(ops))
                except (IndexError, ValueError) as exc:
                    raise CircuitParseError(f"line {lineno}: bad header {line!r}") from exc
                continue
            fields = line.split()
            kind = fields[0].upper()
            try:
                theta = None
                targets = fields[1:]
                if kind in ("RX", "CRX"):
                    theta = float(fields[-1])
                    targets = fields[1:-1]
                op = GateOp(kind, tuple(int(q) for q in targets), theta=theta)
            except (ValueError, IndexError) as exc:
                raise CircuitParseError(f"line {lineno}: bad op {line!r}: {exc}") from exc
            ops.append(op)
        if n_qubits is None:
            raise CircuitParseError("missing '# nqubits' header")
        if counter is None:
            counter = range(0, n_qubits)
        circ = cls(
            n_qubits=n_qubits,
            counter=counter,
            coin=coin,
            ancilla=ancilla,
            ops=ops,
            steps_marks=marks,
        )
        return circ.validate()


def full_adder_block(a: int, b: int, carry_in: int, out: int) -> Circuit:
    """One-bit full adder cell: 2 three-qubit gates and 3 CNOT.

    ``out`` must start in |0>. On basis inputs the sum lands on the
    ``carry_in`` wire and the carry lands on the ``out`` wire; the ``a`` and
    ``b`` wires are restored.
    """
    wires = (a, b, carry_in, out)
    if len(set(wires)) != 4:
        raise InvalidTargetError(f"adder wires must be distinct, got {wires}")
    n = max(wires) + 1
    circ = Circuit(n_qubits=n, counter=range(0, n))
    circ.add(
        GateOp.toffoli(a, b, out),
        GateOp.cnot(a, b),
        GateOp.toffoli(b, carry_in, out),
        GateOp.cnot(b, carry_in),
        GateOp.cnot(a, b),
    )
    return circ.validate()


def _mcx_ops(controls: tuple[int, ...], target: int, scratch: tuple[int, ...]) -> list[GateOp]:
    """Multi-controlled X over {X, CNOT, TOFFOLI} using one dirty borrow qubit.

    The borrow is toggled twice, so any initial value (clean or dirty) is
    restored.
    """
    k = len(controls)
    if k == 0:
        return [GateOp.x(target)]
    if k == 1:
        return [GateOp.cnot(controls[0], target)]
    if k == 2:
        return [GateOp.toffoli(controls[0], controls[1], target)]
    if not scratch:
        raise InvalidTargetError(
            f"a {k}-controlled X needs a borrowable qubit outside {controls + (target,)}"
        )
    borrow = scratch[0]
    half = (k + 1) // 2
    top = controls[:half]
    rest = controls[half:] + (borrow,)
    g1 = _mcx_ops(top, borrow, controls[half:] + (target,) + scratch[1:])
    g2 = _mcx_ops(rest, target, top + scratch[1:])
    return g1 + g2 + g1 + g2


def increment_circuit(width: int) -> Circuit:
    """One +1 step on the counter: |n> maps to |n+1 mod 2^width>.

    Built as a descending cascade: qubit k flips when all lower qubits are 1.
    Controls of three or more are decomposed to Toffoli gates through one
    ancilla qubit, allocated exactly when that decomposition is needed
    (width >= 4).
    """
    if width < 1:
        raise ConfigError(f"width must be positive, got {width}")
    ancilla = width if width >= 4 else None
    circ = Circuit(
        n_qubits=width + (ancilla is not None),
        counter=range(0, width),
        ancilla=ancilla,
    )
    for k in range(width - 1, 0, -1):
        controls = tuple(range(k))
        scratch = tuple(q for q in range(k + 1, width))
        if ancilla is not None:
            scratch = (ancilla,) + scratch
        circ.add(*_mcx_ops(controls, k, scratch))
    circ.add(GateOp.x(0))
    circ.mark_step()
    return circ.validate()


def binary_counter_circuit(cfg: WalkConfig) -> Circuit:
    """``cfg.steps`` repetitions of the increment, one step mark per increment."""
    step = increment_circuit(cfg.counter_width)
    circ = Circuit(
        n_qubits=step.n_qubits,
        counter=step.counter,
        ancilla=step.ancilla,
    )
    for _ in range(cfg.steps):
        circ.add(*step.ops)
        circ.mark_step()
    return circ.validate()


def arc_counter_circuit(cfg: WalkConfig) -> Circuit:
    """Per step, rotate counter qubit k by base_angle / 2^k. No two-qubit gates."""
    w = cfg.counter_width
    circ = Circuit(n_qubits=w, counter=range(0, w))
    for _ in range(cfg.steps):
        for k in range(w):
            circ.add(GateOp.rx(k, cfg.base_angle / 2**k))
        circ.mark_step()
    return circ.validate()


def arc_walk_circuit(cfg: WalkConfig) -> Circuit:
    """Coin-driven arc: fresh H on the persistent coin, then controlled rotations.

    The coin is never measured or reset between steps.
    """
    w = cfg.counter_width
    coin = w
    circ = Circuit(n_qubits=w + 1, counter=range(0, w), coin=coin)
    for _ in range(cfg.steps):
        circ.add(GateOp.h(coin))
        for k in range(w):
            circ.add(GateOp.crx(coin, k, cfg.base_angle / 2**k))
        circ.mark_step()
    return circ.validate()


def random_jump_circuit(cfg: WalkConfig) -> Circuit:
    """Per step, H on the coin then CNOT from the coin onto a sampled counter qubit.

    The target qubit is drawn per step from ``halving_weights`` by a
    classical sampler seeded with ``cfg.seed``, so the circuit is a pure
    function of its config. The cascading variant also carries an ancilla.
    """
    w = cfg.counter_width
    coin = w
    cascading = cfg.design == "random_jump_cascading"
    ancilla = w + 1 if cascading else None
    rng = np.random.default_rng(cfg.seed)
    cdf = np.cumsum(halving_weights(w))
    circ = Circuit(
        n_qubits=w + (2 if cascading else 1),
        counter=range(0, w),
        coin=coin,
        ancilla=ancilla,
    )
    for _ in range(cfg.steps):
        circ.add(GateOp.h(coin))
        target = int(sample_cdf(cdf, rng.random()))
        circ.add(GateOp.cnot(coin, target))
        circ.mark_step()
    return circ.validate()


def or_inplace_block(low: int, high: int, ancilla: int) -> Circuit:
    """In-place Boolean OR: ``high`` becomes ``low OR high``; ``low`` is restored.

    Uses De Morgan complements through the ancilla, swaps the result back
    onto the high wire, and resets the ancilla (with a reset guard up front
    so a dirty ancilla cannot poison the block).
    """
    wires = (low, high, ancilla)
    if len(set(wires)) != 3:
        raise InvalidTargetError(f"OR wires must be distinct, got {wires}")
    n = max(wires) + 1
    circ = Circuit(n_qubits=n, counter=range(0, n))
    circ.add(
        GateOp.x(low),
        GateOp.x(high),
        GateOp.reset(ancilla),
        GateOp.toffoli(low, high, ancilla),
        GateOp.x(low),
        GateOp.x(high),
        GateOp.x(ancilla),
        GateOp.swap(high, ancilla),
        GateOp.reset(ancilla),
    )
    return circ.validate()


def with_cascading_disjunctions(
    circuit: Circuit,
    cfg: WalkConfig,
    insertion_rate: float = 1.0,
) -> Circuit:
    """After each step, OR a sampled lower counter qubit into a higher one.

    The lower index is drawn from ``halving_weights`` restricted to indices
    that have a strictly higher partner; the higher index is uniform among
    strictly higher counter qubits. The sampler is seeded from ``cfg.seed``
    on a stream separate from the jump-target sampler. ``insertion_rate`` is
    the per-step probability of inserting a block; at 0 the circuit is
    returned unchanged.
    """
    if circuit.ancilla is None:
        raise NoAncillaError("cascading disjunctions need a circuit with an ancilla qubit")
    if not 0.0 <= insertion_rate <= 1.0:
        raise ConfigError(f"insertion_rate must be in [0, 1], got {insertion_rate}")
    w = len(circuit.counter)
    if w < 2 or insertion_rate == 0.0:
        return circuit.copy()
    lower_weights = np.asarray(halving_weights(cfg.counter_width)[: w - 1])
    cdf = np.cumsum(lower_weights / lower_weights.sum())
    rng = np.random.default_rng((cfg.seed, 1))
    out = Circuit(
        n_qubits=circuit.n_qubits,
        counter=circuit.counter,
        coin=circuit.coin,
        ancilla=circuit.ancilla,
    )
    prev = 0
    for mark in circuit.steps_marks:
        out.add(*circuit.ops[prev:mark])
        prev = mark
        if rng.random() < insertion_rate:
            lower = int(sample_cdf(cdf, rng.random()))
            higher = int(rng.integers(lower + 1, w))
            block = or_inplace_block(
                circuit.counter.start + lower,
                circuit.counter.start + higher,
                circuit.ancilla,
            )
            out.add(*block.ops)
        out.mark_step()
    out.add(*circuit.ops[prev:])
    return out.validate()


def build_circuit(cfg: WalkConfig) -> Circuit:
    """Dispatch a config to its design's builder."""
    if cfg.design == "binary":
        return binary_counter_circuit(cfg)
    if cfg.design == "arc":
        return arc_counter_circuit(cfg)
    if cfg.design == "arc_walk":
        return arc_walk_circuit(cfg)
    if cfg.design == "random_jump":
        return random_jump_circuit(cfg)
    if cfg.design == "random_jump_cascading":
        return with_cascading_disjunctions(random_jump_circuit(cfg), cfg)
    raise ValueError(f"unknown design {cfg.design!r}")  # pragma: no cover
