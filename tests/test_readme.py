"""README examples: the quick start runs and the circuit text format is as described."""

import contextlib
import io
import pathlib
import re

import pytest

from arcwalk import DESIGNS, Circuit
from arcwalk.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else None]


def test_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_blocks(README, "python")[0], {})
    mean, std = (float(v) for v in out.getvalue().splitlines()[0].split())
    assert 0.0 < mean < 2**6 and std > 0.0


def test_text_format_example_round_trips():
    (example,) = fenced_blocks(section("Circuit text format"), "")
    circuit = Circuit.from_text(example)
    assert (circuit.n_qubits, circuit.counter, circuit.coin, circuit.ancilla) == (
        5, range(0, 3), 3, 4,
    )
    assert circuit.steps_marks == [2]
    assert circuit.to_text() == example


@pytest.mark.parametrize("design", DESIGNS)
def test_emit_circuit_round_trips(design, tmp_path):
    path = tmp_path / "circuit.txt"
    args = ["emit-circuit", "--design", design, "--width", "4", "--steps", "3", "--seed", "2"]
    assert main([*args, "--out", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("# arcwalk-circuit v1\n# nqubits ")
    circuit = Circuit.from_text(text)
    assert circuit.to_text() == text
    assert circuit.n_steps == 3
    assert text.splitlines()[-1] == "# step 3"
