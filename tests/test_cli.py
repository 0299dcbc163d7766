"""Command line front end, exercised in process through cli.main."""

import errno
import json
import math
import os
import stat
import subprocess
import sys

import pytest

import arcwalk.cli

from arcwalk import (
    DEFAULT_NOISE,
    Circuit,
    GateCensus,
    WalkConfig,
    arc_expected,
    build_circuit,
    census,
    derive_seed,
    estimate_fidelity,
    excess_kurtosis,
    fit_normal,
    ingest_prices,
    relative_changes,
    run_shots,
    zeno_experiment,
)
from arcwalk.cli import main
from synthdata import make_housing_records, make_price_csv, records_to_csv


def read_annotated_csv(path):
    """Split an output file into (manifest, other comments, header, rows)."""
    manifest = None
    comments = []
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# manifest: "):
            manifest = json.loads(line[len("# manifest: "):])
        elif line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return manifest, comments, header, rows


class TestDistanceTable:
    def test_binary_column_exact(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main([
            "distance-table", "--designs", "binary", "--width", "4",
            "--steps", "5", "--shots", "30", "--out", str(out),
        ])
        assert code == 0
        manifest, _, header, rows = read_annotated_csv(out)
        assert manifest["command"] == "distance-table"
        assert manifest["seed"] == 0
        assert header == ["steps", "binary"]
        assert [(int(r[0]), float(r[1])) for r in rows] == [(s, float(s)) for s in range(6)]

    def test_zero_steps_single_row(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main([
            "distance-table", "--designs", "arc", "--width", "3",
            "--steps", "0", "--shots", "20", "--out", str(out),
        ]) == 0
        _, _, header, rows = read_annotated_csv(out)
        assert header == ["steps", "arc"]
        assert rows == [["0", "0.0"]]

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["distance-table", "--designs", "arc,arc_walk", "--width", "3",
                "--steps", "3", "--shots", "40", "--seed", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_design_rejected(self, tmp_path):
        assert main([
            "distance-table", "--designs", "spiral", "--out", str(tmp_path / "x.csv"),
        ]) == 2
        assert not (tmp_path / "x.csv").exists()


class TestWalkHist:
    def test_frequencies_match_engine(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert main([
            "walk-hist", "--design", "arc_walk", "--width", "4", "--steps", "5",
            "--shots", "300", "--seed", "2", "--out", str(out),
        ]) == 0
        _, _, header, rows = read_annotated_csv(out)
        assert header == ["position", "frequency"]
        cfg = WalkConfig(4, 5, design="arc_walk", seed=2)
        want = run_shots(build_circuit(cfg), 300, base_seed=derive_seed(2, 0)).frequencies()
        got = {int(p): float(f) for p, f in rows}
        assert got == want
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)

    def test_two_way_has_negative_support(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert main([
            "walk-hist", "--design", "arc_walk", "--width", "4", "--steps", "6",
            "--shots", "300", "--seed", "1", "--two-way", "--out", str(out),
        ]) == 0
        manifest, _, _, rows = read_annotated_csv(out)
        positions = [int(r[0]) for r in rows]
        assert manifest["two_way"] is True
        assert min(positions) < 0 < max(positions)
        assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_down_angle_changes_down_leg_only(self, tmp_path):
        base = tmp_path / "a.csv"
        tilted = tmp_path / "b.csv"
        argv = ["walk-hist", "--design", "arc", "--width", "3", "--steps", "4",
                "--shots", "200", "--seed", "3", "--two-way"]
        assert main(argv + ["--out", str(base)]) == 0
        assert main(argv + ["--down-angle", "0.3", "--out", str(tilted)]) == 0
        am, _, _, arows = read_annotated_csv(base)
        bm, _, _, brows = read_annotated_csv(tilted)
        assert am["down_angle"] is None
        assert bm["down_angle"] == 0.3
        assert arows != brows

    def test_down_angle_requires_two_way(self, tmp_path):
        assert main([
            "walk-hist", "--down-angle", "0.5", "--out", str(tmp_path / "x.csv"),
        ]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_random_jump_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["walk-hist", "--design", "random_jump", "--width", "4",
                "--steps", "6", "--shots", "150", "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noisy_run(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert main([
            "walk-hist", "--design", "arc", "--width", "3", "--steps", "2",
            "--shots", "50", "--noise", "default", "--out", str(out),
        ]) == 0
        manifest, _, _, _ = read_annotated_csv(out)
        assert manifest["noise"]["fidelity_2q"] == DEFAULT_NOISE.fidelity_2q


class TestZeno:
    def test_matches_engine_and_closed_form(self, tmp_path):
        out = tmp_path / "zeno.csv"
        assert main([
            "zeno", "--width", "4", "--steps", "6", "--shots", "400",
            "--seed", "5", "--periods", "0", "--out", str(out),
        ]) == 0
        _, _, header, rows = read_annotated_csv(out)
        assert header == ["period", "mean"]
        got = float(rows[0][1])
        want = zeno_experiment(4, 6, math.pi / 2, [0], 400, seed=5)[0][1]
        assert got == want
        closed = arc_expected(4, 6, math.pi / 2)
        var = sum(
            4**k * (lambda p: p * (1 - p))(math.sin(6 * (math.pi / 2) / 2**k / 2) ** 2)
            for k in range(4)
        )
        assert abs(got - closed) <= 4.0 * math.sqrt(var / 400)

    def test_zero_steps_all_zero(self, tmp_path):
        out = tmp_path / "zeno.csv"
        assert main([
            "zeno", "--width", "3", "--steps", "0", "--shots", "50",
            "--periods", "0,1,2", "--out", str(out),
        ]) == 0
        _, _, _, rows = read_annotated_csv(out)
        assert [float(r[1]) for r in rows] == [0.0, 0.0, 0.0]
        assert [int(r[0]) for r in rows] == [0, 1, 2]

    def test_bad_period_list(self, tmp_path):
        assert main(["zeno", "--periods", "0,x", "--out", str(tmp_path / "z.csv")]) == 2


class TestFidelity:
    def test_explicit_counts(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert main([
            "fidelity", "--count-1q", "33", "--count-2q", "18", "--out", str(out),
        ]) == 0
        _, _, header, rows = read_annotated_csv(out)
        assert header == ["count_1q", "count_2q", "fidelity_1q", "fidelity_2q", "estimated_fidelity"]
        got = float(rows[0][4])
        assert got == estimate_fidelity(GateCensus(33, 18), DEFAULT_NOISE)
        assert got == pytest.approx(0.6067916703838052, abs=1e-15)

    def test_census_from_circuit_file(self, tmp_path):
        circ_file = tmp_path / "circ.txt"
        assert main([
            "emit-circuit", "--design", "arc_walk", "--width", "3", "--steps", "2",
            "--out", str(circ_file),
        ]) == 0
        out = tmp_path / "fid.csv"
        assert main(["fidelity", "--census-from", str(circ_file), "--out", str(out)]) == 0
        _, _, _, rows = read_annotated_csv(out)
        counts = census(build_circuit(WalkConfig(3, 2, design="arc_walk")))
        assert int(rows[0][0]) == counts.count_1q
        assert int(rows[0][1]) == counts.count_2q
        assert float(rows[0][4]) == estimate_fidelity(counts, DEFAULT_NOISE)

    def test_zero_counts_unity(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert main(["fidelity", "--count-1q", "0", "--count-2q", "0", "--out", str(out)]) == 0
        _, _, _, rows = read_annotated_csv(out)
        assert float(rows[0][4]) == 1.0

    def test_partial_counts_default_zero(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert main(["fidelity", "--count-1q", "5", "--out", str(out)]) == 0
        _, _, _, rows = read_annotated_csv(out)
        assert float(rows[0][4]) == pytest.approx(0.997**5)

    def test_sources_are_exclusive(self, tmp_path):
        circ_file = tmp_path / "circ.txt"
        assert main(["emit-circuit", "--width", "2", "--steps", "1", "--out", str(circ_file)]) == 0
        assert main([
            "fidelity", "--census-from", str(circ_file), "--count-1q", "3",
            "--out", str(tmp_path / "f.csv"),
        ]) == 2
        assert main(["fidelity", "--out", str(tmp_path / "f.csv")]) == 2
        assert not (tmp_path / "f.csv").exists()

    def test_missing_circuit_file(self, tmp_path):
        assert main([
            "fidelity", "--census-from", str(tmp_path / "absent.txt"),
            "--out", str(tmp_path / "f.csv"),
        ]) == 2

    @pytest.mark.parametrize("text,message", [
        ("# nqubits 2\n# counter 0 3\nX 0\n", "counter range(0, 3) outside register of 2"),
        ("# nqubits 2\nX 7\n", "op X targets qubit 7 outside register of 2"),
        ("# nqubits 3\n# counter 0 2\n# coin 5\n", "role qubit 5 outside register of 3"),
        ("# nqubits 3\n# coin 1\n", "role qubit 1 overlaps the counter range"),
        ("# nqubits 4\n# counter 0 2\n# coin 2\n# ancilla 2\n", "coin and ancilla must be distinct"),
        ("# nqubits 2\nCNOT 0\n", "CNOT takes 2 target(s), got 1"),
        ("# nqubits 2\nCNOT 1 1\n", "CNOT targets must be distinct, got (1, 1)"),
        ("# nqubits 2\nX -1\n", "negative qubit index in (-1,)"),
        ("# nqubits 2\nRX 0 nan\n", "RX needs a finite angle, got nan"),
    ], ids=["counter", "op_target", "role_outside", "role_overlap", "coin_is_ancilla",
            "arity", "repeated_target", "negative", "angle"])
    def test_invalid_circuit_file_names_its_fault(self, text, message, tmp_path, capsys):
        circ_file, out = tmp_path / "circ.txt", tmp_path / "f.csv"
        circ_file.write_text(text)
        assert main(["fidelity", "--census-from", str(circ_file), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_custom_fidelities(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert main([
            "fidelity", "--count-1q", "2", "--count-2q", "1",
            "--fidelity-1q", "0.9", "--fidelity-2q", "0.8", "--out", str(out),
        ]) == 0
        _, _, _, rows = read_annotated_csv(out)
        assert float(rows[0][4]) == pytest.approx(0.9**2 * 0.8)


class TestMarketReturns:
    def test_summary_matches_library(self, tmp_path):
        src = tmp_path / "prices.csv"
        src.write_text(make_price_csv(n_days=200, seed=4))
        assert main(["market", "returns", str(src)]) == 0
        out = tmp_path / "prices_returns.csv"
        assert out.exists()
        manifest, comments, header, rows = read_annotated_csv(out)
        assert manifest["kind"] == "returns"
        assert header == ["bin_low", "bin_high", "density", "normal_density"]
        assert len(rows) == 20
        summary_line = [c for c in comments if c.startswith("# summary: ")]
        assert len(summary_line) == 1
        summary = json.loads(summary_line[0][len("# summary: "):])
        changes = relative_changes(ingest_prices(str(src)))
        mean, std = fit_normal(changes)
        assert summary["n_changes"] == len(changes)
        assert summary["mean"] == pytest.approx(mean, abs=1e-12)
        assert summary["std"] == pytest.approx(std, abs=1e-12)
        assert summary["excess_kurtosis"] == pytest.approx(excess_kurtosis(changes), abs=1e-12)

    def test_stdout_target(self, tmp_path, capsys):
        src = tmp_path / "prices.csv"
        src.write_text(make_price_csv(n_days=50, seed=1))
        assert main(["market", "returns", str(src), "--out", "-"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("# manifest: ")
        assert "bin_low,bin_high,density,normal_density" in captured

    def test_missing_input_is_usage_error(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["market", "returns", str(missing)]) == 2
        assert not (tmp_path / "nope_returns.csv").exists()

    def test_bad_row_is_runtime_error_and_writes_nothing(self, tmp_path):
        src = tmp_path / "prices.csv"
        src.write_text("date,close\n2024-01-02,100.0\n2024-01-03,-5.0\n")
        assert main(["market", "returns", str(src)]) == 1
        assert not (tmp_path / "prices_returns.csv").exists()

    def test_out_prefix_rejected_for_returns(self, tmp_path):
        src = tmp_path / "prices.csv"
        src.write_text(make_price_csv(n_days=30, seed=0))
        assert main(["market", "returns", str(src), "--out-prefix", "x"]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_change_is_runtime_error_and_writes_nothing(self, tmp_path, capsys):
        # 1e200 / 1e-200 overflows float64: numpy's histogram used to end the run.
        src = tmp_path / "prices.csv"
        closes = ["1e-200", "1e200", "1e-200", "1e200", "1"]
        src.write_text("date,close\n" + "".join(f"2024-01-0{d + 1},{c}\n"
                                               for d, c in enumerate(closes)))
        assert main(["market", "returns", str(src)]) == 1
        assert "arcwalk: error: mean or standard deviation overflows float64" in (
            capsys.readouterr().err)
        assert sorted(os.listdir(tmp_path)) == ["prices.csv"]


class TestMarketHousing:
    def test_outputs_parse_and_agree(self, tmp_path):
        src = tmp_path / "metros.csv"
        src.write_text(records_to_csv(make_housing_records(metros=6, months=18, seed=11)))
        prefix = tmp_path / "hp"
        assert main(["market", "housing", str(src), "--out-prefix", str(prefix)]) == 0
        per_metro_path = tmp_path / "hp_per_metro.csv"
        report_path = tmp_path / "hp_report.json"
        assert per_metro_path.exists() and report_path.exists()
        _, _, header, rows = read_annotated_csv(per_metro_path)
        assert header == ["metro", "r", "months_used"]
        report = json.loads(report_path.read_text())
        assert sorted(report["per_metro"]) == [r[0] for r in rows]
        for metro, r, months in rows:
            entry = report["per_metro"][metro]
            assert float(r) == entry["r"]
            assert -1.0 <= entry["r"] <= 1.0
            assert int(months) == entry["months_used"] == 18
        assert sum(report["histogram"]["bin_counts"]) == 6
        assert report["skipped"] == []

    def test_sales_counts_equal_as_float64_skip_the_metro(self, tmp_path):
        # 2**60 and 2**60 + 1 differ as integers but not as float64: a constant column.
        rows = "".join(f"big,2024-0{m},{2**60 + m % 2},{0.9 + 0.01 * m!r}\n" for m in range(1, 6))
        src = tmp_path / "metros.csv"
        src.write_text(records_to_csv(make_housing_records(metros=2, months=6, seed=2)) + rows)
        assert main(["market", "housing", str(src), "--out-prefix", str(tmp_path / "hp")]) == 0
        report = json.loads((tmp_path / "hp_report.json").read_text())
        assert report["skipped"] == ["big"]
        assert sorted(report["per_metro"]) == ["metro000", "metro001"]

    def test_ratios_without_squared_spread_skip_the_metro(self, tmp_path):
        # Not constant, but the deviations of 5e-324 and 1e-323 square to 0 in pearson.
        rows = "tiny,2024-01,1,5e-324\ntiny,2024-02,2,1e-323\ntiny,2024-03,3,1e-323\n"
        src = tmp_path / "metros.csv"
        src.write_text(records_to_csv(make_housing_records(metros=2, months=6, seed=2)) + rows)
        assert main(["market", "housing", str(src), "--out-prefix", str(tmp_path / "hp")]) == 0
        assert (tmp_path / "hp_per_metro.csv").exists()
        report = json.loads((tmp_path / "hp_report.json").read_text())
        assert report["skipped"] == ["tiny"]
        assert sorted(report["per_metro"]) == ["metro000", "metro001"]

    def test_default_prefix_from_input_stem(self, tmp_path):
        src = tmp_path / "metros.csv"
        src.write_text(records_to_csv(make_housing_records(metros=2, months=6, seed=2)))
        assert main(["market", "housing", str(src)]) == 0
        assert (tmp_path / "metros_housing_per_metro.csv").exists()
        assert (tmp_path / "metros_housing_report.json").exists()

    def test_out_rejected_for_housing(self, tmp_path):
        src = tmp_path / "metros.csv"
        src.write_text(records_to_csv(make_housing_records(metros=2, months=6, seed=2)))
        assert main(["market", "housing", str(src), "--out", "x.csv"]) == 2

    def test_bad_month_is_runtime_error(self, tmp_path):
        src = tmp_path / "metros.csv"
        src.write_text(
            "metro,month,sales_count,sale_to_list_ratio\ntown,2024-99,10,0.95\n"
        )
        assert main(["market", "housing", str(src), "--out-prefix", str(tmp_path / "h")]) == 1
        assert not (tmp_path / "h_report.json").exists()


class TestEmitCircuit:
    def test_arc_gate_inventory(self, capsys):
        assert main(["emit-circuit", "--design", "arc", "--width", "6", "--steps", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for ln in lines if ln.startswith("RX ")) == 18
        assert sum(1 for ln in lines if ln.startswith("# step")) == 3

    def test_binary_smallest(self, capsys):
        assert main(["emit-circuit", "--design", "binary", "--width", "2", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "CNOT 0 1" in out
        assert "X 0" in out

    def test_output_reparses(self, tmp_path):
        out = tmp_path / "circ.txt"
        assert main([
            "emit-circuit", "--design", "random_jump_cascading", "--width", "4",
            "--steps", "3", "--seed", "6", "--out", str(out),
        ]) == 0
        circ = Circuit.from_text(out.read_text())
        want = build_circuit(WalkConfig(4, 3, design="random_jump_cascading", seed=6))
        assert circ == want

    def test_insertion_rate_zero_drops_blocks(self, tmp_path):
        out = tmp_path / "circ.txt"
        assert main([
            "emit-circuit", "--design", "random_jump_cascading", "--width", "4",
            "--steps", "3", "--seed", "6", "--insertion-rate", "0", "--out", str(out),
        ]) == 0
        circ = Circuit.from_text(out.read_text())
        assert all(op.kind in ("H", "CNOT") for op in circ.ops)

    def test_unknown_design_rejected(self):
        assert main(["emit-circuit", "--design", "spiral"]) == 2


class TestConfigAndSeeds:
    def test_config_sets_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("width=4\nsteps=2\ndesigns=arc\nshots=25\n")
        out = tmp_path / "t.csv"
        assert main(["distance-table", "--config", str(cfg), "--out", str(out)]) == 0
        manifest, _, _, rows = read_annotated_csv(out)
        assert manifest["width"] == 4
        assert manifest["steps"] == 2
        assert manifest["shots"] == 25
        assert len(rows) == 3
        out2 = tmp_path / "t2.csv"
        assert main([
            "distance-table", "--config", str(cfg), "--steps", "1", "--out", str(out2),
        ]) == 0
        manifest2, _, _, _ = read_annotated_csv(out2)
        assert manifest2["steps"] == 1
        assert manifest2["width"] == 4

    def test_config_defaults_stay_with_their_call(self, tmp_path):
        # A plain call reuses one parser per process; a --config call builds its own, so
        # the config's defaults never reach the next plain call.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("width=4\nsteps=2\ndesigns=arc\nshots=25\n")
        first = tmp_path / "a.csv"
        assert main(["distance-table", "--config", str(cfg), "--out", str(first)]) == 0
        out = tmp_path / "b.csv"
        assert main(["distance-table", "--designs", "arc", "--out", str(out)]) == 0
        manifest, _, _, rows = read_annotated_csv(out)
        assert (manifest["width"], manifest["steps"], manifest["shots"]) == (6, 10, 1000)
        assert len(rows) == 11

    def test_hyphenated_config_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base-angle=1.0\n")
        out = tmp_path / "t.csv"
        assert main([
            "distance-table", "--config", str(cfg), "--designs", "arc",
            "--width", "3", "--steps", "1", "--shots", "20", "--out", str(out),
        ]) == 0
        manifest, _, _, _ = read_annotated_csv(out)
        assert manifest["base_angle"] == 1.0

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        assert main(["distance-table", "--config", str(cfg), "--out", "-"]) == 2

    @pytest.mark.parametrize("line", ["version = 9", "kind = returns", "input = prices.csv"])
    def test_config_key_of_no_value_taking_flag_is_unknown(self, tmp_path, capsys, line):
        # --version takes no value, and market's kind and input are positionals.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        assert main(["--config", str(cfg), "fidelity", "--count-1q", "1", "--out", "-"]) == 2
        assert f"unknown config key(s): {line.split()[0]}" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("width=wide\n")
        assert main(["distance-table", "--config", str(cfg), "--out", "-"]) == 2

    def test_boolean_config_word_sets_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noisy_cascading = yes\n")
        out = tmp_path / "t.csv"
        assert main([
            "distance-table", "--config", str(cfg), "--designs", "random_jump_cascading",
            "--width", "3", "--steps", "1", "--random-circuits", "2", "--random-shots", "3",
            "--out", str(out),
        ]) == 0
        manifest, _, _, _ = read_annotated_csv(out)
        assert manifest["noisy_cascading"] is True

    def test_boolean_config_word_clears_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("two_way = off\n")
        out = tmp_path / "h.csv"
        assert main([
            "walk-hist", "--config", str(cfg), "--design", "arc", "--width", "3",
            "--steps", "2", "--shots", "20", "--out", str(out),
        ]) == 0
        manifest, _, _, _ = read_annotated_csv(out)
        assert manifest["two_way"] is False

    def test_bad_boolean_config_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("two_way = maybe\n")
        assert main([
            "walk-hist", "--config", str(cfg), "--design", "arc", "--out", "-",
        ]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main([
            "distance-table", "--config", str(tmp_path / "absent.cfg"), "--out", "-",
        ]) == 2

    @pytest.mark.parametrize("form", [
        ["--conf", "{a}"],  # an argparse prefix of --config
        ["--config={a}"],
        ["--config", "{b}", "--config", "{a}"],  # the last one wins, as for every flag
    ])
    def test_config_flag_forms(self, tmp_path, form):
        (tmp_path / "a.cfg").write_text("steps=1\n")
        (tmp_path / "b.cfg").write_text("steps=2\n")
        out = tmp_path / "t.csv"
        paths = {"a": tmp_path / "a.cfg", "b": tmp_path / "b.cfg"}
        assert main([
            "distance-table", *(token.format(**paths) for token in form), "--designs", "arc",
            "--width", "3", "--shots", "20", "--out", str(out),
        ]) == 0
        manifest, _, _, _ = read_annotated_csv(out)
        assert manifest["steps"] == 1

    def test_config_before_subcommand(self, tmp_path):
        # The subcommand's own --config, not given, leaves the top-level one standing.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=1\n")
        out = tmp_path / "t.csv"
        assert main([
            "--config", str(cfg), "distance-table", "--designs", "arc", "--width", "3",
            "--shots", "20", "--out", str(out),
        ]) == 0
        manifest, _, _, _ = read_annotated_csv(out)
        assert manifest["steps"] == 1

    def test_flags_are_read_before_the_config_file(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.cfg")
        assert main(["--config", absent, "--version"]) == 0
        assert main(["distance-table", "--config", absent, "--frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --frobnicate" in err and "not found" not in err

    def test_env_seed_used_when_no_flag(self, tmp_path, monkeypatch):
        argv = ["walk-hist", "--design", "random_jump", "--width", "3",
                "--steps", "4", "--shots", "80"]
        flagged = tmp_path / "a.csv"
        assert main(argv + ["--seed", "9", "--out", str(flagged)]) == 0
        monkeypatch.setenv("QWALK_SEED", "9")
        env_based = tmp_path / "b.csv"
        assert main(argv + ["--out", str(env_based)]) == 0
        assert flagged.read_bytes() == env_based.read_bytes()

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QWALK_SEED", "9")
        out = tmp_path / "a.csv"
        assert main([
            "walk-hist", "--design", "random_jump", "--width", "3", "--steps", "4",
            "--shots", "80", "--seed", "3", "--out", str(out),
        ]) == 0
        manifest, _, _, _ = read_annotated_csv(out)
        assert manifest["seed"] == 3

    def test_config_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QWALK_SEED", "9")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=4\n")
        out = tmp_path / "a.csv"
        assert main([
            "walk-hist", "--config", str(cfg), "--design", "arc", "--width", "3",
            "--steps", "2", "--shots", "40", "--out", str(out),
        ]) == 0
        manifest, _, _, _ = read_annotated_csv(out)
        assert manifest["seed"] == 4

    def test_invalid_env_seed(self, monkeypatch, tmp_path):
        monkeypatch.setenv("QWALK_SEED", "elephant")
        assert main([
            "walk-hist", "--design", "arc", "--width", "3", "--steps", "2",
            "--shots", "40", "--out", str(tmp_path / "a.csv"),
        ]) == 2

    @pytest.mark.parametrize("cmd", ["walk-hist", "zeno", "emit-circuit"])
    def test_negative_env_seed(self, monkeypatch, tmp_path, cmd):
        monkeypatch.setenv("QWALK_SEED", "-1")
        assert main([cmd, "--width", "3", "--steps", "2", "--out", str(tmp_path / "a.csv")]) == 2
        assert list(tmp_path.iterdir()) == []


class TestTopLevel:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "arcwalk" in capsys.readouterr().out

    def test_module_entry_point(self):
        # ``python -m arcwalk.cli`` exits with main's return code.
        src = os.path.dirname(os.path.dirname(arcwalk.cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "arcwalk.cli", "--version"],
                              capture_output=True, text=True, env=env, check=False)
        assert (done.returncode, done.stdout) == (0, f"arcwalk {arcwalk.__version__}\n")

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_custom_noise_requires_preset(self, tmp_path):
        assert main([
            "walk-hist", "--design", "arc", "--fidelity-2q", "0.5",
            "--out", str(tmp_path / "x.csv"),
        ]) == 2

    def test_custom_noise_values_validated(self, tmp_path):
        assert main([
            "walk-hist", "--design", "arc", "--noise", "custom", "--fidelity-2q", "1.5",
            "--out", str(tmp_path / "x.csv"),
        ]) == 2

    def test_custom_noise_applied(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main([
            "walk-hist", "--design", "arc", "--width", "3", "--steps", "2",
            "--shots", "40", "--noise", "custom", "--fidelity-2q", "0.9",
            "--out", str(out),
        ]) == 0
        manifest, _, _, _ = read_annotated_csv(out)
        assert manifest["noise"]["fidelity_2q"] == 0.9
        assert manifest["noise"]["fidelity_1q"] == DEFAULT_NOISE.fidelity_1q


SIM_COMMANDS = ("distance-table", "walk-hist", "zeno")

# Bad invocations and their exit codes: 2 for a bad value, whichever layer
# rejects it, and 1 for a runtime failure. "{prices}" and "{circuit}" name
# input files the test writes; every row also gets "--out" in the same directory.
BAD_INVOCATIONS = [
    *(
        ([cmd, flag, value], 2)
        for cmd in (*SIM_COMMANDS, "emit-circuit")
        for flag, value in (("--width", "0"), ("--steps", "-1"))
    ),
    *(([cmd, "--shots", "0"], 2) for cmd in SIM_COMMANDS),
    (["distance-table", "--random-circuits", "0"], 2),
    (["distance-table", "--random-shots", "0"], 2),
    (["distance-table", "--designs", "spiral"], 2),
    (["distance-table", "--designs", ","], 2),
    (["distance-table", "--designs", "arc,arc"], 2),
    (["zeno", "--periods", "0,-1"], 2),
    (["zeno", "--periods", ","], 2),
    (["fidelity", "--count-1q", "-1"], 2),
    (["fidelity", "--count-1q", "1", "--fidelity-1q", "2"], 2),
    (["walk-hist", "--noise", "custom", "--readout-flip", "1"], 2),
    (["market", "returns", "{prices}", "--bins", "0"], 2),
    (["emit-circuit", "--design", "arc", "--insertion-rate", "2"], 2),
    (["emit-circuit", "--design", "random_jump_cascading", "--insertion-rate", "2"], 2),
    (["emit-circuit", "--design", "arc", "--insertion-rate", "0.5"], 2),
    *(
        ([cmd, "--base-angle", value], 2)
        for cmd in (*SIM_COMMANDS, "emit-circuit")
        for value in ("0", "-1", "nan")
    ),
    (["walk-hist", "--two-way", "--down-angle", "-1"], 2),
    (["walk-hist", "--width", "21", "--noise", "default", "--shots", "1"], 2),
    *(([cmd, "--seed", "-1"], 2) for cmd in (*SIM_COMMANDS, "emit-circuit")),
    (["walk-hist", "--design", "random_jump", "--seed", "-1"], 2),
    (["emit-circuit", "--design", "random_jump", "--seed", "-5"], 2),
    (["distance-table", "--designs", "arc", "--seed", "-3"], 2),
    (["fidelity", "--census-from", "{circuit}"], 1),
]


@pytest.mark.parametrize(
    "argv,code", BAD_INVOCATIONS, ids=[" ".join(argv) for argv, _ in BAD_INVOCATIONS]
)
def test_bad_invocation_exit_code(argv, code, tmp_path):
    inputs = {"prices": tmp_path / "prices.csv", "circuit": tmp_path / "circ.txt"}
    inputs["prices"].write_text(make_price_csv(n_days=30, seed=0))
    inputs["circuit"].write_text("# nqubits 1\nFROB 0\n")
    argv = [arg.format(**inputs) for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == code
    assert sorted(tmp_path.iterdir()) == sorted(inputs.values())


class TestAtomicOutput:
    ARGV = ["walk-hist", "--design", "arc", "--width", "3", "--steps", "2", "--shots", "20"]

    def test_write_failing_partway_leaves_no_file(self, tmp_path, monkeypatch):
        real_open = open

        class FailsHalfway:
            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(arcwalk.cli, "open", FailsHalfway, raising=False)
        out = tmp_path / "hist.csv"
        assert main(self.ARGV + ["--out", str(out)]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_success_leaves_only_the_target(self, tmp_path):
        out = tmp_path / "hist.csv"
        out.write_text("stale\n")
        assert main(self.ARGV + ["--out", str(out)]) == 0
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text().startswith("# manifest: ")

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "hist.csv"
        out.write_text("stale\n")
        out.chmod(0o640)
        assert main(self.ARGV + ["--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text().startswith("# manifest: ")

    def test_symlink_is_written_through(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("stale\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        assert main(self.ARGV + ["--out", str(link)]) == 0
        assert link.is_symlink()
        assert real.read_text().startswith("# manifest: ")
        assert sorted(tmp_path.iterdir()) == [link, real]

    def test_hard_link_is_written_in_place(self, tmp_path):
        out = tmp_path / "hist.csv"
        out.write_text("stale\n")
        twin = tmp_path / "twin.csv"
        os.link(out, twin)
        assert main(self.ARGV + ["--out", str(out)]) == 0
        assert twin.read_text() == out.read_text()
        assert out.read_text().startswith("# manifest: ")

    def test_failed_second_output_leaves_neither(self, tmp_path):
        src = tmp_path / "metros.csv"
        src.write_text(records_to_csv(make_housing_records(metros=2, months=6, seed=2)))
        (tmp_path / "out_report.json").mkdir()
        argv = ["market", "housing", str(src), "--out-prefix", str(tmp_path / "out")]
        assert main(argv) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metros.csv", "out_report.json"]
        assert list((tmp_path / "out_report.json").iterdir()) == []

    def test_fifo_is_written_through(self, tmp_path):
        # Stands in for device nodes such as /dev/null: the node must survive.
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(self.ARGV + ["--out", str(fifo)]) == 0
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert data.startswith(b"# manifest: ")
