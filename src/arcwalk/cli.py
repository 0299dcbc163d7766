"""Command-line front end.

Exit codes: 0 on success, 2 for usage problems (bad flags, bad config keys,
missing input files, and any ``ConfigError`` the library raises for an
out-of-range argument), 1 for runtime failures. On a nonzero exit no output
file is written. Every CSV starts with a ``# manifest: {...}`` comment that
records the parameters of the run, so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__
from .circuits import (
    DESIGNS,
    Circuit,
    WalkConfig,
    build_circuit,
    random_jump_circuit,
    with_cascading_disjunctions,
)
from .engine import (
    RANDOM_JUMP_CIRCUITS,
    RANDOM_JUMP_SHOTS,
    derive_seed,
    distance_table,
    run_shots,
    two_way_distribution,
    zeno_experiment,
)
from .market import (
    excess_kurtosis,
    fit_normal,
    housing_correlations,
    ingest_metro,
    ingest_prices,
    relative_changes,
)
from .noise import DEFAULT_NOISE, HIGH_END_NOISE, GateCensus, NoiseModel, census, estimate_fidelity
from .sim import ConfigError

NOISE_PRESETS = {"none": None, "default": DEFAULT_NOISE, "high-end": HIGH_END_NOISE}


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="key=value defaults file; flags on the command line still win",
    )


def _add_walk_args(parser, width: int, steps: int, shots: int | None) -> None:
    """--width, --steps, --base-angle, --shots (unless ``shots`` is None) and --seed."""
    parser.add_argument("--width", type=int, default=width, help="counter qubits")
    parser.add_argument("--steps", type=int, default=steps, help="walk steps (table: 0 to this)")
    parser.add_argument(
        "--base-angle", type=float, default=math.pi / 2, help="step rotation (radians)"
    )
    if shots is not None:
        parser.add_argument("--shots", type=int, default=shots, help="shots per run")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (default: QWALK_SEED env var, else 0)",
    )


def _add_noise_args(parser, default: str = "none") -> None:
    parser.add_argument(
        "--noise",
        choices=sorted(NOISE_PRESETS) + ["custom"],
        default=default,
        help=f"noise preset (default: {default})",
    )
    parser.add_argument("--fidelity-1q", type=float, default=None, help="with --noise custom")
    parser.add_argument("--fidelity-2q", type=float, default=None, help="with --noise custom")
    parser.add_argument("--readout-flip", type=float, default=None, help="with --noise custom")


def build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="arcwalk",
        description="Shot-based simulator for quantum counting walks, with market diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"arcwalk {__version__}")
    _add_config_arg(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "distance-table", help="mean decoded distance per design and step count"
    )
    p_table.add_argument(
        "--designs",
        default=",".join(DESIGNS),
        help="comma-separated design names (default: all)",
    )
    _add_walk_args(p_table, width=6, steps=10, shots=1000)
    _add_noise_args(p_table)
    p_table.add_argument(
        "--noisy-cascading",
        action="store_true",
        help="apply the noise model to cascading circuits too (default: they stay ideal)",
    )
    p_table.add_argument("--random-circuits", type=int, default=RANDOM_JUMP_CIRCUITS)
    p_table.add_argument("--random-shots", type=int, default=RANDOM_JUMP_SHOTS)
    p_table.add_argument("--out", default="distance_table.csv", help="'-' for stdout")
    p_table.set_defaults(func=_cmd_distance_table)

    p_hist = sub.add_parser("walk-hist", help="position histogram of one walk")
    p_hist.add_argument("--design", choices=DESIGNS, default="arc_walk")
    _add_walk_args(p_hist, width=6, steps=10, shots=1000)
    _add_noise_args(p_hist)
    p_hist.add_argument(
        "--two-way",
        action="store_true",
        help="signed difference of an up run and an independent down run",
    )
    p_hist.add_argument(
        "--down-angle",
        type=float,
        default=None,
        help="base angle of the down circuit (with --two-way; default: --base-angle)",
    )
    p_hist.add_argument("--out", default="walk_hist.csv", help="'-' for stdout")
    p_hist.set_defaults(func=_cmd_walk_hist)

    p_zeno = sub.add_parser(
        "zeno", help="mean counter value vs mid-circuit measurement period"
    )
    _add_walk_args(p_zeno, width=8, steps=20, shots=2000)
    p_zeno.add_argument(
        "--periods",
        default="0,7,1",
        help="comma-separated measurement periods; 0 means never",
    )
    p_zeno.add_argument("--out", default="zeno.csv", help="'-' for stdout")
    p_zeno.set_defaults(func=_cmd_zeno)

    p_fid = sub.add_parser(
        "fidelity", help="whole-circuit fidelity estimate from a gate census"
    )
    p_fid.add_argument(
        "--census-from",
        metavar="FILE",
        default=None,
        help="circuit text file to census (see emit-circuit)",
    )
    p_fid.add_argument("--count-1q", type=int, default=None, help="explicit 1q gate count")
    p_fid.add_argument("--count-2q", type=int, default=None, help="explicit 2q gate count")
    p_fid.add_argument("--fidelity-1q", type=float, default=DEFAULT_NOISE.fidelity_1q)
    p_fid.add_argument("--fidelity-2q", type=float, default=DEFAULT_NOISE.fidelity_2q)
    p_fid.add_argument("--out", default="fidelity.csv", help="'-' for stdout")
    p_fid.set_defaults(func=_cmd_fidelity)

    p_market = sub.add_parser("market", help="price-return and housing-market statistics")
    p_market.add_argument("kind", choices=("returns", "housing"))
    p_market.add_argument("input", help="CSV input file")
    p_market.add_argument("--out", default=None, help="returns only; '-' for stdout")
    p_market.add_argument("--out-prefix", default=None, help="housing only")
    p_market.add_argument("--bins", type=int, default=20, help="histogram bins")
    p_market.set_defaults(func=_cmd_market)

    p_emit = sub.add_parser("emit-circuit", help="print a circuit in the text format")
    p_emit.add_argument("--design", choices=DESIGNS, default="arc")
    _add_walk_args(p_emit, width=6, steps=3, shots=None)
    p_emit.add_argument(
        "--insertion-rate",
        type=float,
        default=1.0,
        help="per-step probability of a cascading block (cascading design only)",
    )
    p_emit.add_argument("--out", default="-", help="output path (default: stdout)")
    p_emit.set_defaults(func=_cmd_emit_circuit)

    subparsers = [p_table, p_hist, p_zeno, p_fid, p_market, p_emit]
    for p in subparsers:
        _add_config_arg(p)
    return parser, [parser, *subparsers]


def _load_config(path: str) -> dict[str, str]:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            if not sep or not key.strip():
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _convert_config_value(action: argparse.Action, raw: str, key: str):
    if action.const is True and action.nargs == 0:
        low = raw.lower()
        if low in _TRUE_WORDS:
            return True
        if low in _FALSE_WORDS:
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {raw!r}")
    value = raw
    if action.type is not None:
        try:
            value = action.type(raw)
        except ValueError:
            raise ConfigError(f"config key {key}: bad value {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(
            f"config key {key}: {value!r} not one of {sorted(action.choices)}"
        )
    return value


def _apply_config(config: dict[str, str], parsers: list[argparse.ArgumentParser]) -> None:
    """Install config values as per-parser defaults so flags still override."""
    consumed: set[str] = set()
    for parser in parsers:
        for action in parser._actions:
            dest = action.dest
            if dest in ("help", "config", "command", "func") or dest not in config:
                continue
            parser.set_defaults(**{dest: _convert_config_value(action, config[dest], dest)})
            consumed.add(dest)
    unknown = sorted(set(config) - consumed)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")


def _prescan_config_path(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _resolve_seed(args) -> int:
    raw = args.seed if args.seed is not None else os.environ.get("QWALK_SEED", "").strip() or "0"
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"QWALK_SEED must be an integer, got {raw!r}") from None
    _require(seed >= 0, f"seeds must be nonnegative integers, got {seed}")
    return seed


def _resolve_noise(args) -> NoiseModel | None:
    names = ("fidelity_1q", "fidelity_2q", "readout_flip")
    given = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    if args.noise != "custom":
        if given:
            raise ConfigError(
                "--fidelity-1q/--fidelity-2q/--readout-flip require --noise custom"
            )
        return NOISE_PRESETS[args.noise]
    return dataclasses.replace(DEFAULT_NOISE, **given)


def _noise_manifest(model: NoiseModel | None):
    return None if model is None else dataclasses.asdict(model)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _csv_content(
    manifest: dict,
    header: list[str],
    rows: list[tuple],
    extra_comments: list[str] | None = None,
) -> str:
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    for comment in extra_comments or ():
        buf.write(comment + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(*outputs: tuple[str, str]) -> None:
    """Write each ``(path, content)`` of one command (path ``-``: stdout). A new path or a
    lone regular file of ours gets a temporary file beside it with the target's mode; all
    of them are written before any is renamed onto its target and removed if anything
    fails, so a failed command leaves the old files or none. Symlinks, devices, FIFOs and
    others are written in place, after the temporary files."""
    staged, in_place = [], []
    try:
        for path, content in outputs:
            st = os.lstat(path) if os.path.lexists(path) else None
            if path == "-" or st and not (
                stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
            ):
                in_place.append((path, content))
                continue
            staged.append((f"{path}.{os.getpid()}.tmp", path))
            with open(staged[-1][0], "w") as fh:
                fh.write(content)
            if st:
                os.chmod(staged[-1][0], stat.S_IMODE(st.st_mode))
        for path, content in in_place:
            with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w") as fh:
                fh.write(content)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {raw!r}") from None


def _cmd_distance_table(args) -> int:
    designs = [d.strip() for d in args.designs.split(",") if d.strip()]
    _require(bool(designs), "--designs must name at least one design")
    seed = _resolve_seed(args)
    noise = _resolve_noise(args)
    table = distance_table(
        designs,
        args.steps,
        args.width,
        shots=args.shots,
        noise=noise,
        base_angle=args.base_angle,
        seed=seed,
        noisy_cascading=args.noisy_cascading,
        random_circuits=args.random_circuits,
        random_shots=args.random_shots,
    )
    manifest = {
        "command": "distance-table",
        "designs": designs,
        "steps": args.steps,
        "width": args.width,
        "shots": args.shots,
        "base_angle": args.base_angle,
        "seed": seed,
        "noise": _noise_manifest(noise),
        "noisy_cascading": args.noisy_cascading,
        "random_circuits": args.random_circuits,
        "random_shots": args.random_shots,
    }
    rows = [
        (steps, *(cells[d].mean for d in designs)) for steps, cells in table.rows
    ]
    _emit((args.out, _csv_content(manifest, ["steps", *designs], rows)))
    return 0


def _cmd_walk_hist(args) -> int:
    _require(
        args.down_angle is None or args.two_way,
        "--down-angle only applies with --two-way",
    )
    seed = _resolve_seed(args)
    noise = _resolve_noise(args)
    cfg = WalkConfig(
        args.width, args.steps, design=args.design, base_angle=args.base_angle, seed=seed
    )
    hist = run_shots(build_circuit(cfg), args.shots, noise=noise, base_seed=derive_seed(seed, 0))
    if args.two_way:
        down_angle = args.base_angle if args.down_angle is None else args.down_angle
        down_cfg = dataclasses.replace(cfg, base_angle=down_angle)
        down = run_shots(
            build_circuit(down_cfg), args.shots, noise=noise, base_seed=derive_seed(seed, 1)
        )
        hist = two_way_distribution(hist, down)
    freqs = hist.frequencies()
    rows = [(pos, freqs[pos]) for pos in sorted(freqs)]
    manifest = {
        "command": "walk-hist",
        "design": args.design,
        "width": args.width,
        "steps": args.steps,
        "base_angle": args.base_angle,
        "shots": args.shots,
        "seed": seed,
        "noise": _noise_manifest(noise),
        "two_way": args.two_way,
        "down_angle": args.down_angle,
    }
    _emit((args.out, _csv_content(manifest, ["position", "frequency"], rows)))
    return 0


def _cmd_zeno(args) -> int:
    periods = _parse_int_list(args.periods, "--periods")
    _require(bool(periods), "--periods must name at least one period")
    seed = _resolve_seed(args)
    results = zeno_experiment(
        args.width, args.steps, args.base_angle, periods, shots=args.shots, seed=seed
    )
    manifest = {
        "command": "zeno",
        "width": args.width,
        "steps": args.steps,
        "base_angle": args.base_angle,
        "periods": periods,
        "shots": args.shots,
        "seed": seed,
    }
    _emit((args.out, _csv_content(manifest, ["period", "mean"], results)))
    return 0


def _cmd_fidelity(args) -> int:
    explicit = args.count_1q is not None or args.count_2q is not None
    _require(
        (args.census_from is not None) != explicit,
        "give either --census-from or --count-1q/--count-2q",
    )
    if args.census_from is not None:
        _require(os.path.isfile(args.census_from), f"circuit file not found: {args.census_from}")
        with open(args.census_from) as fh:
            counts = census(Circuit.from_text(fh.read()))
        source = os.path.basename(args.census_from)
    else:
        c1 = args.count_1q if args.count_1q is not None else 0
        c2 = args.count_2q if args.count_2q is not None else 0
        counts = GateCensus(c1, c2)
        source = "explicit"
    model = NoiseModel(args.fidelity_1q, args.fidelity_2q)
    estimate = estimate_fidelity(counts, model)
    manifest = {
        "command": "fidelity",
        "source": source,
        "fidelity_1q": model.fidelity_1q,
        "fidelity_2q": model.fidelity_2q,
    }
    row = (counts.count_1q, counts.count_2q, model.fidelity_1q, model.fidelity_2q, estimate)
    header = ["count_1q", "count_2q", "fidelity_1q", "fidelity_2q", "estimated_fidelity"]
    _emit((args.out, _csv_content(manifest, header, [row])))
    return 0


def _cmd_market(args) -> int:
    _require(os.path.isfile(args.input), f"input file not found: {args.input}")
    _require(args.bins >= 1, "--bins must be positive")
    stem = os.path.splitext(args.input)[0]
    if args.kind == "returns":
        _require(args.out_prefix is None, "--out-prefix applies to the housing kind only")
        series = ingest_prices(args.input)
        changes = relative_changes(series)
        mean, std = fit_normal(changes)
        kurt = excess_kurtosis(changes)
        density, edges = np.histogram(changes, bins=args.bins, density=True)
        centers = (edges[:-1] + edges[1:]) / 2.0
        overlay = np.exp(-0.5 * ((centers - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
        manifest = {
            "command": "market",
            "kind": "returns",
            "input": os.path.basename(args.input),
            "bins": args.bins,
        }
        summary = {
            "n_changes": int(changes.size),
            "mean": mean,
            "std": std,
            "excess_kurtosis": kurt,
        }
        rows = [
            (float(edges[i]), float(edges[i + 1]), float(density[i]), float(overlay[i]))
            for i in range(args.bins)
        ]
        content = _csv_content(
            manifest,
            ["bin_low", "bin_high", "density", "normal_density"],
            rows,
            extra_comments=["# summary: " + json.dumps(summary, sort_keys=True)],
        )
        _emit((args.out if args.out is not None else f"{stem}_returns.csv", content))
        return 0
    _require(args.out is None, "--out applies to the returns kind only; see --out-prefix")
    records = ingest_metro(args.input)
    report = housing_correlations(records, bins=args.bins)
    manifest = {
        "command": "market",
        "kind": "housing",
        "input": os.path.basename(args.input),
        "bins": args.bins,
    }
    metros = sorted(report.per_metro)
    csv_rows = [
        (m, report.per_metro[m].pearson_r, report.per_metro[m].months_used) for m in metros
    ]
    per_metro_csv = _csv_content(manifest, ["metro", "r", "months_used"], csv_rows)
    report_json = json.dumps(
        {
            "manifest": manifest,
            "per_metro": {
                m: {
                    "r": report.per_metro[m].pearson_r,
                    "months_used": report.per_metro[m].months_used,
                }
                for m in metros
            },
            "skipped": report.skipped,
            "histogram": {"bin_edges": report.bin_edges, "bin_counts": report.bin_counts},
        },
        sort_keys=True,
        indent=2,
    ) + "\n"
    prefix = args.out_prefix if args.out_prefix is not None else f"{stem}_housing"
    _emit((f"{prefix}_per_metro.csv", per_metro_csv), (f"{prefix}_report.json", report_json))
    return 0


def _cmd_emit_circuit(args) -> int:
    _require(
        0.0 <= args.insertion_rate <= 1.0,
        f"--insertion-rate must be in [0, 1], got {args.insertion_rate}",
    )
    seed = _resolve_seed(args)
    cfg = WalkConfig(
        args.width, args.steps, design=args.design, base_angle=args.base_angle, seed=seed
    )
    if args.design == "random_jump_cascading" and args.insertion_rate != 1.0:
        circuit = with_cascading_disjunctions(
            random_jump_circuit(cfg), cfg, insertion_rate=args.insertion_rate
        )
    else:
        circuit = build_circuit(cfg)
    _emit((args.out, circuit.to_text()))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, all_parsers = build_parser()
    try:
        config_path = _prescan_config_path(argv)
        if config_path is not None:
            _apply_config(_load_config(config_path), all_parsers)
    except ConfigError as exc:
        print(f"arcwalk: error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"arcwalk: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"arcwalk: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
