"""One workload run in its own interpreter: closed loop, output checks, metrics.

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src/`` and reads the JSON object it prints as its last line. One client,
no extra threads: the next command starts when the previous one returns.
Cycle 0 is the warm-up; it is checked but not timed into the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback

import clock
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


class Runner:
    """Runs cycles of one workload and keeps a record of every op."""

    def __init__(self, workload: str, size: str, seed: int, inputdir: str, workdir: str,
                 use_reference: bool = True):
        import arcwalk.cli

        self.cli = arcwalk.cli
        self.workload, self.size = workload, size
        self.inputdir, self.workdir = inputdir, workdir
        self._cal = None  # the last calibration pass, which opens the next op
        self._seed_iter = wl.cycle_seeds(workload, seed)
        self._cycle_seeds: list[int] = []
        self.refs: list[str] = []
        if use_reference and seed == wl.DEFAULT_SEED and size == "full":
            with open(REFERENCE) as fh:
                self.refs = json.load(fh)["digests"][workload]
        expected_path = os.path.join(inputdir, "expected.json")
        self.expected = None
        if os.path.exists(expected_path):
            with open(expected_path) as fh:
                self.expected = json.load(fh)

    def cycle_seed(self, i: int) -> int:
        while len(self._cycle_seeds) <= i:
            self._cycle_seeds.append(next(self._seed_iter))
        return self._cycle_seeds[i]

    def _clear(self) -> None:
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))

    def run_cycle(self, i: int) -> list[dict]:
        ops = wl.cycle_ops(self.workload, self.size, self.cycle_seed(i), self.workdir,
                           self.inputdir)
        records = []
        for j, op in enumerate(ops):
            self._clear()
            if self._cal is None:
                self._cal = clock.calibrate()
            rc = None
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except Exception:  # an op that raises is a failed op, not a crashed run
                traceback.print_exc()
            seconds = time.perf_counter() - t0
            cal = clock.calibrate()
            rec = {"cycle": i, "index": i * len(ops) + j, "kind": op.kind, "seconds": seconds,
                   "ref_seconds": clock.to_reference(seconds, self._cal, cal),
                   "shots": op.shots, "rows": op.in_rows,
                   "digest": None, "out_bytes": 0, "problems": [], "z": []}
            if threading.active_count() > 1:
                # a thread left running would also skew the calibration passes
                rec["problems"].append(f"{threading.active_count() - 1} thread(s) left running")
            if rc != 0:
                rec["problems"].append(f"exit code {rc}")
            else:
                try:
                    rec["digest"] = wl.digest(self.workdir, op)
                    rec["out_bytes"] = sum(
                        os.path.getsize(os.path.join(self.workdir, n)) for n in op.outputs)
                    problems, zs, out_rows = wl.check(op, self.workdir, self.expected)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems, zs, out_rows = [f"unreadable output: {exc!r}"], [], 0
                rec["problems"] += problems
                rec["z"] = zs
                if op.kind == "sim":
                    rec["rows"] = out_rows
                if rec["index"] < len(self.refs) and rec["digest"] != self.refs[rec["index"]]:
                    rec["problems"].append("digest differs from the stored reference")
            self._cal = cal
            records.append(rec)
        return records


def apply_arc_rule(records: list[dict]) -> None:
    """Criterion 04's rule over the run: >= 95% of arc means within 4 stderr."""
    zs = [z for r in records for z in r["z"]]
    if not zs:
        return
    hits = sum(z <= wl.ARC_Z for z in zs)
    run_fails = hits < wl.ARC_HIT_SHARE * len(zs)
    if not run_fails:
        return
    for r in records:
        worst = max(r["z"], default=0.0)
        if worst > wl.ARC_Z:
            r["problems"].append(f"arc mean {worst:.2f} stderr from the closed form")


def throughput(records: list[dict], key: str = "ref_seconds") -> tuple[float, float]:
    """Median over cycles of shots per sim-op second and rows per row-op second.

    Row ops are the market ops of a cycle that has them; otherwise every op,
    counting the CSV rows it writes. ``key`` picks reference or wall seconds.
    """
    cycles: dict[int, list[dict]] = {}
    for r in records:
        cycles.setdefault(r["cycle"], []).append(r)
    sps, rps = [], []
    for ops in cycles.values():
        sim = [r for r in ops if r["kind"] == "sim"]
        if sim:
            sps.append(sum(r["shots"] for r in sim) / sum(r[key] for r in sim))
        row_ops = [r for r in ops if r["kind"] == "market"] or ops
        rps.append(sum(r["rows"] for r in row_ops) / sum(r[key] for r in row_ops))
    return statistics.median(sps), statistics.median(rps)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--size", default="full", choices=sorted(wl.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputdir", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    import arcwalk

    if not os.path.abspath(arcwalk.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"arcwalk came from {arcwalk.__file__}, not {args.src}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.size, args.seed, args.inputdir, args.workdir)
    warm = runner.run_cycle(0)
    result: dict = {"warmup_s": sum(r["seconds"] for r in warm)}
    if args.trace == 0:
        timed = []
        deadline = time.perf_counter() + args.seconds
        i = 1
        while not timed or time.perf_counter() < deadline:
            timed += runner.run_cycle(i)
            i += 1
        records = warm + timed
        apply_arc_rule(records)
        sps, rps = throughput(timed)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "shots_per_s": (sps, "shots/s"),
            "rows_per_s": (rps, "rows/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        wall_sps, wall_rps = throughput(timed, key="seconds")
        result["wall"] = {"shots_per_s": wall_sps, "rows_per_s": wall_rps}
        result["cycles"] = i - 1
    else:
        from layers import Tracer, kernel_table

        cycles = range(1, wl.TRACE_CYCLES[args.workload] + 1)
        plain = [r for i in cycles for r in runner.run_cycle(i)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [r for i in cycles for r in runner.run_cycle(i)]
        finally:
            tracer.uninstall()
        mismatches = 0
        for a, b in zip(plain, traced):
            if a["digest"] != b["digest"]:
                mismatches += 1
                b["problems"].append("traced digest differs from the untraced one")
        records = warm + plain + traced
        apply_arc_rule(records)
        metrics = tracer.metrics(time_scale=sum(r["ref_seconds"] for r in traced)
                                 / sum(r["seconds"] for r in traced))
        metrics["cli.bytes_written"] = (float(sum(r["out_bytes"] for r in traced)), "B")
        sps_plain, sps_traced = throughput(plain)[0], throughput(traced)[0]
        metrics["trace.shots_per_s.untraced"] = (sps_plain, "shots/s")
        metrics["trace.shots_per_s.traced"] = (sps_traced, "shots/s")
        metrics["trace.overhead_share"] = (1.0 - sps_traced / sps_plain, "ratio")
        metrics["trace.digest_mismatches"] = (float(mismatches), "count")
        metrics.update(kernel_table(args.seed))
        result["cycles"] = len(cycles)
    failed = sum(bool(r["problems"]) for r in records)
    result.update({
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "problems": [f"op {r['index']}: {p}" for r in records for p in r["problems"]][:20],
        "digests": [r["digest"] for r in records],
        "metrics": metrics,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
