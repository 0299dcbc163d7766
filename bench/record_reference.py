#!/usr/bin/env python3
"""Record the reference digests of the default seed at full size.

    PYTHONPATH=src python3 bench/record_reference.py [workload ...]

Writes ``bench/reference.json``: the sha256 of each op's output for the
first cycles of every workload, warm-up included. Benchmark runs with the
default seed fail any op whose digest differs. Re-record only when an
output change is intended, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from child import REFERENCE, Runner  # noqa: E402

CYCLES = {"noisy_binary": 150, "zeno_arc": 150, "cascade_table": 150, "ideal_stats": 60}


def record(workload: str) -> list[str]:
    with wl.scratch(os.path.dirname(HERE), f"ref-{workload}-") as (inputdir, workdir):
        wl.write_inputs(workload, "full", wl.DEFAULT_SEED, inputdir)
        runner = Runner(workload, "full", wl.DEFAULT_SEED, inputdir, workdir,
                        use_reference=False)
        records = [r for i in range(CYCLES[workload]) for r in runner.run_cycle(i)]
    bad = [f"op {r['index']}: {p}" for r in records for p in r["problems"]]
    if bad:
        raise SystemExit("refusing to record failing ops:\n" + "\n".join(bad))
    return [r["digest"] for r in records]


def main(names: list[str]) -> int:
    data = {"seed": wl.DEFAULT_SEED, "size": "full", "digests": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    for name in names or wl.WORKLOADS:
        data["digests"][name] = record(name)
        print(f"{name}: {len(data['digests'][name])} digests", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
