"""Print every end-to-end and per-layer metric of every workload, with units.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Runs ``run.py`` once per workload without tracing and once with tracing,
one process at a time, and prints the ``record`` line of each run as a table.
Takes about six minutes at the default 30 seconds per run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fig4_mc", "sparse_long", "uplink_small", "fix_batch")
END_TO_END = [  # (name, unit, where the value lives in the record)
    ("ops_per_s", "ops/s", "metrics"),
    ("op_s_p50", "s", "metrics"),
    ("op_s_p90", "s", "extra"),
    ("error_rate", "fraction", "extra"),
    ("peak_rss_mb", "MB", "metrics"),
    ("setup_s", "s", "metrics"),
    ("det_recall", "fraction", "extra"),
    ("pos_err_m", "m", "extra"),
]
NOT_APPLICABLE = {
    "op_s_p90": "fewer than 100 samples, so fewer than ten beyond the 90th percentile",
    "det_recall": "no detection step in this workload",
    "pos_err_m": "not a single-target scene or fix workload",
}


def _record(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited with {proc.returncode}:\n"
                         f"{proc.stderr}")
    line = proc.stdout.strip().splitlines()[-2]
    return json.loads(line[len("record "):])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from run import PER_LAYER
    from workloads import INFORMATIONAL

    for workload in WORKLOADS:
        plain = _record(workload, args.seed, args.seconds, 0)
        traced = _record(workload, args.seed, args.seconds, 1)
        extra = plain["extra"]
        print(f"== {workload}  seed {args.seed}, {extra['samples']} ops, "
              f"{len(plain['failures'])} failure kinds {plain['failures']}"
              + ("  (informational, not in BENCHMARK.json)" if workload in INFORMATIONAL else ""))
        for name, unit, where in END_TO_END:
            value = plain[where][name]
            if value is None:
                print(f"  {name:<26} n/a  ({NOT_APPLICABLE[name]})")
            else:
                print(f"  {name:<26} {value:.6g} {unit}")
        print(f"  per layer, traced run ({traced['extra']['samples']} ops by mode), per op:")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<26} {traced['metrics'][name]:.6g} {unit}")
        print(f"  {'bench glue':<26} {traced['extra']['bench_glue_s']:.3g} s "
              "(trace.op_s minus the sum of the *_s layer self times)")
    print("environment " + json.dumps(plain["environment"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
