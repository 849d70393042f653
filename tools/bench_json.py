"""Write BENCH_<label>.json: the benchmark's metrics, the environment and detection quality.

    python3 tools/bench_json.py --label NAME [--root CHECKOUT] [--seed 1] [--seconds 10]

Runs ``perfbench/run.py`` of the checkout at ``--root`` (default: this
repository) once per workload of its ``BENCHMARK.json``, at ``--trace 0`` for
the end-to-end metrics and at ``--trace 1`` for the per-layer ones (each
stage's self time and peak), and keeps each run's record. Detection quality
is scored once, not per timed op, over three fixed input sets of
``perfbench/workloads.py`` run through ``run_scenario``: ``fig4_docs(1, 6)``,
``sparse_docs(1, 8)`` and ``uplink_docs(1, 16)``. Per set it gives
``det_recall``, false detections per pair (detections more than one bin
from every target path, as ``workloads.check_scene`` counts them) and the
detections in unreachable rows: rows at or past K = min(M, ceil(cp /
delay_bin) + 2), where no path with a delay below the cyclic prefix peaks.
``false_alarm_ratio`` is the false detections over the sum, over pairs, of
``pfa`` * K * D, the count CFAR's tested cells predict (D: the Doppler
window); ``strongest_is_target`` is the share of pairs whose first, and so
strongest, detection lies within one bin of a target path.
The library is imported from the checkout's ``src/``, and scoring refuses when
Python already holds ``workloads`` or ``ofdmpcl`` from elsewhere; the file is
written to ``--out`` (default: the root of this repository).

The file records the checkout's ``HEAD`` as ``base_commit``. The tool refuses,
before it runs anything and without writing a file, when ``--root`` is not the
top of a git checkout, or when it has uncommitted changes to tracked files and
the label does not end in ``-uncommitted``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
QUALITY_SETS = (("fig4_mc", "fig4_docs", 6), ("sparse_long", "sparse_docs", 8),
                ("uplink_small", "uplink_docs", 16))


UNCOMMITTED_SUFFIX = "-uncommitted"


def source(root: Path, label: str) -> dict:
    """The checkout's HEAD and whether tracked files differ from it; exits
    non-zero when the tree cannot be stamped (see the module docstring)."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)

    top = git("rev-parse", "--show-toplevel")
    head = git("rev-parse", "--verify", "HEAD")
    if top.returncode or head.returncode or Path(top.stdout.strip()).resolve() != root:
        raise SystemExit(f"refused: {root} is not the top of a git checkout with a commit")
    status = git("status", "--porcelain", "--untracked-files=no")
    if status.returncode:
        raise SystemExit(f"refused: git status failed in {root}: {status.stderr.strip()}")
    dirty = bool(status.stdout.strip())
    if dirty and not label.endswith(UNCOMMITTED_SUFFIX):
        raise SystemExit(f"refused: {root} has uncommitted changes to tracked files; commit "
                         f"them, or end --label in {UNCOMMITTED_SUFFIX}")
    return {"base_commit": head.stdout.strip(), "uncommitted_changes": dirty}


def environment() -> dict:
    """numpy, its BLAS and enabled SIMD targets, and the CPU."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_dispatch": [name for name in __cpu_dispatch__ if __cpu_features__.get(name)],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def bench_run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py process: its verdict and its record line."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    verdict = json.loads(lines[-1])
    record = json.loads(lines[-2].removeprefix("record "))
    return {"correct": verdict["correct"], "attempted": verdict["attempted"],
            "failed": verdict["failed"], "metrics": record["metrics"], "extra": record["extra"]}


def quality(root: Path) -> dict:
    """Per input set: recall, false detections, whether the strongest detection is a
    target, and detections in unreachable rows."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads as W

    # A second call, or an ofdmpcl imported before, gets the cached modules.
    for module, home in ((W, root / "perfbench"), (W.scenario, root / "src")):
        if not Path(module.__file__).resolve().is_relative_to(home.resolve()):
            raise SystemExit(f"refused: {module.__name__} is {module.__file__}, not under {home}")
    scores = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, generator, count in QUALITY_SETS:
            hits = truths = false_dets = pairs = unreachable = strongest = 0
            expected_false = 0.0
            for i, case in enumerate(W.scene_cases(getattr(W, generator)(1, count))):
                out = Path(tmp) / f"{workload}_{i}"
                W.run_scene(case, out)
                outcome = W.check_scene(case, out)
                if not outcome.ok:
                    raise RuntimeError(f"{workload} scene {i}: {outcome.reason}")
                hits, truths = hits + outcome.hits, truths + outcome.truths
                false_dets += outcome.false_dets
                num, (m, dw) = case.scn.numerology, case.shape
                k = min(m, math.ceil(num.cp_duration_s / num.delay_bin_s) + 2)
                for pair in case.scn.pairs:
                    pairs += 1
                    expected_false += case.scn.cfar.pfa * k * dw
                    with open(out / f"detections_{pair.tx}_{pair.rx}.csv", newline="") as f:
                        dets = [(int(r["delay_bin"]), int(r["doppler_bin"]))
                                for r in csv.DictReader(f)]
                    unreachable += sum(d >= k for d, _ in dets)
                    strongest += bool(dets) and any(
                        W._near(dets[0][0], td, m) and W._near(dets[0][1], tf, dw)
                        for td, tf in case.truth_bins[pair.pair_id])
            scores[workload] = {
                "input_set": f"{generator}(1, {count})",
                "pairs": pairs,
                "det_recall": hits / truths,
                "det_truths": truths,
                "false_dets_per_pair": false_dets / pairs,
                "false_alarm_ratio": false_dets / expected_false,
                "strongest_is_target": strongest / pairs,
                "unreachable_row_dets": unreachable,
            }
    return scores


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--out", type=Path, default=HERE)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    stamp = source(root, args.label)

    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    runs = {}
    for workload in workloads:
        runs[workload] = {
            f"trace_{trace}": bench_run(root, workload, args.seed, args.seconds, trace)
            for trace in (0, 1)}
        print(f"{workload}: ops_per_s {runs[workload]['trace_0']['metrics']['ops_per_s']:.3f}",
              file=sys.stderr)
    bench = {
        "label": args.label,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": {**environment(), **stamp},
        "runs": runs,
        "quality": quality(root),
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(path.name, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
