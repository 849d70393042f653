"""ofdmpcl benchmark: one workload, timed through the library's public API.

    python3 perfbench/run.py --workload fig4_mc --seed 1 --seconds 30 --trace 0

Run from the repository root. The library is imported from ``src/`` of the
same checkout. Each op's output is checked; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The line before it, starting
with ``record``, holds every metric (also those that do not apply to every
workload), sample counts and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh processes per run, before and after the timed ops; setup_s is the
# median of all five. Taking them on both sides of the ops spreads them over
# the run, so one slow spell of the shared host does not set setup_s.
SETUP_SAMPLES = (2, 3)
MIN_ROTATIONS = 2  # every op mode runs at least this often, however slow
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "grid.build_s": "s", "grid.tiles": "count", "grid.subgrid_s": "s", "grid.peak_mb": "MB",
    "geometry.paths_s": "s", "geometry.paths": "count",
    "channel.apply_s": "s", "channel.path_cells": "count", "channel.peak_mb": "MB",
    "dsp.estimate_s": "s", "dsp.delay_s": "s", "dsp.doppler_s": "s", "dsp.map_s": "s",
    "dsp.fft_points": "count", "dsp.bytes": "B", "dsp.peak_mb": "MB",
    "detect.notch_s": "s", "detect.cfar_s": "s", "detect.cells": "count",
    "detect.detections": "count", "detect.false_alarm_ratio": "ratio", "detect.peak_mb": "MB",
    "locate.fuse_s": "s", "locate.calls": "count", "locate.measurements": "count",
    "locate.ambiguous_ratio": "fraction", "locate.no_converge": "count",
    "mapfile.write_s": "s", "mapfile.bytes": "B",
    "scenario.load_s": "s", "scenario.self_s": "s", "cli.self_s": "s",
    "trace.op_s": "s", "trace.overhead_s": "s",
}
COMPUTED = {
    "channel.path_cells": "paths x M x D per apply_channel call",
    "dsp.fft_points": "transform length x transforms, delay IFFT plus Doppler FFT",
    "dsp.bytes": "input plus output array bytes of each dsp call, from shape and "
                 "dtype; cache traffic ignored",
    "detect.cells": "map cells scanned by CFAR",
}


def _import_library():
    """Import ofdmpcl from this checkout's src/, or exit non-zero."""
    if not (SRC / "ofdmpcl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC / 'ofdmpcl'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ofdmpcl

    if Path(ofdmpcl.__file__).resolve().parent != (SRC / "ofdmpcl").resolve():
        raise SystemExit(f"perfbench: imported ofdmpcl from {ofdmpcl.__file__}, not {SRC}")


# ------------------------------------------------------------------ ops


def run_op(wl, case, out, tracer=None, sink=None):
    """Time one op, then check its output. Returns (seconds, Outcome, result)."""
    import workloads as W
    from tracing import ROOT as ROOT_SPAN

    result = error = None
    with contextlib.ExitStack() as stack:
        if sink is not None:
            stack.enter_context(contextlib.redirect_stdout(sink))
            stack.enter_context(contextlib.redirect_stderr(sink))
        if tracer is not None:
            stack.enter_context(tracer.installed())
            stack.enter_context(tracer.span(ROOT_SPAN))
        start = time.perf_counter()
        try:
            result = wl.op(case, out)
        except Exception as exc:  # an op that raises is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if sink is not None:
        sink.seek(0)
        sink.truncate()
    if error is not None:
        return seconds, W.Outcome(False, error), None
    try:
        outcome = W.check_scene(case, out) if wl.scene else W.check_fix(case, result)
    except Exception as exc:  # unreadable or missing artifacts fail the check
        outcome = W.Outcome(False, f"check raised {type(exc).__name__}: {exc}")
    return seconds, outcome, result


def set_up(wl, seed, work):
    """Generate and validate every input, then run one checked warm-up op."""
    import workloads as W

    docs = wl.generate(seed, wl.pool)
    if wl.scene:
        input_dir = None
        if wl.via_cli:
            input_dir = work / "inputs"
            input_dir.mkdir(parents=True)
        cases = W.scene_cases(docs, input_dir)
    else:
        cases = W.fix_cases(docs)
    _, outcome, _ = run_op(wl, cases[0], work / "warmup", sink=io.StringIO())
    if not outcome.ok:
        raise W.SetupError(f"warm-up op failed its check: {outcome.reason}")
    shutil.rmtree(work / "warmup", ignore_errors=True)
    return cases


def measure_setup(workload, seed, count):
    """Wall times from a fresh interpreter to a warmed-up workload."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(child.stdout, selectors.EVENT_READ)
                line = child.stdout.readline() if sel.select(timeout=150) else b""
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up process exited with {code} before it was ready")
        samples.append(ready - start)
    return samples


def measure(wl, cases, seconds, work, modes, tracers):
    """Run ops, cycling over inputs and modes, for ``seconds`` of wall time."""
    records = []
    first = None
    sink = io.StringIO()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_ROTATIONS * len(modes) or time.perf_counter() < deadline:
        mode = modes[i % len(modes)]
        out = work / ("first" if i == 0 else "op")
        dt, outcome, result = run_op(wl, cases[i % len(cases)], out, tracers.get(mode), sink)
        records.append((mode, dt, outcome))
        if i == 0:
            first = result
        else:
            shutil.rmtree(out, ignore_errors=True)
        i += 1

    # Criterion 9: the first op, run again with the same input, reproduces
    # its artifacts byte for byte.
    import workloads as W

    mode, dt, outcome = records[0]
    if outcome.ok:
        _, again_outcome, again = run_op(wl, cases[0], work / "again", sink=sink)
        same = again_outcome.ok and (
            W.same_artifacts(work / "first", work / "again") if wl.scene
            else W.same_fix(first, again))
        if not same:
            records[0] = (mode, dt, W.Outcome(False, "first op not reproduced byte for byte"))
    return records


# ------------------------------------------------------------------ metrics


def quality(records):
    """det_recall, pos_err_m, false-alarm and artifact totals over all ops."""
    outs = [o for _, _, o in records if o.ok]
    truths = sum(o.truths for o in outs)
    errs = [o.pos_err_m for o in outs if o.pos_err_m is not None]
    cells = sum(o.cells * o.pfa for o in outs)
    return {
        "det_recall": sum(o.hits for o in outs) / truths if truths else None,
        "det_truths": truths,
        "pos_err_m": statistics.median(errs) if errs else None,
        "pos_err_samples": len(errs),
        "false_alarm_ratio": sum(o.false_dets for o in outs) / cells if cells else 0.0,
        "artifact_bytes": sum(o.artifact_bytes for o in outs) / max(len(outs), 1),
    }


def end_to_end(records, setup_s):
    times = [dt for _, dt, _ in records]
    failed = sum(not o.ok for _, _, o in records)
    q = quality(records)
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    extra = {
        "samples": len(times),
        "op_s_p90": (statistics.quantiles(times, n=10)[8]
                     if len(times) >= P90_MIN_SAMPLES else None),
        "error_rate": failed / len(times),
        "det_recall": q["det_recall"],
        "det_truths": q["det_truths"],
        "pos_err_m": q["pos_err_m"],
        "pos_err_samples": q["pos_err_samples"],
    }
    return metrics, extra


def per_layer(records, tracers):
    from tracing import MEMORY_LAYERS, TIME_METRICS

    timed, mem = tracers["time"], tracers["mem"]
    n_time = sum(mode == "time" for mode, _, _ in records)
    n_traced = sum(mode != "plain" for mode, _, _ in records)
    seconds = timed.layer_seconds()
    counts = timed.counts + mem.counts
    calls = counts["locate.calls"]
    q = quality(records)
    metrics = {name: seconds.get(name, 0.0) / n_time for name in TIME_METRICS}
    for name in ("grid.tiles", "geometry.paths", "channel.path_cells", "dsp.fft_points",
                 "dsp.bytes", "detect.cells", "detect.detections", "locate.calls"):
        metrics[name] = counts[name] / n_traced
    metrics.update({
        f"{layer}.peak_mb": mem.peak_bytes.get(layer, 0) / 2**20 for layer in MEMORY_LAYERS})
    metrics.update({
        "detect.false_alarm_ratio": q["false_alarm_ratio"],
        "locate.measurements": counts["locate.measurements"] / calls if calls else 0.0,
        "locate.ambiguous_ratio": counts["locate.ambiguous"] / calls if calls else 0.0,
        "locate.no_converge": counts["locate.no_converge"] / n_traced,
        "mapfile.bytes": q["artifact_bytes"],
        "trace.op_s": statistics.fmean(timed.root_durations()),
        "trace.overhead_s": (
            statistics.median(dt for mode, dt, _ in records if mode == "time")
            - statistics.median(dt for mode, dt, _ in records if mode == "plain")),
    })
    layer_sum = sum(metrics[name] for name in TIME_METRICS)
    extra = {
        "samples": {m: sum(mode == m for mode, _, _ in records) for m in ("plain", "time", "mem")},
        "bench_glue_s": metrics["trace.op_s"] - layer_sum,
        "computed": COMPUTED,
    }
    return {name: metrics[name] for name in PER_LAYER}, extra


# ------------------------------------------------------------------ environment


def _blas_threads():
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def _cache_size(index):
    try:
        return Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").read_text().strip()
    except OSError:
        return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config instead
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "commit": _git_commit(),
    }


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    import workloads as W
    from tracing import Tracer

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        try:
            cases = set_up(wl, args.seed, work)
        except W.SetupError as exc:
            print(f"perfbench: set-up of {wl.name} failed: {exc}", file=sys.stderr)
            return 3
        if args.setup_only:
            print("ready", flush=True)
            return 0

        if args.trace:
            modes = ("plain", "time", "mem")
            tracers = {"time": Tracer(), "mem": Tracer(memory=True)}
        else:
            setup_samples = measure_setup(wl.name, args.seed, SETUP_SAMPLES[0])
            modes, tracers = ("plain",), {}
        records = measure(wl, cases, args.seconds, work, modes, tracers)
        if not args.trace:
            setup_samples += measure_setup(wl.name, args.seed, SETUP_SAMPLES[1])
        if wl.scene and quality(records)["det_recall"] == 0:
            print(f"perfbench: {wl.name} detected no target in any op", file=sys.stderr)
            return 3
        if args.trace:
            metrics, extra = per_layer(records, tracers)
            units = PER_LAYER
        else:
            metrics, extra = end_to_end(records, statistics.median(setup_samples))
            extra["setup_samples"] = setup_samples
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failed = sum(not o.ok for _, _, o in records)
    reasons = sorted({o.reason for _, _, o in records if not o.ok})
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "extra": extra,
              "failures": reasons, "environment": environment()}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
