"""Tests of the benchmark itself: inputs, output checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest

import run
import workloads as W
from tracing import BINDINGS, ROOT, Tracer, self_times


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    wl = W.WORKLOADS[name]
    first, second = wl.generate(5, 3), wl.generate(5, 3)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert json.dumps(first, sort_keys=True) != json.dumps(wl.generate(6, 3), sort_keys=True)
    if wl.via_cli:
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        files_a = [c.path for c in W.scene_cases(first, tmp_path / "a")]
        files_b = [c.path for c in W.scene_cases(second, tmp_path / "b")]
        assert [p.read_bytes() for p in files_a] == [p.read_bytes() for p in files_b]


def test_generated_documents_all_validate():
    for name, wl in W.WORKLOADS.items():
        docs = wl.generate(9, 4)
        cases = W.scene_cases(docs) if wl.scene else W.fix_cases(docs)
        assert len(cases) == 4, name


def test_corrupted_artifact_byte_counts_in_error_rate(tmp_path):
    def corrupting_op(case, out):
        result = W.run_scene(case, out)
        path = out / f"map_{case.scn.pairs[0].tx}_{case.scn.pairs[0].rx}.bin"
        data = bytearray(path.read_bytes())
        data[100] ^= 0xFF
        path.write_bytes(bytes(data))
        return result

    wl = dataclasses.replace(W.WORKLOADS["uplink_small"], op=corrupting_op, via_cli=False)
    cases = W.scene_cases(wl.generate(3, 2))
    records = run.measure(wl, cases, 0.0, tmp_path, ("plain",), {})
    reasons = {o.reason for _, _, o in records}
    assert all(not o.ok for _, _, o in records)
    assert any("SHA-256" in r for r in reasons)
    _, extra = run.end_to_end(records, setup_s=1.0)
    assert extra["error_rate"] == 1.0

    # The same op without the corruption passes every check.
    clean = dataclasses.replace(wl, op=W.run_scene)
    records = run.measure(clean, cases, 0.0, tmp_path / "clean", ("plain",), {})
    assert all(o.ok for _, _, o in records)
    assert run.end_to_end(records, setup_s=1.0)[1]["error_rate"] == 0.0


def test_self_times_on_synthetic_span_tree():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("a.child", 1, 2.0, 3.0),
        ("b", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_layer_self_times_add_up_to_the_op(monkeypatch):
    fake = types.ModuleType("perfbench_fake_layers")

    def inner():
        time.sleep(0.002)

    def outer():
        time.sleep(0.001)
        fake.inner()
        fake.inner()

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    tracer = Tracer(bindings=[(fake.__name__, "inner", "x.inner_s", None),
                              (fake.__name__, "outer", "x.outer_s", None)])
    with tracer.installed(), tracer.span(ROOT):
        fake.outer()
    seconds = tracer.layer_seconds()
    (op,) = tracer.root_durations()
    assert sum(seconds.values()) == pytest.approx(op, rel=1e-9)
    assert seconds["x.inner_s"] >= 0.004
    assert sum(name == "x.inner_s" for name, *_ in tracer.spans) == 2


@pytest.mark.parametrize("memory", [False, True])
def test_traced_run_restores_every_rebound_attribute(memory):
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in BINDINGS}
    tracer = Tracer(memory=memory)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for (module, attr), fn in originals.items():
                assert getattr(importlib.import_module(module), attr) is not fn
            raise RuntimeError("op failed mid-trace")
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn, f"{module}.{attr}"
    assert not tracemalloc.is_tracing()


def test_traced_scene_op_counts_every_layer(tmp_path):
    wl = W.WORKLOADS["uplink_small"]
    cases = W.scene_cases(wl.generate(4, 1), tmp_path)
    tracer = Tracer(memory=True)
    _, outcome, _ = run.run_op(wl, cases[0], tmp_path / "out", tracer, sink=None)
    assert outcome.ok
    seconds = tracer.layer_seconds()
    for metric in ("cli.self_s", "scenario.load_s", "scenario.self_s", "grid.build_s",
                   "grid.subgrid_s", "geometry.paths_s", "channel.apply_s", "dsp.estimate_s",
                   "dsp.delay_s", "dsp.doppler_s", "dsp.map_s", "detect.notch_s",
                   "detect.cfar_s", "locate.fuse_s", "mapfile.write_s"):
        assert seconds[metric] > 0, metric
    assert sum(seconds.values()) == pytest.approx(tracer.root_durations()[0], rel=1e-9)
    assert tracer.counts["grid.tiles"] == 50
    assert tracer.counts["geometry.paths"] == 4 * (1 + 1 + 3)
    assert set(tracer.peak_bytes) >= {"grid", "channel", "dsp", "detect"}


def test_exits_nonzero_without_library_source(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_printed_metrics():
    root = Path(run.__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in W.WORKLOADS if name not in W.INFORMATIONAL]
