"""Span tracing of the library's layers, installed from outside ``src/``.

``Tracer.installed()`` rebinds the public functions that ``ofdmpcl.scenario``,
``ofdmpcl.cli`` and ``ofdmpcl.dsp`` call (and the ``locate.fuse_position``
entry point the fusion workload calls) to wrappers that record one span per
call, then restores every original attribute on exit. Each wrapped function
reports into one per-layer time metric; a span's self time is its duration
minus the durations of its children, so the self times of one op's spans add
up to the op's wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

from ofdmpcl.errors import AmbiguousFix, NoConvergence

ROOT = "bench.op"  # the benchmark's own span around one op


def _on_success(count):
    """Adapt a counter that reads the result to the (..., result, exc) form."""
    def counter(c, bound, result, exc):
        if exc is None:
            count(c, bound, result)
    return counter


@_on_success
def _count_grid(c, a, result):
    c["grid.tiles"] += sum(len(tiles) for tiles in a.arguments["allocations"].values())


@_on_success
def _count_paths(c, a, result):
    c["geometry.paths"] += len(result)


@_on_success
def _count_channel(c, a, result):
    c["channel.path_cells"] += len(a.arguments["paths"]) * a.arguments["grid"].symbols.size


@_on_success
def _count_estimate(c, a, result):
    c["dsp.bytes"] += (a.arguments["rx"].symbols.nbytes + a.arguments["ref"].symbols.nbytes
                       + result.h.nbytes + result.valid_mask.nbytes)


@_on_success
def _count_delay(c, a, result):
    c["dsp.bytes"] += a.arguments["est"].h.nbytes + result.h.nbytes
    c["dsp.fft_points"] += result.h.size


@_on_success
def _count_doppler(c, a, result):
    c["dsp.bytes"] += a.arguments["cir"].h.itemsize * result.s.size + result.s.nbytes
    c["dsp.fft_points"] += result.s.size


@_on_success
def _count_map(c, a, result):
    c["dsp.bytes"] += a.arguments["sf"].s.nbytes + result.power.nbytes


@_on_success
def _count_cfar(c, a, result):
    c["detect.cells"] += a.arguments["smap"].power.size
    c["detect.detections"] += len(result)


def _count_fuse(c, a, result, exc):
    c["locate.calls"] += 1
    c["locate.measurements"] += len(a.arguments["measurements"])
    if isinstance(exc, AmbiguousFix):
        c["locate.ambiguous"] += 1
    elif isinstance(exc, NoConvergence):
        c["locate.no_converge"] += 1


# (module, attribute, time metric, counter). Classes, private helpers and the
# one-line max_integration_time formula stay unwrapped; their time is the
# calling function's self time.
BINDINGS = [
    ("ofdmpcl.scenario", "scenario_from_dict", "scenario.load_s", None),
    ("ofdmpcl.scenario", "run_scenario", "scenario.self_s", None),
    ("ofdmpcl.scenario", "full_allocation", "grid.build_s", None),
    ("ofdmpcl.scenario", "random_allocation", "grid.build_s", None),
    ("ofdmpcl.scenario", "build_grid", "grid.build_s", _count_grid),
    ("ofdmpcl.dsp", "user_subgrid", "grid.subgrid_s", None),
    ("ofdmpcl.scenario", "enumerate_paths", "geometry.paths_s", _count_paths),
    ("ofdmpcl.scenario", "apply_channel", "channel.apply_s", _count_channel),
    ("ofdmpcl.scenario", "estimate_channel", "dsp.estimate_s", _count_estimate),
    ("ofdmpcl.scenario", "delay_transform", "dsp.delay_s", _count_delay),
    ("ofdmpcl.scenario", "doppler_transform", "dsp.doppler_s", _count_doppler),
    ("ofdmpcl.scenario", "scattering_map", "dsp.map_s", _count_map),
    ("ofdmpcl.scenario", "suppress_clutter", "detect.notch_s", None),
    ("ofdmpcl.scenario", "cfar_detect", "detect.cfar_s", _count_cfar),
    ("ofdmpcl.scenario", "measurement_from_detection", "locate.fuse_s", None),
    ("ofdmpcl.scenario", "fuse_position", "locate.fuse_s", _count_fuse),
    ("ofdmpcl.locate", "fuse_position", "locate.fuse_s", _count_fuse),
    ("ofdmpcl.scenario", "write_map", "mapfile.write_s", None),
    ("ofdmpcl.scenario", "write_detections_csv", "mapfile.write_s", None),
    ("ofdmpcl.scenario", "write_positions_csv", "mapfile.write_s", None),
    ("ofdmpcl.cli", "load_scenario", "scenario.load_s", None),
    ("ofdmpcl.cli", "run_scenario", "scenario.self_s", None),
    ("ofdmpcl.cli", "export_heatmap", "mapfile.write_s", None),
    ("ofdmpcl.cli", "main", "cli.self_s", None),
]

TIME_METRICS = sorted({metric for _, _, metric, _ in BINDINGS})
MEMORY_LAYERS = ("grid", "channel", "dsp", "detect")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's durations.

    ``spans`` holds ``(name, parent_index, start, end)`` tuples with parent
    index -1 for a root; children of one parent never overlap.
    """
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class _Open:
    """A span that has started and not yet ended."""

    __slots__ = ("name", "index", "parent", "start", "base", "peak")

    def __init__(self, name, index, parent):
        self.name, self.index, self.parent = name, index, parent
        self.start = 0.0
        self.base = self.peak = 0


class Tracer:
    """Spans and counts of the ops run while installed.

    With ``memory`` on, each span also records its tracemalloc peak above its
    entry level; that slows pure-Python code, so a run takes time and memory
    from different ops.
    """

    def __init__(self, memory: bool = False, bindings=BINDINGS):
        self.memory = memory
        self.spans: list = []  # (name, parent index, start, end)
        self.counts: Counter = Counter()
        self.peak_bytes: dict[str, int] = {}
        self._stack: list[_Open] = []
        self._bindings = []
        for module_name, attr, metric, counter in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._bindings.append(
                (module, attr, original, self._wrap(original, metric, counter)))

    def _enter(self, name) -> _Open:
        span = _Open(name, len(self.spans), self._stack[-1].index if self._stack else -1)
        self.spans.append(None)  # reserve the index the children refer to
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: _Open) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[span.index] = (span.name, span.parent, span.start, end)
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            layer = span.name.split(".")[0]
            self.peak_bytes[layer] = max(self.peak_bytes.get(layer, 0), span.peak - span.base)
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, span.peak)
            tracemalloc.reset_peak()

    @contextmanager
    def span(self, name: str):
        """Record the caller's own span, such as the root of one op."""
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def _wrap(self, fn, metric, counter):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(metric)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._exit(span)
                if counter:
                    counter(self.counts, signature.bind(*args, **kwargs), None, exc)
                raise
            self._exit(span)
            if counter:
                counter(self.counts, signature.bind(*args, **kwargs), result, None)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind the traced module attributes; restore them all on exit."""
        swapped = []
        if self.memory:
            tracemalloc.start()
        try:
            for module, attr, original, wrapper in self._bindings:
                setattr(module, attr, wrapper)
                swapped.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(swapped):
                setattr(module, attr, original)
            if self.memory:
                tracemalloc.stop()

    def layer_seconds(self) -> dict[str, float]:
        """Total self time per metric name over every recorded span."""
        totals: Counter = Counter()
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            totals[name] += own
        return dict(totals)

    def root_durations(self) -> list[float]:
        return [end - start for name, parent, start, end in self.spans if parent < 0]
