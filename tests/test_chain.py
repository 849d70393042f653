"""The per-pair receiver chain leaves its inputs alone and frees them as it goes."""

import copy
import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest

from ofdmpcl import (
    Numerology,
    Path,
    SymbolFrame,
    apply_channel,
    build_grid,
    channel_response,
    delay_transform,
    detect_map,
    doppler_transform,
    estimate_channel,
    load_scenario,
    run_scenario,
    scattering_map,
    suppress_clutter,
    user_subgrid,
    write_map,
)
from ofdmpcl.scenario import bundled_scenario_path, scenario_from_dict

NUM = Numerology(num_carriers=60, symbols_per_frame=28, cp_fraction=0.25)
# The estimate's reference: the whole grid, or user u1's elements of it.
REFERENCES = pytest.mark.parametrize(
    "reference", [lambda grid: grid, lambda grid: user_subgrid(grid, "u1")], ids=["None", "u1"]
)


def _leaves(obj):
    """Every value reachable through dataclass fields, lists and tuples."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def _arrays(obj):
    return [leaf for leaf in _leaves(obj) if isinstance(leaf, np.ndarray)]


def _same(got, want):
    """Equal values field by field, arrays bitwise: dtype, shape and bytes."""
    got, want = list(_leaves(got)), list(_leaves(want))
    return len(got) == len(want) and all(
        (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        if isinstance(b, np.ndarray) else a == b for a, b in zip(got, want))


def unchanged(call, *inputs):
    """Run ``call``; assert that every input equals a copy taken before the
    call and that no output array shares memory with an input array."""
    before = copy.deepcopy(inputs)
    result = call()
    assert _same(inputs, before)
    for out in _arrays(result):
        assert not any(np.shares_memory(out, a) for a in _arrays(inputs))
    return result


def _paths(num):
    return [
        Path(delay_s=0.0, doppler_hz=0.0, gain=1.0 + 0j, kind="los"),
        Path(delay_s=2 * num.delay_bin_s, doppler_hz=40.0, gain=0.5 - 0.2j, kind="target"),
    ]


def _grid(num):
    cols = num.prb_cols
    return build_grid(num, {"u0": [(0, 0, 2), (3, 2, cols)], "u1": [(1, 0, cols), (2, 0, cols)]},
                      rng_seed=3)


@pytest.mark.parametrize("window", ["rect", "hann"])
@REFERENCES
def test_chain_stages_do_not_mutate_their_inputs(tmp_path, window, reference):
    grid = _grid(NUM)
    ref = reference(grid)
    paths = _paths(NUM)
    frame = unchanged(lambda: apply_channel(grid, paths, 15.0, 7), grid, paths)
    out = np.full(frame.symbols.shape, 7 - 7j)
    unchanged(lambda: apply_channel(grid, paths, 15.0, 7, out=out), grid, paths)
    est = unchanged(lambda: estimate_channel(frame, ref), frame, ref)
    cir = unchanged(lambda: delay_transform(est, window=window), est)
    for num_symbols in (20, 27):  # even and odd Doppler windows
        sf = unchanged(lambda: doppler_transform(cir, window=window, num_symbols=num_symbols),
                       cir)
        assert sf.s.shape == (NUM.num_carriers, num_symbols)
    smap = unchanged(lambda: scattering_map(sf), sf)
    unchanged(lambda: suppress_clutter(smap, 1), smap)
    scenario = dataclasses.replace(load_scenario("three_user_uplink"), numerology=NUM)
    detections = unchanged(lambda: detect_map(smap, scenario), smap, scenario)
    # With out=smap.power, the caller's map becomes the notched map.
    notched = copy.deepcopy(smap)
    assert detect_map(notched, scenario, out=notched.power) == detections
    assert _same(notched, suppress_clutter(smap, scenario.notch_half_width_bins))
    unchanged(lambda: write_map(tmp_path / "map.bin", smap), smap)


def _default_calls(frame, ref, window, num_symbols):
    """Each transform's call without ``out``: the estimate, the impulse
    response and the spectrum."""
    est = estimate_channel(frame, ref)
    cir = delay_transform(est, window=window)
    return [est, cir, doppler_transform(cir, window=window, num_symbols=num_symbols)]


# The frame's symbols: the channel's complex128 output, or its values in
# another dtype, which the transforms widen to complex128.
AS_DTYPE = {
    "complex128": lambda symbols: symbols,
    "complex64": lambda symbols: symbols.astype(np.complex64),
    "float64": lambda symbols: symbols.real,
    "int64": lambda symbols: (8 * symbols.real).astype(np.int64),
}


@pytest.mark.parametrize("window", ["rect", "hann"])
@pytest.mark.parametrize("dtype", list(AS_DTYPE))
@REFERENCES
def test_stages_write_into_out_what_they_would_return(window, dtype, reference):
    """Each stage with ``out`` set, chained in place through one working grid
    as a run chains them, gives the default call's result bitwise: the frame
    overwrites the grid's old values and the transforms overwrite the frame.
    The transforms are complex128 whatever the frame's dtype: a complex64,
    float64 or int64 frame gives, with ``out`` or without, the chain of its
    values widened to complex128."""
    # 1027 carriers; D = 27 is odd, and 20 and 21 symbols are shorter
    # Doppler windows.
    for m, d, num_symbols in ((60, 28, None), (60, 27, 20), (60, 27, None), (1027, 28, 21)):
        num = Numerology(num_carriers=m, symbols_per_frame=d, cp_fraction=0.25)
        grid = _grid(num)
        ref = reference(grid)
        work = np.full((m, d), 7 - 7j)
        frame = apply_channel(grid, _paths(num), 15.0, 7)
        if dtype == "complex128":
            got = apply_channel(grid, _paths(num), 15.0, 7, out=work)
            assert got.symbols is work
            assert _same(got, frame)
        else:
            got = frame = SymbolFrame(AS_DTYPE[dtype](frame.symbols), num)
        widened = SymbolFrame(frame.symbols.astype(np.complex128), num)
        expected = _default_calls(widened, ref, window, num_symbols)
        assert _same(_default_calls(frame, ref, window, num_symbols), expected)

        stages = [
            lambda got: estimate_channel(got, ref, out=work),
            lambda got: delay_transform(got, window=window, out=work),
            lambda got: doppler_transform(got, window=window, num_symbols=num_symbols,
                                          out=work[:, :num_symbols]),
        ]
        for stage, want in zip(stages, expected):
            got = stage(got)
            assert np.shares_memory(_arrays(got)[0], work)
            assert _same(got, want)


@pytest.mark.parametrize("window", ["rect", "hann"])
@pytest.mark.parametrize("num_symbols", [None, 20, 21])
def test_map_and_notch_in_the_working_grid_equal_the_default_calls(window, num_symbols):
    """The map written into the float32 view over the working grid's first
    M * D floats, and the notch applied to it in place, give the default
    calls' results bitwise, also for a Doppler window shorter than D."""
    # 1027 carriers run the map in 64-row blocks plus a remainder; D = 27 is odd.
    for m, d in ((60, 28), (1027, 28), (60, 27)):
        num = Numerology(num_carriers=m, symbols_per_frame=d, cp_fraction=0.25)
        grid = _grid(num)
        work = np.full((m, d), 7 - 7j)
        frame = apply_channel(grid, _paths(num), 15.0, 7, out=work)
        est = estimate_channel(frame, grid, out=work)
        cir = delay_transform(est, window=window, out=work)
        sf = doppler_transform(cir, window=window, num_symbols=num_symbols,
                               out=work[:, :num_symbols])
        smap = scattering_map(sf)
        notched = suppress_clutter(smap, 2)

        rows, cols = sf.s.shape
        view = work.view(np.float32).reshape(-1)[: rows * cols].reshape(rows, cols)
        got = scattering_map(sf, out=view)
        assert np.shares_memory(got.power, work)
        assert _same(got, smap)
        got_notched = suppress_clutter(got, 2, out=got.power)
        assert got_notched.power is got.power
        assert _same(got_notched, notched)


def _raise_before_writing(stages, m, d):
    """Give each (stage, dtype, columns) an ``out`` of another dtype, one of
    a row too few and one of other columns: each raises ValueError and
    leaves ``out`` as it was."""
    for stage, dtype, cols in stages:
        wrong = [np.full((m, cols), 7, np.complex64 if dtype == np.complex128 else np.float64),
                 np.full((m - 1, cols), 7, dtype),
                 np.full((m, d if cols != d else d - 1), 7, dtype)]
        for out in wrong:
            before = out.copy()
            with pytest.raises(ValueError, match="out is"):
                stage(out)
            assert _same(out, before)


def test_an_out_of_the_wrong_shape_or_dtype_raises_before_anything_is_written():
    """Every complex stage that takes ``out`` checks its shape and dtype
    before it writes."""
    grid, paths = _grid(NUM), _paths(NUM)
    frame = apply_channel(grid, paths, 15.0, 7)
    est, cir, _ = _default_calls(frame, grid, "rect", 20)
    d = NUM.symbols_per_frame
    # The spectrum has num_symbols columns, not the frame's D.
    _raise_before_writing([
        (lambda out: channel_response(NUM, paths, out=out), np.complex128, d),
        (lambda out: apply_channel(grid, paths, 15.0, 7, out=out), np.complex128, d),
        (lambda out: estimate_channel(frame, grid, out=out), np.complex128, d),
        (lambda out: delay_transform(est, window="hann", out=out), np.complex128, d),
        (lambda out: doppler_transform(cir, num_symbols=20, out=out), np.complex128, 20),
    ], NUM.num_carriers, d)


def test_a_map_out_of_the_wrong_shape_or_dtype_raises_before_anything_is_written():
    """Every stage that writes a float32 map into ``out`` checks its shape
    and dtype before it writes."""
    grid = _grid(NUM)
    frame = apply_channel(grid, _paths(NUM), 15.0, 7)
    sf = _default_calls(frame, grid, "rect", 20)[2]
    smap = scattering_map(sf)
    scenario = dataclasses.replace(load_scenario("three_user_uplink"), numerology=NUM)
    # The map has num_symbols columns, not the frame's D.
    _raise_before_writing([
        (lambda out: scattering_map(sf, out=out), np.float32, 20),
        (lambda out: suppress_clutter(smap, 1, out=out), np.float32, 20),
        (lambda out: detect_map(smap, scenario, out=out), np.float32, 20),
    ], NUM.num_carriers, NUM.symbols_per_frame)


def _grid_bytes(scenario):
    num = scenario.numerology
    return num.num_carriers * num.symbols_per_frame * np.dtype(complex).itemsize


def test_run_scenario_peak_memory_stays_near_one_grid(tmp_path):
    """A run holds one complex working grid, which every pair's stages
    overwrite in place; the map and the notched map then fill its first
    floats. The noise and the map file go through small blocks of rows, and
    CFAR reads only the rows it tests, so the rest of the peak is the int8
    ``codes``, the estimate's bool mask and CFAR's window: about 1.16 grids.

    The transmit grid is int8 codes, and the reference symbols are looked up
    from them a block of rows at a time, so no stage holds a second complex
    grid.
    """
    scenario = load_scenario("fig4_analog")
    run_scenario(scenario, out_dir=tmp_path, log=lambda msg: None)  # warm-up
    num = scenario.numerology
    grid_bytes = _grid_bytes(scenario)
    variants = {
        "fig4_analog": scenario,
        # Hann tapers are the worst case of the transforms.
        "hann": dataclasses.replace(scenario, delay_window="hann", doppler_window="hann"),
        # A partial allocation: the noise draws skip, and the in-place
        # estimate zeroes, unallocated elements in every block.
        "random": dataclasses.replace(
            scenario, allocation={"type": "random", "user": "u0", "density": 0.5, "seed": 3}
        ),
        # Uplink rule: one user's band of a three-user grid is its own
        # measurement; its reference holds its own int8 codes.
        "process_user": dataclasses.replace(
            scenario,
            allocation={"type": "tiles", "tiles": [
                [f"u{row * 3 // num.prb_rows}", row, 0, num.prb_cols]
                for row in range(num.prb_rows)
            ]},
            process_user="u1",
        ),
        # A shorter Doppler window: the spectrum goes into a strided view of
        # the working grid.
        "doppler_window": dataclasses.replace(scenario, doppler_window_symbols=100),
    }
    for name, variant in variants.items():
        tracemalloc.start()
        try:
            run_scenario(variant, out_dir=tmp_path, log=lambda msg: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * grid_bytes, f"{name}: peak {peak / grid_bytes:.2f} complex grids"


def test_run_scenario_leaves_no_array_for_the_cyclic_gc(tmp_path):
    """With the cyclic garbage collector off, an array that a reference cycle
    holds outlives its run; a run must leave under 0.1 grid traced."""
    scenario = load_scenario("fig4_analog")
    run_scenario(scenario, out_dir=tmp_path, log=lambda msg: None)  # warm-up
    gc.disable()
    tracemalloc.start()
    try:
        run_scenario(scenario, out_dir=tmp_path, log=lambda msg: None)
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 0.1 * _grid_bytes(scenario), f"{left / _grid_bytes(scenario):.3f} grids left"


def test_a_pair_after_another_in_the_shared_working_grid_equals_it_run_alone(tmp_path):
    """Every pair of a run writes into one working grid; nothing the first
    pair left there reaches the second pair's map or detections. A random
    allocation leaves elements that no estimate reads."""
    doc = json.loads(bundled_scenario_path("fig4_analog").read_text())
    doc["numerology"]["num_carriers"] = 600
    doc["allocation"] = {"type": "random", "user": "u0", "density": 0.5, "seed": 3}
    scenario = scenario_from_dict(doc)
    assert len(scenario.pairs) == 2
    second = scenario.pairs[1]
    alone = dataclasses.replace(scenario, pairs=[second])
    run_scenario(scenario, out_dir=tmp_path / "both", log=lambda msg: None)
    run_scenario(alone, out_dir=tmp_path / "alone", log=lambda msg: None)
    stem = f"{second.tx}_{second.rx}"
    for name in (f"map_{stem}.bin", f"detections_{stem}.csv"):
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
