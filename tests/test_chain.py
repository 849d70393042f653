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
    apply_channel,
    build_grid,
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
USERS = {"u0": [(0, 0, 2), (3, 2, 4)], "u1": [(1, 0, 4), (2, 0, 4)]}
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


def unchanged(call, *inputs):
    """Run ``call``; assert that every input equals a copy taken before the
    call and that no output array shares memory with an input array."""
    before = copy.deepcopy(inputs)
    result = call()
    old, new = list(_leaves(before)), list(_leaves(inputs))
    assert len(old) == len(new)
    for a, b in zip(old, new):
        assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b
    for out in _arrays(result):
        assert not any(np.shares_memory(out, a) for a in _arrays(inputs))
    return result


def _paths(num):
    return [
        Path(delay_s=0.0, doppler_hz=0.0, gain=1.0 + 0j, kind="los"),
        Path(delay_s=2 * num.delay_bin_s, doppler_hz=40.0, gain=0.5 - 0.2j, kind="target"),
    ]


def _bits(a):
    """dtype, shape and bytes: equal only for bitwise equal arrays."""
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def channel_into_out(grid, paths):
    """apply_channel with ``out``: the default call's frame bitwise, written
    into ``out`` whatever it held before; an ``out`` of the wrong shape or
    dtype raises ValueError and keeps its bytes."""
    frame = apply_channel(grid, paths, 15.0, 7)
    m, d = frame.symbols.shape
    out = np.full((m, d), 7 - 7j)
    got = apply_channel(grid, paths, 15.0, 7, out=out)
    assert got.symbols is out
    assert _bits(got.symbols) == _bits(frame.symbols)
    for wrong in (np.full((m, d), 7 - 7j, np.complex64), np.full((m - 1, d), 7 - 7j),
                  np.full((m, d - 1), 7 - 7j)):
        before = wrong.copy()
        with pytest.raises(ValueError, match="out is"):
            apply_channel(grid, paths, 15.0, 7, out=wrong)
        assert _bits(wrong) == _bits(before)
    return got


@pytest.mark.parametrize("window", ["rect", "hann"])
@REFERENCES
def test_chain_stages_do_not_mutate_their_inputs(tmp_path, window, reference):
    grid = build_grid(NUM, USERS, rng_seed=3)
    ref = reference(grid)
    paths = _paths(NUM)
    frame = unchanged(lambda: apply_channel(grid, paths, 15.0, 7), grid, paths)
    unchanged(lambda: channel_into_out(grid, paths), grid, paths)
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
    expected = suppress_clutter(smap, scenario.notch_half_width_bins)
    assert _bits(notched.power) == _bits(expected.power)
    unchanged(lambda: write_map(tmp_path / "map.bin", smap), smap)


def _frame(num, dtype):
    cols = num.prb_cols
    grid = build_grid(num, {"u0": [(0, 0, 2), (3, 2, cols)], "u1": [(1, 0, cols), (2, 0, cols)]},
                      rng_seed=3)
    frame = apply_channel(grid, _paths(num), 15.0, 7)
    frame.symbols = frame.symbols.astype(dtype)
    return grid, frame


@pytest.mark.parametrize("window", ["rect", "hann"])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@REFERENCES
def test_stages_write_into_out_what_they_would_return(window, dtype, reference):
    """Each stage with ``out`` set, chained in place through the frame's own
    array where the dtypes allow it, gives the default call's result bitwise."""
    # 1027 carriers run the map in 64-row blocks plus a remainder; D = 27 is
    # odd and 20 and 21 are shorter windows.
    for m, d, num_symbols in ((60, 28, None), (60, 27, 20), (60, 27, None), (1027, 28, 21)):
        num = Numerology(num_carriers=m, symbols_per_frame=d, cp_fraction=0.25)
        grid, frame = _frame(num, dtype)
        ref = reference(grid)
        # The frame itself is complex128, whatever dtype the later stages see.
        channel_into_out(grid, _paths(num))
        est = estimate_channel(frame, ref)
        cir = delay_transform(est, window=window)
        sf = doppler_transform(cir, window=window, num_symbols=num_symbols)

        out = frame.symbols
        got_est = estimate_channel(frame, ref, out=out)
        assert np.shares_memory(got_est.h, out)
        assert _bits(got_est.h) == _bits(est.h)
        assert np.array_equal(got_est.valid_mask, est.valid_mask)

        # A Hann taper widens complex64 to complex128, which needs its own array.
        out = got_est.h if cir.h.dtype == dtype else np.empty_like(cir.h)
        got_cir = delay_transform(got_est, window=window, out=out)
        assert np.shares_memory(got_cir.h, out)
        assert _bits(got_cir.h) == _bits(cir.h)

        out = got_cir.h[:, :num_symbols]
        got_sf = doppler_transform(got_cir, window=window, num_symbols=num_symbols, out=out)
        assert np.shares_memory(got_sf.s, out)
        assert _bits(got_sf.s) == _bits(sf.s)
        assert (got_sf.delay_bin_s, got_sf.doppler_bin_hz) == (sf.delay_bin_s, sf.doppler_bin_hz)


def test_an_out_of_the_wrong_shape_or_dtype_raises_before_anything_is_written():
    grid, frame = _frame(NUM, np.complex128)
    est = estimate_channel(frame, grid)
    cir = delay_transform(est)
    m, d = NUM.num_carriers, NUM.symbols_per_frame
    stages = [
        (lambda out: estimate_channel(frame, grid, out=out), d),
        (lambda out: delay_transform(est, window="hann", out=out), d),
        # The spectrum has num_symbols columns, not the frame's D.
        (lambda out: doppler_transform(cir, num_symbols=20, out=out), 20),
    ]
    for stage, cols in stages:
        wrong = [np.full((m, cols), 7 - 7j, np.complex64),  # dtype
                 np.full((m - 1, cols), 7 - 7j),  # rows
                 np.full((m, d if cols != d else d - 1), 7 - 7j)]  # columns
        for out in wrong:
            before = out.copy()
            with pytest.raises(ValueError, match="out is"):
                stage(out)
            assert _bits(out) == _bits(before)


@pytest.mark.parametrize("window", ["rect", "hann"])
@pytest.mark.parametrize("num_symbols", [None, 20, 21])
def test_map_and_notch_in_the_working_grid_equal_the_default_calls(window, num_symbols):
    """The map written into the float32 view over the working grid's first
    M * D floats, and the notch applied to it in place, give the default
    calls' results bitwise, also for a Doppler window shorter than D."""
    for m, d in ((60, 28), (1027, 28), (60, 27)):
        num = Numerology(num_carriers=m, symbols_per_frame=d, cp_fraction=0.25)
        grid, frame = _frame(num, np.complex128)
        work = frame.symbols
        est = estimate_channel(frame, grid, out=work)
        cir = delay_transform(est, window=window, out=est.h)
        sf = doppler_transform(cir, window=window, num_symbols=num_symbols,
                               out=cir.h[:, :num_symbols])
        smap = scattering_map(sf)
        notched = suppress_clutter(smap, 2)

        rows, cols = sf.s.shape
        view = work.view(np.float32).reshape(-1)[: rows * cols].reshape(rows, cols)
        got = scattering_map(sf, out=view)
        assert np.shares_memory(got.power, work)
        assert _bits(got.power) == _bits(smap.power)
        assert (got.delay_bin_s, got.doppler_bin_hz) == (smap.delay_bin_s, smap.doppler_bin_hz)
        got_notched = suppress_clutter(got, 2, out=got.power)
        assert got_notched.power is got.power
        assert _bits(got_notched.power) == _bits(notched.power)


def test_a_map_out_of_the_wrong_shape_or_dtype_raises_before_anything_is_written():
    grid, frame = _frame(NUM, np.complex128)
    sf = doppler_transform(delay_transform(estimate_channel(frame, grid)))
    smap = scattering_map(sf)
    m, d = smap.power.shape
    stages = [lambda out: scattering_map(sf, out=out),
              lambda out: suppress_clutter(smap, 1, out=out)]
    for stage in stages:
        for out in (np.full((m, d), 7.0), np.full((m - 1, d), 7.0, np.float32),
                    np.full((m, d - 1), 7.0, np.float32)):
            before = out.copy()
            with pytest.raises(ValueError, match="out is"):
                stage(out)
            assert _bits(out) == _bits(before)


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
