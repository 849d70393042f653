"""The per-pair receiver chain leaves its inputs alone and frees them as it goes."""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from ofdmpcl import (
    Numerology,
    Path,
    apply_channel,
    build_grid,
    delay_transform,
    doppler_transform,
    estimate_channel,
    load_scenario,
    run_scenario,
    scattering_map,
    suppress_clutter,
    write_map,
)

NUM = Numerology(num_carriers=60, symbols_per_frame=28, cp_fraction=0.25)
USERS = {"u0": [(0, 0, 2), (3, 2, 4)], "u1": [(1, 0, 4), (2, 0, 4)]}


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


@pytest.mark.parametrize("window", ["rect", "hann"])
@pytest.mark.parametrize("user_id", [None, "u1"])
def test_chain_stages_do_not_mutate_their_inputs(tmp_path, window, user_id):
    grid = build_grid(NUM, USERS, rng_seed=3)
    paths = [
        Path(delay_s=0.0, doppler_hz=0.0, gain=1.0 + 0j, kind="los"),
        Path(delay_s=2 * NUM.delay_bin_s, doppler_hz=40.0, gain=0.5 - 0.2j, kind="target"),
    ]
    frame = unchanged(lambda: apply_channel(grid, paths, 15.0, 7), grid, paths)
    est = unchanged(lambda: estimate_channel(frame, grid, user_id=user_id), frame, grid)
    cir = unchanged(lambda: delay_transform(est, window=window), est)
    sf = unchanged(lambda: doppler_transform(cir, window=window, num_symbols=20), cir)
    assert sf.s.shape == (NUM.num_carriers, 20)
    smap = unchanged(lambda: scattering_map(sf), sf)
    unchanged(lambda: suppress_clutter(smap, 1), smap)
    unchanged(lambda: write_map(tmp_path / "map.bin", smap), smap)


def test_run_scenario_peak_memory_stays_near_four_grids(tmp_path):
    scenario = load_scenario("fig4_analog")
    run_scenario(scenario, out_dir=tmp_path, log=lambda msg: None)  # warm-up
    # Hann tapers add a tapered copy per transform, the worst case of the chain.
    hann = dataclasses.replace(scenario, delay_window="hann", doppler_window="hann")
    tracemalloc.start()
    try:
        run_scenario(hann, out_dir=tmp_path, log=lambda msg: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    num = scenario.numerology
    grid_bytes = num.num_carriers * num.symbols_per_frame * np.dtype(complex).itemsize
    assert peak <= 4.5 * grid_bytes, f"peak {peak / grid_bytes:.2f} complex grids"
