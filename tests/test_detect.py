import math

import numpy as np
import pytest

from ofdmpcl import (
    CfarConfig,
    MapTooSmall,
    NotchTooWide,
    Numerology,
    Path,
    apply_channel,
    build_grid,
    cfar_detect,
    delay_transform,
    doppler_transform,
    estimate_channel,
    full_allocation,
    scattering_map,
    suppress_clutter,
)
from ofdmpcl.dsp import ScatteringMap, window_vector
from oracles import ca_cfar_literal, gated_rows, pd_ca_cfar

# 100 Hz Doppler bins: 140 symbols at 1/14 ms each
NUM = Numerology(num_carriers=60, symbols_per_frame=140)


def pipeline_map(paths, num=NUM, snr_db=None, seed=0, grid_seed=1):
    grid = build_grid(num, full_allocation(num), rng_seed=grid_seed)
    frame = apply_channel(grid, paths, noise_snr_db=snr_db, rng_seed=seed)
    return scattering_map(
        doppler_transform(delay_transform(estimate_channel(frame, grid)))
    )


def synthetic_map(power):
    return ScatteringMap(power=power, delay_bin_s=1e-8, doppler_bin_hz=100.0)


def test_static_only_scene_notches_to_zero():
    paths = [
        Path(0.0, 0.0, 2.0 + 0j, "los"),
        Path(1.5 * NUM.delay_bin_s, 0.0, 0.5 + 0.2j, "clutter"),
        Path(3.2 * NUM.delay_bin_s, 0.0, 0.3 - 0.4j, "clutter"),
    ]
    smap = pipeline_map(paths)
    notched = suppress_clutter(smap, notch_half_width=1)
    assert notched.power.max() < 1e-18 * smap.power.max()


def test_notch_preserves_target_two_bins_out():
    # 100 Hz bins; a 200 Hz target sits 2 bins from the +-1 bin notch
    target = Path(2 * NUM.delay_bin_s, 200.0, 1.0, "target")
    clutter = Path(1 * NUM.delay_bin_s, 0.0, 3.0, "clutter")
    smap = pipeline_map([target, clutter])
    notched = suppress_clutter(smap, notch_half_width=1)
    center = smap.zero_doppler_bin
    assert notched.power[2, center + 2] == smap.power[2, center + 2]
    assert notched.power[:, center - 1 : center + 2].sum() == 0.0
    detections = cfar_detect(notched, CfarConfig(train_cells=6, guard_cells=2, pfa=1e-6))
    assert detections[0].delay_bin == 2
    assert detections[0].doppler_bin == center + 2


def test_zero_width_notch_removes_only_the_center_column():
    target = Path(2 * NUM.delay_bin_s, 200.0, 1.0, "target")
    smap = pipeline_map([target])
    notched = suppress_clutter(smap, notch_half_width=0)
    center = smap.zero_doppler_bin
    assert notched.power[:, center].sum() == 0.0
    others = np.delete(np.arange(smap.power.shape[1]), center)
    np.testing.assert_array_equal(notched.power[:, others], smap.power[:, others])


def test_notch_wider_than_half_the_axis_rejected():
    smap = synthetic_map(np.ones((64, 32)))
    with pytest.raises(NotchTooWide):
        suppress_clutter(smap, notch_half_width=8)  # 17 of 32 columns
    suppress_clutter(smap, notch_half_width=7)  # 15 of 32 is allowed


def test_single_target_20db_yields_exactly_one_detection_at_true_bins():
    # per-element SNR set so the map-domain target SNR is about 20 dB
    processing_gain_db = 10 * np.log10(NUM.num_carriers * NUM.symbols_per_frame)
    target = Path(3 * NUM.delay_bin_s, 400.0, 1.0, "target")
    smap = pipeline_map([target], snr_db=20.0 - processing_gain_db, seed=3)
    notched = suppress_clutter(smap, notch_half_width=1)
    detections = cfar_detect(notched, CfarConfig(train_cells=6, guard_cells=2, pfa=1e-6))
    assert len(detections) == 1
    det = detections[0]
    assert (det.delay_bin, det.doppler_bin) == (3, smap.zero_doppler_bin + 4)
    assert det.snr_db == pytest.approx(20.0, abs=3.0)


def test_all_zero_map_has_no_detections():
    detections = cfar_detect(synthetic_map(np.zeros((64, 64))), CfarConfig())
    assert detections == []


def test_detection_set_is_scale_invariant():
    rng = np.random.default_rng(21)
    power = rng.exponential(size=(128, 128))
    power[40, 40] = 500.0
    power[90, 17] = 120.0
    cfg = CfarConfig(train_cells=8, guard_cells=2, pfa=1e-3)
    reference = {(d.delay_bin, d.doppler_bin) for d in cfar_detect(synthetic_map(power), cfg)}
    assert (40, 40) in reference and (90, 17) in reference
    for scale in (2.0**-12, 3.7, 2.0**20):
        scaled = {
            (d.delay_bin, d.doppler_bin)
            for d in cfar_detect(synthetic_map(power * scale), cfg)
        }
        assert scaled == reference


def test_lowering_pfa_never_adds_detections():
    rng = np.random.default_rng(77)
    power = rng.exponential(size=(128, 128))
    power[30, 64] = 200.0
    previous = None
    for pfa in (1e-2, 1e-3, 1e-4, 1e-5):
        cfg = CfarConfig(train_cells=8, guard_cells=2, pfa=pfa)
        bins = {(d.delay_bin, d.doppler_bin) for d in cfar_detect(synthetic_map(power), cfg)}
        if previous is not None:
            assert bins <= previous
        previous = bins


def test_map_smaller_than_window_rejected():
    cfg = CfarConfig(train_cells=8, guard_cells=2, pfa=1e-3)  # 21-cell window
    with pytest.raises(MapTooSmall):
        cfar_detect(synthetic_map(np.ones((21, 64))), cfg)
    with pytest.raises(MapTooSmall):
        cfar_detect(synthetic_map(np.ones((64, 21))), cfg)


def test_refinement_beats_bin_center_for_off_grid_targets():
    num = Numerology(num_carriers=60, symbols_per_frame=28, cp_fraction=0.25)
    cfg = CfarConfig(train_cells=4, guard_cells=2, pfa=1e-4)
    for offset in (0.05, 0.15, 0.25, 0.35, 0.45):
        true_delay_bins = 8.0 + offset
        target = Path(
            true_delay_bins * num.delay_bin_s,
            2.0 / (num.symbols_per_frame * num.symbol_duration_s),
            1.0,
            "target",
        )
        smap = pipeline_map([target], num=num)
        det = cfar_detect(smap, cfg)[0]
        refined_bins = det.refined_delay_s / num.delay_bin_s
        raw_error = abs(det.delay_bin - true_delay_bins)
        assert abs(refined_bins - true_delay_bins) < raw_error


def test_detections_sorted_by_power_then_lexicographic():
    power = np.zeros((64, 64))
    power[50, 9] = 5.0
    power[10, 30] = 5.0  # equal power, lower delay bin: must come first
    power[20, 20] = 9.0
    cfg = CfarConfig(train_cells=4, guard_cells=1, pfa=1e-3)
    detections = cfar_detect(synthetic_map(power), cfg)
    bins = [(d.delay_bin, d.doppler_bin) for d in detections]
    assert bins == [(20, 20), (10, 30), (50, 9)]


def test_equal_plateau_resolves_to_lower_delay_bin():
    power = np.zeros((64, 64))
    power[5, 5] = 3.0
    power[5, 6] = 3.0
    power[6, 40] = 3.0
    power[7, 40] = 3.0
    cfg = CfarConfig(train_cells=4, guard_cells=1, pfa=1e-3)
    bins = [(d.delay_bin, d.doppler_bin) for d in cfar_detect(synthetic_map(power), cfg)]
    assert bins == [(5, 5), (6, 40)]


def test_refined_values_stay_within_half_bin():
    rng = np.random.default_rng(4)
    power = rng.exponential(size=(64, 64))
    power[31, 22] = 300.0
    det = cfar_detect(synthetic_map(power), CfarConfig(pfa=1e-3))[0]
    assert abs(det.refined_delay_s / 1e-8 - det.delay_bin) <= 0.5
    assert abs(det.refined_doppler_hz / 100.0 - (det.doppler_bin - 32)) <= 0.5


def oracle_map(shape, seed):
    """Exponential noise with peaks on the wrap edges, an equal plateau, a
    zeroed notch and one peak whose whole training cross is zero."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    power = rng.exponential(size=shape)
    power[0, 5] = 60.0
    power[rows // 2, cols - 1] = 45.0
    power[rows - 1, 0] = 30.0
    power[rows // 3, 3 : 5] = 25.0
    power[rows // 3 + 1, 3] = 25.0
    power[:, cols // 2 - 1 : cols // 2 + 2] = 0.0
    quiet_row, quiet_col = rows - 4, cols // 2 - 5
    power[quiet_row, :] = 0.0
    power[:, quiet_col] = 0.0
    power[quiet_row, quiet_col] = 50.0
    return power


@pytest.mark.parametrize("train, guard, pfa", [(1, 0, 0.05), (4, 1, 1e-2), (8, 2, 1e-3)])
@pytest.mark.parametrize("shape", [(40, 48), (64, 64), (23, 22)])  # (8, 2) window: 21
# None tests every row; 8192 delay bins reach past every map's last row, so K
# clamps to M and the same rows are tested.
@pytest.mark.parametrize("max_delay_bins", [8192, None])
def test_cfar_matches_literal_oracle(train, guard, pfa, shape, max_delay_bins):
    cfg = CfarConfig(train_cells=train, guard_cells=guard, pfa=pfa)
    power = oracle_map(shape, seed=sum(shape) + train)
    smap = synthetic_map(power)
    max_delay_s = None if max_delay_bins is None else max_delay_bins * smap.delay_bin_s
    got = cfar_detect(smap, cfg, max_delay_s=max_delay_s)
    want = ca_cfar_literal(power, train, guard, pfa, delay_bin_s=1e-8, doppler_bin_hz=100.0)
    assert [(d.delay_bin, d.doppler_bin) for d in got] == [row[:2] for row in want]
    assert any(np.isinf(row[5]) for row in want)
    fields = ("refined_delay_s", "refined_doppler_hz", "peak_power", "snr_db")
    np.testing.assert_allclose(
        [[getattr(d, f) for f in fields] for d in got],
        [row[2:] for row in want],
        rtol=1e-12,
    )


def test_cfar_matches_literal_oracle_on_a_tall_map_with_peaks_near_both_wrap_edges():
    """150 rows: peaks sit on and near both wrap edges of each axis, where the
    training cross and the 8 neighbours wrap, and in rows 6-14 between them."""
    rows, cols = 150, 48
    power = oracle_map((rows, cols), seed=5)
    # oracle_map puts peaks at (0, 5), (75, 47) and (149, 0).
    for row, col, value in [(6, 10, 70.0), (7, 20, 65.0), (13, 30, 55.0), (14, 40, 52.0),
                            (146, 12, 48.0), (147, 22, 44.0), (149, 34, 40.0), (0, 40, 38.0)]:
        power[row, col] = value
    got = cfar_detect(synthetic_map(power), CfarConfig(train_cells=8, guard_cells=2, pfa=1e-3))
    want = ca_cfar_literal(power, 8, 2, 1e-3, delay_bin_s=1e-8, doppler_bin_hz=100.0)
    bins = [(d.delay_bin, d.doppler_bin) for d in got]
    assert bins == [row[:2] for row in want]
    assert {(0, 5), (75, 47), (149, 0), (6, 10), (7, 20), (13, 30), (14, 40), (146, 12),
            (147, 22), (149, 34), (0, 40)} <= set(bins)
    fields = ("refined_delay_s", "refined_doppler_hz", "peak_power", "snr_db")
    np.testing.assert_allclose(
        [[getattr(d, f) for f in fields] for d in got],
        [row[2:] for row in want],
        rtol=1e-12,
    )


def test_detection_fields_are_plain_python_numbers():
    rng = np.random.default_rng(9)
    power = rng.exponential(size=(48, 40)).astype(np.float32)
    power[7, 9] = 80.0
    detections = cfar_detect(synthetic_map(power), CfarConfig(pfa=1e-2))
    assert detections
    for det in detections:
        assert type(det.delay_bin) is int and type(det.doppler_bin) is int
        for value in (det.refined_delay_s, det.refined_doppler_hz, det.peak_power, det.snr_db):
            assert type(value) is float


# 55.0: K = 57 < 64, so the rows wrapped below the tested ones run past the
# map's last row back to row 0.
@pytest.mark.parametrize("max_delay_bins", [0.0, 6.5, 13.0, 20.99, 55.0, 62.0, math.inf])
@pytest.mark.parametrize("notch", [None, 2])
# The whole-map call: 8192 delay bins reach past the last row (K clamps to M);
# None is the ungated call.
@pytest.mark.parametrize("whole_map_delay_bins", [8192, None])
def test_gated_cfar_is_the_ungated_result_on_the_gated_rows(max_delay_bins, notch,
                                                              whole_map_delay_bins):
    """Training cells come from the whole map, so each detection in a tested
    row keeps every field of the whole-map call's, and the literal oracle's."""
    cfg = CfarConfig(train_cells=8, guard_cells=2, pfa=1e-3)
    smap = synthetic_map(oracle_map((64, 48), seed=12))
    if notch is not None:
        smap = suppress_clutter(smap, notch)
    max_delay_s = max_delay_bins * smap.delay_bin_s
    k = gated_rows(64, smap.delay_bin_s, max_delay_s)
    gated = cfar_detect(smap, cfg, max_delay_s=max_delay_s)
    whole = cfar_detect(smap, cfg, max_delay_s=None if whole_map_delay_bins is None
                        else whole_map_delay_bins * smap.delay_bin_s)
    assert gated == [d for d in whole if d.delay_bin < k]
    # oracle_map puts peaks in rows 0, 21, 22, 32, 60 and 63.
    assert gated and (k == 64 or any(d.delay_bin >= k for d in whole))
    want = [row for row in ca_cfar_literal(smap.power, 8, 2, 1e-3, delay_bin_s=1e-8,
                                           doppler_bin_hz=100.0) if row[0] < k]
    assert [(d.delay_bin, d.doppler_bin) for d in gated] == [row[:2] for row in want]
    fields = ("refined_delay_s", "refined_doppler_hz", "peak_power", "snr_db")
    np.testing.assert_allclose([[getattr(d, f) for f in fields] for d in gated],
                               [row[2:] for row in want], rtol=1e-12)


@pytest.mark.parametrize("max_delay_s", [-1e-9, math.nan])
def test_a_negative_or_nan_max_delay_is_rejected(max_delay_s):
    with pytest.raises(ValueError, match="max_delay_s"):
        cfar_detect(synthetic_map(np.ones((64, 64))), CfarConfig(), max_delay_s=max_delay_s)


@pytest.mark.parametrize("window", ["rect", "hann"])
def test_a_path_just_below_the_cyclic_prefix_is_detected(window):
    """The CP spans 4.9 bins here, so a noise-free path just below it peaks in
    row 5, past the last whole CP bin; the gate (rows [0, 7)) still tests it."""
    num = Numerology(num_carriers=60, symbols_per_frame=140, cp_fraction=4.9 / 60)
    delay_s = num.cp_duration_s * (1 - 1e-9)
    target = Path(delay_s, 400.0, 1.0, "target")
    grid = build_grid(num, full_allocation(num), rng_seed=1)
    frame = apply_channel(grid, [target], noise_snr_db=None, rng_seed=0)
    cir = delay_transform(estimate_channel(frame, grid), window=window)
    smap = suppress_clutter(scattering_map(doppler_transform(cir, window=window)), 1)
    cfg = CfarConfig(train_cells=6, guard_cells=2, pfa=1e-6)
    detections = cfar_detect(smap, cfg, max_delay_s=num.cp_duration_s)
    assert gated_rows(60, num.delay_bin_s, num.cp_duration_s) == 7
    assert (detections[0].delay_bin, detections[0].doppler_bin) == (5, smap.zero_doppler_bin + 4)
    assert detections == [d for d in cfar_detect(smap, cfg) if d.delay_bin < 7]


def central_99(pmf):
    """The counts between the 0.5% and 99.5% quantiles of a count's pmf."""
    cdf = np.cumsum(pmf)
    return int(np.searchsorted(cdf, 0.005)), int(np.searchsorted(cdf, 0.995))


def binomial_pmf(n, p):
    return np.array([math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)])


@pytest.mark.parametrize("window", ["rect", "hann"])
def test_measured_pd_matches_the_ca_cfar_closed_form(window):
    """One on-grid path through the whole chain on a full 72 x 28 grid, with
    the per-element SNR set for 10, 11 and 12 dB of integrated map SNR: M * D
    times each axis' window loss (sum w)^2 / (N * sum w^2). A hit is a
    detection in the path's own cell. Each SNR's hit count, and their total,
    must lie within the central 99% of the binomial, and of the
    Poisson-binomial, spread around the closed form's Pd."""
    num = Numerology()  # 72 x 28; Doppler bin +2 is the narrowband bound's largest
    m, d = num.num_carriers, num.symbols_per_frame
    grid = build_grid(num, full_allocation(num), rng_seed=1)
    path = Path(5 * num.delay_bin_s, 2 / (d * num.symbol_duration_s), 1.0, "target")
    cfg = CfarConfig(train_cells=8, guard_cells=2, pfa=1e-4)
    gain = m * d
    for n in (m, d):
        w = window_vector(window, n)
        gain *= w.sum() ** 2 / (n * (w * w).sum())
    trials, total, pooled = 200, 0, np.ones(1)
    for i, snr_db in enumerate((10.0, 11.0, 12.0)):
        hits = 0
        for k in range(trials):
            # A noise stream of its own per trial, so the counts pool independently.
            frame = apply_channel(grid, [path], noise_snr_db=snr_db - 10 * math.log10(gain),
                                  rng_seed=(i, k))
            cir = delay_transform(estimate_channel(frame, grid), window=window)
            smap = scattering_map(doppler_transform(cir, window=window))
            cell = (5, smap.zero_doppler_bin + 2)
            hits += any((det.delay_bin, det.doppler_bin) == cell
                        for det in cfar_detect(smap, cfg, max_delay_s=num.cp_duration_s))
        pmf = binomial_pmf(trials, pd_ca_cfar(10 ** (snr_db / 10), cfg.num_training, cfg.pfa))
        lo, hi = central_99(pmf)
        assert lo <= hits <= hi, (snr_db, hits, lo, hi)
        total, pooled = total + hits, np.convolve(pooled, pmf)
    lo, hi = central_99(pooled)
    assert lo <= total <= hi, (total, lo, hi)
