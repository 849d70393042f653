import numpy as np
import pytest

from ofdmpcl import (
    DimensionMismatch,
    EmptyReference,
    Numerology,
    Path,
    SymbolFrame,
    apply_channel,
    build_grid,
    delay_transform,
    doppler_transform,
    estimate_channel,
    full_allocation,
    max_integration_time,
    scattering_map,
    user_subgrid,
)
from ofdmpcl.dsp import ChannelEstimate
from oracles import (
    center_zero_frequency,
    direct_unitary_dft_axis1,
    direct_unitary_idft_axis0,
)

# cp_fraction 0.25 leaves 15 delay bins of cyclic-prefix headroom
NUM = Numerology(num_carriers=60, symbols_per_frame=28, cp_fraction=0.25)

THREE_USERS = {
    "u0": [(0, 0, 2), (3, 2, 4)],
    "u1": [(1, 0, 2), (4, 2, 4), (0, 2, 4)],
    "u2": [(2, 0, 4), (3, 0, 2)],
}


def single_path_frame(delay_bins=0.0, doppler_bins=0.0, num=NUM, num_symbols=None,
                      gain=1.0 + 0j, snr_db=None, seed=0, grid_seed=1):
    d = num.symbols_per_frame if num_symbols is None else num_symbols
    grid = build_grid(num, full_allocation(num), rng_seed=grid_seed)
    path = Path(
        delay_s=delay_bins * num.delay_bin_s,
        doppler_hz=doppler_bins / (d * num.symbol_duration_s),
        gain=gain,
        kind="target",
    )
    frame = apply_channel(grid, [path], noise_snr_db=snr_db, rng_seed=seed)
    return grid, frame


def test_inverse_filtering_recovers_channel_exactly():
    grid, frame = single_path_frame(delay_bins=3.0, gain=0.6 - 0.3j)
    est = estimate_channel(frame, grid)
    m = np.arange(NUM.num_carriers)
    expected = (0.6 - 0.3j) * np.exp(
        -2j * np.pi * m * NUM.subcarrier_spacing_hz * 3.0 * NUM.delay_bin_s
    )
    for d in range(NUM.symbols_per_frame):
        np.testing.assert_allclose(est.h[:, d], expected, rtol=1e-12)
    assert np.all(est.valid_mask)


def test_division_equals_conjugate_multiplication_for_qpsk():
    grid, frame = single_path_frame(delay_bins=2.0)
    est = estimate_channel(frame, grid)
    conj = frame.symbols * np.conj(grid.symbols)
    np.testing.assert_allclose(est.h, conj, rtol=1e-12)


def test_per_user_estimates_partition_full_grid_support():
    grid = build_grid(NUM, THREE_USERS, rng_seed=3)
    path = Path(delay_s=2 * NUM.delay_bin_s, doppler_hz=0.0, gain=1.0, kind="target")
    frame = apply_channel(grid, [path], noise_snr_db=None, rng_seed=0)
    full = estimate_channel(frame, grid)
    union = np.zeros_like(full.valid_mask)
    for uid in grid.users:
        per_user = estimate_channel(frame, user_subgrid(grid, uid))
        assert not np.any(union & per_user.valid_mask)
        union |= per_user.valid_mask
        np.testing.assert_array_equal(
            per_user.h[per_user.valid_mask], full.h[per_user.valid_mask]
        )
    assert np.array_equal(union, full.valid_mask)


def test_estimate_dimension_mismatch():
    grid = build_grid(NUM, full_allocation(NUM), rng_seed=0)
    other = Numerology(num_carriers=48, symbols_per_frame=28, cp_fraction=0.25)
    frame = SymbolFrame(symbols=np.ones((48, 28), complex), numerology=other)
    with pytest.raises(DimensionMismatch):
        estimate_channel(frame, grid)


def test_estimate_empty_reference():
    allocations = dict(THREE_USERS)
    allocations["ghost"] = []
    grid = build_grid(NUM, allocations, rng_seed=0)
    frame = apply_channel(
        grid, [Path(0.0, 0.0, 1.0, "target")], noise_snr_db=None, rng_seed=0
    )
    with pytest.raises(EmptyReference):
        estimate_channel(frame, user_subgrid(grid, "ghost"))


def test_on_grid_delay_peaks_at_that_bin_every_symbol():
    grid, frame = single_path_frame(delay_bins=7.0)
    cir = delay_transform(estimate_channel(frame, grid))
    peaks = np.argmax(np.abs(cir.h), axis=0)
    assert np.all(peaks == 7)


def test_delay_shift_theorem_one_bin_circular_shift():
    grid, frame_a = single_path_frame(delay_bins=5.0)
    _, frame_b = single_path_frame(delay_bins=6.0)
    cir_a = delay_transform(estimate_channel(frame_a, grid)).h
    cir_b = delay_transform(estimate_channel(frame_b, grid)).h
    np.testing.assert_allclose(cir_b, np.roll(cir_a, 1, axis=0), rtol=1e-9, atol=1e-12)


def test_off_grid_delay_leaks_as_squared_dirichlet_kernel():
    grid, frame = single_path_frame(delay_bins=6.5)
    cir = delay_transform(estimate_channel(frame, grid))
    profile = np.abs(cir.h[:, 0]) ** 2
    profile /= profile.max()
    m = NUM.num_carriers
    # sampled squared Dirichlet kernel around the half-bin offset
    offsets = np.arange(m) - 6.5
    expected = (np.sin(np.pi * offsets) / (m * np.sin(np.pi * offsets / m))) ** 2
    expected /= expected.max()
    np.testing.assert_allclose(profile, expected, atol=1e-9)


def test_sparse_user_grid_degrades_peak_to_sidelobe_ratio():
    def pslr_db(grid):
        path = Path(6.5 * NUM.delay_bin_s, 0.0, 1.0, "target")
        frame = apply_channel(grid, [path], noise_snr_db=None, rng_seed=0)
        est = estimate_channel(frame, grid)
        pdp = np.mean(np.abs(delay_transform(est).h) ** 2, axis=1)
        peak_bin = int(np.argmax(pdp))
        sidelobes = np.delete(pdp, range(peak_bin - 2, peak_bin + 3))
        return 10 * np.log10(pdp[peak_bin] / sidelobes.max())

    full = pslr_db(build_grid(NUM, full_allocation(NUM), rng_seed=1))
    sparse = pslr_db(user_subgrid(build_grid(NUM, THREE_USERS, rng_seed=1), "u1"))
    assert sparse < full - 1.0


def test_static_path_collapses_to_zero_doppler_column():
    grid, frame = single_path_frame(delay_bins=4.0, doppler_bins=0.0)
    sf = doppler_transform(delay_transform(estimate_channel(frame, grid)))
    power = np.abs(sf.s) ** 2
    center = sf.s.shape[1] // 2
    off_center = np.delete(power, center, axis=1)
    assert off_center.sum() < 1e-20 * power.sum()


def test_on_grid_doppler_peaks_at_that_bin():
    # long frame keeps doppler * symbol_duration inside the narrowband guard
    num = Numerology(num_carriers=60, symbols_per_frame=140, cp_fraction=0.25)
    for k in (-5, -1, 3, 9):
        grid, frame = single_path_frame(delay_bins=2.0, doppler_bins=k, num=num)
        sf = doppler_transform(delay_transform(estimate_channel(frame, grid)))
        power = np.abs(sf.s) ** 2
        delay_bin, doppler_bin = np.unravel_index(np.argmax(power), power.shape)
        assert (delay_bin, doppler_bin) == (2, power.shape[1] // 2 + k)
        assert sf.doppler_bin_hz == pytest.approx(
            1.0 / (num.symbols_per_frame * num.symbol_duration_s)
        )


def test_doppler_window_slices_leading_symbols():
    grid, frame = single_path_frame(delay_bins=2.0, doppler_bins=1.0, num_symbols=14)
    cir = delay_transform(estimate_channel(frame, grid))
    sf = doppler_transform(cir, num_symbols=14)
    assert sf.s.shape == (NUM.num_carriers, 14)
    assert sf.doppler_bin_hz == pytest.approx(1.0 / (14 * NUM.symbol_duration_s))
    power = np.abs(sf.s) ** 2
    _, doppler_bin = np.unravel_index(np.argmax(power), power.shape)
    assert doppler_bin == 7 + 1


@pytest.mark.parametrize("num_symbols", [-1, 0, 1, NUM.symbols_per_frame + 1])
def test_doppler_window_outside_2_to_d_symbols_raises(num_symbols):
    grid, frame = single_path_frame()
    cir = delay_transform(estimate_channel(frame, grid))
    with pytest.raises(ValueError, match="Doppler transform needs 2 to 28 symbols"):
        doppler_transform(cir, num_symbols=num_symbols)
    for num_symbols in (2, NUM.symbols_per_frame):
        assert doppler_transform(cir, num_symbols=num_symbols).s.shape[1] == num_symbols


def test_transforms_preserve_energy_with_rect_window():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((60, 28)) + 1j * rng.standard_normal((60, 28))
    est = ChannelEstimate(h=h, valid_mask=np.ones((60, 28), bool), numerology=NUM)
    cir = delay_transform(est)
    sf = doppler_transform(cir)
    for stage in (cir.h, sf.s):
        assert np.sum(np.abs(stage) ** 2) == pytest.approx(
            np.sum(np.abs(h) ** 2), rel=1e-12
        )


def test_scattering_map_trivial_cases():
    grid, frame = single_path_frame(delay_bins=1.0)
    sf = doppler_transform(delay_transform(estimate_channel(frame, grid)))
    smap = scattering_map(sf)
    # |s|^2 in float64, rounded once to float32, bit for bit
    assert smap.power.dtype == np.float32
    assert smap.power.tobytes() == (np.abs(sf.s) ** 2).astype(np.float32).tobytes()
    assert np.all(smap.power >= 0)
    sf.s = np.zeros_like(sf.s)
    assert scattering_map(sf).power.sum() == 0.0
    sf.s[3, 5] = 1.0
    single = scattering_map(sf)
    assert single.power[3, 5] == 1.0
    assert single.power.sum() == 1.0


def test_round_trip_concentrates_on_grid_target_energy():
    num = Numerology(num_carriers=60, symbols_per_frame=140, cp_fraction=0.25)
    grid, frame = single_path_frame(delay_bins=9.0, doppler_bins=-6.0, num=num)
    smap = scattering_map(
        doppler_transform(delay_transform(estimate_channel(frame, grid)))
    )
    power = smap.power
    k, j = 9, smap.zero_doppler_bin - 6
    window = power[k - 1 : k + 2, j - 1 : j + 2]
    assert window.sum() >= 0.99 * power.sum()


def test_hann_window_matches_direct_windowed_oracle():
    rng = np.random.default_rng(5)
    for d in (28, 27):  # 27 checks the complex shift factor in the Doppler taper
        h = rng.standard_normal((60, d)) + 1j * rng.standard_normal((60, d))
        est = ChannelEstimate(h=h, valid_mask=np.ones((60, d), bool), numerology=NUM)
        cir = delay_transform(est, window="hann")
        expected = direct_unitary_idft_axis0(np.hanning(60)[:, None] * h)
        np.testing.assert_allclose(cir.h, expected, rtol=1e-10, atol=1e-12)
        sf = doppler_transform(cir, window="hann")
        expected_sf = center_zero_frequency(
            direct_unitary_dft_axis1(np.hanning(d)[None, :] * expected)
        )
        np.testing.assert_allclose(sf.s, expected_sf, rtol=1e-10, atol=1e-12)


def test_unknown_window_rejected():
    grid, frame = single_path_frame()
    est = estimate_channel(frame, grid)
    with pytest.raises(ValueError):
        delay_transform(est, window="blackman")


def test_max_integration_time_values():
    bin_80mhz = 12.5e-9
    bound = max_integration_time(50.0, bin_80mhz)
    assert bound == pytest.approx(0.03747405725, rel=1e-9)
    assert bound >= 0.010  # covers a 10 ms slow-time window
    assert max_integration_time(1.0, bin_80mhz) == pytest.approx(1.873702862, rel=1e-9)
    assert max_integration_time(1e9, bin_80mhz) < 1e-8
    with pytest.raises(ValueError):
        max_integration_time(0.0, bin_80mhz)


def _literal_delay(h, window):
    """The delay transform as one tapered copy and one unitary IFFT."""
    if window != "rect":
        h = np.hanning(h.shape[0])[:, None] * h
    return np.fft.ifft(h, axis=0, norm="ortho")


def _literal_doppler(h, window, num_symbols):
    """The Doppler transform as one tapered copy, one FFT, fftshift and scale."""
    h = h if num_symbols is None else h[:, :num_symbols]
    d = h.shape[1]
    if window != "rect":
        h = np.hanning(d)[None, :] * h
    return np.fft.fftshift(np.fft.fft(h, axis=1), axes=1) / np.sqrt(d)


@pytest.mark.parametrize("window", ["rect", "hann"])
def test_transforms_match_their_literal_formulation(window):
    """The delay transform is the tapered unitary IFFT bitwise. The Doppler
    transform, whose shift rides in the taper, is the shifted, scaled FFT of
    the tapered response to within 8 eps of the spectrum's largest value."""
    rng = np.random.default_rng(17)
    for m in (20, 1027):
        for d, num_symbols in ((28, None), (27, None), (28, 21), (27, 20), (2, None),
                               (139, None)):
            h = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
            est = ChannelEstimate(h=h, valid_mask=np.ones((m, d), bool), numerology=NUM)
            cir = delay_transform(est, window=window)
            assert np.array_equal(cir.h, _literal_delay(h, window))
            sf = doppler_transform(cir, window=window, num_symbols=num_symbols)
            expected = _literal_doppler(cir.h, window, num_symbols)
            bound = 8 * np.finfo(np.float64).eps * np.abs(expected).max()
            assert np.abs(sf.s - expected).max() <= bound
