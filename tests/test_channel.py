import numpy as np
import pytest

from ofdmpcl import (
    DelayExceedsCp,
    DopplerExceedsNarrowband,
    EmptyReference,
    Numerology,
    Path,
    apply_channel,
    build_grid,
    channel_response,
    estimate_channel,
    full_allocation,
    random_allocation,
    user_subgrid,
)
from ofdmpcl import channel
from oracles import channel_response_sum, time_domain_receive

NUM = Numerology(num_carriers=72, symbols_per_frame=28)


def make_grid(num=NUM, seed=0):
    return build_grid(num, full_allocation(num), rng_seed=seed)


def path(delay_s=0.0, doppler_hz=0.0, gain=1.0 + 0j, kind="target"):
    return Path(delay_s=delay_s, doppler_hz=doppler_hz, gain=gain, kind=kind)


def test_identity_channel_is_exact():
    grid = make_grid()
    frame = apply_channel(grid, [path()], noise_snr_db=None, rng_seed=0)
    assert np.array_equal(frame.symbols, grid.symbols)


def test_pure_delay_is_phase_ramp_across_carriers():
    grid = make_grid()
    tau = 1.7e-6  # below the 4.76 us cyclic prefix
    frame = apply_channel(grid, [path(delay_s=tau)], noise_snr_db=None, rng_seed=0)
    m = np.arange(NUM.num_carriers)
    expected_ramp = np.exp(-2j * np.pi * m * NUM.subcarrier_spacing_hz * tau)
    ratio = frame.symbols / grid.symbols
    # identical ramp on every symbol, constant across slow time
    for d in range(NUM.symbols_per_frame):
        np.testing.assert_allclose(ratio[:, d], expected_ramp, rtol=1e-12)


def test_pure_doppler_is_phase_progression_across_symbols():
    grid = make_grid()
    alpha = 200.0
    frame = apply_channel(grid, [path(doppler_hz=alpha)], noise_snr_db=None, rng_seed=0)
    d = np.arange(NUM.symbols_per_frame)
    expected = np.exp(2j * np.pi * alpha * d * NUM.symbol_duration_s)
    ratio = frame.symbols / grid.symbols
    for m in range(0, NUM.num_carriers, 7):
        np.testing.assert_allclose(ratio[m, :], expected, rtol=1e-12)


def test_two_paths_superpose_linearly():
    grid = make_grid()
    p1 = path(delay_s=0.4e-6, doppler_hz=0.0, gain=0.8 + 0.1j)
    p2 = path(delay_s=1.1e-6, doppler_hz=200.0, gain=0.3 - 0.2j)
    both = apply_channel(grid, [p1, p2], noise_snr_db=None, rng_seed=0)
    only1 = apply_channel(grid, [p1], noise_snr_db=None, rng_seed=0)
    only2 = apply_channel(grid, [p2], noise_snr_db=None, rng_seed=0)
    np.testing.assert_allclose(
        both.symbols, only1.symbols + only2.symbols, rtol=1e-12, atol=1e-15
    )


def test_delay_at_or_beyond_cp_rejected():
    grid = make_grid()
    with pytest.raises(DelayExceedsCp):
        apply_channel(grid, [path(delay_s=NUM.cp_duration_s)], None, 0)
    with pytest.raises(DelayExceedsCp):
        apply_channel(grid, [path(delay_s=-1e-9)], None, 0)


def test_excessive_doppler_rejected():
    grid = make_grid()
    # 0.1 / symbol_duration = 1400 Hz for this numerology
    with pytest.raises(ValueError):
        apply_channel(grid, [path(doppler_hz=5e3)], None, 0)


def test_noise_is_seeded_and_deterministic():
    grid = make_grid()
    a = apply_channel(grid, [path()], noise_snr_db=20.0, rng_seed=123)
    b = apply_channel(grid, [path()], noise_snr_db=20.0, rng_seed=123)
    c = apply_channel(grid, [path()], noise_snr_db=20.0, rng_seed=124)
    assert np.array_equal(a.symbols, b.symbols)
    assert not np.array_equal(a.symbols, c.symbols)


def test_noise_calibration_tracks_requested_snr():
    # >= 1e5 allocated elements for a tight sample estimate
    num = Numerology(num_carriers=408, symbols_per_frame=280)
    grid = make_grid(num, seed=2)
    clean = apply_channel(grid, [path(gain=0.5 + 0.5j)], None, 0)
    for snr_db in (0.0, 17.0, 30.0):
        noisy = apply_channel(grid, [path(gain=0.5 + 0.5j)], snr_db, rng_seed=5)
        noise = noisy.symbols - clean.symbols
        measured = 10 * np.log10(
            np.mean(np.abs(clean.symbols) ** 2) / np.mean(np.abs(noise) ** 2)
        )
        assert measured == pytest.approx(snr_db, abs=0.2)


def test_matches_time_domain_simulation_for_fractional_delay():
    # Small grid where cp_fraction * num_carriers is an integer number of
    # samples: 28 carriers / 14 -> 2-sample cyclic prefix.
    num = Numerology(num_carriers=28, symbols_per_frame=7)
    grid = make_grid(num, seed=4)
    paths = [
        path(delay_s=0.37 * num.cp_duration_s, gain=0.9 - 0.2j),
        path(delay_s=0.81 * num.cp_duration_s, gain=0.1 + 0.4j),
    ]
    frame = apply_channel(grid, paths, noise_snr_db=None, rng_seed=0)
    reference = time_domain_receive(grid, paths)
    np.testing.assert_allclose(frame.symbols, reference, rtol=1e-10, atol=1e-12)


def test_matches_time_domain_simulation_with_symbol_start_doppler():
    num = Numerology(num_carriers=28, symbols_per_frame=7)
    grid = make_grid(num, seed=4)
    paths = [path(delay_s=0.5 * num.cp_duration_s, doppler_hz=300.0, gain=0.7 + 0.1j)]
    frame = apply_channel(grid, paths, noise_snr_db=None, rng_seed=0)
    reference = time_domain_receive(grid, paths, doppler_per_sample=False)
    np.testing.assert_allclose(frame.symbols, reference, rtol=1e-10, atol=1e-12)


def test_per_sample_doppler_error_is_narrowband_small():
    # With the Doppler phase rotating within the symbol, the product model
    # differs by O(doppler * symbol_duration).
    num = Numerology(num_carriers=28, symbols_per_frame=7)
    grid = make_grid(num, seed=4)
    alpha = 50.0
    paths = [path(doppler_hz=alpha)]
    frame = apply_channel(grid, paths, noise_snr_db=None, rng_seed=0)
    reference = time_domain_receive(grid, paths, doppler_per_sample=True)
    allocated = grid.codes >= 0
    rel = np.abs(frame.symbols - reference)[allocated] / np.abs(reference)[allocated]
    assert rel.max() < 2 * np.pi * alpha * num.symbol_duration_s


def test_channel_response_independent_of_allocation():
    response = channel_response(NUM, [path(delay_s=1e-6, doppler_hz=100.0)])
    assert response.shape == (NUM.num_carriers, NUM.symbols_per_frame)
    np.testing.assert_allclose(np.abs(response), 1.0, rtol=1e-12)


def test_doppler_beyond_narrowband_is_a_package_error():
    with pytest.raises(DopplerExceedsNarrowband, match="narrowband"):
        channel_response(NUM, [path(doppler_hz=5e3)])


def test_channel_response_matches_per_path_sum():
    # One dominant path keeps every element's magnitude above 0.4, so a
    # relative tolerance is meaningful everywhere.
    paths = [
        path(delay_s=0.3e-6, doppler_hz=-120.0, gain=1.0 + 0.2j),
        path(delay_s=1.7e-6, doppler_hz=340.0, gain=-0.3 + 0.1j),
        path(delay_s=3.1e-6, doppler_hz=55.0, gain=0.1j),
        path(delay_s=0.0, doppler_hz=0.0, gain=0.15, kind="los"),
    ]
    np.testing.assert_allclose(
        channel_response(NUM, paths),
        channel_response_sum(NUM, paths),
        rtol=1e-12,
        atol=0,
    )


def test_channel_response_without_paths_is_complex_zeros():
    response = channel_response(NUM, [])
    assert response.shape == (NUM.num_carriers, NUM.symbols_per_frame)
    assert response.dtype == np.complex128
    assert not np.any(response)


def test_noise_on_a_grid_without_allocation_leaves_an_all_zero_frame():
    grid = build_grid(NUM, {"u0": []}, rng_seed=0)
    assert not np.any(grid.symbols)
    frame = apply_channel(grid, [path()], noise_snr_db=10.0, rng_seed=0)
    assert frame.symbols.shape == grid.codes.shape
    assert not np.any(frame.symbols)
    with pytest.raises(EmptyReference):
        estimate_channel(frame, grid)


def _noise_scale(paths, snr_db):
    """The noise rule: each element's expected power, the float64 sum of
    |gain|^2 over the paths in path order, over the SNR, split over I and Q."""
    signal_power = sum(p.gain.real * p.gain.real + p.gain.imag * p.gain.imag for p in paths)
    return np.sqrt(signal_power * 10.0 ** (-snr_db / 10.0) / 2.0)


def _with_noise(grid, paths, scale, seed):
    """The clean frame plus ``scale`` times a real-part stream, then an
    imaginary-part stream, over the grid's allocated elements."""
    received = channel_response(grid.numerology, paths) * grid.symbols
    mask = grid.codes >= 0
    n = int(np.count_nonzero(mask))
    rng = np.random.default_rng(seed)
    received.real[mask] += rng.standard_normal(n) * scale
    received.imag[mask] += rng.standard_normal(n) * scale
    return received


def test_noisy_frame_takes_its_noise_power_from_the_path_gains():
    """A random allocation, so the noise goes on a strict subset of
    elements, whose measured mean power is not the paths' sum of |gain|^2."""
    num = Numerology(num_carriers=150, symbols_per_frame=28)
    grid = build_grid(num, random_allocation(num, "u0", 0.5, seed=3), rng_seed=2)
    paths = [path(gain=0.7 - 0.1j), path(3 * num.delay_bin_s, 150.0, 0.2 + 0.1j)]
    frame = apply_channel(grid, paths, noise_snr_db=12.0, rng_seed=9)
    mask = grid.codes >= 0
    assert 0 < np.count_nonzero(mask) < mask.size
    assert np.array_equal(frame.symbols, _with_noise(grid, paths, _noise_scale(paths, 12.0), 9))


def test_full_grid_noise_is_one_stream_over_every_element():
    """On a fully allocated grid the noise is one M x D stream for the real
    parts, then one for the imaginary parts, as when every element got noise
    whether read or not. The second path sits off the delay bins, so the
    paths' cross terms leave the measured mean power off the sum of |gain|^2."""
    num = Numerology(num_carriers=312, symbols_per_frame=28)
    grid = make_grid(num, seed=3)
    assert np.all(grid.codes >= 0)
    paths = [path(gain=0.7 - 0.1j), path(3.3 * num.delay_bin_s, 150.0, 0.2 + 0.1j)]
    frame = apply_channel(grid, paths, noise_snr_db=12.0, rng_seed=9)
    received = channel_response(num, paths) * grid.symbols
    scale = _noise_scale(paths, 12.0)
    rng = np.random.default_rng(9)
    received.real += rng.standard_normal(received.shape) * scale
    received.imag += rng.standard_normal(received.shape) * scale
    assert frame.symbols.tobytes() == received.tobytes()


def test_a_users_subgrid_and_the_full_grid_get_the_same_noise_scale():
    """The noise power follows the paths, not the elements a grid allocates:
    one user's subgrid and the two-user grid it comes from share one scale."""
    num = Numerology(num_carriers=150, symbols_per_frame=28)
    cells = list(np.ndindex(num.prb_rows, num.prb_cols))
    owners = np.random.default_rng(6).integers(0, 2, len(cells))
    grid = build_grid(num, {f"u{k}": [(row, col, col + 1) for (row, col), owner
                                      in zip(cells, owners) if owner == k] for k in range(2)},
                      rng_seed=2)
    sub = user_subgrid(grid, "u0")
    assert 0 < np.count_nonzero(sub.codes >= 0) < np.count_nonzero(grid.codes >= 0)
    paths = [path(gain=0.7 - 0.1j), path(3.3 * num.delay_bin_s, 150.0, 0.2 + 0.1j)]
    scale = _noise_scale(paths, 12.0)
    for g in (grid, sub):
        frame = apply_channel(g, paths, noise_snr_db=12.0, rng_seed=9)
        assert frame.symbols.tobytes() == _with_noise(g, paths, scale, 9).tobytes()


def test_a_frame_depends_only_on_the_elements_its_estimate_reads():
    """A user's subgrid of a three-user grid and a grid built from that
    user's tiles alone give the same noisy frame, bit for bit, and it is
    exactly zero off the user's elements. 150 x 30 leaves carriers and
    symbols past the last whole PRB, and a partial 64-row block."""
    num = Numerology(num_carriers=150, symbols_per_frame=30)
    rng = np.random.default_rng(6)
    cells = [(row, col, col + 1) for row in range(num.prb_rows) for col in range(num.prb_cols)]
    owners = rng.integers(0, 3, len(cells))
    tiles = {f"u{k}": [cell for cell, owner in zip(cells, owners) if owner == k]
             for k in range(3)}
    paths = [path(gain=0.7 - 0.1j), path(3 * num.delay_bin_s, 150.0, 0.2 + 0.1j)]
    sub = user_subgrid(build_grid(num, tiles, rng_seed=5), "u1")
    alone = build_grid(num, {"u1": tiles["u1"]}, rng_seed=5)
    frame = apply_channel(sub, paths, noise_snr_db=12.0, rng_seed=9)
    assert frame.symbols.tobytes() == apply_channel(alone, paths, 12.0, 9).symbols.tobytes()
    assert np.all(frame.symbols[sub.codes < 0] == 0)
    assert np.all(frame.symbols[sub.codes >= 0] != 0)


@pytest.mark.parametrize("p", [0, 1, 9, 40])
@pytest.mark.parametrize("d", [7, 140, 560])
def test_blocked_ramp_product_is_one_matmul_bitwise(p, d):
    """The channel's product, run in blocks of rows, equals one np.matmul of
    the same ramps bit for bit. M sits at, just below and just above one and
    three times the block a fixed step would take, where such a step would
    leave a 1-row tail, which numpy sends to gemv."""
    block = max(3, channel._PRODUCT_MAX // max(p * d, 1))
    sizes = {1, 2, 3, 4, 5} | {k * block + delta for k in (1, 3) for delta in (-1, 0, 1)}
    rng = np.random.default_rng(100 * p + d)
    for m in sorted(size for size in sizes if size * d <= 1 << 20):
        delay_ramps = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
        doppler_ramps = np.exp(2j * np.pi * rng.uniform(size=(p, d)))
        out = np.full((m, d), np.nan, dtype=np.complex128)
        assert channel._ramp_product(delay_ramps, doppler_ramps, out) is out
        assert out.tobytes() == np.matmul(delay_ramps, doppler_ramps).tobytes(), m


@pytest.mark.parametrize(
    "carriers, symbols, paths",
    [(5328, 140, 8), (1200, 560, 9), (600, 140, 5)],
    ids=["fig4_analog", "sparse_long", "uplink_small"],
)
def test_channel_product_calls_stay_below_the_threading_bound(
    carriers, symbols, paths, monkeypatch
):
    """On the benchmark scenes' shapes (M x D and LoS plus scatterer paths),
    every matmul that channel_response makes has at least 2 rows, so none
    goes to gemv, and rows * P * D at most _PRODUCT_MAX, so OpenBLAS keeps
    it on the calling thread; together the calls hold M rows."""
    num = Numerology(num_carriers=carriers, symbols_per_frame=symbols)
    path_set = [
        path(k * 0.4 * num.cp_duration_s / paths, 40.0 * k - 100.0, 0.9 - 0.1j * k)
        for k in range(paths)
    ]
    calls = []
    matmul = np.matmul

    def recording_matmul(a, b, out):
        calls.append((a.shape, b.shape))
        return matmul(a, b, out=out)

    # OpenBLAS 0.3.31 threads a complex GEMM from 65 536 rows * P * D on.
    assert channel._PRODUCT_MAX < 65_536
    monkeypatch.setattr(np, "matmul", recording_matmul)
    channel_response(num, path_set)
    assert sum(rows for (rows, _), _ in calls) == carriers
    for (rows, p), (_, d) in calls:
        assert (p, d) == (paths, symbols)
        assert 2 <= rows and rows * p * d <= channel._PRODUCT_MAX
