import numpy as np
import pytest

from ofdmpcl import (
    AmbiguousFix,
    BistaticMeasurement,
    BistaticPair,
    Detection,
    NegativeExcess,
    Numerology,
    SPEED_OF_LIGHT,
    fuse_position,
    measurement_from_detection,
)
from ofdmpcl.locate import _covariance, _damped_step, _focal_sums, _grid_candidates, _jacobian
from oracles import focal_sums_loop, jacobian_loop

NUM = Numerology(num_carriers=80, symbols_per_frame=28)  # bin width 1/1.2 MHz


def pair_at(tx, rx, tx_id="tx", rx_id="rx"):
    return BistaticPair(tx_id, rx_id, np.array(tx, float), np.array(rx, float))


def detection(excess_delay_s, doppler_hz=0.0):
    return Detection(
        delay_bin=0,
        doppler_bin=0,
        refined_delay_s=excess_delay_s,
        refined_doppler_hz=doppler_hz,
        peak_power=1.0,
        snr_db=20.0,
    )


def exact_measurement(pair, target, sigma_m=1.0):
    target = np.asarray(target, float)
    total = np.linalg.norm(target - pair.tx_position) + np.linalg.norm(
        pair.rx_position - target
    )
    return BistaticMeasurement(
        pair=pair, total_range_m=total, doppler_hz=0.0, variance_m2=sigma_m**2
    )


def measurement_arrays(measurements):
    """The (tx, rx, ranges, weights) arrays that fuse_position builds."""
    return (
        np.array([m.pair.tx_position for m in measurements]),
        np.array([m.pair.rx_position for m in measurements]),
        np.array([m.total_range_m for m in measurements]),
        np.array([1.0 / m.variance_m2 for m in measurements]),
    )


def test_measurement_from_excess_delay():
    pair = pair_at((0, 0), (100, 0))
    meas = measurement_from_detection(detection(138.17e-9, doppler_hz=50.0), pair, NUM)
    assert meas.total_range_m == pytest.approx(141.42, abs=0.01)
    assert meas.doppler_hz == 50.0


def test_zero_excess_gives_baseline_range():
    pair = pair_at((0, 0), (100, 0))
    meas = measurement_from_detection(detection(0.0), pair, NUM)
    assert meas.total_range_m == pair.baseline_m


def test_negative_excess_rejected():
    pair = pair_at((0, 0), (100, 0))
    with pytest.raises(NegativeExcess):
        measurement_from_detection(detection(-1e-9), pair, NUM)


def test_variance_follows_uniform_bin_model():
    num = Numerology(num_carriers=5328, symbols_per_frame=140)  # 12.51 ns bins
    pair = pair_at((0, 0), (100, 0))
    meas = measurement_from_detection(detection(100e-9), pair, num)
    sigma = SPEED_OF_LIGHT * num.delay_bin_s / np.sqrt(12)
    assert meas.variance_m2 == pytest.approx(sigma**2, rel=1e-12)
    # for an exactly 12.5 ns bin the sigma is 1.082 m
    assert SPEED_OF_LIGHT * 12.5e-9 / np.sqrt(12) == pytest.approx(1.082, abs=1e-3)


@pytest.mark.parametrize(
    "total_range_m, variance_m2",
    [(np.nan, 1.0), (np.inf, 1.0), (150.0, np.nan)],
)
def test_measurement_rejects_nan_or_infinite_fields(total_range_m, variance_m2):
    with pytest.raises(ValueError):
        BistaticMeasurement(pair_at((0, 0), (100, 0)), total_range_m, 0.0, variance_m2)


def test_known_point_lies_on_its_ellipse():
    pair = pair_at((0, 0), (100, 0))
    target = np.array([50.0, 50.0])
    meas = exact_measurement(pair, target)
    focal = np.linalg.norm(target - pair.tx_position) + np.linalg.norm(
        pair.rx_position - target
    )
    assert abs(focal - meas.total_range_m) < 1e-6


def test_single_measurement_is_an_error():
    meas = exact_measurement(pair_at((0, 0), (100, 0)), (50, 50))
    with pytest.raises(ValueError):
        fuse_position([meas])


def test_two_intersecting_ellipses_raise_ambiguous_fix():
    target = (60.0, 40.0)
    pairs = [
        pair_at((0, 0), (100, 0), "a", "b"),
        pair_at((0, 0), (0, 100), "a", "c"),
    ]
    measurements = [exact_measurement(p, target) for p in pairs]
    with pytest.raises(AmbiguousFix) as excinfo:
        fuse_position(measurements)
    candidates = excinfo.value.estimates
    assert len(candidates) == 2
    assert candidates[0].residual_rms_m <= candidates[1].residual_rms_m
    # both candidates lie on both ellipses; one of them is the true target
    for est in candidates:
        for meas in measurements:
            focal = np.linalg.norm(est.position - meas.pair.tx_position) + np.linalg.norm(
                meas.pair.rx_position - est.position
            )
            assert focal == pytest.approx(meas.total_range_m, abs=1e-6)
    best_match = min(
        np.linalg.norm(est.position - np.array(target)) for est in candidates
    )
    assert best_match < 1e-6


def noisy_three_pair_measurements(seed):
    """Three pairs with random nodes in a 200 m square, ranging a random
    target with 2 m of Gaussian noise."""
    rng = np.random.default_rng(seed)
    nodes, target = rng.uniform(0.0, 200.0, (6, 2)), rng.uniform(0.0, 200.0, 2)
    measurements = [exact_measurement(pair_at(tx, rx), target)
                    for tx, rx in zip(nodes[::2], nodes[1::2])]
    for m in measurements:
        m.total_range_m += rng.normal(0.0, 2.0)
    return measurements


def test_a_second_basin_is_ambiguous_within_10_percent_of_the_best_residual():
    """Seed 17's second basin fits at 1.07 times the best residual, which is
    ambiguous; seed 28's at 1.44 times, which is not. A margin of 0% or 50%
    gets one of them wrong."""
    with pytest.raises(AmbiguousFix) as excinfo:
        fuse_position(noisy_three_pair_measurements(17))
    best, second = excinfo.value.estimates
    assert 1.05 < second.residual_rms_m / best.residual_rms_m < 1.1
    best = fuse_position(noisy_three_pair_measurements(28))
    assert best.residual_rms_m == pytest.approx(0.9333, abs=1e-4)


def test_rigid_transform_equivariance():
    target = np.array([55.0, 35.0])
    pairs = [
        pair_at((0, 0), (100, 0), "a", "b"),
        pair_at((0, 100), (100, 100), "c", "d"),
        pair_at((-50, 50), (120, 65), "e", "f"),
    ]
    measurements = [exact_measurement(p, target) for p in pairs]
    base = fuse_position(measurements)

    angle = 0.7
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    shift = np.array([312.0, -88.0])
    moved = [
        BistaticMeasurement(
            pair=BistaticPair(
                m.pair.tx_id,
                m.pair.rx_id,
                rot @ m.pair.tx_position + shift,
                rot @ m.pair.rx_position + shift,
            ),
            total_range_m=m.total_range_m,
            doppler_hz=m.doppler_hz,
            variance_m2=m.variance_m2,
        )
        for m in measurements
    ]
    transformed = fuse_position(moved)
    expected = rot @ base.position + shift
    assert np.linalg.norm(transformed.position - expected) < 1e-9


def test_estimate_residual_not_worse_than_grid_initializer():
    from ofdmpcl.locate import _grid_candidates

    rng = np.random.default_rng(8)
    target = np.array([70.0, 90.0])
    pairs = [
        pair_at((0, 0), (200, 0), "a", "b"),
        pair_at((200, 0), (200, 200), "c", "d"),
        pair_at((0, 200), (0, 0), "g", "h"),
    ]
    measurements = []
    for p in pairs:
        m = exact_measurement(p, target, sigma_m=2.0)
        m.total_range_m += rng.normal(0.0, 2.0)
        measurements.append(m)
    estimate = fuse_position(measurements)
    tx, rx, ranges, weights = measurement_arrays(measurements)
    candidates, _ = _grid_candidates(tx, rx, ranges, weights)
    grid_rms = np.sqrt(np.mean((_focal_sums(candidates[0], tx, rx)[0] - ranges) ** 2))
    assert estimate.residual_rms_m <= grid_rms + 1e-12


@pytest.mark.parametrize("num_pairs", [2, 3, 4, 8])
def test_focal_sums_and_jacobian_match_per_measurement_loops_bit_for_bit(num_pairs):
    rng = np.random.default_rng(40 + num_pairs)
    measurements = []
    while len(measurements) < num_pairs:
        tx, rx = rng.uniform(-300.0, 300.0, (2, 2))
        if np.linalg.norm(tx - rx) > 1.0:
            pair = pair_at(tx, rx, f"tx{len(measurements)}", f"rx{len(measurements)}")
            measurements.append(exact_measurement(pair, rng.uniform(-300.0, 300.0, 2)))
    tx, rx, _, _ = measurement_arrays(measurements)

    gx, gy = np.meshgrid(np.linspace(-400.0, 400.0, 41), np.linspace(-350.0, 450.0, 37))
    grid_points = np.column_stack([gx.ravel(), gy.ravel()])
    assert np.array_equal(_focal_sums(grid_points, tx, rx),
                          focal_sums_loop(grid_points, measurements))

    # Off-grid points, and points a few ulps to a metre from each focus.
    offsets = np.array([1e-9, 1e-6, 1e-3, 1.0])[:, None] * rng.standard_normal((4, 2))
    near = (np.concatenate([tx, rx])[:, None, :] + offsets).reshape(-1, 2)
    for point in np.concatenate([rng.uniform(-400.0, 400.0, (200, 2)), near]):
        assert np.array_equal(_focal_sums(point, tx, rx), focal_sums_loop(point, measurements))
        assert np.array_equal(_jacobian(point, tx, rx), jacobian_loop(point, measurements))


@pytest.mark.parametrize("num_pairs", [2, 3, 4])
def test_grid_candidates_are_distinct_and_sorted_by_cost(num_pairs):
    rng = np.random.default_rng(70 + num_pairs)
    for _ in range(20):
        measurements = []
        while len(measurements) < num_pairs:
            tx, rx = rng.uniform(-300.0, 300.0, (2, 2))
            if np.linalg.norm(tx - rx) > 1.0:
                pair = pair_at(tx, rx, f"tx{len(measurements)}", f"rx{len(measurements)}")
                m = exact_measurement(pair, rng.uniform(-300.0, 300.0, 2), sigma_m=2.0)
                m.total_range_m += abs(rng.normal(0.0, 2.0))
                measurements.append(m)
        tx, rx, ranges, weights = measurement_arrays(measurements)
        candidates, _ = _grid_candidates(tx, rx, ranges, weights)
        points = np.array(candidates)
        assert len(np.unique(points, axis=0)) == len(points) >= 1
        cost = ((_focal_sums(points, tx, rx) - ranges) ** 2 * weights).sum(axis=1)
        assert np.all(np.diff(cost) >= 0)


def test_damped_step_and_covariance_match_numpy_linear_algebra():
    rng = np.random.default_rng(11)
    for _ in range(200):
        jac = rng.normal(size=(int(rng.integers(2, 9)), 2))
        a, b, c = jac[:, 0] @ jac[:, 0], jac[:, 0] @ jac[:, 1], jac[:, 1] @ jac[:, 1]
        hess = np.array([[a, b], [b, c]])
        if np.linalg.cond(hess) > 1e3:
            continue
        grad = rng.normal(size=2)
        damping = 10.0 ** rng.uniform(-14.0, 2.0)
        expected = np.linalg.solve(hess + damping * (a + c) * np.eye(2), grad)
        np.testing.assert_allclose(_damped_step(a, b, c, *grad, damping), expected, rtol=1e-12)
        np.testing.assert_allclose(_covariance(a, b, c), np.linalg.inv(hess), rtol=1e-12)


def test_covariance_of_a_singular_matrix_is_its_pseudo_inverse():
    # Rank 1 with an exactly zero determinant: ac - b^2 = 0 in floats.
    for a, b, c in ((4.0, -2.0, 1.0), (0.25, 0.5, 1.0), (2.0, 0.0, 0.0)):
        hess = np.array([[a, b], [b, c]])
        np.testing.assert_allclose(_covariance(a, b, c), np.linalg.pinv(hess),
                                   rtol=1e-12, atol=1e-15)
    assert np.array_equal(_covariance(0.0, 0.0, 0.0), np.zeros((2, 2)))
    assert _damped_step(0.0, 0.0, 0.0, 1.0, 1.0, 1e-6) is None
