"""Bistatic ellipses and multistatic position fusion.

Each detection pins the target to an ellipse with the pair's illuminator and
sensor as foci: total range = baseline + c * excess delay. Two or more pairs
intersect; the fix minimizes the weighted squared focal-sum residuals with a
damped Gauss-Newton solver, initialized from a coarse deterministic grid
search. Ellipse pairs can intersect twice, so near-equal residual basins are
surfaced as an ambiguity instead of silently picking one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detect import Detection
from .errors import AmbiguousFix, NegativeExcess
from .geometry import SPEED_OF_LIGHT, BistaticPair, distance
from .grid import Numerology

GRID_DIVISIONS = 50  # grid-search resolution: 1/50 of the bounding-box diagonal
MAX_ITERATIONS = 100  # Gauss-Newton steps per start


@dataclass
class BistaticMeasurement:
    """Total-range (focal sum) measurement for one pair."""

    pair: BistaticPair
    total_range_m: float
    doppler_hz: float
    variance_m2: float

    def __post_init__(self):
        # Written so that NaN fails both tests.
        if not self.pair.baseline_m <= self.total_range_m < np.inf:
            raise ValueError("total range must be finite and cannot undercut the baseline")
        if not self.variance_m2 > 0:
            raise ValueError("variance must be positive")


@dataclass
class PositionEstimate:
    """Fused 2D fix with residual and Jacobian-based covariance."""

    position: np.ndarray  # (2,) m
    residual_rms_m: float
    pairs_used: int
    covariance: np.ndarray  # (2, 2) m^2


def measurement_from_detection(
    det: Detection, pair: BistaticPair, numerology: Numerology
) -> BistaticMeasurement:
    """Convert an excess-delay detection into a total-range measurement.

    ``det.refined_delay_s`` must already be relative to the line-of-sight
    peak. The variance follows the uniform-bin model (c * bin / sqrt(12))^2.
    """
    if det.refined_delay_s < 0:
        raise NegativeExcess(
            f"excess delay {det.refined_delay_s * 1e9:.2f} ns is negative"
        )
    sigma = SPEED_OF_LIGHT * numerology.delay_bin_s / np.sqrt(12.0)
    return BistaticMeasurement(
        pair=pair,
        total_range_m=pair.baseline_m + SPEED_OF_LIGHT * det.refined_delay_s,
        doppler_hz=det.refined_doppler_hz,
        variance_m2=sigma**2,
    )


def _focal_sums(points: np.ndarray, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """Focal sums of shape (npoints, nmeas) for foci ``tx``, ``rx`` of shape (nmeas, 2)."""
    pts = np.atleast_2d(points)[:, None, :]
    return distance(pts - tx) + distance(pts - rx)


def _jacobian(point: np.ndarray, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """Gradient of each focal sum at ``point``, shape (nmeas, 2)."""
    d_tx, d_rx = point - tx, point - rx
    return d_tx / distance(d_tx)[:, None] + d_rx / distance(d_rx)[:, None]


def _normal_equations(point, tx, rx, weights, res):
    """Normal equations at ``point``: J'WJ = [[a, b], [b, c]], J'W res = (gx, gy)."""
    jac = _jacobian(point, tx, rx)
    jx, jy = jac[:, 0], jac[:, 1]
    wx, wr = weights * jx, weights * res
    return (float(np.sum(wx * jx)), float(np.sum(wx * jy)),
            float(np.sum(weights * jy * jy)), float(np.sum(jx * wr)), float(np.sum(jy * wr)))


def _damped_step(a, b, c, gx, gy, damping):
    """Solve [[a + r, b], [b, c + r]] step = (gx, gy), r = damping * trace, by
    Cramer's rule; None when the determinant is not positive."""
    r = damping * max(a + c, 1e-300)
    det = (a + r) * (c + r) - b * b
    if not det > 0:
        return None
    return np.array([(c + r) * gx - b * gy, (a + r) * gy - b * gx]) / det


def _covariance(a, b, c):
    """Inverse of [[a, b], [b, c]]; a singular one gets its pseudo-inverse,
    H / trace(H)**2 at rank 1 and zeros at rank 0."""
    det, trace = a * c - b * b, a + c
    if det > 0:
        return np.array([[c, -b], [-b, a]]) / det
    return np.array([[a, b], [b, c]]) / trace**2 if trace > 0 else np.zeros((2, 2))


def _grid_candidates(tx, rx, ranges, weights):
    """Deterministic coarse-grid minima of the weighted cost.

    The search box is the intersection of the per-ellipse bounding boxes
    (the target lies on every ellipse); if inconsistent measurements make
    that box empty, the union box is used instead.
    """
    centers = 0.5 * (tx + rx)
    half = 0.5 * ranges
    lo = np.max(centers - half[:, None], axis=0)
    hi = np.min(centers + half[:, None], axis=0)
    if np.any(hi <= lo):
        lo = np.min(centers - half[:, None], axis=0)
        hi = np.max(centers + half[:, None], axis=0)

    diag = float(distance(hi - lo))
    step = diag / GRID_DIVISIONS
    nx = max(int(np.ceil((hi[0] - lo[0]) / step)) + 1, 2)
    ny = max(int(np.ceil((hi[1] - lo[1]) / step)) + 1, 2)
    xs = np.linspace(lo[0], hi[0], nx)
    ys = np.linspace(lo[1], hi[1], ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])

    res = _focal_sums(points, tx, rx) - ranges[None, :]
    cost = (res**2 * weights[None, :]).sum(axis=1).reshape(nx, ny)

    # Local minima of the grid cost (4-neighborhood), lowest first; the
    # global grid minimum is always among them.
    minima = np.ones_like(cost, dtype=bool)
    minima[:-1, :] &= cost[:-1, :] <= cost[1:, :]
    minima[1:, :] &= cost[1:, :] <= cost[:-1, :]
    minima[:, :-1] &= cost[:, :-1] <= cost[:, 1:]
    minima[:, 1:] &= cost[:, 1:] <= cost[:, :-1]
    idx = np.argwhere(minima)
    order = np.argsort(cost[minima], kind="stable")
    candidates = [points[i * ny + j] for i, j in idx[order]]
    return candidates, diag


def _gauss_newton(start, tx, rx, ranges, weights):
    """Damped Gauss-Newton descent on the weighted focal-sum cost. A step is
    taken only when it does not raise the cost, so the result never costs
    more than ``start``."""
    point = np.asarray(start, dtype=float).copy()
    res = _focal_sums(point, tx, rx)[0] - ranges
    cost = float(np.sum(weights * res * res))
    damping = 1e-6
    scale = 1.0 + float(distance(point))

    for _ in range(MAX_ITERATIONS):
        a, b, c, gx, gy = _normal_equations(point, tx, rx, weights, res)
        for _ in range(24):
            step = _damped_step(a, b, c, gx, gy, damping)
            if step is not None:
                trial = point - step
                trial_res = _focal_sums(trial, tx, rx)[0] - ranges
                trial_cost = float(np.sum(weights * trial_res * trial_res))
                if trial_cost <= cost:
                    point, res, cost = trial, trial_res, trial_cost
                    damping = max(damping / 10.0, 1e-14)
                    break
            damping *= 10.0
        else:
            break
        if distance(step) < 1e-14 * scale:
            break
    return point, res, cost


def fuse_position(measurements) -> PositionEstimate:
    """Fuse two or more total-range measurements into a 2D fix.

    Minimizes sum_i (focal_sum_i - range_i)^2 / variance_i. Starting points
    come from a coarse grid search over the measurement bounding box; the
    candidate with the lowest residual wins. Raises AmbiguousFix when a
    second distinct basin fits within 10% of the best residual (both
    candidates attached, lowest first).
    """
    measurements = list(measurements)
    if len(measurements) < 2:
        raise ValueError("a point fix needs at least two measurements")
    tx = np.array([m.pair.tx_position for m in measurements], dtype=float)
    rx = np.array([m.pair.rx_position for m in measurements], dtype=float)
    ranges = np.array([m.total_range_m for m in measurements], dtype=float)
    weights = 1.0 / np.array([m.variance_m2 for m in measurements], dtype=float)

    candidates, diag = _grid_candidates(tx, rx, ranges, weights)
    solutions = []
    for start in candidates[:4]:
        point, res, cost = _gauss_newton(start, tx, rx, ranges, weights)
        if not any(distance(point - s[0]) < 1e-3 * diag for s in solutions):  # a new basin
            solutions.append((point, res, cost))

    solutions.sort(key=lambda s: s[2])
    estimates = [
        PositionEstimate(point, float(np.sqrt(np.mean(res**2))), len(tx),
                         _covariance(*_normal_equations(point, tx, rx, weights, res)[:3]))
        for point, res, _ in solutions
    ]
    if len(estimates) >= 2 and (estimates[1].residual_rms_m
                                <= 1.1 * estimates[0].residual_rms_m + 1e-9 * diag):
        raise AmbiguousFix("two position candidates fit the measurements within 10%", estimates[:2])
    return estimates[0]
