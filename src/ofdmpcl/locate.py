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
from .geometry import SPEED_OF_LIGHT, BistaticPair
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
    return np.linalg.norm(pts - tx, axis=2) + np.linalg.norm(pts - rx, axis=2)


def _jacobian(point: np.ndarray, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """Gradient of each focal sum at ``point``, shape (nmeas, 2).

    Each distance is sqrt(vecdot), the dot a 1-D ``np.linalg.norm`` takes;
    ``norm(axis=1)`` sums the squares instead and can differ in the last bit.
    """
    d_tx, d_rx = point - tx, point - rx
    return (d_tx / np.sqrt(np.vecdot(d_tx, d_tx))[:, None]
            + d_rx / np.sqrt(np.vecdot(d_rx, d_rx))[:, None])


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

    diag = float(np.linalg.norm(hi - lo))
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
    """Damped Gauss-Newton descent on the weighted focal-sum cost.

    A step is taken only when it does not raise the cost, so the result never
    costs more than ``start``.
    """
    point = np.asarray(start, dtype=float).copy()
    res = _focal_sums(point, tx, rx)[0] - ranges
    cost = float(res @ (weights * res))
    damping = 1e-6
    scale = 1.0 + float(np.linalg.norm(point))

    for _ in range(MAX_ITERATIONS):
        jac = _jacobian(point, tx, rx)
        grad = jac.T @ (weights * res)
        hess = jac.T @ (weights[:, None] * jac)
        stepped = False
        for _ in range(24):
            try:
                step = np.linalg.solve(
                    hess + damping * np.eye(2) * max(np.trace(hess), 1e-300), grad
                )
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = point - step
            trial_res = _focal_sums(trial, tx, rx)[0] - ranges
            trial_cost = float(trial_res @ (weights * trial_res))
            if trial_cost <= cost:
                point, res, cost = trial, trial_res, trial_cost
                damping = max(damping / 10.0, 1e-14)
                stepped = True
                break
            damping *= 10.0
        if not stepped or np.linalg.norm(step) < 1e-14 * scale:
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
        # Deduplicate basins.
        if any(np.linalg.norm(point - s[0]) < 1e-3 * diag for s in solutions):
            continue
        solutions.append((point, res, cost))

    solutions.sort(key=lambda s: s[2])
    estimates = [_finalize(point, res, tx, rx, weights) for point, res, _ in solutions]

    if len(estimates) >= 2:
        first, second = estimates[0], estimates[1]
        tol = 1.1 * first.residual_rms_m + 1e-9 * diag
        if second.residual_rms_m <= tol:
            raise AmbiguousFix(
                "two position candidates fit the measurements within 10%",
                [first, second],
            )
    return estimates[0]


def _finalize(point, res, tx, rx, weights) -> PositionEstimate:
    jac = _jacobian(point, tx, rx)
    hess = jac.T @ (weights[:, None] * jac)
    try:
        covariance = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        covariance = np.linalg.pinv(hess)
    return PositionEstimate(
        position=point,
        residual_rms_m=float(np.sqrt(np.mean(res**2))),
        pairs_used=len(tx),
        covariance=covariance,
    )
