"""Clutter suppression and CA-CFAR detection on scattering maps.

The clutter notch zeroes Doppler columns around zero Doppler, where returns
from the static environment collapse when illuminator and sensor are static.
Detection then runs a cell-averaging CFAR with a cross-shaped training
region; the threshold factor assumes exponentially distributed noise power
(magnitude-squared complex Gaussian). Only a local maximum can be a detection,
so the training mean is computed at local maxima only. Map edges wrap around,
matching the circular delay and Doppler axes of the DFT. The map's float32
samples are summed, refined and compared in float64.

Given ``max_delay_s``, the longest delay a path can have, CFAR tests only
delay rows [0, K) with K = min(M, ceil(max_delay_s / delay_bin_s) + 2): the
two extra rows hold a peak that rounds past the last bin and the Hann
window's main lobe. Training cells still come from the whole map, so a
detection in a tested row is the one an ungated call makes. The run's rule,
``scenario.detect_map``, passes the cyclic prefix, which bounds every path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import ScatteringMap, _out_array
from .errors import MapTooSmall, NotchTooWide


@dataclass(frozen=True)
class CfarConfig:
    """Cross-kernel CA-CFAR parameters.

    ``train_cells`` and ``guard_cells`` count cells per side along each axis,
    so the training region holds 4 * train_cells cells in total.
    """

    train_cells: int = 8
    guard_cells: int = 2
    pfa: float = 1e-4

    def __post_init__(self):
        if self.train_cells < 1:
            raise ValueError("need at least one training cell per side")
        if self.guard_cells < 0:
            raise ValueError("guard cells must be non-negative")
        if not 0.0 < self.pfa < 0.5:
            raise ValueError("pfa must lie in (0, 0.5)")

    @property
    def num_training(self) -> int:
        return 4 * self.train_cells

    @property
    def reach(self) -> int:
        """Cells per side, along each axis, that the training cross spans."""
        return self.guard_cells + self.train_cells

    @property
    def window(self) -> int:
        """Side of the square the training cross spans; maps must exceed it."""
        return 2 * self.reach + 1

    @property
    def threshold_factor(self) -> float:
        """Scale on the estimated noise mean for the requested pfa."""
        t = self.num_training
        return t * (self.pfa ** (-1.0 / t) - 1.0)


@dataclass
class Detection:
    """One delay-Doppler peak with sub-bin refinement.

    ``refined_delay_s`` is the absolute fast-time delay of the peak;
    ``refined_doppler_hz`` is signed Doppler relative to the zero-Doppler
    column. ``snr_db`` compares peak power against the local CFAR noise
    estimate.
    """

    delay_bin: int
    doppler_bin: int
    refined_delay_s: float
    refined_doppler_hz: float
    peak_power: float
    snr_db: float


def suppress_clutter(
    smap: ScatteringMap, notch_half_width: int, out: np.ndarray | None = None
) -> ScatteringMap:
    """Zero Doppler columns within +/- notch_half_width of zero Doppler.

    ``out``, of the map's shape and dtype, receives the notched map instead
    of a new array; it may be ``smap.power`` itself.
    """
    if notch_half_width < 0:
        raise ValueError("notch half width must be non-negative")
    num_doppler = smap.power.shape[1]
    zeroed = 2 * notch_half_width + 1
    if zeroed > num_doppler // 2:
        raise NotchTooWide(
            f"notch of {zeroed} columns would remove more than half of the "
            f"{num_doppler} Doppler bins"
        )
    center = smap.zero_doppler_bin
    power = _out_array(out, smap.power.shape, smap.power.dtype)
    np.copyto(power, smap.power)
    power[:, center - notch_half_width : center + notch_half_width + 1] = 0.0
    return ScatteringMap(power, smap.delay_bin_s, smap.doppler_bin_hz)


def _parabolic_offset(flat: np.ndarray, center: np.ndarray, step: int) -> np.ndarray:
    """float64 vertex offsets, in bins, of parabolas through flat[center - step],
    flat[center] and flat[center + step]; 0 where they do not curve downwards."""
    pm, p0, pp = (flat[center + k].astype(np.float64) for k in (-step, 0, step))
    denom = pm + pp - 2.0 * p0
    offset = np.zeros(denom.shape)
    curved = ~(denom >= 0.0)
    offset[curved] = np.clip(0.5 * (pm[curved] - pp[curved]) / denom[curved], -0.5, 0.5)
    return offset


def tested_rows(num_delay: int, delay_bin_s: float, max_delay_s: float | None) -> int:
    """K, the count of delay rows [0, K) that CFAR tests given ``max_delay_s``
    (None tests all ``num_delay`` rows), as the module docstring says."""
    if max_delay_s is None:
        return num_delay
    if not max_delay_s >= 0.0:
        raise ValueError("max_delay_s must be non-negative")
    return min(num_delay, math.ceil(min(max_delay_s / delay_bin_s, num_delay)) + 2)


def cfar_detect(smap: ScatteringMap, cfg: CfarConfig,
                max_delay_s: float | None = None) -> list[Detection]:
    """Cell-averaging CFAR over a scattering map.

    A cell is declared a detection when it is a local maximum and exceeds
    threshold_factor times the mean of its cross-shaped training region.
    Detections carry 3-point parabolic sub-bin refinement per axis and are
    sorted by descending peak power. ``max_delay_s`` limits the tested rows
    as the module docstring says; None tests every row. The tested rows are
    read once into one window that also holds guard_cells + train_cells
    wrapped rows and columns on every side, so the rows that are not tested
    are never copied.
    """
    power = smap.power
    num_delay, num_doppler = power.shape
    if min(num_delay, num_doppler) <= cfg.window:
        raise MapTooSmall(
            f"map {power.shape} does not exceed the {cfg.window}x{cfg.window} CFAR window"
        )
    tested = tested_rows(num_delay, smap.delay_bin_s, max_delay_s)
    reach = cfg.reach
    width = num_doppler + 2 * reach
    # window[i, j] is power[(i - reach) % num_delay, (j - reach) % num_doppler].
    window = np.empty((tested + 2 * reach, width), dtype=power.dtype)
    window[:, reach : reach + num_doppler] = np.take(
        power, np.arange(-reach, tested + reach), axis=0, mode="wrap")
    window[:, :reach] = window[:, num_doppler : num_doppler + reach]
    window[:, reach + num_doppler :] = window[:, reach : 2 * reach]

    # 8-neighbour maxima; plateau ties go to the cell with the lower delay
    # bin, then the lower Doppler bin.
    core = window[reach : reach + tested, reach : reach + num_doppler]
    peaks = core > 0
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if (di, dj) != (0, 0):
                neighbor = window[reach + di : reach + di + tested,
                                  reach + dj : reach + dj + num_doppler]
                peaks &= core > neighbor if (di, dj) < (0, 0) else core >= neighbor
    rows, cols = np.divmod(np.flatnonzero(peaks), num_doppler)

    # Training sums at the maxima, the arms added in a fixed order: delay
    # axis, then Doppler axis, each -off cell before its +off cell.
    flat = window.reshape(-1)
    center = (rows + reach) * width + (cols + reach)
    total = np.zeros(center.size, dtype=np.float64)
    for stride in (width, 1):
        for off in range(cfg.guard_cells + 1, reach + 1):
            for sign in (-1, 1):
                total += flat[center + sign * off * stride]
    noise_mean = total / cfg.num_training
    p0 = flat[center].astype(np.float64)
    hit = p0 > cfg.threshold_factor * noise_mean
    rows, cols, center, p0, noise = rows[hit], cols[hit], center[hit], p0[hit], noise_mean[hit]

    delay_s = (rows + _parabolic_offset(flat, center, width)) * smap.delay_bin_s
    doppler_hz = ((cols - num_doppler // 2 + _parabolic_offset(flat, center, 1))
                  * smap.doppler_bin_hz)
    # Scalar log10 over the hits: numpy's is dispatched per SIMD level.
    snr_db = [10.0 * math.log10(p / n) if n > 0 else math.inf
              for p, n in zip(p0.tolist(), noise.tolist())]
    columns = (rows, cols, delay_s, doppler_hz, p0, np.array(snr_db))
    detections = [Detection(*fields) for fields in zip(*(c.tolist() for c in columns))]
    detections.sort(key=lambda det: (-det.peak_power, det.delay_bin, det.doppler_bin))
    return detections
