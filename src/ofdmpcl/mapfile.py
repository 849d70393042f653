"""Artifact file formats: scattering-map binary, PGM heatmaps, CSV tables.

Map file layout (little endian, 64-byte header):

    bytes  0..7   magic "CPCLMAP1"
    bytes  8..15  float64  number of delay bins M
    bytes 16..23  float64  number of Doppler bins D
    bytes 24..31  float64  delay bin width in seconds
    bytes 32..39  float64  Doppler bin width in Hz
    bytes 40..63  zero padding
    then M*D float32 power values, row-major (delay rows, Doppler columns)

The payload is the float32 map that the run's detector read, so a run's
detections can be recomputed from its map file. Rows that no path and no
CFAR training cell can reach hold 0: the run does not compute them.
"""

from __future__ import annotations

import csv
import os
import struct

import numpy as np

from .dsp import ScatteringMap
from .errors import UnreadableMap

MAP_MAGIC = b"CPCLMAP1"
MAP_HEADER_BYTES = 64

DETECTION_COLUMNS = [
    "pair_id",
    "delay_bin",
    "doppler_bin",
    "refined_delay_s",
    "refined_doppler_hz",
    "peak_power",
    "snr_db",
]

POSITION_COLUMNS = ["target_hint", "x_m", "y_m", "residual_rms_m", "n_pairs"]


def write_map(path, smap: ScatteringMap) -> None:
    m, d = smap.power.shape
    header = MAP_MAGIC + struct.pack(
        "<4d", float(m), float(d), smap.delay_bin_s, smap.doppler_bin_hz
    )
    header += b"\x00" * (MAP_HEADER_BYTES - len(header))
    with open(path, "wb") as f:
        f.write(header)
        # The chain's float32 map is written as it is; only another dtype is copied.
        f.write(np.ascontiguousarray(smap.power, dtype="<f4"))


def read_map(path) -> ScatteringMap:
    """The stored map, its payload read straight into a writable float32 array."""
    try:
        with open(path, "rb") as f:
            header = f.read(MAP_HEADER_BYTES)
            size = os.fstat(f.fileno()).st_size
            if len(header) < MAP_HEADER_BYTES:
                raise UnreadableMap(f"{path}: shorter than the {MAP_HEADER_BYTES}-byte header")
            if header[:8] != MAP_MAGIC:
                raise UnreadableMap(f"{path}: bad magic {header[:8]!r}")
            m_f, d_f, delay_bin, doppler_bin = struct.unpack("<4d", header[8:40])
            # is_integer() is False for NaN and infinities, so int() cannot fail.
            if not (m_f.is_integer() and d_f.is_integer() and m_f > 0 and d_f > 0):
                raise UnreadableMap(f"{path}: invalid dimensions {m_f} x {d_f}")
            # detect_map divides by both widths; a NaN fails both comparisons.
            if not (0 < delay_bin < np.inf and 0 < doppler_bin < np.inf):
                raise UnreadableMap(f"{path}: invalid bin widths {delay_bin} x {doppler_bin}")
            m, d = int(m_f), int(d_f)
            expected = MAP_HEADER_BYTES + 4 * m * d
            if size != expected:
                raise UnreadableMap(f"{path}: expected {expected} bytes for {m}x{d} map, "
                                    f"got {size}")
            power = np.empty((m, d), dtype="<f4")
            f.readinto(power)
    except OSError as exc:
        raise UnreadableMap(f"cannot read {path}: {exc}") from exc
    # write_map stores powers |.|^2; a NaN makes min and max NaN, failing both tests.
    if not (power.min() >= 0 and power.max() < np.inf):
        raise UnreadableMap(f"{path}: map holds non-finite or negative power")
    return ScatteringMap(power=power, delay_bin_s=delay_bin, doppler_bin_hz=doppler_bin)


def render_heatmap(power: np.ndarray, db_floor: float) -> np.ndarray:
    """Log-scale 8-bit image: delay left to right, Doppler bottom to top.

    Levels are clipped at ``db_floor`` below the peak; the peak maps to 255.
    A zero floor degenerates to the binary peak mask.
    """
    if not 0.0 <= db_floor < np.inf:
        raise ValueError("db_floor must be finite and non-negative")
    peak = float(power.max())
    image = np.flipud(power.T)  # rows: Doppler, most positive on top
    if peak <= 0:
        return np.zeros(image.shape, dtype=np.uint8)
    if db_floor == 0:
        return np.where(image == peak, 255, 0).astype(np.uint8)
    with np.errstate(divide="ignore"):
        # float64 whatever the map's dtype, so a float32 map renders as its float64 copy.
        level_db = 10.0 * np.log10(np.divide(image, peak, dtype=np.float64))
    level_db = np.clip(level_db, -db_floor, 0.0)
    return np.round((level_db + db_floor) / db_floor * 255.0).astype(np.uint8)


def write_pgm(path, image: np.ndarray) -> None:
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.astype(np.uint8).tobytes())


def export_heatmap(map_path, image_path, db_floor: float) -> None:
    """Render a stored scattering map to a grayscale PGM image."""
    smap = read_map(map_path)
    write_pgm(image_path, render_heatmap(smap.power, db_floor))


def _fmt(value) -> str:
    """Shortest round-trip decimal text of a float of any numpy type."""
    return repr(float(value))


def write_detections_csv(path, pair_id: str, detections) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(DETECTION_COLUMNS)
        for det in detections:
            writer.writerow(
                [
                    pair_id,
                    det.delay_bin,
                    det.doppler_bin,
                    _fmt(det.refined_delay_s),
                    _fmt(det.refined_doppler_hz),
                    _fmt(det.peak_power),
                    _fmt(det.snr_db),
                ]
            )


def write_positions_csv(path, target_hint: str, estimates) -> None:
    """One row per PositionEstimate, in the given order, labelled ``target_hint``."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(POSITION_COLUMNS)
        for est in estimates:
            x, y = est.position
            writer.writerow([target_hint, _fmt(x), _fmt(y), _fmt(est.residual_rms_m),
                             est.pairs_used])
