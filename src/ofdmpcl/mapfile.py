"""Artifact file formats: scattering-map binary, PGM heatmaps, CSV tables.

Map file layout (little endian, 64-byte header):

    bytes  0..7   magic "CPCLMAP1"
    bytes  8..15  float64  number of delay bins M
    bytes 16..23  float64  number of Doppler bins D
    bytes 24..31  float64  delay bin width in seconds
    bytes 32..39  float64  Doppler bin width in Hz
    bytes 40..63  zero padding
    then M*D float32 power values, row-major (delay rows, Doppler columns)
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

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
    data = np.ascontiguousarray(smap.power, dtype="<f4")
    with open(path, "wb") as f:
        f.write(header)
        data.tofile(f)


def read_map(path) -> ScatteringMap:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise UnreadableMap(f"cannot read {path}: {exc}") from exc
    if len(raw) < MAP_HEADER_BYTES:
        raise UnreadableMap(f"{path}: shorter than the {MAP_HEADER_BYTES}-byte header")
    if raw[:8] != MAP_MAGIC:
        raise UnreadableMap(f"{path}: bad magic {raw[:8]!r}")
    m_f, d_f, delay_bin, doppler_bin = struct.unpack("<4d", raw[8:40])
    m, d = int(m_f), int(d_f)
    if m <= 0 or d <= 0 or m != m_f or d != d_f:
        raise UnreadableMap(f"{path}: invalid dimensions {m_f} x {d_f}")
    expected = MAP_HEADER_BYTES + 4 * m * d
    if len(raw) != expected:
        raise UnreadableMap(
            f"{path}: expected {expected} bytes for {m}x{d} map, got {len(raw)}"
        )
    power = np.frombuffer(raw[MAP_HEADER_BYTES:], dtype="<f4").reshape(m, d)
    return ScatteringMap(
        power=power.astype(np.float64),
        delay_bin_s=delay_bin,
        doppler_bin_hz=doppler_bin,
    )


def render_heatmap(power: np.ndarray, db_floor: float) -> np.ndarray:
    """Log-scale 8-bit image: delay left to right, Doppler bottom to top.

    Levels are clipped at ``db_floor`` below the peak; the peak maps to 255.
    A zero floor degenerates to the binary peak mask.
    """
    if db_floor < 0:
        raise ValueError("db_floor must be non-negative")
    peak = float(power.max())
    image = np.flipud(power.T)  # rows: Doppler, most positive on top
    if peak <= 0:
        return np.zeros(image.shape, dtype=np.uint8)
    if db_floor == 0:
        return np.where(image == peak, 255, 0).astype(np.uint8)
    with np.errstate(divide="ignore"):
        level_db = 10.0 * np.log10(image / peak)
    level_db = np.clip(level_db, -db_floor, 0.0)
    return np.round((level_db + db_floor) / db_floor * 255.0).astype(np.uint8)


def write_pgm(path, image: np.ndarray) -> None:
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.astype(np.uint8).tobytes())


def export_heatmap(map_path, image_path, db_floor: float = 60.0) -> None:
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


def write_positions_csv(path, rows) -> None:
    """rows: iterables of (target_hint, x_m, y_m, residual_rms_m, n_pairs)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(POSITION_COLUMNS)
        for hint, x, y, rms, n_pairs in rows:
            writer.writerow([hint, _fmt(x), _fmt(y), _fmt(rms), n_pairs])
