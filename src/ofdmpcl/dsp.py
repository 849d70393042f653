"""Radar receiver chain: inverse filtering, fast-time and slow-time transforms.

The chain estimates the channel transfer function symbol-by-symbol from known
reference symbols, turns each symbol's transfer function into a channel
impulse response (delay axis, "fast time"), then runs a DFT filter bank
across symbols ("slow time") to resolve Doppler. The squared magnitude of
the resulting delay-Doppler spreading function is the scattering map that
detection operates on.

Each transform is one in-place numpy FFT with ``norm="ortho"`` (1/sqrt(N)
each way), so energy is preserved end to end. The Doppler taper carries the
shift that puts zero Doppler at column D // 2. The estimate, the impulse
response and the spectrum are complex128 whatever the frame's dtype and the
window; the map is float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SymbolFrame, _out_array
from .errors import DimensionMismatch, EmptyReference
from .geometry import SPEED_OF_LIGHT
# user_subgrid: run_scenario calls it as dsp.user_subgrid, the name perfbench's tracer rebinds.
from .grid import _BLOCK_ROWS, Numerology, ResourceGrid, user_subgrid

WINDOWS = {"rect": np.ones, "hann": np.hanning}


def window_vector(name: str, n: int) -> np.ndarray:
    """Taper coefficients by name; "rect" is all ones."""
    if name not in WINDOWS:
        raise ValueError(f"unknown window {name!r} (use one of {', '.join(WINDOWS)})")
    return WINDOWS[name](n)


@dataclass
class ChannelEstimate:
    """Per-symbol channel frequency response on the allocated elements."""

    h: np.ndarray  # complex128, (num_carriers, symbols); zero where mask false
    valid_mask: np.ndarray  # bool, same shape
    numerology: Numerology


@dataclass
class ImpulseResponse:
    """Per-symbol channel impulse response; rows are fast-time delay bins."""

    h: np.ndarray  # complex128, (num_carriers, symbols)
    numerology: Numerology


@dataclass
class SpreadingFunction:
    """Complex delay-Doppler response, zero Doppler at column D // 2."""

    s: np.ndarray  # complex128, (delay bins, Doppler bins)
    delay_bin_s: float
    doppler_bin_hz: float


@dataclass
class ScatteringMap:
    """Magnitude-squared spreading function in float32, the map file's form."""

    power: np.ndarray  # float32, (delay bins, Doppler bins)
    delay_bin_s: float
    doppler_bin_hz: float

    @property
    def zero_doppler_bin(self) -> int:
        return self.power.shape[1] // 2


def estimate_channel(
    rx: SymbolFrame, ref: ResourceGrid, out: np.ndarray | None = None
) -> ChannelEstimate:
    """Symbol-wise inverse filtering of the received frame.

    Divides received by transmitted on every element ``ref`` allocates and
    zeroes the others; for unit-modulus references this equals conjugate
    multiplication. One user's elements are that user's ``user_subgrid``.
    The estimate is complex128 whatever the frame's dtype. ``out``, a
    complex128 array of the received symbols' shape, receives the estimate
    instead of a new array; it may be ``rx.symbols`` itself.
    """
    if rx.symbols.shape != ref.codes.shape:
        raise DimensionMismatch(f"received {rx.symbols.shape} vs reference {ref.codes.shape}")
    if rx.numerology != ref.numerology:
        raise DimensionMismatch("received frame and reference numerology differ")
    mask = ref.codes >= 0
    if not np.any(mask):
        raise EmptyReference("reference grid owns no allocated elements")
    h = _out_array(out, rx.symbols.shape, np.complex128)
    for rows, tx in ref.symbol_blocks():
        np.divide(rx.symbols[rows], tx, out=h[rows], where=mask[rows])
        np.copyto(h[rows], 0, where=~mask[rows])
    return ChannelEstimate(h=h, valid_mask=mask, numerology=ref.numerology)


def delay_transform(
    est: ChannelEstimate, window: str = "rect", out: np.ndarray | None = None
) -> ImpulseResponse:
    """Fast-time transform: per-symbol unitary inverse DFT over carriers.

    Unallocated carriers stay zero (zero-filled sparse grid), which is the
    baseline estimator for partially allocated grids. ``out``, a complex128
    array of the estimate's shape, receives the impulse response instead of
    a new array; it may be ``est.h`` itself.
    """
    m = est.h.shape[0]
    taper = window_vector(window, m)[:, None]
    h = _out_array(out, est.h.shape, np.complex128)
    if window != "rect" or h is not est.h:  # in place, rect's ones change nothing
        np.multiply(taper, est.h, out=h)
    np.fft.ifft(h, axis=0, norm="ortho", out=h)
    return ImpulseResponse(h=h, numerology=est.numerology)


def doppler_transform(
    cir: ImpulseResponse, window: str = "rect", num_symbols: int | None = None,
    out: np.ndarray | None = None,
) -> SpreadingFunction:
    """Slow-time DFT filter bank over the first ``num_symbols`` symbols.

    ``num_symbols`` defaults to every symbol and must lie in 2..D. Output
    columns span (-D/2 .. D/2 - 1) * doppler_bin_hz after the shift, so
    static paths land in the center column. The shift is in the taper:
    exp(2j*pi*n*(D//2)/D) on symbol n moves spectrum column k to
    (k + D//2) % D. For even D that factor is (-1)**n, exact; for odd D it is
    complex. ``out``, a complex128 array of shape (rows, ``num_symbols``),
    receives the spectrum instead of a new array; it may be
    ``cir.h[:, :num_symbols]`` itself.
    """
    m, total = cir.h.shape
    d = total if num_symbols is None else num_symbols
    if not 2 <= d <= total:
        raise ValueError(f"Doppler transform needs 2 to {total} symbols, got {d}")
    h = cir.h[:, :d]
    taper = window_vector(window, d)
    if d % 2 == 0:
        taper[1::2] *= -1
    else:
        # The index is reduced mod d first, so the phase stays below 2*pi.
        shift = np.exp(2j * np.pi * (np.arange(d) * (d // 2) % d) / d)
        taper = taper * shift
    s = _out_array(out, (m, d), np.complex128)
    np.multiply(taper, h, out=s)
    np.fft.fft(s, axis=1, norm="ortho", out=s)
    return SpreadingFunction(
        s=s,
        delay_bin_s=cir.numerology.delay_bin_s,
        doppler_bin_hz=1.0 / (d * cir.numerology.symbol_duration_s),
    )


def scattering_map(sf: SpreadingFunction, out: np.ndarray | None = None) -> ScatteringMap:
    """Element-wise squared magnitude of the spreading function, as float32.

    |s|^2 is computed in float64 and rounded once to float32. Rows go
    through one small buffer in blocks. ``out``, a float32 array of the
    spectrum's shape, receives the map instead of a new array.
    It may share the spectrum's memory as long as no block's values land on
    the rows of a later block, because a block is read in full before its
    values are written. The float32 view over the first M * D floats of a
    contiguous complex grid whose leading D columns are ``sf.s`` is such an
    array.
    """
    s = sf.s
    m = s.shape[0]
    power = _out_array(out, s.shape, np.float32)
    block = np.empty((_BLOCK_ROWS, s.shape[1]))
    for r0 in range(0, m, len(block)):
        rows = slice(r0, r0 + len(block))
        buf = block[: len(power[rows])]
        np.abs(s[rows], out=buf)
        np.multiply(buf, buf, out=buf)
        power[rows] = buf
    return ScatteringMap(power, sf.delay_bin_s, sf.doppler_bin_hz)


def max_integration_time(target_speed_mps: float, delay_bin_s: float) -> float:
    """Longest slow-time window before target range migration crosses a bin.

    Worst case both bistatic legs close at the target speed, so the total
    range changes at 2 * speed; the bound is the time for that change to
    cover one delay bin.
    """
    if target_speed_mps <= 0:
        raise ValueError("target speed must be positive")
    return SPEED_OF_LIGHT * delay_bin_s / (2.0 * target_speed_mps)
