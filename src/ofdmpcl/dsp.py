"""Radar receiver chain: inverse filtering, fast-time and slow-time transforms.

The chain estimates the channel transfer function symbol-by-symbol from known
reference symbols, turns each symbol's transfer function into a channel
impulse response (delay axis, "fast time"), then runs a DFT filter bank
across symbols ("slow time") to resolve Doppler. The squared magnitude of
the resulting delay-Doppler spreading function is the scattering map that
detection operates on.

Both transforms use the unitary convention (1/sqrt(N) each way), so energy
is preserved end to end. The Doppler axis is shifted to put zero Doppler at
column D // 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SymbolFrame
from .errors import DimensionMismatch, EmptyReference
from .geometry import SPEED_OF_LIGHT
from .grid import Numerology, ResourceGrid, user_subgrid


def window_vector(name: str, n: int) -> np.ndarray:
    """Taper coefficients by name; "rect" is all ones, so the transforms skip it."""
    if name in ("rect", "rectangular"):
        return np.ones(n)
    if name == "hann":
        return np.hanning(n)
    raise ValueError(f"unknown window {name!r} (use 'rect' or 'hann')")


@dataclass
class ChannelEstimate:
    """Per-symbol channel frequency response on the allocated elements."""

    h: np.ndarray  # complex, (num_carriers, symbols); zero where mask false
    valid_mask: np.ndarray  # bool, same shape
    numerology: Numerology


@dataclass
class ImpulseResponse:
    """Per-symbol channel impulse response; rows are fast-time delay bins."""

    h: np.ndarray  # complex, (num_carriers, symbols)
    numerology: Numerology


@dataclass
class SpreadingFunction:
    """Complex delay-Doppler response, zero Doppler at column D // 2."""

    s: np.ndarray  # complex, (delay bins, Doppler bins)
    delay_bin_s: float
    doppler_bin_hz: float

    @property
    def zero_doppler_bin(self) -> int:
        return self.s.shape[1] // 2

    def doppler_axis_hz(self) -> np.ndarray:
        d = self.s.shape[1]
        return (np.arange(d) - d // 2) * self.doppler_bin_hz


@dataclass
class ScatteringMap:
    """Magnitude-squared spreading function."""

    power: np.ndarray  # real, (delay bins, Doppler bins)
    delay_bin_s: float
    doppler_bin_hz: float

    @property
    def zero_doppler_bin(self) -> int:
        return self.power.shape[1] // 2

    def doppler_axis_hz(self) -> np.ndarray:
        d = self.power.shape[1]
        return (np.arange(d) - d // 2) * self.doppler_bin_hz


def estimate_channel(
    rx: SymbolFrame, ref: ResourceGrid, user_id: str | None = None
) -> ChannelEstimate:
    """Symbol-wise inverse filtering of the received frame.

    Divides received by transmitted on every allocated element; for
    unit-modulus references this equals conjugate multiplication. With
    ``user_id`` the reference is first restricted to that user's elements
    (uplink rule: each user's allocation is its own measurement).
    """
    if user_id is not None:
        ref = user_subgrid(ref, user_id)
    if rx.symbols.shape != ref.symbols.shape:
        raise DimensionMismatch(
            f"received {rx.symbols.shape} vs reference {ref.symbols.shape}"
        )
    if rx.numerology != ref.numerology:
        raise DimensionMismatch("received frame and reference numerology differ")
    mask = ref.symbols != 0
    if not np.any(mask):
        raise EmptyReference("reference grid owns no allocated elements")
    h = np.zeros_like(rx.symbols)
    np.divide(rx.symbols, ref.symbols, out=h, where=mask)
    return ChannelEstimate(h=h, valid_mask=mask, numerology=ref.numerology)


def delay_transform(est: ChannelEstimate, window: str = "rect") -> ImpulseResponse:
    """Fast-time transform: per-symbol unitary inverse DFT over carriers.

    Unallocated carriers stay zero (zero-filled sparse grid), which is the
    baseline estimator for partially allocated grids.
    """
    m = est.h.shape[0]
    h = est.h if window == "rect" else window_vector(window, m)[:, None] * est.h
    h = np.fft.ifft(h, axis=0)
    h *= np.sqrt(m)
    return ImpulseResponse(h=h, numerology=est.numerology)


def doppler_transform(
    cir: ImpulseResponse, window: str = "rect", num_symbols: int | None = None
) -> SpreadingFunction:
    """Slow-time DFT filter bank over the first ``num_symbols`` symbols.

    Output columns span (-D/2 .. D/2 - 1) * doppler_bin_hz after the shift,
    so static paths land in the center column.
    """
    h = cir.h if num_symbols is None else cir.h[:, :num_symbols]
    d = h.shape[1]
    if d < 2:
        raise ValueError("Doppler transform needs at least 2 symbols")
    if window != "rect":
        h = window_vector(window, d)[None, :] * h
    h = np.fft.fft(h, axis=1)  # rebinding frees the tapered copy before the shift
    s = np.fft.fftshift(h, axes=1)
    s /= np.sqrt(d)
    return SpreadingFunction(
        s=s,
        delay_bin_s=cir.numerology.delay_bin_s,
        doppler_bin_hz=1.0 / (d * cir.numerology.symbol_duration_s),
    )


def scattering_map(sf: SpreadingFunction) -> ScatteringMap:
    """Element-wise squared magnitude of the spreading function."""
    power = np.abs(sf.s)
    power *= power
    return ScatteringMap(
        power=power,
        delay_bin_s=sf.delay_bin_s,
        doppler_bin_hz=sf.doppler_bin_hz,
    )


def max_integration_time(target_speed_mps: float, delay_bin_s: float) -> float:
    """Longest slow-time window before target range migration crosses a bin.

    Worst case both bistatic legs close at the target speed, so the total
    range changes at 2 * speed; the bound is the time for that change to
    cover one delay bin.
    """
    if target_speed_mps <= 0:
        raise ValueError("target speed must be positive")
    return SPEED_OF_LIGHT * delay_bin_s / (2.0 * target_speed_mps)
