"""Frequency-domain channel simulation.

Applies a path set to a transmit grid and returns the post-FFT received
symbols. The cyclic prefix keeps carriers orthogonal as long as every path
delay stays below the CP duration, so the channel acts as a per-element
product: each path contributes a phase ramp across carriers (delay) and a
phase progression across symbols (Doppler). Doppler is applied as one
constant phase per symbol, valid while doppler * symbol_duration << 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DelayExceedsCp, DopplerExceedsNarrowband
from .geometry import Path
from .grid import Numerology, ResourceGrid

# Upper bound on |doppler| * symbol duration for the per-symbol constant
# phase approximation.
MAX_DOPPLER_SYMBOL_PRODUCT = 0.1


@dataclass
class SymbolFrame:
    """Received frequency-domain symbols, one column per OFDM symbol."""

    symbols: np.ndarray  # complex, (num_carriers, symbols_per_frame)
    numerology: Numerology
    frame_start_time_s: float = 0.0


def channel_response(
    numerology: Numerology,
    paths: list[Path],
    frame_start_time_s: float = 0.0,
    timing_offset_s: float = 0.0,
    freq_offset_hz: float = 0.0,
) -> np.ndarray:
    """Per-element channel transfer factor, summed over paths.

    Row m sees baseband carrier frequency m * subcarrier_spacing; column d
    is evaluated at time frame_start + d * symbol_duration. The optional
    offsets model imperfect synchronization: a timing offset adds to every
    path delay, a frequency offset to every path Doppler.
    """
    m = numerology.num_carriers
    d = numerology.symbols_per_frame
    carrier_hz = np.arange(m) * numerology.subcarrier_spacing_hz
    symbol_times = frame_start_time_s + np.arange(d) * numerology.symbol_duration_s

    delays = np.array([path.delay_s + timing_offset_s for path in paths])
    dopplers = np.array([path.doppler_hz + freq_offset_hz for path in paths])
    for delay, doppler in zip(delays, dopplers):
        if not 0.0 <= delay < numerology.cp_duration_s:
            raise DelayExceedsCp(
                f"path delay {delay * 1e9:.1f} ns outside cyclic prefix "
                f"[0, {numerology.cp_duration_s * 1e9:.1f} ns)"
            )
        if abs(doppler) * numerology.symbol_duration_s > MAX_DOPPLER_SYMBOL_PRODUCT:
            raise DopplerExceedsNarrowband(
                f"doppler {doppler:.0f} Hz violates the narrowband assumption "
                f"for symbol duration {numerology.symbol_duration_s:.2e} s"
            )
    # Sum of P separable delay x Doppler ramps as one (M x P) @ (P x D) product.
    gains = np.array([path.gain for path in paths], dtype=np.complex128)
    delay_ramps = np.exp(-2j * np.pi * carrier_hz[:, None] * delays) * gains
    doppler_ramps = np.exp(2j * np.pi * dopplers[:, None] * symbol_times)
    return delay_ramps @ doppler_ramps


def apply_channel(
    grid: ResourceGrid,
    paths: list[Path],
    noise_snr_db: float | None,
    rng_seed: int,
    frame_start_time_s: float = 0.0,
    timing_offset_s: float = 0.0,
    freq_offset_hz: float = 0.0,
) -> SymbolFrame:
    """Propagate a transmit grid through a multipath channel plus noise.

    ``noise_snr_db`` sets complex white Gaussian noise power relative to the
    mean power of the noiseless received signal over allocated elements;
    ``None`` disables noise. Noise is seeded and added to every element:
    one M x D standard-normal draw for the real parts, then one for the
    imaginary parts, each in row-major order.
    """
    received = channel_response(
        grid.numerology,
        paths,
        frame_start_time_s=frame_start_time_s,
        timing_offset_s=timing_offset_s,
        freq_offset_hz=freq_offset_hz,
    )
    received *= grid.symbols

    if noise_snr_db is not None:
        allocated = grid.allocated_mask
        if not np.any(allocated):
            raise ValueError("cannot calibrate noise on an empty grid")
        signal_power = float(np.mean(np.abs(received[allocated]) ** 2))
        noise_power = signal_power * 10.0 ** (-noise_snr_db / 10.0)
        rng = np.random.default_rng(rng_seed)
        scale = np.sqrt(noise_power / 2.0)
        noise = np.empty(received.shape)
        for part in (received.real, received.imag):
            rng.standard_normal(out=noise)
            noise *= scale
            part += noise

    return SymbolFrame(
        symbols=received,
        numerology=grid.numerology,
        frame_start_time_s=frame_start_time_s,
    )
