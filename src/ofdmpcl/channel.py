"""Frequency-domain channel simulation.

Applies a path set to a transmit grid and returns the post-FFT received
symbols. The cyclic prefix keeps carriers orthogonal as long as every path
delay stays below the CP duration, so the channel acts as a per-element
product: each path contributes a phase ramp across carriers (delay) and a
phase progression across symbols (Doppler). Doppler is applied as one
constant phase per symbol, valid while doppler * symbol_duration << 1.

Nodes are synchronised: the frame starts at t = 0 with no timing or frequency
offset. Model one by editing the paths with ``dataclasses.replace``: a timing
offset adds to every delay, a frequency offset to every Doppler, and a frame
start t0 rotates each gain by exp(j 2 pi doppler t0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DelayExceedsCp, DopplerExceedsNarrowband, EmptyReference
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


def check_path(numerology: Numerology, delay_s: float, doppler_hz: float) -> None:
    """Raise unless one path's delay fits the CP and its Doppler the narrowband bound."""
    if not 0.0 <= delay_s < numerology.cp_duration_s:
        raise DelayExceedsCp(f"path delay {delay_s * 1e9:.1f} ns outside cyclic prefix "
                             f"[0, {numerology.cp_duration_s * 1e9:.1f} ns)")
    if not abs(doppler_hz) * numerology.symbol_duration_s <= MAX_DOPPLER_SYMBOL_PRODUCT:
        raise DopplerExceedsNarrowband(
            f"doppler {doppler_hz:.0f} Hz violates the narrowband assumption "
            f"for symbol duration {numerology.symbol_duration_s:.2e} s")


def channel_response(numerology: Numerology, paths: list[Path]) -> np.ndarray:
    """Per-element channel transfer factor, summed over paths.

    Row m sees baseband carrier frequency m * subcarrier_spacing; column d
    is evaluated at the symbol start time d * symbol_duration.
    """
    m = numerology.num_carriers
    d = numerology.symbols_per_frame
    carrier_hz = np.arange(m) * numerology.subcarrier_spacing_hz
    symbol_times = np.arange(d) * numerology.symbol_duration_s

    delays = np.array([path.delay_s for path in paths])
    dopplers = np.array([path.doppler_hz for path in paths])
    for delay, doppler in zip(delays, dopplers):
        check_path(numerology, delay, doppler)
    # Sum of P separable delay x Doppler ramps as one (M x P) @ (P x D) product.
    gains = np.array([path.gain for path in paths], dtype=np.complex128)
    delay_ramps = np.exp(-2j * np.pi * carrier_hz[:, None] * delays) * gains
    doppler_ramps = np.exp(2j * np.pi * dopplers[:, None] * symbol_times)
    return delay_ramps @ doppler_ramps


def apply_channel(
    grid: ResourceGrid,
    paths: list[Path],
    noise_snr_db: float | None,
    rng_seed: int | tuple[int, ...],
) -> SymbolFrame:
    """Propagate a transmit grid through a multipath channel plus noise.

    ``noise_snr_db`` sets complex white Gaussian noise power relative to the
    mean power of the noiseless received signal over allocated elements;
    ``None`` disables noise. Noise is seeded with ``rng_seed``, anything
    ``np.random.default_rng`` takes (a run passes ``seed_words(seed, "noise",
    tx, rx)``), and added to every element: one M x D standard-normal draw
    for the real parts, then one for the imaginary parts, each in row-major
    order. Noise on a grid without an allocated element raises EmptyReference.
    """
    received = channel_response(grid.numerology, paths)
    # With noise on, the buffer the noise is later drawn into first takes
    # each block's |received|^2, then packs its allocated values after the
    # previous blocks': every allocated element in row-major order, as one
    # contiguous run for np.mean's pairwise sum, whatever the block size.
    noise = None if noise_snr_db is None else np.empty(received.shape)
    packed = 0
    for rows, tx in grid.symbol_blocks():
        received[rows] *= tx
        if noise is not None:
            power = np.abs(received[rows], out=noise[rows])
            power *= power
            allocated = power[grid.codes[rows] >= 0]
            noise.reshape(-1)[packed : packed + allocated.size] = allocated
            packed += allocated.size

    if noise is not None:
        if packed == 0:
            raise EmptyReference("cannot calibrate noise on a grid with no allocated element")
        signal_power = float(np.mean(noise.reshape(-1)[:packed]))
        noise_power = signal_power * 10.0 ** (-noise_snr_db / 10.0)
        rng = np.random.default_rng(rng_seed)
        scale = np.sqrt(noise_power / 2.0)
        for part in (received.real, received.imag):
            rng.standard_normal(out=noise)
            noise *= scale
            part += noise

    return SymbolFrame(symbols=received, numerology=grid.numerology)
