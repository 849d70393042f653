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

from .errors import DelayExceedsCp, DopplerExceedsNarrowband
from .geometry import Path
from .grid import _BLOCK_ROWS, Numerology, ResourceGrid

# Upper bound on |doppler| * symbol duration for the per-symbol constant
# phase approximation.
MAX_DOPPLER_SYMBOL_PRODUCT = 0.1

# Most rows * P * D in one call of channel_response's product: one less than
# the 65 536 from which OpenBLAS threads a complex GEMM.
_PRODUCT_MAX = 65_535


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


def _out_array(out: np.ndarray | None, shape: tuple, dtype) -> np.ndarray:
    """A new zeroed array, or ``out`` once its shape and dtype match that array's.

    The one check of ``out`` for every stage that takes it, here and in dsp
    and detect."""
    if out is None:
        return np.zeros(shape, dtype=dtype)
    if out.shape != shape or out.dtype != dtype:
        raise ValueError(f"out is {out.dtype} {out.shape}, the result is {np.dtype(dtype)} {shape}")
    return out


def channel_response(numerology: Numerology, paths: list[Path],
                     out: np.ndarray | None = None) -> np.ndarray:
    """Per-element channel transfer factor, summed over paths.

    Row m sees baseband carrier frequency m * subcarrier_spacing; column d
    is evaluated at the symbol start time d * symbol_duration. ``out``, a
    complex128 M x D array, receives the result instead of a new array;
    every element is overwritten, so it may hold anything before.
    """
    m = numerology.num_carriers
    d = numerology.symbols_per_frame
    out = _out_array(out, (m, d), np.complex128)
    carrier_hz = np.arange(m) * numerology.subcarrier_spacing_hz
    symbol_times = np.arange(d) * numerology.symbol_duration_s

    delays = np.array([path.delay_s for path in paths])
    dopplers = np.array([path.doppler_hz for path in paths])
    for delay, doppler in zip(delays, dopplers):
        check_path(numerology, delay, doppler)
    # Sum of P separable delay x Doppler ramps as one (M x P) @ (P x D) product.
    gains = np.array([path.gain for path in paths], dtype=np.complex128)
    # In place: the M x P ramps share the run's peak with its working grid.
    delay_ramps = np.multiply(-2j * np.pi * carrier_hz[:, None], delays)
    np.exp(delay_ramps, out=delay_ramps)
    delay_ramps *= gains
    doppler_ramps = np.exp(2j * np.pi * dopplers[:, None] * symbol_times)
    return _ramp_product(delay_ramps, doppler_ramps, out)


def _ramp_product(delay_ramps: np.ndarray, doppler_ramps: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """``np.matmul(delay_ramps, doppler_ramps, out=out)``, bit for bit, in
    blocks of rows that OpenBLAS runs on the calling thread.

    A call of 65 536 rows * P * D or more wakes OpenBLAS's worker thread,
    which keeps spinning after it: the chain then used 1.4-1.9 CPU seconds
    per wall second, for a few percent of wall time at most. So each call
    stays within _PRODUCT_MAX. numpy sends a 1-row product to gemv, whose
    bits differ from the matrix kernel's, while blocks of 2 rows or more
    give the one call's bits. The M rows are therefore split evenly into
    blocks of at most ``rows >= 3``, which leaves no 1-row block unless M
    is 1 (an odd M cannot be cut into 2-row blocks). With P * D above
    65 535 / 3 even 3-row blocks may thread.
    """
    m = len(out)
    rows = max(3, _PRODUCT_MAX // max(doppler_ramps.size, 1))
    blocks = -(-m // rows)
    for b in range(blocks):
        part = slice(b * m // blocks, (b + 1) * m // blocks)
        np.matmul(delay_ramps[part], doppler_ramps, out=out[part])
    return out


def apply_channel(
    grid: ResourceGrid,
    paths: list[Path],
    noise_snr_db: float | None,
    rng_seed: int | tuple[int, ...],
    out: np.ndarray | None = None,
) -> SymbolFrame:
    """Propagate a transmit grid through a multipath channel plus noise.

    ``noise_snr_db`` sets complex white Gaussian noise power relative to each
    element's expected signal power, the sum of |gain|^2 over ``paths`` for
    unit-power symbols; ``None`` disables noise. Noise is seeded with
    ``rng_seed``, anything ``np.random.default_rng`` takes (a run passes
    ``seed_words(seed, "noise", tx, rx)``), and added to the allocated
    elements only, the ones an estimate against ``grid`` divides by: one
    standard-normal stream for their real parts, then one for their
    imaginary parts, each in row-major order. On a fully allocated grid that
    is one M x D stream each. Every other element stays noise-free, so a grid
    without an allocated element gives an all-zero frame. The noise goes
    through the grid a block of rows at a time, so the received grid is the
    only full-size array. ``out``, as for ``channel_response``, becomes the
    frame's symbols; a run passes the one working grid its pairs share.
    """
    received = channel_response(grid.numerology, paths, out=out)
    for rows, tx in grid.symbol_blocks():
        received[rows] *= tx
        del tx  # released before the next block's symbols are looked up
    if noise_snr_db is None:
        return SymbolFrame(symbols=received, numerology=grid.numerology)

    # Scalar float64 in path order: complex np.abs differs by SIMD level.
    signal_power = sum(p.gain.real * p.gain.real + p.gain.imag * p.gain.imag for p in paths)
    noise_power = signal_power * 10.0 ** (-noise_snr_db / 10.0)
    rng = np.random.default_rng(rng_seed)
    scale = np.sqrt(noise_power / 2.0)
    buffer = np.empty(_BLOCK_ROWS * received.shape[1])  # reused by every block
    # A generator's draws into consecutive blocks are its one-shot draw.
    for part in (received.real, received.imag):
        for r0 in range(0, len(part), _BLOCK_ROWS):
            rows = slice(r0, r0 + _BLOCK_ROWS)
            target, mask = part[rows], grid.codes[rows] >= 0
            noise = buffer[: np.count_nonzero(mask)]
            rng.standard_normal(out=noise)
            noise *= scale
            if noise.size == target.size:  # every element read: no gather
                target += noise.reshape(target.shape)
            else:
                target[mask] += noise

    return SymbolFrame(symbols=received, numerology=grid.numerology)
