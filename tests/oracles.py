"""Independent reference implementations used to check the library.

Everything here is deliberately slow and literal: direct O(N^2) transform
sums, continuous-time waveform evaluation, and numerical differentiation.
None of it shares code with the package's processing path.
"""

import numpy as np


def direct_unitary_idft_axis0(x):
    """Inverse DFT down each column, 1/sqrt(N) scaling, explicit matrix."""
    n = x.shape[0]
    k = np.arange(n)
    basis = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return basis @ x


def direct_unitary_dft_axis1(x):
    """Forward DFT along each row, 1/sqrt(N) scaling, explicit matrix."""
    n = x.shape[1]
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return x @ basis.T


def center_zero_frequency(x, axis=1):
    """Reorder DFT output so frequency zero sits at index n // 2."""
    n = x.shape[axis]
    idx = (np.arange(n) - n // 2) % n
    return np.take(x, idx, axis=axis)


def time_domain_receive(grid, paths, doppler_per_sample=False):
    """Simulate the receiver front end in the time domain.

    The transmitted baseband waveform is evaluated analytically at the
    (delayed) receiver sampling instants, one OFDM symbol at a time, then
    passed through the useful-part FFT. Valid for path delays below the
    cyclic prefix, where the delayed waveform still lies in the cyclic
    extension of the same symbol.

    With ``doppler_per_sample`` the Doppler phase rotates during the symbol
    (the physical behaviour); otherwise it is frozen at the symbol start
    time d * symbol_duration, matching the narrowband product model.
    """
    num = grid.numerology
    m = num.num_carriers
    fs = m * num.subcarrier_spacing_hz
    carrier_hz = np.arange(m) * num.subcarrier_spacing_hz
    received = np.zeros_like(grid.symbols)
    for d in range(grid.symbols.shape[1]):
        useful_start = d * num.symbol_duration_s + num.cp_duration_s
        t_samples = useful_start + np.arange(m) / fs
        total = np.zeros(m, dtype=complex)
        for path in paths:
            # Time into the useful part, after the path delay.
            t_rel = (t_samples - path.delay_s) - useful_start
            waveform = np.exp(2j * np.pi * np.outer(t_rel, carrier_hz)) @ grid.symbols[:, d]
            if doppler_per_sample:
                rotation = np.exp(2j * np.pi * path.doppler_hz * t_samples)
            else:
                rotation = np.exp(2j * np.pi * path.doppler_hz * d * num.symbol_duration_s)
            total += path.gain * waveform * rotation
        received[:, d] = np.fft.fft(total) / m
    return received


def finite_difference_doppler(tx, rx, scatterer, wavelength, h=1e-3):
    """Central finite difference of the total path length, over +-h seconds."""

    def total_length(t):
        p_tx = tx.position + tx.velocity * t
        p_rx = rx.position + rx.velocity * t
        p_s = scatterer.position + scatterer.velocity * t
        return np.linalg.norm(p_s - p_tx) + np.linalg.norm(p_rx - p_s)

    return -(total_length(h) - total_length(-h)) / (2.0 * h) / wavelength


def finite_difference_doppler_los(tx, rx, wavelength, h=1e-3):
    def baseline(t):
        return np.linalg.norm(
            (rx.position + rx.velocity * t) - (tx.position + tx.velocity * t)
        )

    return -(baseline(h) - baseline(-h)) / (2.0 * h) / wavelength


def dirichlet_power(x, n):
    """Normalized power pattern of an n-point uniform aperture at offset x bins."""
    x = np.asarray(x, dtype=float)
    num = np.sin(np.pi * x)
    den = n * np.sin(np.pi * x / n)
    out = np.ones_like(x)
    nonzero = ~np.isclose(den, 0.0)
    out[nonzero] = (num[nonzero] / den[nonzero]) ** 2
    # At integer multiples of n the ratio tends to 1.
    out[~nonzero] = 1.0
    return out


def channel_response_sum(
    numerology, paths, frame_start_time_s=0.0, timing_offset_s=0.0, freq_offset_hz=0.0
):
    """Channel transfer factor as a literal per-path outer-product sum.

    Each path adds gain * exp(-j2pi f tau) exp(j2pi nu t) over carriers f and
    symbol start times t, with the sync offsets added to every delay and
    Doppler.
    """
    carrier_hz = np.arange(numerology.num_carriers) * numerology.subcarrier_spacing_hz
    symbol_times = (
        frame_start_time_s
        + np.arange(numerology.symbols_per_frame) * numerology.symbol_duration_s
    )
    response = np.zeros((carrier_hz.size, symbol_times.size), dtype=complex)
    for path in paths:
        delay = path.delay_s + timing_offset_s
        doppler = path.doppler_hz + freq_offset_hz
        response += path.gain * np.outer(
            np.exp(-2j * np.pi * carrier_hz * delay),
            np.exp(2j * np.pi * doppler * symbol_times),
        )
    return response
