"""Independent reference implementations used to check the library.

Everything here is deliberately slow and literal: direct O(N^2) transform
sums, continuous-time waveform evaluation, numerical differentiation, a
cell-by-cell CFAR and the rows it tests, per-measurement focal sums, a
cell-by-cell expansion of PRB ownership to elements and CA-CFAR's detection
probability by quadrature.
None of it shares code with the package's processing path.
"""

import math

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


def complex_grid(numerology, allocations, rng_seed, user=None):
    """The transmit grid as one complex QPSK draw, zero off the allocated tiles.

    Ownership is marked tile by tile from the allocation itself; with ``user``
    only that user's tiles count.
    """
    shape = (numerology.num_carriers, numerology.symbols_per_frame)
    qpsk = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], dtype=np.complex128) / np.sqrt(2.0)
    symbols = qpsk[np.random.default_rng(rng_seed).integers(0, 4, size=shape)]
    owned = np.zeros(shape, dtype=bool)
    for user_id, tiles in allocations.items():
        if user is None or user_id == user:
            for prb_row, col_start, col_end in tiles:
                owned[12 * prb_row:12 * (prb_row + 1), 7 * col_start:7 * col_end] = True
    symbols[~owned] = 0.0
    return symbols


def element_owner(grid):
    """Each element's index into ``grid.users``, -1 where no user owns it.

    Every PRB cell of ``grid.owner`` writes its index into its 12 x 7 block
    of elements; carriers and symbols past the last whole PRB stay -1.
    """
    num = grid.numerology
    owner = np.full((num.num_carriers, num.symbols_per_frame), -1)
    for row in range(grid.owner.shape[0]):
        for col in range(grid.owner.shape[1]):
            owner[12 * row:12 * (row + 1), 7 * col:7 * (col + 1)] = grid.owner[row, col]
    return owner


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
    symbols = grid.symbols
    received = np.zeros_like(symbols)
    for d in range(symbols.shape[1]):
        useful_start = d * num.symbol_duration_s + num.cp_duration_s
        t_samples = useful_start + np.arange(m) / fs
        total = np.zeros(m, dtype=complex)
        for path in paths:
            # Time into the useful part, after the path delay.
            t_rel = (t_samples - path.delay_s) - useful_start
            waveform = np.exp(2j * np.pi * np.outer(t_rel, carrier_hz)) @ symbols[:, d]
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


def channel_response_sum(numerology, paths):
    """Channel transfer factor as a literal per-path outer-product sum.

    Each path adds gain * exp(-j2pi f tau) exp(j2pi nu t) over carriers f and
    symbol start times t.
    """
    carrier_hz = np.arange(numerology.num_carriers) * numerology.subcarrier_spacing_hz
    symbol_times = np.arange(numerology.symbols_per_frame) * numerology.symbol_duration_s
    response = np.zeros((carrier_hz.size, symbol_times.size), dtype=complex)
    for path in paths:
        response += path.gain * np.outer(
            np.exp(-2j * np.pi * carrier_hz * path.delay_s),
            np.exp(2j * np.pi * path.doppler_hz * symbol_times),
        )
    return response


def ca_cfar_literal(power, train_cells, guard_cells, pfa, delay_bin_s, doppler_bin_hz):
    """Cross-kernel CA-CFAR evaluated cell by cell from its definition.

    A cell is a peak when its power is positive, strictly above each of its
    8 neighbours that precede it in row-major order and at least equal to
    each that follows. It is detected when it also exceeds alpha times the
    mean of the 4 * train_cells cells that lie guard_cells + 1 ..
    guard_cells + train_cells steps away along the delay and Doppler axes
    (indices taken modulo the map size), with alpha set for ``pfa`` under
    exponential noise. Sub-bin offsets come from a 3-point parabola per axis,
    clipped to half a bin. Returns tuples (delay_bin, doppler_bin,
    refined_delay_s, refined_doppler_hz, peak_power, snr_db), strongest first.
    """
    num_delay, num_doppler = power.shape
    count = 4 * train_cells
    alpha = count * (pfa ** (-1.0 / count) - 1.0)

    def at(i, j):
        return float(power[i % num_delay, j % num_doppler])

    def vertex(before, peak, after):
        curvature = before + after - 2.0 * peak
        if curvature >= 0.0:
            return 0.0
        return min(0.5, max(-0.5, 0.5 * (before - after) / curvature))

    neighbours = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    steps = range(guard_cells + 1, guard_cells + train_cells + 1)
    found = []
    for i in range(num_delay):
        for j in range(num_doppler):
            p = at(i, j)
            if not p > 0:
                continue
            if any(
                p <= at(i + di, j + dj) if (di < 0 or (di == 0 and dj < 0)) else p < at(i + di, j + dj)
                for di, dj in neighbours
            ):
                continue
            training = [at(i + sign * k, j) for k in steps for sign in (-1, 1)]
            training += [at(i, j + sign * k) for k in steps for sign in (-1, 1)]
            noise = sum(training) / count
            if not p > alpha * noise:
                continue
            d_delay = vertex(at(i - 1, j), p, at(i + 1, j))
            d_doppler = vertex(at(i, j - 1), p, at(i, j + 1))
            found.append((
                i,
                j,
                (i + d_delay) * delay_bin_s,
                (j - num_doppler // 2 + d_doppler) * doppler_bin_hz,
                p,
                10.0 * math.log10(p / noise) if noise > 0 else math.inf,
            ))
    found.sort(key=lambda row: (-row[4], row[0], row[1]))
    return found


def gated_rows(num_delay, delay_bin_s, max_delay_s):
    """K, the count of rows [0, K) that cfar_detect tests given max_delay_s:
    the rows up to ceil(max_delay_s / delay_bin_s) and two more, at most all
    num_delay rows."""
    bins = max_delay_s / delay_bin_s
    return num_delay if bins >= num_delay else min(num_delay, math.ceil(bins) + 2)


def focal_sums_loop(points, measurements):
    """Focal sums of shape (npoints, nmeas), one measurement at a time.

    Each distance is ``np.linalg.norm(..., axis=1)`` over the points.
    """
    pts = np.atleast_2d(points)
    sums = np.empty((pts.shape[0], len(measurements)))
    for k, m in enumerate(measurements):
        r_tx = np.linalg.norm(pts - m.pair.tx_position[None, :], axis=1)
        r_rx = np.linalg.norm(pts - m.pair.rx_position[None, :], axis=1)
        sums[:, k] = r_tx + r_rx
    return sums


def jacobian_loop(point, measurements):
    """Gradient of each focal sum at one point, one row per measurement.

    Each distance is ``np.linalg.norm(..., axis=1)``, as in ``focal_sums_loop``.
    """
    pt = np.atleast_2d(point)
    rows = []
    for m in measurements:
        d_tx = pt - m.pair.tx_position[None, :]
        d_rx = pt - m.pair.rx_position[None, :]
        rows.append(d_tx[0] / np.linalg.norm(d_tx, axis=1)[0]
                    + d_rx[0] / np.linalg.norm(d_rx, axis=1)[0])
    return np.array(rows)


def pd_ca_cfar(snr, num_training, pfa, points=201):
    """Detection probability of a non-fluctuating target under CA-CFAR.

    ``snr`` is the target's integrated power over the noise mean, linear.
    Noise power in each cell is exponential with unit mean, so the sum Z of
    the ``num_training`` training cells is Gamma(num_training, 1), and the
    cell under test exceeds alpha * Z / num_training with the Marcum
    probability Q1(sqrt(2 snr), sqrt(2 alpha Z / num_training)). Both the
    Rician tail Q1(a, b) = int_b^inf x exp(-(x^2 + a^2) / 2) I0(a x) dx and
    its mean over Z are trapezoid sums; ``np.i0`` stays finite for snr up to
    about 100.
    """
    t = num_training
    alpha = t * (pfa ** (-1.0 / t) - 1.0)
    a = math.sqrt(2.0 * snr)
    z = np.linspace(0.0, t + 14.0 * math.sqrt(t), points)
    density = z ** (t - 1) * np.exp(-z - math.lgamma(t))
    # One row of x per z, from its threshold b to where the Rician density has
    # fallen to nothing.
    b = np.sqrt(2.0 * alpha * z / t)
    x = b[:, None] + np.linspace(0.0, a + 12.0, points)[None, :]
    rice = x * np.exp(-(x * x + a * a) / 2.0) * np.i0(a * x)
    return float(np.trapezoid(density * np.trapezoid(rice, x, axis=1), z))
