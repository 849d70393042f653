"""LTE-like OFDM resource grids with multi-user PRB allocation.

A resource grid is an M x D matrix of frequency-domain symbols (M carriers,
D OFDM symbols). Users own rectangular PRB tiles of 12 carriers x 7 symbols;
everything a user owns is filled with seeded unit-power QPSK, everything else
is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfBounds, OverlappingAllocation, UnknownUser

PRB_CARRIERS = 12
PRB_SYMBOLS = 7

# Gray-coded QPSK constellation, unit modulus.
_QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], dtype=np.complex128) / np.sqrt(2.0)


@dataclass(frozen=True)
class Numerology:
    """OFDM grid dimensions and timing.

    ``cp_fraction`` is the cyclic-prefix length as a fraction of the useful
    symbol duration, so the total symbol duration is ``(1 + cp_fraction)``
    times the useful duration.
    """

    subcarrier_spacing_hz: float = 15e3
    num_carriers: int = 72
    symbols_per_frame: int = 28
    cp_fraction: float = 1.0 / 14.0
    carrier_frequency_hz: float = 5.9e9

    def __post_init__(self):
        if self.subcarrier_spacing_hz <= 0:
            raise ValueError("subcarrier spacing must be positive")
        if self.num_carriers < PRB_CARRIERS:
            raise ValueError(f"need at least {PRB_CARRIERS} carriers")
        if self.symbols_per_frame < 1:
            raise ValueError("need at least one symbol per frame")
        if not 0.0 <= self.cp_fraction <= 0.5:
            raise ValueError("cp_fraction must lie in [0, 0.5]")
        if self.carrier_frequency_hz <= 0:
            raise ValueError("carrier frequency must be positive")

    @property
    def useful_symbol_s(self) -> float:
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def symbol_duration_s(self) -> float:
        return self.useful_symbol_s * (1.0 + self.cp_fraction)

    @property
    def cp_duration_s(self) -> float:
        return self.useful_symbol_s * self.cp_fraction

    @property
    def bandwidth_hz(self) -> float:
        return self.num_carriers * self.subcarrier_spacing_hz

    @property
    def delay_bin_s(self) -> float:
        """Fast-time resolution of the delay transform, 1/bandwidth."""
        return 1.0 / self.bandwidth_hz

    @property
    def prb_rows(self) -> int:
        return self.num_carriers // PRB_CARRIERS

    @property
    def prb_cols(self) -> int:
        return self.symbols_per_frame // PRB_SYMBOLS


@dataclass
class AllocationMask:
    """Boolean ownership mask of one user over the resource grid."""

    user_id: str
    mask: np.ndarray  # bool, (num_carriers, symbols_per_frame)


@dataclass
class ResourceGrid:
    """Transmit frame: QPSK symbols on allocated elements, zeros elsewhere."""

    numerology: Numerology
    symbols: np.ndarray  # complex, (num_carriers, symbols_per_frame)
    masks: list[AllocationMask] = field(default_factory=list)

    @property
    def allocated_mask(self) -> np.ndarray:
        """Union of all user masks."""
        union = np.zeros(self.symbols.shape, dtype=bool)
        for m in self.masks:
            union |= m.mask
        return union

    def user_ids(self) -> list[str]:
        return [m.user_id for m in self.masks]


def tile_slices(numerology: Numerology, tile, user_id: str) -> tuple[slice, slice]:
    """Map one (prb_row, col_start, col_end) tile to (carrier, symbol) slices.

    Column bounds are in slot units (7 symbols each), end exclusive.
    """
    prb_row, col_start, col_end = tile
    nrows = numerology.prb_rows
    ncols = numerology.prb_cols
    if not (0 <= prb_row < nrows):
        raise OutOfBounds(
            f"user {user_id!r}: prb_row {prb_row} outside 0..{nrows - 1}"
        )
    if not (0 <= col_start < col_end <= ncols):
        raise OutOfBounds(
            f"user {user_id!r}: slot range [{col_start}, {col_end}) outside "
            f"0..{ncols}"
        )
    r0 = prb_row * PRB_CARRIERS
    return (
        slice(r0, r0 + PRB_CARRIERS),
        slice(col_start * PRB_SYMBOLS, col_end * PRB_SYMBOLS),
    )


def build_grid(numerology: Numerology, allocations, rng_seed: int) -> ResourceGrid:
    """Build a transmit resource grid from per-user PRB tile lists.

    Parameters
    ----------
    numerology : Numerology
    allocations : mapping of user id -> list of (prb_row, col_start, col_end)
        tiles; column bounds are in 7-symbol slot units, end exclusive.
    rng_seed : int
        Seed for the QPSK payload. Identical inputs give bit-identical grids.

    Raises
    ------
    OutOfBounds, OverlappingAllocation
    """
    shape = (numerology.num_carriers, numerology.symbols_per_frame)
    coverage = np.zeros(shape, dtype=np.int32)
    masks = []
    for user_id, tiles in allocations.items():
        user_mask = np.zeros(shape, dtype=bool)
        for tile in tiles:
            rows, cols = tile_slices(numerology, tile, user_id)
            coverage[rows, cols] += 1
            user_mask[rows, cols] = True
        masks.append(AllocationMask(user_id=str(user_id), mask=user_mask))
    if np.any(coverage > 1):
        m, d = np.argwhere(coverage > 1)[0]
        raise OverlappingAllocation(
            f"resource element (carrier {m}, symbol {d}) is claimed more than once"
        )

    # Draw symbols for the whole grid so co-located elements are independent
    # of which tiles surround them, then blank the unallocated ones.
    rng = np.random.default_rng(rng_seed)
    symbols = _QPSK[rng.integers(0, 4, size=shape)]
    symbols[coverage == 0] = 0.0
    return ResourceGrid(numerology=numerology, symbols=symbols, masks=masks)


def user_subgrid(grid: ResourceGrid, user_id: str) -> ResourceGrid:
    """Project a grid onto one user: keep its elements, zero all others."""
    for m in grid.masks:
        if m.user_id == user_id:
            return ResourceGrid(
                numerology=grid.numerology,
                symbols=np.where(m.mask, grid.symbols, 0.0),
                masks=[AllocationMask(user_id=m.user_id, mask=m.mask.copy())],
            )
    raise UnknownUser(f"user {user_id!r} not present in grid")


def full_allocation(numerology: Numerology, user_id: str = "u0") -> dict:
    """One user owning every complete PRB tile of the grid."""
    return {
        user_id: [
            (row, 0, numerology.prb_cols) for row in range(numerology.prb_rows)
        ]
    }


def random_allocation(
    numerology: Numerology, user_id: str, density: float, seed: int
) -> dict:
    """One user owning a random subset of PRB tiles at the given density."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    tiles = []
    for row in range(numerology.prb_rows):
        for col in range(numerology.prb_cols):
            if rng.random() < density:
                tiles.append((row, col, col + 1))
    return {user_id: tiles}
