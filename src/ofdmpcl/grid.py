"""LTE-like OFDM resource grids with multi-user PRB allocation.

A resource grid is an M x D matrix of frequency-domain symbols (M carriers,
D OFDM symbols). Users own rectangular PRB tiles of 12 carriers x 7 symbols;
everything a user owns is seeded unit-power QPSK, held as an int8 code 0-3,
and everything else is exactly zero, code -1. Ownership is held per PRB cell:
``owner`` is a prb_rows x prb_cols array of each cell's index into the ``users``
tuple of user ids, or -1; carriers and symbols past the last whole PRB are unowned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfBounds, OverlappingAllocation, UnknownUser

PRB_CARRIERS = 12
PRB_SYMBOLS = 7

# Gray-coded QPSK constellation, unit modulus, then 0: the symbol of code -1.
_QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 0], dtype=np.complex128) / np.sqrt(2.0)
_BLOCK_ROWS = 64  # rows per symbol_blocks block: its complex lookup stays in cache


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
class ResourceGrid:
    """Transmit frame as QPSK codes: 0-3 on allocated elements, -1 elsewhere."""

    numerology: Numerology
    codes: np.ndarray  # int8, (num_carriers, symbols_per_frame)
    owner: np.ndarray  # signed int, (prb_rows, prb_cols): index into users, -1 if unallocated
    users: tuple[str, ...]

    @property
    def symbols(self) -> np.ndarray:  # a new complex grid, zero where unallocated
        return _QPSK[self.codes]

    def symbol_blocks(self):
        """Yield (rows, their symbols); code -1 is 255 as uint8 and clips to the last entry, 0."""
        for r0 in range(0, self.codes.shape[0], _BLOCK_ROWS):
            rows = slice(r0, r0 + _BLOCK_ROWS)
            yield rows, np.take(_QPSK, self.codes[rows].view(np.uint8), mode="clip")


def _owner_dtype(num_users: int) -> np.dtype:
    """Smallest signed integer type holding -1 and every user index."""
    return np.min_scalar_type(-max(num_users, 1))


def place_tile(cells: np.ndarray, tile, k: int, user_id: str):
    """Write user index k into one (prb_row, col_start, col_end) tile of a PRB
    owner array; return the first (prb_row, slot) it found taken, or None.

    Column bounds are in slot units (7 symbols each), end exclusive.
    """
    prb_row, col_start, col_end = tile
    nrows, ncols = cells.shape
    if not (0 <= prb_row < nrows):
        raise OutOfBounds(f"user {user_id!r}: prb_row {prb_row} outside 0..{nrows - 1}")
    if not (0 <= col_start < col_end <= ncols):
        raise OutOfBounds(f"user {user_id!r}: slot range [{col_start}, {col_end}) "
                          f"outside 0..{ncols}")
    block = cells[prb_row, col_start:col_end]
    first = None
    if block[block.argmax()] >= 0:  # the cheap test that some cell is taken
        first = (prb_row, col_start + int(np.flatnonzero(block >= 0)[0]))
    block[...] = k
    return first


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
    users = tuple(str(user_id) for user_id in allocations)
    cells = np.full((numerology.prb_rows, numerology.prb_cols), -1,
                    dtype=_owner_dtype(len(users)))
    taken = [place_tile(cells, tile, k, user_id)
             for k, (user_id, tiles) in enumerate(allocations.items()) for tile in tiles]
    # Raised after every tile is placed, so bounds errors come first. A PRB
    # cell's top-left element is its row-major first.
    clash = min(filter(None, taken), default=None)
    if clash is not None:
        raise OverlappingAllocation(
            f"resource element (carrier {clash[0] * PRB_CARRIERS}, symbol "
            f"{clash[1] * PRB_SYMBOLS}) is claimed more than once"
        )
    # Draw int64 codes (a narrower draw is another stream) for the whole grid,
    # so co-located elements do not depend on the surrounding tiles; blank the
    # rest. Each value of range 4 takes one 32-bit half of a 64-bit output, so
    # blocks of 64 rows, an even number of values each, draw the one-shot stream.
    rng = np.random.default_rng(rng_seed)
    codes = np.empty(shape, dtype=np.int8)
    for r0 in range(0, shape[0], _BLOCK_ROWS):
        rows = slice(r0, r0 + _BLOCK_ROWS)
        codes[rows] = rng.integers(0, 4, size=codes[rows].shape)
    return ResourceGrid(numerology, _blank_unowned(codes, cells), cells, users)


def _blank_unowned(codes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Set code -1 on every element outside the PRB cells where ``cells >= 0``; return codes."""
    nrows, ncols = cells.shape
    prbs = codes[:nrows * PRB_CARRIERS, :ncols * PRB_SYMBOLS]
    codes[len(prbs):] = codes[:, prbs.shape[1]:] = -1  # past the last whole PRB
    # A view of codes split into PRB rows; the mask repeats each cell over its symbols.
    np.copyto(prbs.reshape(nrows, PRB_CARRIERS, -1), -1,
              where=(cells < 0).repeat(PRB_SYMBOLS, axis=1)[:, None, :])
    return codes


def user_subgrid(grid: ResourceGrid, user_id: str) -> ResourceGrid:
    """Project a grid onto one user: keep its elements, zero all others.

    The returned codes are a new array, so callers may write into them.
    """
    if user_id not in grid.users:
        raise UnknownUser(f"user {user_id!r} not present in grid")
    owner = (grid.owner == grid.users.index(user_id)).astype(_owner_dtype(1)) - 1
    return ResourceGrid(numerology=grid.numerology, codes=_blank_unowned(grid.codes.copy(), owner),
                        owner=owner, users=(user_id,))


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
    # One draw per tile in row-major order, as argwhere lists them.
    drawn = rng.random((numerology.prb_rows, numerology.prb_cols)) < density
    return {user_id: [(row, col, col + 1) for row, col in np.argwhere(drawn).tolist()]}
