import dataclasses

import numpy as np
import pytest

from ofdmpcl import (
    Numerology,
    OutOfBounds,
    OverlappingAllocation,
    UnknownUser,
    build_grid,
    full_allocation,
    random_allocation,
    user_subgrid,
)
from ofdmpcl.grid import _BLOCK_ROWS
from oracles import complex_grid, element_owner

NUM = Numerology(num_carriers=72, symbols_per_frame=28)

# Three users interleaved over a 6-PRB x 4-slot grid.
THREE_USERS = {
    "u0": [(0, 0, 1), (3, 1, 2), (1, 2, 3), (4, 3, 4)],
    "u1": [(1, 0, 1), (4, 1, 2), (2, 2, 3), (0, 3, 4), (5, 0, 1)],
    "u2": [(2, 0, 1), (0, 1, 2), (5, 2, 3), (3, 3, 4)],
}


def test_interleaved_support_is_union_of_tiles():
    grid = build_grid(NUM, THREE_USERS, rng_seed=1)
    owner = element_owner(grid)
    union = np.zeros((72, 28), dtype=bool)
    for k in range(len(grid.users)):
        union |= owner == k
    assert np.array_equal(grid.symbols != 0, union)
    # 13 tiles of 12x7 elements each
    assert union.sum() == 13 * 12 * 7


@pytest.mark.parametrize("allocations", [
    full_allocation(NUM),
    random_allocation(NUM, "u0", density=0.5, seed=11),
    THREE_USERS,
], ids=["full", "random", "three_users"])
def test_codes_expand_to_the_complex_grid_bitwise(allocations):
    grid = build_grid(NUM, allocations, rng_seed=8)
    assert grid.codes.dtype == np.int8
    expected = complex_grid(NUM, allocations, rng_seed=8)
    assert grid.symbols.dtype == expected.dtype
    assert grid.symbols.tobytes() == expected.tobytes()
    for uid in grid.users:
        sub = user_subgrid(grid, uid)
        assert sub.codes.dtype == np.int8
        assert sub.symbols.tobytes() == complex_grid(NUM, allocations, 8, user=uid).tobytes()
    # 72 carriers: one whole block of rows and a remainder
    blocks = list(grid.symbol_blocks())
    assert [rows.start for rows, _ in blocks] == list(range(0, NUM.num_carriers, _BLOCK_ROWS))
    assert np.concatenate([block for _, block in blocks]).tobytes() == expected.tobytes()


def test_no_grid_field_is_complex():
    grid = build_grid(NUM, THREE_USERS, rng_seed=1)
    for field in dataclasses.fields(grid):
        value = getattr(grid, field.name)
        assert not (isinstance(value, np.ndarray) and np.iscomplexobj(value)), field.name


def test_full_allocation_has_no_zeros():
    grid = build_grid(NUM, full_allocation(NUM), rng_seed=3)
    assert np.all(grid.symbols != 0)


def test_allocated_symbols_are_unit_modulus():
    grid = build_grid(NUM, THREE_USERS, rng_seed=1)
    allocated = grid.symbols[grid.symbols != 0]
    assert np.allclose(np.abs(allocated), 1.0, atol=1e-15)


def test_same_seed_same_allocations_bit_identical():
    a = build_grid(NUM, THREE_USERS, rng_seed=42)
    b = build_grid(NUM, THREE_USERS, rng_seed=42)
    assert np.array_equal(a.symbols, b.symbols)
    assert a.symbols.tobytes() == b.symbols.tobytes()


def test_different_seed_differs():
    a = build_grid(NUM, THREE_USERS, rng_seed=42)
    b = build_grid(NUM, THREE_USERS, rng_seed=43)
    assert not np.array_equal(a.symbols, b.symbols)


def test_overlapping_tiles_rejected():
    with pytest.raises(OverlappingAllocation):
        build_grid(NUM, {"a": [(0, 0, 2)], "b": [(0, 1, 3)]}, rng_seed=0)


def test_out_of_bounds_tiles_rejected():
    with pytest.raises(OutOfBounds):
        build_grid(NUM, {"a": [(6, 0, 1)]}, rng_seed=0)  # only 6 PRB rows: 0..5
    with pytest.raises(OutOfBounds):
        build_grid(NUM, {"a": [(0, 0, 5)]}, rng_seed=0)  # only 4 slots


def test_subgrid_projects_onto_user_mask():
    grid = build_grid(NUM, THREE_USERS, rng_seed=1)
    sub = user_subgrid(grid, "u2")
    mask = element_owner(grid) == grid.users.index("u2")
    assert np.array_equal(sub.symbols != 0, mask)
    assert np.array_equal(sub.symbols[mask], grid.symbols[mask])
    assert sub.numerology == grid.numerology


def test_subgrid_of_single_user_grid_is_identity():
    grid = build_grid(NUM, full_allocation(NUM, "only"), rng_seed=9)
    sub = user_subgrid(grid, "only")
    assert np.array_equal(sub.symbols, grid.symbols)


def test_subgrid_unknown_user():
    grid = build_grid(NUM, THREE_USERS, rng_seed=1)
    with pytest.raises(UnknownUser):
        user_subgrid(grid, "nobody")


def test_user_subgrids_partition_the_grid():
    # Disjointness makes the per-user subgrids sum back to the original.
    grid = build_grid(NUM, THREE_USERS, rng_seed=5)
    total = sum(user_subgrid(grid, uid).symbols for uid in grid.users)
    assert np.array_equal(total, grid.symbols)


def test_random_multiuser_allocations_stay_disjoint():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        taken = set()
        allocations = {}
        for user in ("a", "b", "c"):
            tiles = []
            for _ in range(rng.integers(1, 6)):
                cell = (int(rng.integers(0, 6)), int(rng.integers(0, 4)))
                if cell in taken:
                    continue
                taken.add(cell)
                tiles.append((cell[0], cell[1], cell[1] + 1))
            if tiles:
                allocations[user] = tiles
        grid = build_grid(NUM, allocations, rng_seed=7)
        # Each allocated element lies in exactly one user's subgrid.
        claims = sum((user_subgrid(grid, uid).codes >= 0).astype(int) for uid in grid.users)
        assert np.array_equal(claims, grid.codes >= 0)
        total = sum(user_subgrid(grid, uid).symbols for uid in grid.users)
        assert np.array_equal(total, grid.symbols)


def test_random_allocation_density_and_determinism():
    alloc_a = random_allocation(NUM, "u", density=0.5, seed=11)
    alloc_b = random_allocation(NUM, "u", density=0.5, seed=11)
    assert alloc_a == alloc_b
    grid = build_grid(NUM, alloc_a, rng_seed=0)
    assert 0 < (grid.codes >= 0).sum() < grid.symbols.size


def test_numerology_validation():
    with pytest.raises(ValueError):
        Numerology(num_carriers=6)
    with pytest.raises(ValueError):
        Numerology(cp_fraction=0.7)
    with pytest.raises(ValueError):
        Numerology(subcarrier_spacing_hz=0.0)


def test_numerology_derived_quantities():
    num = Numerology(subcarrier_spacing_hz=15e3, num_carriers=72, cp_fraction=1 / 14)
    assert num.useful_symbol_s == pytest.approx(1 / 15e3)
    assert num.symbol_duration_s == pytest.approx(1 / 14e3)
    assert num.delay_bin_s == pytest.approx(1 / (72 * 15e3))
    assert num.bandwidth_hz == pytest.approx(1.08e6)


@pytest.mark.parametrize("allocations, element", [
    # u1's first tile overlaps u0 at carrier 36, its second at carrier 12:
    # the report follows element order, not tile order.
    ({"u0": [(3, 0, 2), (1, 2, 4)], "u1": [(3, 1, 2), (1, 3, 4)]}, (12, 21)),
    # The clash lies in the third slot of b's four-slot tile.
    ({"a": [(2, 2, 3)], "b": [(2, 0, 4)]}, (24, 14)),
], ids=["two_clashes", "inside_a_multi_slot_tile"])
def test_overlap_error_names_first_element_in_row_major_order(allocations, element):
    with pytest.raises(OverlappingAllocation, match=r"\(carrier %d, symbol %d\)" % element):
        build_grid(NUM, allocations, rng_seed=0)


def test_out_of_bounds_reported_before_overlap():
    allocations = {"u0": [(0, 0, 1)], "u1": [(0, 0, 1), (NUM.prb_rows, 0, 1)]}
    with pytest.raises(OutOfBounds):
        build_grid(NUM, allocations, rng_seed=0)


@pytest.mark.parametrize("num_users, dtype", [(128, np.int8), (132, np.int16)])
def test_one_user_per_tile_past_the_int8_range(num_users, dtype):
    # 12 PRB rows x 11 slots: the last user index needs int16 only past 127.
    num = Numerology(num_carriers=144, symbols_per_frame=77)
    tiles = [(row, col) for row in range(num.prb_rows) for col in range(num.prb_cols)]
    allocations = {f"u{k}": [(row, col, col + 1)] for k, (row, col) in enumerate(tiles[:num_users])}
    grid = build_grid(num, allocations, rng_seed=4)
    assert grid.owner.dtype == dtype
    total = np.zeros_like(grid.symbols)
    for uid, [(row, col, _)] in allocations.items():
        sub = user_subgrid(grid, uid)
        own = np.zeros(grid.symbols.shape, dtype=bool)
        own[row * 12:(row + 1) * 12, col * 7:(col + 1) * 7] = True
        assert np.array_equal(sub.symbols != 0, own)
        assert np.array_equal(sub.symbols[own], grid.symbols[own])
        total += sub.symbols
    assert np.array_equal(total, grid.symbols)


def test_grid_without_users_is_all_zero():
    grid = build_grid(NUM, {}, rng_seed=0)
    assert grid.users == ()
    assert not np.any(grid.symbols)
    assert not np.any(grid.codes >= 0)


# 66 carriers and 30 symbols: 5 whole PRB rows and 4 whole slots, with 6
# carriers and 2 symbols past the last whole PRB.
PARTIAL = Numerology(num_carriers=66, symbols_per_frame=30)


@pytest.mark.parametrize("allocations", [
    full_allocation(PARTIAL),
    {"u0": [(0, 0, 2), (4, 3, 4)], "u1": [(1, 1, 4), (4, 0, 1)], "u2": [(3, 2, 3)]},
], ids=["full", "tiles"])
def test_owner_holds_the_placed_prb_cells_and_leaves_the_partial_prb_unowned(allocations):
    grid = build_grid(PARTIAL, allocations, rng_seed=6)
    cells = np.full((PARTIAL.prb_rows, PARTIAL.prb_cols), -1)
    expected = np.full((66, 30), -1)
    for k, tiles in enumerate(allocations.values()):
        for row, col_start, col_end in tiles:
            cells[row, col_start:col_end] = k
            expected[row * 12:(row + 1) * 12, col_start * 7:col_end * 7] = k
    assert grid.owner.shape == (5, 4)
    assert np.array_equal(grid.owner, cells)
    assert np.all(grid.codes[60:, :] == -1)
    assert np.all(grid.codes[:, 28:] == -1)
    assert np.array_equal(grid.codes >= 0, expected >= 0)
    total = sum(user_subgrid(grid, uid).symbols for uid in grid.users)
    assert np.array_equal(total, grid.symbols)
    for k, uid in enumerate(grid.users):
        sub = user_subgrid(grid, uid)
        assert sub.owner.shape == (5, 4)
        assert np.array_equal(sub.owner, np.where(cells == k, 0, -1))
        assert np.array_equal(sub.codes >= 0, expected == k)


@pytest.mark.parametrize("carriers, symbols", [(132, 21), (72, 27), (1200, 140)])
def test_codes_are_the_one_shot_draw(carriers, symbols):
    """build_grid draws the codes in blocks of rows; they are the one-shot
    int64 draw of the whole grid, blanked where no user owns an element.
    132 x 21 has an odd D and an odd last block; 27 leaves unowned symbols."""
    num = Numerology(num_carriers=carriers, symbols_per_frame=symbols)
    grid = build_grid(num, random_allocation(num, "u0", 0.5, seed=1), rng_seed=17)
    want = np.random.default_rng(17).integers(0, 4, size=(carriers, symbols)).astype(np.int8)
    want[element_owner(grid) < 0] = -1
    assert grid.codes.dtype == np.int8
    assert np.array_equal(grid.codes, want)
