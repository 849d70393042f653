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

NUM = Numerology(num_carriers=72, symbols_per_frame=28)

# Three users interleaved over a 6-PRB x 4-slot grid.
THREE_USERS = {
    "u0": [(0, 0, 1), (3, 1, 2), (1, 2, 3), (4, 3, 4)],
    "u1": [(1, 0, 1), (4, 1, 2), (2, 2, 3), (0, 3, 4), (5, 0, 1)],
    "u2": [(2, 0, 1), (0, 1, 2), (5, 2, 3), (3, 3, 4)],
}


def test_interleaved_support_is_union_of_tiles():
    grid = build_grid(NUM, THREE_USERS, rng_seed=1)
    union = np.zeros((72, 28), dtype=bool)
    for m in grid.masks:
        union |= m.mask
    assert np.array_equal(grid.symbols != 0, union)
    # 13 tiles of 12x7 elements each
    assert union.sum() == 13 * 12 * 7


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
    mask = next(m.mask for m in grid.masks if m.user_id == "u2")
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
    total = sum(user_subgrid(grid, uid).symbols for uid in grid.user_ids())
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
        stack = np.array([m.mask for m in grid.masks])
        assert np.all(stack.sum(axis=0) <= 1)
        total = sum(user_subgrid(grid, uid).symbols for uid in grid.user_ids())
        assert np.array_equal(total, grid.symbols)


def test_random_allocation_density_and_determinism():
    alloc_a = random_allocation(NUM, "u", density=0.5, seed=11)
    alloc_b = random_allocation(NUM, "u", density=0.5, seed=11)
    assert alloc_a == alloc_b
    grid = build_grid(NUM, alloc_a, rng_seed=0)
    assert 0 < grid.allocated_mask.sum() < grid.symbols.size


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


def test_overlap_error_names_first_element_in_row_major_order():
    # u1's first tile overlaps u0 at carrier 36, its second at carrier 12:
    # the report follows element order, not tile order.
    allocations = {
        "u0": [(3, 0, 2), (1, 2, 4)],
        "u1": [(3, 1, 2), (1, 3, 4)],
    }
    with pytest.raises(OverlappingAllocation, match=r"\(carrier 12, symbol 21\)"):
        build_grid(NUM, allocations, rng_seed=0)


def test_out_of_bounds_reported_before_overlap():
    allocations = {"u0": [(0, 0, 1)], "u1": [(0, 0, 1), (NUM.prb_rows, 0, 1)]}
    with pytest.raises(OutOfBounds):
        build_grid(NUM, allocations, rng_seed=0)
