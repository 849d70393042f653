"""Property test: `validate` rejects a tile allocation exactly when build_grid does.

Each example draws 1-6 integer tiles on mini_scenario()'s 60 x 140 grid
(5 PRB rows x 20 slots), each 1-4 slots wide. In about half of the examples
one field of one tile is pushed just outside its range, and the small grid
makes tiles overlap often.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmpcl import Numerology, OutOfBounds, OverlappingAllocation, ScenarioError, build_grid
from ofdmpcl.scenario import scenario_from_dict
from test_scenario_io import mini_scenario

NUM = Numerology(**mini_scenario()["numerology"])
USERS = ["u0", "u1", "u2"]


@st.composite
def tile_lists(draw):
    """1-6 tiles on the grid; in about half of the lists one field is pushed out."""
    drawn = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, NUM.prb_cols - 1))
        drawn.append([draw(st.sampled_from(USERS)), draw(st.integers(0, NUM.prb_rows - 1)),
                      start, draw(st.integers(start + 1, min(start + 4, NUM.prb_cols)))])
    if draw(st.booleans()):
        tile = draw(st.sampled_from(drawn))
        field = draw(st.integers(1, 3))
        outside = {1: [-1, NUM.prb_rows], 2: [-1, tile[3]], 3: [tile[2], NUM.prb_cols + 1]}
        tile[field] = draw(st.sampled_from(outside[field]))
    return drawn


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(tile_lists())
def _validate_rejects_exactly_what_build_grid_rejects(drawn):
    try:
        scenario_from_dict(mini_scenario(allocation={"type": "tiles", "tiles": drawn}))
        messages = []
    except ScenarioError as exc:
        messages = exc.messages
    rejected = any(m.startswith("at $.allocation.tiles[") for m in messages)
    allocations = {}
    for user, *tile in drawn:
        allocations.setdefault(user, []).append(tuple(tile))
    try:
        build_grid(NUM, allocations, rng_seed=0)
        raised = False
    except (OutOfBounds, OverlappingAllocation):
        raised = True
    assert rejected == raised, messages


def test_validate_rejects_exactly_what_build_grid_rejects():
    # Called from a plain test, as in test_scenario_property.py.
    _validate_rejects_exactly_what_build_grid_rejects()
