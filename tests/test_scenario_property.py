"""Property test: a scenario that `ofdmpcl validate` accepts also runs.

Each example changes, deletes or adds one field of mini_scenario() and runs
the command line on the result. Grid dimensions are drawn small, so that an
accepted document never allocates more than a few small grids.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmpcl.cli import main as cli_main
from test_scenario_io import mini_scenario

GRID_KEYS = ("num_carriers", "symbols_per_frame")


def _field_paths(value, path=()):
    """Every key path and array index path in a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, path + (key,))


FIELD_PATHS = sorted(_field_paths(mini_scenario()), key=str)

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**6), 10**6),
    st.sampled_from([0, 1, -1, 2, 1e-300, 1e300, 10**400]),
)
values = st.one_of(
    numbers,
    st.none(),
    st.booleans(),
    st.sampled_from(["", "u0", "u1", "tx", "rx1", "target", "clutter", "hann", "tiles"]),
    st.lists(numbers, max_size=3),
    st.just({}),
)


@st.composite
def mutated_documents(draw):
    doc = mini_scenario()
    path = draw(st.sampled_from(FIELD_PATHS))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["set", "delete", "add"]))
    if action == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif action == "add" and isinstance(parent, dict):
        parent[path[-1] + "_extra"] = draw(values)
    elif path[-1] in GRID_KEYS:
        parent[path[-1]] = draw(st.integers(-3, 300))
    else:
        parent[path[-1]] = draw(values)
    return doc


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli_main(argv)
    return code, out.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(mutated_documents())
def _validate_accepting_implies_run_succeeds(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scn.json"
        path.write_text(json.dumps(doc))
        code, output = _cli(["validate", str(path)])
        assert code in (0, 2)
        assert "Traceback" not in output
        run_code, output = _cli(["run", str(path), "--out", str(Path(tmp) / "out")])
        assert run_code in (0, 1, 2)
        assert "Traceback" not in output
        if code == 0:
            assert run_code == 0, output


def test_validate_accepting_a_scenario_implies_run_succeeds():
    # Called from a plain test: on a failing example, hypothesis's pytest plugin
    # would import its patch writer (libcst), whose deprecation warnings the
    # suite's warnings-as-errors filter turns into an error that ends the session.
    _validate_accepting_implies_run_succeeds()
