"""Property test: `read_map` returns an M x D map or raises UnreadableMap.

Each example writes a CPCLMAP1 header with arbitrary float64 fields and a
payload of arbitrary bytes and length. Dimensions are drawn as small
integers often enough that the payload sometimes fits the header exactly.
Every map that reads is its payload, as a writable float32 array, holds
finite powers >= 0, and has finite, positive bin widths.
"""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmpcl import UnreadableMap, read_map
from ofdmpcl.mapfile import MAP_HEADER_BYTES, MAP_MAGIC

MAX_PAYLOAD_BYTES = 4096

edge_dimensions = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.5, 1.5, 2.0**53, 1e300]
# Valid dimensions come twice, so that about half of the draws are valid.
dimensions = st.one_of(
    st.integers(1, 24).map(float),
    st.integers(1, 24).map(float),
    st.floats(),
    st.sampled_from(edge_dimensions),
)
# About half of the bin widths are valid.
bin_widths = st.one_of(st.floats(1e-12, 1e12), st.floats())


@st.composite
def map_files(draw):
    m, d, delay_bin, doppler_bin = (draw(dimensions), draw(dimensions),
                                    draw(bin_widths), draw(bin_widths))
    if all(math.isfinite(x) and x == int(x) for x in (m, d)) and 0 <= m * d <= 1024:
        # Mostly the exact payload, sometimes a few bytes off.
        payload = int(4 * m * d) + draw(st.sampled_from([0, 0, 0, -4, -1, 1, 4]))
    else:
        payload = draw(st.integers(0, MAX_PAYLOAD_BYTES))
    header = MAP_MAGIC + struct.pack("<4d", m, d, delay_bin, doppler_bin)
    header += b"\x00" * (MAP_HEADER_BYTES - len(header))
    size = max(payload, 0)
    return header + draw(st.binary(min_size=size, max_size=size)), (m, d, delay_bin, doppler_bin)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(map_files())
def _read_map_returns_a_map_or_raises_unreadable(case):
    data, (m, d, delay_bin, doppler_bin) = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bin"
        path.write_bytes(data)
        try:
            smap = read_map(path)
        except UnreadableMap:
            return
    assert smap.power.shape == (m, d)
    assert (smap.delay_bin_s, smap.doppler_bin_hz) == (delay_bin, doppler_bin)
    assert 0 < delay_bin < math.inf and 0 < doppler_bin < math.inf
    # the payload itself, as a writable float32 map
    assert smap.power.dtype == np.float32 and smap.power.flags.writeable
    assert smap.power.tobytes() == data[MAP_HEADER_BYTES:]
    assert np.all(np.isfinite(smap.power)) and np.all(smap.power >= 0)


def test_read_map_returns_a_map_or_raises_unreadable():
    # Called from a plain test, as in test_scenario_property.py.
    _read_map_returns_a_map_or_raises_unreadable()
