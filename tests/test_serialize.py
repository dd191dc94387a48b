"""Property tests of the field files a trajectory directory stores: a write
and a read give back the same bits, and a damaged file is refused with
OTFlowError (the replay path's exit 1), never a bare traceback."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otflow import domains, grid, serialize
from otflow.errors import OTFlowError

#: the header names this grid; the values need not be fields on it
GRID = grid.CurvilinearGrid(domains.Disk(1.0), 4, 8)

#: every float64, NaN, +-inf and -0.0 included
VALUES = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                                 min_side=0, max_side=6),
                    elements=st.floats(allow_nan=True, allow_infinity=True))

#: bytes that never occur in UTF-8 text
NOT_UTF8 = st.sampled_from([0xc0, 0xc1] + list(range(0xf5, 0x100)))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fields") / "f.field"


def _write(path, values, t=0.0):
    serialize.write_field(path, values, GRID, t, "u")
    return path.read_bytes()


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(values=VALUES, t=st.floats(allow_nan=False, allow_infinity=False))
def test_round_trip_is_bitwise(path, values, t):
    _write(path, values, t)
    header, back = serialize.read_field(path)
    assert back.dtype == np.float64
    assert back.shape == values.shape
    assert back.tobytes() == values.astype("<f8").tobytes()
    assert header["t"] == t and header["shape"] == list(values.shape)


def test_round_trip_keeps_signed_zero_nan_and_infinities(path):
    values = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324])
    _write(path, values)
    assert serialize.read_field(path)[1].tobytes() == values.tobytes()


@seed(20261020)
@settings(max_examples=100, deadline=None, database=None)
@given(values=VALUES.filter(lambda a: a.size > 0), data=st.data())
def test_truncated_payload_is_refused(path, values, data):
    raw = _write(path, values)
    cut = data.draw(st.integers(1, 8 * values.size), label="bytes cut")
    path.write_bytes(raw[:-cut])
    with pytest.raises(OTFlowError, match="corrupt field file"):
        serialize.read_field(path)


@seed(20261021)
@settings(max_examples=100, deadline=None, database=None)
@given(values=VALUES, data=st.data())
def test_garbled_header_is_refused(path, values, data):
    raw = _write(path, values)
    head_len = raw.index(b"\n")
    at = data.draw(st.integers(0, head_len - 1), label="position")
    if data.draw(st.booleans(), label="cut the line"):
        # a proper prefix of a JSON object is never valid JSON
        garbled = raw[:at] + raw[head_len:]
    else:
        garbled = raw[:at] + bytes([data.draw(NOT_UTF8, label="byte")]) + raw[at + 1:]
    path.write_bytes(garbled)
    with pytest.raises(OTFlowError, match="corrupt field file"):
        serialize.read_field(path)
