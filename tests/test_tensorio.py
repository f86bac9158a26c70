import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from asi.errors import DumpFormatError, NonFiniteError
from asi.tensorio import MAGIC, load_tensor, save_tensor


def test_exact_byte_layout(tmp_path):
    path = tmp_path / "t.asit"
    save_tensor(path, np.array([[1.0, 2.0]]))
    expected = (
        b"ASIT"
        + bytes([1, 2])  # version, rank
        + struct.pack("<2I", 1, 2)
        + struct.pack("<2f", 1.0, 2.0)
    )
    assert path.read_bytes() == expected


@pytest.mark.parametrize("scalar", [np.float64(1.0), np.array(1.0), 1.0],
                         ids=["numpy-scalar", "0d-array", "python-float"])
def test_rank_0_is_rejected_and_writes_nothing(tmp_path, scalar):
    path = tmp_path / "sub" / "t.asit"
    with pytest.raises(DumpFormatError, match=r"rank must be in \[1, 255\], got 0$"):
        save_tensor(path, scalar)
    assert list(tmp_path.iterdir()) == []


def test_dimension_beyond_uint32_is_rejected(tmp_path):
    too_wide = np.empty((0, 2**32))  # zero entries: nothing is allocated
    with pytest.raises(DumpFormatError, match="too large for uint32"):
        save_tensor(tmp_path / "t.asit", too_wide)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "shape", [(4,), (3, 5), (2, 3, 4)], ids=["rank1", "rank2", "rank3"]
)
def test_roundtrip(tmp_path, shape):
    rng = np.random.default_rng(0)
    original = rng.standard_normal(shape)
    path = save_tensor(tmp_path / "t.asit", original)
    loaded = load_tensor(path)
    assert loaded.shape == shape
    assert loaded.dtype == np.float64
    # storage is float32, so the roundtrip quantizes once and then is exact
    assert np.array_equal(loaded, original.astype(np.float32).astype(np.float64))


def test_save_load_save_is_idempotent(tmp_path):
    data = np.arange(24, dtype=float).reshape(2, 3, 4) / 7.0
    first = save_tensor(tmp_path / "a.asit", data)
    second = save_tensor(tmp_path / "b.asit", load_tensor(first))
    assert first.read_bytes() == second.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.asit"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(DumpFormatError, match="magic"):
        load_tensor(path)


def test_bad_version(tmp_path):
    path = tmp_path / "bad.asit"
    path.write_bytes(MAGIC + bytes([9, 1]) + struct.pack("<I", 1) + struct.pack("<f", 0.0))
    with pytest.raises(DumpFormatError, match="version"):
        load_tensor(path)


def test_truncated_payload(tmp_path):
    path = save_tensor(tmp_path / "t.asit", np.ones((2, 2)))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(DumpFormatError, match="bytes"):
        load_tensor(path)


@pytest.mark.parametrize("size", [4, 5, 8], ids=["magic_only", "no_rank", "short_dims"])
def test_truncated_header(tmp_path, size):
    path = save_tensor(tmp_path / "t.asit", np.ones((2, 2)))
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(DumpFormatError, match="truncated") as info:
        load_tensor(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "values", [[1e39], [0.0, -1e39], [float("nan")]], ids=["above", "below", "nan"]
)
def test_values_not_finite_as_float32_raise_and_write_nothing(tmp_path, values):
    path = tmp_path / "t.asit"
    with pytest.raises(NonFiniteError, match="finite") as info:
        save_tensor(path, np.array(values))
    assert str(path) in str(info.value)
    assert not path.exists()


def test_mask_values_survive_exactly(tmp_path):
    mask = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    loaded = load_tensor(save_tensor(tmp_path / "m.asit", mask))
    assert np.array_equal(loaded, mask)


@st.composite
def headers(draw):
    """Rank byte, dims and payload after the magic and version; some are valid."""
    rank = draw(st.integers(0, 4))
    dim = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))
    dims = draw(st.lists(dim, min_size=rank, max_size=rank))
    payload = draw(st.binary(max_size=64))
    return bytes([rank]) + struct.pack(f"<{rank}I", *dims) + payload


@given(tail=st.one_of(st.binary(max_size=40), headers()))
@example(tail=bytes([4]) + struct.pack("<4I", *[65536] * 4))  # prod wraps to 0 in int64
@example(tail=bytes([2]) + struct.pack("<2I", 2**32 - 1, 2**32 - 1))
@example(tail=bytes([0]))
@example(tail=bytes([3]) + struct.pack("<3I", 0, 2**30, 2**30))  # 0 values, shape too big
@example(tail=bytes([65]) + struct.pack("<65I", *[1] * 65) + bytes(4))  # too many dims
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_bytes_load_or_raise_naming_the_path(tmp_path, tail):
    path = tmp_path / "fuzz.asit"
    path.write_bytes(MAGIC + bytes([1]) + tail)
    try:
        loaded = load_tensor(path)
    except DumpFormatError as exc:
        assert str(exc).startswith(str(path)), exc
    else:
        assert loaded.dtype == np.float64 and loaded.ndim >= 1
