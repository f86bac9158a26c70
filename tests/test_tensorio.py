import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from asi.errors import DumpFormatError, NonFiniteError
from asi.tensorio import load_tensor, save_tensor


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
    path.write_bytes(b"ASIT" + bytes([9, 1]) + struct.pack("<I", 1) + struct.pack("<f", 0.0))
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
    path.write_bytes(b"ASIT" + bytes([1]) + tail)
    try:
        loaded = load_tensor(path)
    except DumpFormatError as exc:
        assert str(exc).startswith(str(path)), exc
    else:
        assert loaded.dtype == np.float64 and loaded.ndim >= 1


def test_a_nan_payload_is_a_dump_format_error_naming_the_path(tmp_path):
    # One float32 NaN behind a valid header: save_tensor never writes such a file.
    path = tmp_path / "nan.asit"
    path.write_bytes(b"ASIT" + bytes([1, 1]) + struct.pack("<I", 1) + struct.pack("<f", np.nan))
    with pytest.raises(DumpFormatError, match="NaN or Inf") as info:
        load_tensor(path)
    assert str(info.value).startswith(str(path))


def _dump(dims, payload: bytes, magic=b"ASIT", version=1, rank=None) -> bytes:
    rank = len(dims) if rank is None else rank
    return magic + bytes([version, rank]) + struct.pack(f"<{len(dims)}I", *dims) + payload


SMALL_DIMS = st.lists(st.integers(0, 3), min_size=1, max_size=4)
# A float32 with every exponent bit set, of either sign: Inf for a zero fraction, else a NaN.
NON_FINITE = st.builds(lambda frac, sign: struct.pack("<I", 0x7F800000 | frac | sign << 31),
                       st.integers(0, 2**23 - 1), st.integers(0, 1))


@st.composite
def bad_dumps(draw):
    """Bytes save_tensor never writes, one fault each."""
    dims = draw(SMALL_DIMS)
    payload = bytes(4 * math.prod(dims))  # zeros: finite
    kind = draw(st.sampled_from(["truncated", "magic", "version", "rank", "overflow", "dims",
                                 "non_finite"]))
    if kind == "truncated":
        whole = _dump(dims, payload)
        return whole[:draw(st.integers(0, 6 + 4 * len(dims) - 1))]
    if kind == "magic":
        return _dump(dims, payload, magic=draw(st.binary(min_size=4, max_size=4)
                                               .filter(lambda m: m != b"ASIT")))
    if kind == "version":
        return _dump(dims, payload, version=draw(st.integers(0, 255).filter(lambda v: v != 1)))
    if kind == "rank":  # rank 0, or a rank byte that promises more dims than there are
        return _dump(dims, payload,
                     rank=draw(st.sampled_from([0, len(dims) + 1 + len(payload) // 4])))
    if kind == "overflow":  # the product needs more than 64 bits; a few payload bytes
        big = draw(st.lists(st.integers(2**16, 2**32 - 1), min_size=4, max_size=8))
        return _dump(big, draw(st.binary(max_size=16)))
    if kind == "dims":  # more dims than NumPy allows, each 1, and one finite value
        return _dump([1] * draw(st.integers(65, 255)), struct.pack("<f", 1.0))
    count = draw(st.integers(1, 6))
    values = [struct.pack("<f", v) for v in draw(st.lists(st.floats(-1e3, 1e3), min_size=count,
                                                          max_size=count))]
    values[draw(st.integers(0, count - 1))] = draw(NON_FINITE)
    return _dump([count], b"".join(values))


@given(blob=bad_dumps())
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_bad_dump_is_a_dump_format_error_naming_the_path(tmp_path, blob):
    path = tmp_path / "bad.asit"
    path.write_bytes(blob)
    with pytest.raises(DumpFormatError) as info:
        load_tensor(path)
    assert str(info.value).startswith(str(path))


@given(array=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, min_side=0,
                                                     max_side=4)))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_array_save_tensor_accepts_round_trips(tmp_path, array):
    path = tmp_path / "t.asit"
    path.unlink(missing_ok=True)  # tmp_path is shared by every example
    try:
        save_tensor(path, array)
    except NonFiniteError:  # NaN, Inf or beyond float32: refused, and nothing is written
        assert not path.exists()
        return
    loaded = load_tensor(path)
    assert loaded.shape == array.shape and loaded.dtype == np.float64
    assert loaded.tobytes() == array.astype(np.float32).astype(np.float64).tobytes()
    assert save_tensor(tmp_path / "again.asit", loaded).read_bytes() == path.read_bytes()
