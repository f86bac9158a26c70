"""Binary tensor dump format used by every module that writes features or masks.

Layout, all little-endian:

    magic   4 bytes   b"ASIT"
    version 1 byte    0x01
    rank    1 byte
    dims    rank x uint32
    data    prod(dims) x float32, row-major

Values are stored as float32 even though all arithmetic is float64; loading
widens back to float64.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DumpFormatError, NonFiniteError

_MAGIC = b"ASIT"
_VERSION = 1

__all__ = ["save_tensor", "load_tensor"]


def save_tensor(path: str | Path, array: np.ndarray) -> Path:
    """Write `array` (rank 1 to 255, finite as float32) to `path`; returns the path.

    Bool, integer and float values are encoded; complex, string or object
    values and ragged lists are a DumpFormatError. The payload is encoded and
    checked first, and `path`'s directory is created only then, so a
    rejected array leaves the filesystem untouched.
    """
    try:
        a = np.asarray(array)
    except ValueError as exc:  # a ragged nested list
        raise DumpFormatError(f"{path}: ragged input has no encoding ({exc})") from exc
    if not 1 <= a.ndim <= 255:
        raise DumpFormatError(f"tensor rank must be in [1, 255], got {a.ndim}")
    if a.dtype.kind not in "biuf":  # a complex value would lose its imaginary part
        raise DumpFormatError(f"{path}: {a.dtype} values have no encoding in the dump format")
    if any(dim > 0xFFFFFFFF for dim in a.shape):  # before a copy of that size is tried
        raise DumpFormatError(f"dimension too large for uint32 header: {a.shape}")
    a = np.ascontiguousarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):
        values = a.astype("<f4")
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{path}: values must be finite as float32 (NaN, Inf or overflow)")
    header = _MAGIC + struct.pack("<BB", _VERSION, a.ndim)
    header += struct.pack(f"<{a.ndim}I", *a.shape)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:  # the payload is written from its own buffer, not a joined copy
        fh.write(header)
        fh.write(values)
    return path


def load_tensor(path: str | Path) -> np.ndarray:
    """Read a dump written by :func:`save_tensor`; returns float64 data.

    Any other bytes, a NaN or Inf value among them, are a DumpFormatError naming the path.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != _MAGIC:
        raise DumpFormatError(f"{path}: bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    if len(blob) < 6:
        raise DumpFormatError(f"{path}: truncated header, {len(blob)} of 6 bytes")
    version, rank = struct.unpack_from("<BB", blob, 4)
    if version != _VERSION:
        raise DumpFormatError(f"{path}: unsupported version {version}")
    if rank == 0:
        raise DumpFormatError(f"{path}: rank 0, expected a rank in [1, 255]")
    offset = 6 + 4 * rank
    if len(blob) < offset:
        raise DumpFormatError(f"{path}: truncated dims, {len(blob)} of {offset} header bytes")
    dims = struct.unpack_from(f"<{rank}I", blob, 6)
    # math.prod: exact Python ints, where np.prod would wrap around in int64.
    count = math.prod(dims)
    expected = offset + 4 * count
    if len(blob) != expected:
        raise DumpFormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    if not np.isfinite(flat).all():
        raise DumpFormatError(f"{path}: NaN or Inf in the payload, which save_tensor never writes")
    try:
        return flat.astype(np.float64).reshape(dims)
    except ValueError as exc:  # e.g. dims (0, 2**30, 2**30), or more dims than numpy allows
        raise DumpFormatError(f"{path}: cannot shape {count} values as {dims} ({exc})") from exc
