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

MAGIC = b"ASIT"
VERSION = 1

__all__ = ["MAGIC", "VERSION", "save_tensor", "load_tensor"]


def save_tensor(path: str | Path, array: np.ndarray) -> Path:
    """Write `array` (rank 1 to 255, finite as float32) to `path`; returns the path.

    The payload is encoded and checked first, and `path`'s directory is created
    only then, so a rejected array leaves the filesystem untouched.
    """
    a = np.ascontiguousarray(array, dtype=np.float64)
    if a.ndim < 1 or a.ndim > 255:
        raise DumpFormatError(f"tensor rank must be in [1, 255], got {a.ndim}")
    if any(dim > 0xFFFFFFFF for dim in a.shape):
        raise DumpFormatError(f"dimension too large for uint32 header: {a.shape}")
    with np.errstate(over="ignore"):
        values = a.astype("<f4")
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{path}: values must be finite as float32 (NaN, Inf or overflow)")
    header = MAGIC + struct.pack("<BB", VERSION, a.ndim)
    header += struct.pack(f"<{a.ndim}I", *a.shape)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + values.tobytes(order="C"))
    return path


def load_tensor(path: str | Path) -> np.ndarray:
    """Read a dump written by :func:`save_tensor`; returns float64 data."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise DumpFormatError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < 6:
        raise DumpFormatError(f"{path}: truncated header, {len(blob)} of 6 bytes")
    version, rank = struct.unpack_from("<BB", blob, 4)
    if version != VERSION:
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
    try:
        return flat.astype(np.float64).reshape(dims)
    except ValueError as exc:  # e.g. dims (0, 2**30, 2**30), or more dims than numpy allows
        raise DumpFormatError(f"{path}: cannot shape {count} values as {dims} ({exc})") from exc
