"""Binary snapshot format for fields.

Layout (little endian):
  magic   4 bytes  b"NLSF"
  version u32
  dim     u32
  per axis: N u64, h f64, x0 f64 (always -N*h/2; the reader rejects others)
  space   u8   always 0: a field is its samples on the grid above, and
               the reader rejects any other byte
  payload interleaved f64 (re, im) pairs, row-major
"""

import math
import struct

import numpy as np

from .core import ComplexField, GridDescriptor
from .errors import SnapshotFormatError

MAGIC = b"NLSF"
VERSION = 1

_HEADER = struct.Struct("<4sII")
_AXIS = struct.Struct("<Qdd")
_SAMPLE_BYTES = 16


def write_snapshot(path, field: ComplexField):
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, g.dim))
        for n, h, x0 in zip(g.counts, g.spacings, g.offsets):
            fh.write(_AXIS.pack(n, h, x0))
        fh.write(b"\x00")
        fh.write(np.ascontiguousarray(field.values, dtype="<c16").tobytes())


def read_snapshot(path) -> ComplexField:
    """Read a snapshot, checking every header field and the payload length.

    Raises SnapshotFormatError on a truncated or malformed file, or an x0 off -N*h/2.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    def bad(msg):
        return SnapshotFormatError(f"{path}: {msg}")

    if len(data) < _HEADER.size:
        raise bad(f"{len(data)} bytes, shorter than the {_HEADER.size}-byte header")
    magic, version, dim = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise bad(f"not a field snapshot: bad magic {magic!r}")
    if version != VERSION:
        raise bad(f"unsupported snapshot version {version}")
    if dim not in (1, 2):
        raise bad(f"dimension must be 1 or 2, got {dim}")
    head = _HEADER.size + dim * _AXIS.size + 1
    if len(data) < head:
        raise bad(f"header truncated: {len(data)} bytes, need {head}")
    axes = [_AXIS.unpack_from(data, _HEADER.size + i * _AXIS.size) for i in range(dim)]
    code = data[head - 1]
    if code != 0:
        raise bad(f"space byte is {code}, not 0")
    for n, h, x0 in axes:
        if abs(x0 + 0.5 * n * h) > 1e-12 * max(1.0, abs(0.5 * n * h)):
            raise bad(f"grid is not centered: x0={x0}, expected {-0.5 * n * h}")
    counts, spacings, _ = zip(*axes)
    expected = math.prod(counts) * _SAMPLE_BYTES
    if len(data) - head != expected:
        raise bad(
            f"payload holds {len(data) - head} bytes, counts {list(counts)} "
            f"need {expected}"
        )
    try:
        grid = GridDescriptor(counts, spacings)
        values = np.frombuffer(data, dtype="<c16", offset=head)
        return ComplexField(grid, values.astype(np.complex128))
    except ValueError as exc:
        raise bad(str(exc)) from exc
