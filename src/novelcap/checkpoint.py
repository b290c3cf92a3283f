"""Flat binary checkpoint container.

Layout: magic "NVCP", format version, the vocabulary reference (a
string; ``train`` stores a digest of the vocabulary's words), then each
named parameter as (name, shape header, raw little-endian float64
data). Writing the same model twice produces identical bytes, and a
save/load round trip is bit-exact.
"""

import math
import os
import struct

import numpy as np

from .errors import CheckpointError
from .numerics import FLOAT

MAGIC = b"NVCP"
VERSION = 1


def _write_str(f, s: str) -> None:
    raw = s.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def _read_exact(f, n: int) -> bytes:
    # checked before reading, so a corrupt length never sizes an allocation
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise CheckpointError(f"checkpoint: file truncated (a field needs {n} more bytes)")
    return f.read(n)


def _read_str(f) -> str:
    (n,) = struct.unpack("<I", _read_exact(f, 4))
    try:
        return _read_exact(f, n).decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError("checkpoint: a name or vocabulary reference is not UTF-8") from None


def save_checkpoint(path, params: dict[str, np.ndarray], vocab_ref: str = "") -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        _write_str(f, vocab_ref)
        f.write(struct.pack("<I", len(params)))
        for name, arr in params.items():
            arr = np.ascontiguousarray(arr, dtype=FLOAT)
            _write_str(f, name)
            f.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Returns (named parameter arrays, vocabulary reference)."""
    with open(path, "rb") as f:
        if _read_exact(f, 4) != MAGIC:
            raise CheckpointError(f"checkpoint: {path} is not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exact(f, 4))
        if version != VERSION:
            raise CheckpointError(f"checkpoint: unsupported format version {version}")
        vocab_ref = _read_str(f)
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            name = _read_str(f)
            if name in params:
                raise CheckpointError(f"checkpoint: parameter {name!r} appears twice")
            (ndim,) = struct.unpack("<I", _read_exact(f, 4))
            if ndim > 2:
                raise CheckpointError(f"checkpoint: parameter {name!r} has {ndim} dimensions, not 1 or 2")
            shape = tuple(struct.unpack("<I", _read_exact(f, 4))[0] for _ in range(ndim))
            data = np.frombuffer(_read_exact(f, 8 * math.prod(shape)), dtype="<f8")
            params[name] = data.reshape(shape).astype(FLOAT)
        if f.read(1):
            raise CheckpointError("checkpoint: trailing bytes after the last parameter")
    return params, vocab_ref
