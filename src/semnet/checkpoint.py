"""Binary checkpoint container.

Layout: magic ``SEMCKPT1``, one format-version byte, then repeated records
of (uint16 name length, utf-8 name, uint8 dtype code, uint8 rank, rank
uint64 extents, raw element data), all little-endian, followed by a
CRC-32 (uint32) of every preceding byte. Arrays round-trip in insertion
order and bit-identically.

Writes are atomic: the container goes to a temporary file in the target's
directory, is flushed to disk, and then replaces the target, so a crash
mid-write leaves the previous checkpoint intact.
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from .errors import CheckpointError

MAGIC = b"SEMCKPT1"
FORMAT_VERSION = 1

# dtype codes: element width in bytes for floats, 1 for raw uint8 payloads.
_DTYPE_CODES = {
    np.dtype(np.uint8): 1,
    np.dtype(np.float32): 4,
    np.dtype(np.float64): 8,
}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}


def write_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    blob = bytearray()
    blob += MAGIC
    blob.append(FORMAT_VERSION)
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.ndim > 0:
            arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise CheckpointError(f"{name}: unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"name too long: {name[:40]}...")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        blob += little.tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 1 + 4:
        raise CheckpointError(f"{path}: file too short ({len(blob)} bytes)")
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:8]!r}")
    version = blob[len(MAGIC)]
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointError(
            f"{path}: CRC mismatch (stored {stored_crc:#010x}, actual {actual_crc:#010x})")

    arrays: dict[str, np.ndarray] = {}
    pos = len(MAGIC) + 1
    end = len(blob) - 4
    while pos < end:
        try:
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            code, rank = struct.unpack_from("<BB", blob, pos)
            pos += 2
            shape = struct.unpack_from(f"<{rank}Q", blob, pos)
            pos += 8 * rank
            dtype = _CODE_DTYPES.get(code)
            if dtype is None:
                raise CheckpointError(f"{path}: unknown dtype code {code} for {name!r}")
            count = math.prod(shape)  # a Python int: extents cannot wrap it
            nbytes = count * dtype.itemsize
            if pos + nbytes > end:
                raise CheckpointError(f"{path}: truncated record {name!r}")
            arr = np.frombuffer(blob, dtype=dtype.newbyteorder("<"),
                                count=count, offset=pos)
            arrays[name] = arr.astype(dtype).reshape(shape)
            pos += nbytes
        except (struct.error, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: malformed record table: {exc}") from exc
    if pos != end:
        raise CheckpointError(f"{path}: {end - pos} stray bytes before CRC")
    return arrays
