"""Column sidecars: the columns a JSON-Lines writer held, kept beside the file it wrote.

`<file>.cols` is one JSON header line, then the raw little-endian columns one
after another.  The header holds the format tag, the byte length and CRC-32 of
the JSON-Lines file the columns were written with, the CRC-32 of the strings
and columns, each column's name, dtype and shape, and the strings of the
file: sensor ids, track id and kind.  Only the `io` writers write a sidecar.
The header is read and written with the standard library's `json`, so that a
command that reads its files from their sidecars loads no orjson.

This module is only the byte codec.  `read` returns the columns and strings
only if the sidecar matches the file byte for byte and holds exactly the
columns of a schema, with consistent lengths; it checks no value.  The
JSON-Lines file stays the authority: `io` builds its table from these columns
with the same functions that build a decoded file's table, and decodes the
file whenever that finds a fault or the sidecar does not match.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from pathlib import Path

import numpy as np

TAG = "vruradar.cols.v1"
_MAX_HEADER = 1 << 20  # bytes; a longer first line is no header
_CHUNK = 1 << 18  # bytes of the JSON-Lines file read at a time for its CRC

# Each file's columns in order: name -> (dtype, first axis, further axes).  The first axis
# runs over the m scans ("m"), the m + 1 scan offsets ("m+1") or the n points ("n").
_SCANS = {"timestamp": ("<f8", "m", ()), "sensor": ("<i8", "m", ()),
          "offsets": ("<i8", "m+1", ())}
_POLAR = {name: ("<f8", "n", ()) for name in ("range_m", "azimuth", "radial_velocity",
                                               "amplitude")}
RADAR = {**_SCANS, **_POLAR}
TRUTH_LABELS = {"timestamp": ("<f8", "m", ()), "offsets": ("<i8", "m+1", ()),
                "index": ("<i8", "n", ()), "is_vru": ("|u1", "n", ())}
LABELED = {**_SCANS, **_POLAR, "ego": ("<f8", "n", (2,)), "global_xy": ("<f8", "n", (2,)),
           "index": ("<i8", "n", ()), "n_assigned": ("<i8", "m", ()),
           "vru_state": ("<f8", "m", (5,)), "bounding": ("<f8", "m", (5,))}


def path_of(path) -> Path:
    return Path(f"{os.fspath(path)}.cols")


def write(path, size: int, crc: int, columns: dict[str, np.ndarray], strings: dict) -> None:
    """The sidecar of the JSON-Lines file `path`, `size` bytes long with CRC-32 `crc`."""
    arrays = [np.ascontiguousarray(c, dtype=c.dtype.newbyteorder("<")) for c in columns.values()]
    payload_crc = _strings_crc(strings)
    for a in arrays:
        payload_crc = zlib.crc32(a, payload_crc)
    header = {"format": TAG, "jsonl_bytes": size, "jsonl_crc32": crc,
              "payload_crc32": payload_crc, "strings": strings,
              "columns": [[name, a.dtype.str, list(a.shape)] for name, a in zip(columns, arrays)]}
    with open(path_of(path), "wb") as fh:
        fh.write(_canonical(header) + b"\n")
        for a in arrays:
            fh.write(a.data)


def _canonical(value, sort_keys: bool = False) -> bytes:
    """`value` as compact UTF-8 JSON: the bytes `orjson.dumps` gives, with
    `orjson.OPT_SORT_KEYS` if `sort_keys`, for the strings and integers of a header."""
    return json.dumps(value, sort_keys=sort_keys, separators=(",", ":"),
                      ensure_ascii=False).encode()


def _strings_crc(strings) -> int:
    """CRC-32 of the strings' canonical bytes: the payload CRC starts from it, so that it
    also covers the header's strings."""
    return zlib.crc32(_canonical(strings, sort_keys=True))


def _crc32(path) -> int:
    crc, buf = 0, bytearray(_CHUNK)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while k := fh.readinto(buf):
            crc = zlib.crc32(view[:k], crc)
    return crc


def read(path, schema: dict) -> tuple[dict[str, np.ndarray], dict] | None:
    """The columns and strings of the sidecar of `path`, or None unless it matches `path` and
    declares the columns of `schema`.  Each column is its own writable array."""
    try:
        with open(path_of(path), "rb") as fh:
            header = json.loads(fh.readline(_MAX_HEADER))
            declared, lengths = header["columns"], {}
            if (header["format"] != TAG or len(declared) != len(schema)
                    or os.stat(path).st_size != header["jsonl_bytes"]):
                return None
            for (name, dtype, shape), (want, (want_dtype, axis, inner)) in zip(declared,
                                                                              schema.items()):
                if not (name == want and dtype == want_dtype and type(shape) is list
                        and shape[1:] == list(inner) and len(shape) == 1 + len(inner)
                        and all(type(k) is int and k >= 0 for k in shape)  # one m, one n:
                        and lengths.setdefault(axis[0], (n := shape[0] - (axis == "m+1"))) == n):
                    return None
            sizes = [math.prod(shape) * np.dtype(dtype).itemsize for _, dtype, shape in declared]
            if fh.tell() + sum(sizes) != os.fstat(fh.fileno()).st_size:
                return None
            columns, crc = {}, _strings_crc(header["strings"])
            for (name, dtype, shape), size in zip(declared, sizes):
                buf = bytearray(size)  # a short read leaves zeros, which the CRC refuses
                fh.readinto(buf)
                crc = zlib.crc32(buf, crc)
                columns[name] = np.frombuffer(buf, dtype).reshape(shape)
        strings = header["strings"]
        if (crc != header["payload_crc32"] or type(strings) is not dict
                or _crc32(path) != header["jsonl_crc32"]):
            return None
        return columns, strings
    except (OSError, ValueError, KeyError, TypeError, RecursionError):  # json: a deep nesting
        return None
