"""Column sidecars: the columns a JSON-Lines writer held, kept beside the file it wrote.

`<file>.cols` is one JSON header line, then the raw little-endian columns one
after another.  The header holds the format tag, the byte length and CRC-32 of
the JSON-Lines file the columns were written with, the CRC-32 of the columns,
each column's name, dtype and shape, and the strings of the file: sensor ids,
track id and kind.  Only the `io` writers write a sidecar.

The JSON-Lines file stays the authority.  A reader builds its table from the
sidecar only if the sidecar matches the file byte for byte, holds exactly the
columns the reader expects, and its values pass the checks the JSON-Lines
reader makes, here by column.  Otherwise, whether the sidecar is missing,
stale or corrupt or the values are faulty, it returns None and the reader
decodes the file, which names a fault with its message and line.
"""

from __future__ import annotations

import math
import os
import zlib
from pathlib import Path

import numpy as np
import orjson

from .core import (LABEL_CLUTTER, LABEL_VRU, Detections, LabeledTable, ScanTable, VruKind,
                   rank_in_scan)
from .io import json_string

TAG = "vruradar.cols.v1"
_KINDS = tuple(kind.value for kind in VruKind)
_MAX_HEADER = 1 << 20  # bytes; a longer first line is no header
_CHUNK = 1 << 18  # bytes of the JSON-Lines file read at a time for its CRC

# Each file's columns in order: name -> (dtype, shape after the first axis).
_SCANS = {"timestamp": ("<f8", ()), "sensor": ("<i8", ()), "offsets": ("<i8", ())}
_POLAR = {name: ("<f8", ()) for name in ("range_m", "azimuth", "radial_velocity", "amplitude")}
RADAR = {**_SCANS, **_POLAR}
TRUTH_LABELS = {"timestamp": ("<f8", ()), "offsets": ("<i8", ()), "index": ("<i8", ()),
                "is_vru": ("|u1", ())}
LABELED = {**_SCANS, **_POLAR, "ego": ("<f8", (2,)), "global_xy": ("<f8", (2,)),
           "index": ("<i8", ()), "n_assigned": ("<i8", ()), "vru_state": ("<f8", (5,)),
           "bounding": ("<f8", (5,))}


def path_of(path) -> Path:
    return Path(f"{os.fspath(path)}.cols")


def write(path, size: int, crc: int, columns: dict[str, np.ndarray], strings: dict) -> None:
    """The sidecar of the JSON-Lines file `path`, `size` bytes long with CRC-32 `crc`."""
    arrays = [np.ascontiguousarray(c, dtype=c.dtype.newbyteorder("<")) for c in columns.values()]
    payload_crc = 0
    for a in arrays:
        payload_crc = zlib.crc32(a, payload_crc)
    header = {"format": TAG, "jsonl_bytes": size, "jsonl_crc32": crc,
              "payload_crc32": payload_crc, "strings": strings,
              "columns": [[name, a.dtype.str, list(a.shape)] for name, a in zip(columns, arrays)]}
    with open(path_of(path), "wb") as fh:
        fh.write(orjson.dumps(header, option=orjson.OPT_APPEND_NEWLINE))
        for a in arrays:
            fh.write(a.data)


def _crc32(path) -> int:
    crc, buf = 0, bytearray(_CHUNK)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while k := fh.readinto(buf):
            crc = zlib.crc32(view[:k], crc)
    return crc


def _read(path, schema: dict) -> tuple[dict[str, np.ndarray], dict] | None:
    """The columns and strings of the sidecar of `path`, or None unless it matches `path` and
    declares the columns of `schema`, in order.  Each column is its own writable array."""
    try:
        with open(path_of(path), "rb") as fh:
            header = orjson.loads(fh.readline(_MAX_HEADER))
            declared = header["columns"]
            if (header["format"] != TAG or len(declared) != len(schema)
                    or os.stat(path).st_size != header["jsonl_bytes"]):
                return None
            sizes = []
            for (name, dtype, shape), (expected, (want, inner)) in zip(declared, schema.items()):
                if not (name == expected and dtype == want and type(shape) is list
                        and shape[1:] == list(inner) and len(shape) == 1 + len(inner)
                        and all(type(k) is int and k >= 0 for k in shape)):
                    return None
                sizes.append(math.prod(shape) * np.dtype(dtype).itemsize)
            if fh.tell() + sum(sizes) != os.fstat(fh.fileno()).st_size:
                return None
            columns, crc = {}, 0
            for (name, dtype, shape), size in zip(declared, sizes):
                buf = bytearray(size)
                if fh.readinto(buf) != size:
                    return None
                crc = zlib.crc32(buf, crc)
                columns[name] = np.frombuffer(buf, dtype).reshape(shape)
        strings = header["strings"]
        if (crc != header["payload_crc32"] or type(strings) is not dict
                or _crc32(path) != header["jsonl_crc32"]):
            return None
        return columns, strings
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _ids(values) -> bool:
    """Whether `values` is a list of distinct strings that UTF-8 can encode."""
    try:
        return type(values) is list and len({json_string(v, "id") for v in values}) == len(values)
    except ValueError:
        return False


def _scans(columns: dict, n: int) -> bool:
    """Whether the scan columns pass the JSON-Lines reader's checks: scan `t` finite and
    strictly increasing per sensor, and offsets that cut `n` points into the scans."""
    t, offsets = columns["timestamp"], columns["offsets"]
    counts = np.diff(offsets)
    if not (len(offsets) == len(t) + 1 and offsets[0] == 0 and offsets[-1] == n
            and np.all(counts >= 0) and np.isfinite(t).all()):
        return False
    sensor = columns.get("sensor")
    if sensor is None:
        return True
    if len(sensor) != len(t):
        return False
    order = np.argsort(sensor, kind="stable")
    same = sensor[order][1:] == sensor[order][:-1]
    return not np.any(np.diff(t[order])[same] <= 0)


def _sensor_ids(columns: dict, strings: dict) -> np.ndarray | None:
    """Each scan's sensor id; None unless the ids are valid and every one is used."""
    names, sensor = strings.get("sensor_ids"), columns["sensor"]
    if not _ids(names) or np.any(sensor < 0) or np.any(sensor >= len(names)):
        return None
    if not np.bincount(sensor, minlength=len(names)).all():
        return None
    return np.asarray(names, dtype=str)[sensor]


def _polar(columns: dict) -> list[np.ndarray] | None:
    """The polar columns if they are finite with range >= 0."""
    polar = [columns[name] for name in _POLAR]
    if not all(np.isfinite(c).all() for c in polar) or np.any(polar[0] < 0):
        return None
    return polar


def radar_table(path) -> ScanTable | None:
    """The radar scans of `path` from its sidecar, or None (see the module docstring)."""
    got = _read(path, RADAR)
    if got is None:
        return None
    columns, strings = got
    polar = _polar(columns)
    if polar is None or not _scans(columns, len(polar[0])):
        return None
    sensor_id = _sensor_ids(columns, strings)
    if sensor_id is None:
        return None
    offsets = columns["offsets"]
    return ScanTable(columns["timestamp"], sensor_id, offsets,
                     Detections(*polar, index=rank_in_scan(offsets)))


def truth_labels(path) -> dict[tuple[float, int], str] | None:
    """The truth labels of `path` from its sidecar, or None (see the module docstring)."""
    got = _read(path, TRUTH_LABELS)
    if got is None:
        return None
    columns, _ = got
    index, is_vru = columns["index"], columns["is_vru"]
    if len(is_vru) != len(index) or np.any(is_vru > 1) or not _scans(columns, len(index)):
        return None
    t = np.repeat([round(t, 9) for t in columns["timestamp"].tolist()],
                  np.diff(columns["offsets"])).tolist()
    labels = (LABEL_CLUTTER, LABEL_VRU)
    out = dict(zip(zip(t, index.tolist()), map(labels.__getitem__, is_vru.tolist())))
    return out if len(out) == len(index) else None  # else a repeated (t, idx)


def _unique_in_scans(index: np.ndarray, offsets: np.ndarray) -> bool:
    """Whether no point idx appears twice within one scan."""
    scan = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    order = np.lexsort((index, scan))
    index, scan = index[order], scan[order]
    return not np.any((index[1:] == index[:-1]) & (scan[1:] == scan[:-1]))


def labeled_table(path) -> LabeledTable | None:
    """The labeled scans of `path` from its sidecar, or None (see the module docstring)."""
    got = _read(path, LABELED)
    if got is None:
        return None
    columns, strings = got
    polar = _polar(columns)
    if polar is None or not _scans(columns, len(polar[0])):
        return None
    m, offsets = len(columns["timestamp"]), columns["offsets"]
    index, ego, glob = columns["index"], columns["ego"], columns["global_xy"]
    n_assigned, state, bounding = columns["n_assigned"], columns["vru_state"], columns["bounding"]
    if not (len(index) == len(ego) == len(glob) == len(polar[0])
            and len(n_assigned) == len(state) == len(bounding) == m
            and np.all(n_assigned >= 0) and np.all(n_assigned <= np.diff(offsets))
            and np.isfinite(ego).all() and np.isfinite(glob).all()
            and np.isfinite(state).all() and np.all(state[:, 3] >= 0)
            and _unique_in_scans(index, offsets)):
        return None
    none = np.isnan(bounding[:, 0])  # a scan without a bounding ellipse
    given = bounding[~none]
    if not (np.isnan(bounding[none]).all() and np.isfinite(given).all()
            and np.all(given[:, 2:4] > 0)):
        return None
    track_id, kind = strings.get("track_id"), strings.get("vru_kind")
    if not (_ids([track_id]) and kind in _KINDS):
        return None
    sensor_id = _sensor_ids(columns, strings)
    if sensor_id is None:
        return None
    # A file without records names no track.
    track = (track_id, VruKind(kind)) if m else ("", VruKind.PEDESTRIAN)
    return LabeledTable(columns["timestamp"], sensor_id, offsets,
                        Detections(*polar, index=index, ego=ego, global_xy=glob), n_assigned,
                        state, bounding, *track)
