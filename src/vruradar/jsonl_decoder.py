"""JSON-Lines text decoder of `io`'s radar, truth-label and labeled readers.

`io._read` imports this module only for a file that has no matching column
sidecar, or one whose values break a rule (decoding names the fault's line),
so that a command reading its files from their sidecars compiles none of it
and loads no orjson.  It checks per record only what typed
columns cannot hold (JSON structure and types, and each labeled record's
track and kind against the first), then hands the columns to `io`'s table
builders (`_scan_table`, `truth_labels`), which hold every value rule.

orjson decodes a line; the standard library's `json` (`io._decode_json`)
decodes a line orjson rejects, or names its fault.
"""

from __future__ import annotations

import math
import operator
from array import array
from itertools import chain, islice
from typing import Iterator, Sequence

import numpy as np
import orjson

from . import sidecar
from .core import LABEL_CLUTTER, LABEL_VRU, ScanTable, TruthLabels, finite_number, scan_offsets
from .io import (_BLOCK, _DECODER, _POINT, _POLAR_COLUMNS, BOUNDING_KEYS, LABELED_TAG,
                 POLAR_KEYS, RADAR_TAG, STATE_KEYS, TRUTH_LABELS_TAG, SchemaError,
                 _check_jsonl_header, _decode_json, _Fault, _open_text,
                 _scan_table, _track, json_string, truth_labels)


def decode(path, schema: dict):
    """The table of the JSON-Lines file `path`, of the sidecar schema `schema`, decoded from
    its text; a SchemaError names the first faulty line."""
    if schema is sidecar.TRUTH_LABELS:
        return _decode_truth_labels(path, schema)
    return _decode_scans(path, schema)


_INT64 = range(-2**63, 2**63)  # the idx values a point table holds


def _point_index(value) -> int:
    # bool is an int subclass, and a float or string index would be silently truncated.
    if type(value) is not int:
        raise ValueError(f"point idx must be an integer, got {value!r}")
    if value not in _INT64:
        raise ValueError(f"point idx {value} is outside int64")
    return value


def _check_numbers(values: Sequence, names: Sequence[str]) -> None:
    """A ValueError names the first of `values` that is not a JSON number a float can hold,
    values[k] as names[k % len(names)].  Whether a number is finite is a value rule, which
    the table builders check."""
    if not set(map(type, values)) <= {float}:
        for k, v in enumerate(values):
            if type(v) is not float:
                finite_number(v, names[k % len(names)])


def _pairs(column: tuple, key: str) -> list:
    """The flat values of a column of JSON [x, y] pairs; a ValueError names a point that
    holds no such pair."""
    if not (set(map(type, column)) <= {list} and set(map(len, column)) <= {2}):
        bad = next(q for q in column if type(q) is not list or len(q) != 2)
        raise ValueError(f"point {key!r} must be an [x, y] pair, got {bad!r}")
    values = [*chain.from_iterable(column)]
    _check_numbers(values, _POINT)
    return values


def _load_jsonl(path, tag: str, before_fault) -> Iterator[tuple[int, object]]:
    """Check the header line, then decode and yield one (line number, record) at a time.

    orjson decodes a line.  `_decode_json` decodes a line that orjson rejects,
    or names its fault: NaN, 1e400, a lone surrogate escape, a byte that is not
    UTF-8, or text after the JSON value.  `before_fault()` is called first, so that a
    reader can name a fault of an earlier record instead."""
    with _open_text(path) as fh:
        header = fh.readline()
        if not header:
            raise SchemaError("empty file", path, 1)
        _check_jsonl_header(_decode_json(header, "header line", path, 1), tag, path)
        for i, line in enumerate(fh, start=2):
            if line != "\n":
                try:
                    rec = orjson.loads(line)
                except ValueError:
                    try:
                        rec = _decode_json(line, "record", path, i)
                    except SchemaError:
                        before_fault()
                        raise
                yield i, rec


def _json_record(path, line: int):
    """The record at `line` of a JSONL file as json decodes it.  orjson reads an integer
    literal beyond 64 bits as a float and json as an int, so a reader that finds a faulty
    point idx reads its line again here, to name the idx by its literal."""
    with _open_text(path) as fh:
        return _DECODER.decode(next(islice(fh, line - 1, None)))


class _Decoded:
    """The columns of a radar or labeled file, decoded a record at a time and converted to
    arrays a block at a time, so that no decoded record outlives its line.

    A reader checks what typed columns cannot hold (JSON structure and types), then
    appends the record's values to `values`, the flat lists of the columns of a sidecar
    schema.  `table` builds the table from the columns as from a sidecar, and names a
    fault at the line of its scan.
    """

    def __init__(self, path, schema: dict, build):
        self.path, self.schema, self.build = path, schema, build
        self.lines, self.counts, self.strings, self.codes, self.pending = [], [], {}, {}, 0
        self.values = {name: [] for name in schema if name != "offsets"}
        self.chunks = {name: [] for name in self.values}

    def add(self, line: int, size: int, **values) -> None:
        """Append the record at `line`, of `size` scans and points, and its values by column;
        a reader appends to `counts` the points of each scan."""
        if self.pending >= _BLOCK:
            self._convert()
        self.pending += size
        self.lines.append(line)
        for name, column in values.items():
            self.values[name] += column

    def _convert(self) -> None:
        for name, values in self.values.items():
            dtype, _, inner = self.schema[name]
            self.chunks[name].append(np.array(values, dtype=dtype).reshape(-1, *inner))
            values.clear()
        self.pending = 0

    def fail(self, line: int, message: str):
        """Raise the fault of an earlier record, or else `message` at `line`."""
        self.table()
        raise SchemaError(message, self.path, line)

    def table(self):
        """The table of the records added, built by `build`."""
        self._convert()
        columns = {name: np.concatenate(self.chunks.pop(name)) for name in list(self.chunks)}
        columns["offsets"] = scan_offsets(self.counts)
        try:
            return self.build(columns, {**self.strings, "sensor_ids": list(self.codes)})
        except _Fault as fault:  # (message, k)
            raise SchemaError(fault.args[0], self.path, self.lines[fault.args[1]]) from None


# --- Truth labels -----------------------------------------------------------

_TRUTH_LABEL = operator.itemgetter("t", "idx", "label")


def _decode_truth_labels(path, schema: dict) -> TruthLabels:
    """The table of a truth-label file.  Its records are checked one at a time for what
    typed columns cannot hold, and appended to the columns of `io.truth_labels`, which
    checks the rest: a run of records with one `t` is one scan."""
    times, starts, index, is_vru, t = [], [], array("q"), bytearray(), None

    def table() -> TruthLabels:
        columns = {"timestamp": np.array(times, dtype=float),
                   "offsets": np.array([*starts, len(index)], dtype=np.int64),
                   "index": np.frombuffer(index, np.int64),
                   "is_vru": np.frombuffer(is_vru, np.uint8)}
        try:
            return truth_labels(columns)
        except _Fault as fault:  # (message, row)
            raise SchemaError(fault.args[0], path, _record_line(path, fault.args[1])) from None

    for i, rec in _load_jsonl(path, TRUTH_LABELS_TAG, table):
        try:
            raw_t, idx, label = _TRUTH_LABEL(rec)
            if raw_t != t or type(raw_t) is not float:  # the points of a scan share t
                times.append(finite_number(raw_t, "t"))
                starts.append(len(index))
                t = raw_t
            if type(idx) is not int or idx not in _INT64:
                _point_index(_json_record(path, i)["idx"])
            if label not in (LABEL_VRU, LABEL_CLUTTER):
                raise ValueError(f"label must be {LABEL_VRU!r} or {LABEL_CLUTTER!r}, got {label!r}")
        except (KeyError, TypeError, ValueError) as exc:
            table()
            raise SchemaError(f"bad label record: {exc}", path, i) from None
        index.append(idx)
        is_vru.append(label == LABEL_VRU)
    return table()


def _record_line(path, row: int) -> int:
    """The line of record `row` (from 0) of a JSON-Lines file: blank lines hold none."""
    with _open_text(path) as fh:
        lines = (i for i, line in enumerate(fh, start=1) if i > 1 and line != "\n")
        return next(islice(lines, row, None))


# --- Radar and labeled scans --------------------------------------------------

_NO_POINTS = ((),) * 7
_POLAR = operator.itemgetter(*POLAR_KEYS)


_LABELED_POINT = operator.itemgetter(*POLAR_KEYS, "idx", "ego", "global")
_STATE = operator.itemgetter(*STATE_KEYS)
_BOUNDING = operator.itemgetter(*BOUNDING_KEYS)


def _decode_scans(path, schema: dict) -> ScanTable:
    """The table of a radar or labeled file (`schema` is `sidecar.RADAR` or `LABELED`)."""
    labeled, scans, track, values = "index" in schema, _Decoded(path, schema, _scan_table), None, {}
    for i, rec in _load_jsonl(path, LABELED_TAG if labeled else RADAR_TAG, scans.table):
        try:
            t, sensor_id = rec["t"], rec["sensor_id"]
            if type(t) is not float:
                t = finite_number(t, "t")
            if type(sensor_id) is not str:
                json_string(sensor_id, "sensor_id")
            if labeled:
                state, bounding = _STATE(rec["vru_state"]), rec.get("bounding")
                bounding = bounding if bounding is None else _BOUNDING(bounding)
                _check_numbers(state + (bounding or ()), STATE_KEYS + BOUNDING_KEYS)
                assigned = rec["assigned"]
                points = assigned + rec["rejected"]
            else:
                points = rec["points"]
            if type(points) is not list:
                raise ValueError(f"points must be a list, got {points!r}")
            columns = list(zip(*map(_LABELED_POINT if labeled else _POLAR, points))) or _NO_POINTS
            for column in columns[:4]:
                _check_numbers(column, _POINT)
            if labeled:
                idx, ego, glob = columns[4:]
                if idx and not (set(map(type, idx)) <= {int} and min(idx) in _INT64
                                and max(idx) in _INT64):
                    literal = _json_record(path, i)
                    literal = [q["idx"] for q in literal["assigned"] + literal["rejected"]]
                    _point_index(next(x for x in literal if type(x) is not int or x not in _INT64))
                this = rec["track_id"], rec["vru_kind"]
                if track is None:  # the builder checks the first record's track and kind
                    track = scans.strings["track_id"], scans.strings["vru_kind"] = this
                elif this != track:
                    this, first = _track(*this), _track(*track)
                    raise ValueError(f"track {this[0]!r} ({this[1].value}) differs from the "
                                     f"first record's {first[0]!r} ({first[1].value})")
                values = dict(index=idx, ego=_pairs(ego, "ego"), global_xy=_pairs(glob, "global"),
                              n_assigned=(len(assigned),), vru_state=state,
                              bounding=bounding or (math.nan,) * 5)
        except (KeyError, TypeError, ValueError) as exc:
            scans.fail(i, f"bad {'labeled' if labeled else 'radar'} record: {exc}")
        scans.counts.append(len(points))
        scans.add(i, 1 + len(points), timestamp=(t,),
                  sensor=(scans.codes.setdefault(sensor_id, len(scans.codes)),),
                  **dict(zip(_POLAR_COLUMNS, columns)), **values)
    return scans.table()
