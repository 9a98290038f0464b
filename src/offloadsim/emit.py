"""Byte-stable text for every JSON output and for the run series files.

``json_text`` writes every JSON output: the run summary, the seed-sweep
summary and the ``partition``, ``decide`` and ``appstats`` reports. For a
payload of dicts with str keys, lists, strs, ints, floats, bools and None
its text is byte for byte ``json.dumps(payload, sort_keys=True, indent=2)``
plus a newline: keys in string order, strings by the json module's own
escaper, ints by ``int.__repr__`` whatever their size, floats by their repr
except NaN and the infinities. It is written directly, because with an
indent the json module runs its pure-Python encoder.

The series writers render a run's sample rows for the CSV and JSON series
files from one scan of the rows for changed loads (``_row_changes``).
"""

from __future__ import annotations

import csv
import io
import math
import operator
from itertools import compress
from json.encoder import encode_basestring_ascii

# How the json module spells the float reprs that are not JSON numbers.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_FLOAT = {float}
_INT = {int}


def json_text(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, written
    directly; raises TypeError for a value of another type, or a non-str
    key."""
    return _json_value(payload, "") + "\n"


def _json_value(value, indent: str) -> str:
    """One value as the json module writes it on a line indented by
    ``indent``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        text = repr(value)
        return _JSON_NONFINITE.get(text, text)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        return _json_object(value, indent)
    if kind is list:
        return _json_array(_json_texts(value, indent), indent)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_texts(values: list, indent: str) -> list[str]:
    """The text of each value of a list or dict that starts on a line
    indented by ``indent``; a run of floats alone, or of ints alone, is
    rendered in one pass."""
    kinds = set(map(type, values))
    if kinds == _FLOAT:
        return _json_floats(values)
    if kinds == _INT:
        return list(map(int.__repr__, values))
    inner = indent + "  "
    return [_json_value(v, inner) for v in values]


def _json_floats(values: list[float]) -> list[str]:
    """Each float (or int within the float range) as the json module
    writes it: its repr, except NaN and the infinities."""
    if math.isfinite(sum(values)):
        return list(map(repr, values))
    return [_JSON_NONFINITE.get(text, text) for text in map(repr, values)]


def _json_array(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Item texts laid out as ``json.dumps(indent=2)`` lays out a list that
    starts on a line indented by ``indent``, or with ``brackets="{}"`` an
    object whose items are ``"key": value`` texts."""
    if not items:
        return brackets
    sep = "\n" + indent + "  "
    return brackets[0] + sep + ("," + sep).join(items) + "\n" + indent + brackets[1]


def _json_object(obj: dict, indent: str) -> str:
    """A dict with str keys as ``json.dumps(sort_keys=True, indent=2)``
    writes it on a line indented by ``indent``."""
    keys = sorted(obj)
    texts = _json_texts([obj[k] for k in keys], indent)
    items = [f"{k}: {t}" for k, t in zip(map(encode_basestring_ascii, keys), texts)]
    return _json_array(items, indent, "{}")


def _json_cell(_i: int, value: float) -> str:
    text = repr(value)
    return _JSON_NONFINITE.get(text, text)


def _row_changes(rows) -> list:
    """Per row, what both series emitters render again: None for the
    previous row's list object, ``range(len(row))`` (all) for the first row
    and after a length change, else the indices whose float object changed.
    An identity test, so -0.0, NaN and the infinities always come out right;
    only the speed depends on what the rows share."""
    out = []
    prev = None
    for row in rows:
        if row is prev:
            out.append(None)
        elif prev is None or len(row) != len(prev):
            out.append(range(len(row)))
        else:
            out.append(list(compress(range(len(row)), map(operator.is_not, prev, row))))
        prev = row
    return out


def _row_cells(rows, changes, render_row, render_cell):
    """Yield each row's cells, the same list while the row repeats: in full
    by ``render_row(row)``, or as a copy of the previous cells with the
    ``changes`` entries rendered again by ``render_cell(i, value)``."""
    cells: list[str] = []
    for row, changed in zip(rows, changes):
        if type(changed) is range:
            cells = render_row(row)
        elif changed is not None:
            cells = cells.copy()
            size = len(cells)  # CSV cells stop at the last node id
            for i in changed:
                if i < size:
                    cells[i] = render_cell(i, row[i])
        yield cells


def _series_json(m, changes: list) -> str:
    """The series of a run ``m`` (a ``RunMetrics``), byte for byte
    ``json_text({"node_ids": ..., "samples": [{"time_ms": t, "loads": row},
    ...]})``, with each row's text built once while the next row is the
    same list object, from ``_row_cells``."""
    samples = []
    row_text = ""
    prev = None
    rows = _row_cells(m.sample_loads, changes, _json_floats, _json_cell)
    for t, cells in zip(_json_floats(m.sample_times_ms), rows):
        if cells is not prev:
            row_text = '{\n      "loads": ' + _json_array(cells, "      ")
            prev = cells
        samples.append(row_text + ',\n      "time_ms": ' + t + "\n    }")
    return (
        '{\n  "node_ids": '
        + _json_array(_json_texts(m.sample_node_ids, "  "), "  ")
        + ',\n  "samples": '
        + _json_array(samples, "  ")
        + "\n}\n"
    )


def _csv_id_cells(node_ids: list) -> list[str]:
    """``,node_id,`` for each id, quoted as ``csv.writer(lineterminator=
    "\\n")`` quotes a middle cell. An int needs no quoting, so an all-int
    list skips the writer."""
    if set(map(type, node_ids)) <= _INT:
        return [f",{nid}," for nid in node_ids]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for nid in node_ids:
        buf.seek(0)
        buf.truncate()
        writer.writerow(("", nid, ""))
        cells.append(buf.getvalue()[:-1])
    return cells


def _series_csv(m, changes: list) -> str:
    """The series of a run ``m``, byte for byte what
    ``csv.writer(lineterminator="\\n")`` writes for the header and one
    ``[repr(t), node_id, repr(load)]`` row per sample and node: no float
    repr needs quoting, and each node id is quoted once, by the writer
    itself. A row's ``,node_id,load`` cells come from ``_row_cells``."""
    out = ["time_ms,node_id,normalized_load\n"]
    ids = _csv_id_cells(m.sample_node_ids)
    rows = _row_cells(
        m.sample_loads,
        changes,
        lambda row: list(map(operator.concat, ids, map(repr, row))),
        lambda i, load: ids[i] + repr(load),
    )
    for t, cells in zip(m.sample_times_ms, rows):
        if cells:
            t_text = repr(t)
            out.append(t_text + ("\n" + t_text).join(cells) + "\n")
    return "".join(out)
