"""Input helpers behind every loader: text and JSON reading, typed field
access, unknown-key refusal, number checks and the left-to-right float sum.

Each helper takes the error class to raise, so a loader reports its own
``ValueError`` subclass. This module imports nothing from the package.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def _non_negative(x: float) -> bool:
    """Finite and at least zero (False for NaN and the infinities)."""
    return math.isfinite(x) and x >= 0.0


def _positive(x: float) -> bool:
    """Finite and above zero (False for NaN and the infinities)."""
    return math.isfinite(x) and x > 0.0


def _invertible(x: float) -> bool:
    """Positive and finite with a finite reciprocal: a node capacity or a
    mean service time, which the simulator divides by. A subnormal one
    passes ``_positive`` but makes the quotient infinite."""
    return _positive(x) and _positive(1.0 / x)


def _typed(data: dict, key: str, default, types: tuple, what: str, error: type):
    """``data[key]``, or ``default`` when absent (required if ``default`` is
    not of ``types``), refused with ``error`` unless of one of ``types``
    exactly: a bool is not an integer, and neither is 2.0 or "2"."""
    if type(data) is not dict:
        raise error(f"expected an object holding {key}, not {data!r}")
    value = data.get(key, default)
    if type(value) not in types:
        raise error(f"{key} must be {what}, not {value!r}" if key in data else f"{key} is required")
    return value


def _number(data: dict, key: str, default, error: type) -> float:
    """``_typed`` for a JSON number, as a float: the one place where input
    numbers become floats. An integer past the float range raises ``error``."""
    value = _typed(data, key, default, (int, float), "a number", error)
    try:
        return float(value)
    except OverflowError:
        raise error(f"{key} must be a number within the float range") from None


def _refuse_unknown(data, keys: frozenset, where: str, error: type) -> None:
    """Refuse a key the schema does not declare: ignored, a misspelt field
    would take its default. ``_typed`` refuses a value that is no object."""
    if type(data) is dict and not data.keys() <= keys:
        unknown = ", ".join(sorted(map(repr, data.keys() - keys)))
        raise error(f"unknown key(s) {unknown} in {where}")


def _objects(data: dict, key: str, default, keys: frozenset, error: type) -> list:
    """The list ``data[key]``, each of whose objects declares only ``keys``."""
    items = _typed(data, key, default, (list,), "a list", error)
    for i, item in enumerate(items):
        _refuse_unknown(item, keys, f"{key}[{i}]", error)
    return items


def _strings(data: dict, key: str, error: type) -> list:
    """The list of strings ``data[key]``, empty when absent."""
    items = _typed(data, key, [], (list,), "a list of strings", error)
    if not all(type(item) is str for item in items):
        raise error(f"{key} must be a list of strings, not {items!r}")
    return items


def _left_sum(values) -> float:
    """Float sum added left to right from 0.0. The built-in sum() adds
    floats with compensation since Python 3.12, so its bits depend on the
    interpreter; this gives Python 3.11's sum() bits on every version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _read_text(source, what: str, error: type[ValueError]) -> str:
    """Text input for every loader: a ``Path`` is a UTF-8 file to read, a
    ``str`` is the text itself. Anything else, or a file that cannot be
    read or decoded, raises ``error``."""
    if isinstance(source, Path):
        try:
            return source.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise error(f"cannot read {what} {source}: {exc}") from exc
    if isinstance(source, str):
        return source
    raise error(f"{what} must be a Path or text, not {type(source).__name__}")


def _load_json(source, what: str, kind: type, error: type[ValueError]):
    """The JSON document of type ``kind`` (``dict`` or ``list``) that
    ``source`` is, or that ``_read_text`` reads from it; else ``error``."""
    if type(source) is kind:
        return source
    where = f" {source}" if isinstance(source, Path) else ""
    try:
        data = json.loads(_read_text(source, what, error))
    except json.JSONDecodeError as exc:
        raise error(f"{what}{where} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{what}{where} is nested too deeply to parse") from None
    if type(data) is not kind:
        raise error(f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return data
