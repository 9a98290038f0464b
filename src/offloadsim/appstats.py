"""Corpus statistics for app package overlap and dedup storage savings.

An app corpus records, per app, its dex size and a package-path to
class-count map. Overlap is judged on package-name prefixes of a chosen
depth N: a prefix present in two or more apps marks those classes as
shared. Obfuscated packages (any single-letter segment) and packages
shallower than N can never match across apps, so their classes count as
app-private.

Corpus line format (tab separated)::

    app_id<TAB>dex_size_bytes<TAB>com.foo.bar=12;com.foo.util=3

Savings model: keeping one copy per shared prefix group against the naive
sum of all dex sizes. Sizes are prorated per class, so every app must
declare a class. The copy kept is priced at the sharer with the largest
per-class size; ties prefer the larger class count, and sharers equal in
both price it alike.

``unique_class_fraction`` reports both statistics from one pass over the
corpus that maps each distinct package path once to its shared key
(``_shared_key``), which splits the path once and tests it with one C-level
scan of the segment lengths for a one-character segment. A path with a
one-character segment is obfuscated and has no key at any depth; an empty
segment, as in ``com..lib``, is not one.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, itemgetter

from ._inputs import _read_text
from .emit import _write_text


class CorpusError(ValueError):
    """Raised for malformed corpus input."""


_INT = frozenset([int])
_STR = frozenset([str])


@dataclass
class AppRecord:
    """One app: identifier, dex size, and per-package class counts.

    The id, packages, size and counts pass ``_check_record``, the checks that
    ``parse_corpus`` applies, so that ``write_corpus`` writes only what it
    reads back; ``write_corpus`` runs them again, since fields may change
    after construction. ``parse_corpus`` has checked every value by then and
    builds its records without these checks.
    """

    app_id: str
    dex_size_bytes: int
    packages: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        _check_record(self)


def _check_record(app: AppRecord) -> None:
    """Refuse, naming the app, what ``parse_corpus`` refuses in a line: an
    id or package that is not a string, a size or count that is not an
    integer (a bool is not), a negative size, or a count below 1."""
    if type(app.app_id) is not str:
        raise CorpusError(f"app id {app.app_id!r} is not a string")
    # C-level passes for the common case; a failure is traced in Python.
    if not _STR.issuperset(map(type, app.packages)):
        bad = next(p for p in app.packages if type(p) is not str)
        raise CorpusError(f"app {app.app_id!r}: package {bad!r} is not a string")
    size = app.dex_size_bytes
    if type(size) is not int:
        raise CorpusError(f"app {app.app_id!r}: dex size {size!r} is not an integer")
    if size < 0:
        raise CorpusError(f"app {app.app_id!r}: dex size must be non-negative")
    counts = app.packages.values()
    if counts and (not _INT.issuperset(map(type, counts)) or min(counts) < 1):
        for count in counts:
            if type(count) is not int:
                raise CorpusError(f"app {app.app_id!r}: class count {count!r} is not an integer")
            if count < 1:
                raise CorpusError(f"app {app.app_id!r}: class count must be at least 1")


@dataclass
class Corpus:
    """Apps with distinct ids. ``apps`` stays a plain list that callers may
    append to, so the reports and ``write_corpus`` check the ids again."""

    apps: list[AppRecord] = field(default_factory=list)

    def __post_init__(self):
        _check_ids(self.apps)


def _check_ids(apps: list[AppRecord]) -> None:
    ids = [app.app_id for app in apps]
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for app_id in ids:
            if app_id in seen:
                raise CorpusError(f"duplicate app id {app_id!r}")
            seen.add(app_id)


def _parsed_record(app_id: str, dex_size_bytes: int, packages: dict[str, int]) -> AppRecord:
    """An ``AppRecord`` of values that ``parse_corpus`` has checked, built
    without running the record checks a second time."""
    record = object.__new__(AppRecord)
    record.app_id = app_id
    record.dex_size_bytes = dex_size_bytes
    record.packages = packages
    return record


def parse_corpus(source) -> Corpus:
    """Read the tab-separated corpus format from a file (``Path``) or its
    text (``str``)."""
    text = _read_text(source, "corpus", CorpusError)
    apps: list[AppRecord] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 2 and "\t" in raw[len(raw.rstrip()):]:
            # write_corpus gives an app without packages an empty last field.
            raise CorpusError(f"line {line_no}: app {parts[0]!r} declares no classes")
        if len(parts) != 3:
            raise CorpusError(
                f"line {line_no}: expected 'app_id<TAB>dex_size<TAB>packages', got {raw!r}"
            )
        app_id, size_text, pkg_text = parts
        if not app_id:
            raise CorpusError(f"line {line_no}: empty app id")
        try:
            dex_size = int(size_text)
        except ValueError:
            raise CorpusError(f"line {line_no}: dex size {size_text!r} is not an integer") from None
        if dex_size < 0:
            raise CorpusError(f"line {line_no}: dex size must be non-negative")
        packages: dict[str, int] = {}
        for chunk in pkg_text.split(";"):
            if not chunk:
                raise CorpusError(f"line {line_no}: empty package entry")
            pkg, eq, count_text = chunk.partition("=")
            if not eq:
                raise CorpusError(f"line {line_no}: package entry {chunk!r} lacks '=count'")
            if not pkg:
                raise CorpusError(f"line {line_no}: empty package path")
            try:
                count = int(count_text)
            except ValueError:
                raise CorpusError(
                    f"line {line_no}: class count {count_text!r} is not an integer"
                ) from None
            if count < 1:
                raise CorpusError(f"line {line_no}: class count must be at least 1")
            if pkg in packages:
                raise CorpusError(f"line {line_no}: duplicate package {pkg!r}")
            packages[pkg] = count
        apps.append(_parsed_record(app_id, dex_size, packages))
    return Corpus(apps=apps)


#: What an id or package cannot hold in a corpus file: the field, entry and
#: count separators, and every line break of ``str.splitlines``.
_UNCARRIED = "\t;=\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _holds_uncarried(text: str) -> bool:
    return any(ch in text for ch in _UNCARRIED)


def _uncarried(app_id) -> CorpusError:
    return CorpusError(f"app {app_id!r}: a corpus file cannot carry its id or a package")


def write_corpus(corpus: Corpus, path) -> None:
    """Write the corpus in the format ``parse_corpus`` reads.

    Raises ``CorpusError``, naming an app, for an id or package that the
    format cannot carry: one holding a tab, ``;``, ``=`` or any line break
    of ``str.splitlines``, an empty package, or an id that is empty, starts
    with ``#`` or has surrounding whitespace, and for an id, package, size
    or count that fails the record checks (``_check_record``), which run
    again here since a record's fields may have changed after construction.
    An app without packages is written, and ``parse_corpus`` refuses it.
    """
    _check_ids(corpus.apps)
    lines = []
    for app in corpus.apps:
        _check_record(app)
        app_id = app.app_id
        if not app_id or app_id[0] == "#" or app_id.strip() != app_id or "" in app.packages:
            raise _uncarried(app_id)
        pkgs = ";".join(f"{p}={c}" for p, c in sorted(app.packages.items()))
        lines.append(f"{app_id}\t{app.dex_size_bytes}\t{pkgs}")
    # One scan over every id and package; only a hit is traced to its app.
    names = [app.app_id + "".join(app.packages) for app in corpus.apps]
    if _holds_uncarried("".join(names)):
        raise _uncarried(next(a.app_id for a, n in zip(corpus.apps, names) if _holds_uncarried(n)))
    _write_text(path, "\n".join(lines) + "\n")


def _shared_key(path: str, depth: int) -> str | None:
    """First ``depth`` segments of a package, or None when it can never
    match across apps (obfuscated, or shallower than ``depth``)."""
    segments = path.split(".")
    if len(segments) < depth or 1 in map(len, segments):
        return None
    return ".".join(segments[:depth])


@dataclass
class OverlapReport:
    """Corpus-level overlap summary at one prefix depth.

    Unique fractions are percentages (0..100); savings is a fraction (0..1).
    """

    depth: int
    per_app_unique_fraction: dict[str, float]
    mean_unique_fraction: float
    median_unique_fraction: float
    storage_savings: float


def _overlap(corpus: Corpus, depth: int) -> tuple[list[tuple], dict[str, list[str]], float]:
    """Classify every package once. Returns one tally per app (corpus
    order), the keys held by two or more apps, in key order, each with its
    holder ids in corpus order, and the corpus's total dex bytes as a float.
    A tally is the tuple ``(app_id, total, class_size, unique, by_key)``:
    classes in all, bytes per class, classes no other app shares, count
    per key.

    Here the report first turns sizes into floats. A corpus whose total
    dex size lies past the float range is refused; every app's size, and
    so its per-class size, is at most that total."""
    if depth < 1:
        raise CorpusError("prefix depth must be at least 1")
    if not corpus.apps:
        raise CorpusError("corpus holds no apps")
    _check_ids(corpus.apps)
    try:
        naive = float(sum(map(attrgetter("dex_size_bytes"), corpus.apps)))
    except OverflowError:
        raise CorpusError("total dex size must be within the float range") from None
    rows: list[tuple[AppRecord, int, dict[str, int]]] = []
    holders: dict[str, list[str]] = {}
    keys: dict[str, str | None] = {}  # library paths recur across apps
    for app in corpus.apps:
        private = 0
        by_key: dict[str, int] = {}
        for pkg, count in app.packages.items():
            if pkg in keys:
                key = keys[pkg]
            else:
                key = keys[pkg] = _shared_key(pkg, depth)
            if key is None:
                private += count
            elif key in by_key:
                by_key[key] += count
            else:
                by_key[key] = count
                held = holders.get(key)
                if held is None:
                    holders[key] = [app.app_id]
                else:
                    held.append(app.app_id)
        rows.append((app, private, by_key))
    shared = {k: h for k, h in sorted(holders.items()) if len(h) >= 2}
    is_shared = shared.__contains__
    tallies = []
    for app, private, by_key in rows:
        counts = by_key.values()
        keyed = sum(counts)
        total = private + keyed
        if not total:
            raise CorpusError(f"app {app.app_id!r} declares zero classes")
        size = app.dex_size_bytes / total
        unique = private + keyed - sum(compress(counts, map(is_shared, by_key)))
        tallies.append((app.app_id, total, size, unique, by_key))
    return tallies, shared, naive


def _savings(tallies: list[tuple], shared: dict[str, list[str]], naive: float) -> float:
    if naive == 0.0:
        return 0.0
    dedup = 0.0
    for _, _, size, unique, _ in tallies:
        dedup += unique * size
    sizes = {t[0]: t[2] for t in tallies}
    by_keys = {t[0]: t[4] for t in tallies}
    for key, ids in shared.items():
        # The copy kept is the holder's with the largest per-class size, then
        # the larger count; holders that tie on both price it alike.
        counts = map(itemgetter(key), map(by_keys.__getitem__, ids))
        size, count = max(zip(map(sizes.__getitem__, ids), counts))
        dedup += count * size
    saving = 1.0 - dedup / naive
    return saving if saving > 0.0 else 0.0


def unique_class_fraction(corpus: Corpus, depth: int) -> OverlapReport:
    """Percentage of each app's classes that no other app shares at
    prefix depth N, plus the corpus storage savings at that depth."""
    tallies, shared, naive = _overlap(corpus, depth)
    per_app = {app_id: 100.0 * unique / total for app_id, total, _, unique, _ in tallies}
    values = list(per_app.values())
    return OverlapReport(
        depth=depth,
        per_app_unique_fraction=per_app,
        mean_unique_fraction=statistics.fmean(values),
        median_unique_fraction=statistics.median(values),
        storage_savings=_savings(tallies, shared, naive),
    )


#: The libraries synth_corpus draws from, as (path, class count) pairs. No
#: path is a name the generator gives an app's own package.
DEFAULT_LIBRARY_POOL = [
    ("com.google.gms.ads.internal", 420),
    ("com.google.gms.common.util", 160),
    ("com.squareup.okhttp.internal", 310),
    ("com.squareup.okio.core", 90),
    ("com.fasterxml.jackson.databind", 540),
    ("org.apache.commons.lang", 220),
    ("io.reactivex.internal.operators", 380),
    ("com.bumptech.glide.load", 270),
    ("retrofit2.converter.gson", 60),
    ("androidx.appcompat.widget", 480),
]

#: The chance that an app holds each pool library.
_INCLUSION_PROB = 0.35
#: The segments of obfuscated package names.
_LETTERS = "abcdefghijklmnop"


@dataclass
class SynthCorpus:
    """Synthetic corpus plus its planted ground truth."""

    corpus: Corpus
    placements: dict[str, list[str]]  # library path -> sorted holder app ids


def synth_corpus(n_apps: int, seed=0) -> SynthCorpus:
    """Generate a corpus with known shared-library structure.

    Each app draws every ``DEFAULT_LIBRARY_POOL`` library independently
    with probability 0.35, then adds 4 deep app-private packages and 1
    obfuscated one. Same seed, same corpus. Raises ``CorpusError`` for an
    app count that is not an integer (a bool is not) or is below 1.

    Each bounded integer is ``randrange``'s own draw written out, as
    CPython's ``_randbelow`` makes it: ``getrandbits`` of the width's bit
    length, redrawn until below the width (3 for the extra depth of a
    private package, 56, 71 and 621 for ``randint(5, 60)``,
    ``randint(10, 80)`` and ``randint(280, 900)``), in the order the calls
    made them, so the corpus is the one those calls give.
    """
    if type(n_apps) is not int:
        raise CorpusError(f"n_apps {n_apps!r} is not an integer")
    if n_apps < 1:
        raise CorpusError(f"n_apps must be at least 1, got {n_apps}")
    rng = random.Random(f"{seed}|corpus")
    uniform = rng.random
    getrandbits = rng.getrandbits
    placements: dict[str, list[str]] = {path: [] for path, _ in DEFAULT_LIBRARY_POOL}
    libraries = [(path, count, placements[path]) for path, count in DEFAULT_LIBRARY_POOL]
    # A private package's name after its vendor, by its 0 to 2 extra segments.
    tails = [
        (f".app.feature{j}", f".app.feature{j}.part0", f".app.feature{j}.part0.part1")
        for j in range(4)
    ]
    apps: list[AppRecord] = []
    for i in range(n_apps):
        num = f"{i:04d}"
        app_id = "app" + num
        packages: dict[str, int] = {}
        for path, count, holders in libraries:
            if uniform() < _INCLUSION_PROB:
                packages[path] = count
                holders.append(app_id)
        vendor = "com.vendor" + num
        for tail in tails:
            extra = getrandbits(2)
            while extra >= 3:
                extra = getrandbits(2)
            r = getrandbits(6)
            while r >= 56:
                r = getrandbits(6)
            packages[vendor + tail[extra]] = 5 + r
        r = getrandbits(7)
        while r >= 71:
            r = getrandbits(7)
        seg1 = _LETTERS[i % 16]
        seg2 = _LETTERS[i * 7 % 16]
        packages[f"{seg1}.{seg2}.impl{i}_0"] = 10 + r
        r = getrandbits(10)
        while r >= 621:
            r = getrandbits(10)
        apps.append(AppRecord(app_id, sum(packages.values()) * (280 + r), packages))
    # Ids sort in index order only below 10,000 apps.
    placements = {p: sorted(a) for p, a in placements.items()}
    return SynthCorpus(corpus=Corpus(apps=apps), placements=placements)


__all__ = [
    "AppRecord",
    "Corpus",
    "CorpusError",
    "DEFAULT_LIBRARY_POOL",
    "OverlapReport",
    "SynthCorpus",
    "parse_corpus",
    "synth_corpus",
    "unique_class_fraction",
    "write_corpus",
]
