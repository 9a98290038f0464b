"""Corpus overlap statistics: obfuscation filter, unique fractions, dedup
savings, and generated corpora checked against a multi-pass reference."""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadsim.appstats import (
    AppRecord,
    Corpus,
    DEFAULT_LIBRARY_POOL,
    CorpusError,
    _overlap,
    _shared_key,
    parse_corpus,
    synth_corpus,
    unique_class_fraction,
    write_corpus,
)

from conftest import (
    reference_prefix,
    reference_storage_savings,
    reference_synth_corpus,
    reference_unique_class_fraction,
)


def savings_by_hand(corpus, depth):
    """Straight transcription of the dedup pricing rule, kept independent
    of the library implementation: group non-obfuscated packages by their
    first ``depth`` segments, and for every group held by two or more apps
    keep exactly one copy, priced at the holder with the largest per-class
    size (larger class count, then smallest app id, on ties).
    """
    sizes = {a.app_id: a.dex_size_bytes / sum(a.packages.values()) for a in corpus.apps}
    naive = sum(a.dex_size_bytes for a in corpus.apps)
    holders = {}
    for app in corpus.apps:
        for pkg, count in app.packages.items():
            segs = pkg.split(".")
            if any(len(s) == 1 for s in segs) or len(segs) < depth:
                continue
            pre = ".".join(segs[:depth])
            holders.setdefault(pre, {})
            holders[pre][app.app_id] = holders[pre].get(app.app_id, 0) + count
    shared = {p: h for p, h in holders.items() if len(h) >= 2}
    dedup = 0.0
    for app in corpus.apps:
        for pkg, count in app.packages.items():
            segs = pkg.split(".")
            if any(len(s) == 1 for s in segs) or len(segs) < depth:
                dedup += count * sizes[app.app_id]
                continue
            pre = ".".join(segs[:depth])
            if pre not in shared:
                dedup += count * sizes[app.app_id]
    for pre, members in shared.items():
        ranked = sorted(members, key=lambda a: (-sizes[a], -members[a], a))
        keeper = ranked[0]
        dedup += members[keeper] * sizes[keeper]
    return max(1.0 - dedup / naive, 0.0)


def make_corpus(*apps):
    return Corpus(apps=[AppRecord(app_id=i, dex_size_bytes=s, packages=p) for i, s, p in apps])


def obfuscated(path):
    """Every path has a first segment, so only obfuscation leaves it no
    shared key at depth 1."""
    return _shared_key(path, 1) is None


class TestObfuscationFilter:
    def test_single_letter_segment_flags_path(self):
        assert obfuscated("a.b.c")

    def test_real_package_passes(self):
        assert not obfuscated("com.facebook.katana")

    def test_one_short_segment_is_enough(self):
        assert obfuscated("com.a.analytics")

    def test_empty_segment_is_not_obfuscated(self):
        assert not obfuscated("com..lib")
        assert _shared_key("com..lib", 2) == "com."

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="ab.", max_size=12), st.integers(1, 6))
    def test_scan_matches_the_per_segment_generator(self, path, depth):
        assert _shared_key(path, depth) == reference_prefix(path, depth)
        assert obfuscated(path) == any(len(s) == 1 for s in path.split("."))


class TestUniqueFractions:
    def test_single_app_is_entirely_unique(self):
        corpus = make_corpus(("solo", 5000, {"com.solo.app": 12}))
        report = unique_class_fraction(corpus, depth=2)
        assert report.per_app_unique_fraction == {"solo": 100.0}
        assert report.mean_unique_fraction == 100.0
        assert report.storage_savings == 0.0

    def test_half_shared_app_scores_fifty_percent(self):
        corpus = make_corpus(
            ("x", 4000, {"com.google.gms.ads.internal": 10, "xvendor.private.pkg.deep.code": 10}),
            ("y", 1600, {"com.google.gms.ads.internal": 3, "yvendor.own.pkg.deep.code": 5}),
        )
        report = unique_class_fraction(corpus, depth=5)
        assert report.per_app_unique_fraction["x"] == pytest.approx(50.0)
        assert report.per_app_unique_fraction["y"] == pytest.approx(62.5)

    def test_shallower_depth_still_matches_shared_library(self):
        corpus = make_corpus(
            ("x", 4000, {"com.google.gms.ads.internal": 10, "xvendor.private.pkg.deep.code": 10}),
            ("y", 1600, {"com.google.gms.ads.internal": 3, "yvendor.own.pkg.deep.code": 5}),
        )
        report = unique_class_fraction(corpus, depth=4)
        assert report.per_app_unique_fraction["x"] == pytest.approx(50.0)

    def test_obfuscated_packages_never_count_as_shared(self):
        corpus = make_corpus(
            ("p", 1000, {"a.b.c": 5, "realvendor.lib": 5}),
            ("q", 1000, {"a.b.c": 5, "realvendor.lib": 5}),
        )
        report = unique_class_fraction(corpus, depth=2)
        assert report.per_app_unique_fraction == {"p": 50.0, "q": 50.0}

    def test_mean_and_median_over_planted_corpus(self):
        corpus = make_corpus(
            ("appA", 1000, {"lib.core.alpha": 4, "avendor.own.stuff": 6}),
            ("appB", 2000, {"lib.core.beta": 5, "bvendor.own.stuff": 5}),
            ("appC", 800, {"cvendor.deep.pkg": 8}),
        )
        report = unique_class_fraction(corpus, depth=2)
        assert report.per_app_unique_fraction == pytest.approx(
            {"appA": 60.0, "appB": 50.0, "appC": 100.0}
        )
        assert report.mean_unique_fraction == pytest.approx(70.0)
        assert report.median_unique_fraction == pytest.approx(60.0)

    def test_deeper_prefix_separates_the_planted_overlap(self):
        corpus = make_corpus(
            ("appA", 1000, {"lib.core.alpha": 4, "avendor.own.stuff": 6}),
            ("appB", 2000, {"lib.core.beta": 5, "bvendor.own.stuff": 5}),
        )
        report = unique_class_fraction(corpus, depth=3)
        assert all(v == 100.0 for v in report.per_app_unique_fraction.values())
        assert report.storage_savings == 0.0

    def test_report_carries_the_reference_savings(self):
        synth = synth_corpus(12, seed=4)
        report = unique_class_fraction(synth.corpus, depth=3)
        assert report.storage_savings == reference_storage_savings(synth.corpus, depth=3)

    def test_depth_must_be_positive(self):
        corpus = make_corpus(("x", 100, {"com.x.app": 1}))
        with pytest.raises(CorpusError):
            unique_class_fraction(corpus, depth=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            unique_class_fraction(Corpus(apps=[]), depth=2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unique_fraction_never_drops_as_depth_grows(self, seed):
        synth = synth_corpus(16, seed=seed)
        previous = None
        for depth in range(1, 9):
            report = unique_class_fraction(synth.corpus, depth=depth)
            if previous is not None:
                for app_id, value in report.per_app_unique_fraction.items():
                    assert value >= previous[app_id] - 1e-9
            previous = report.per_app_unique_fraction


class TestStorageSavings:
    def test_disjoint_apps_save_nothing(self):
        corpus = make_corpus(
            ("left", 900, {"com.left.app": 9}),
            ("right", 700, {"org.right.app": 7}),
        )
        savings = unique_class_fraction(corpus, depth=2).storage_savings
        assert savings == 0.0

    def test_identical_twin_apps_save_half(self):
        corpus = make_corpus(
            ("twin1", 1000, {"org.lib.core": 10}),
            ("twin2", 1000, {"org.lib.core": 10}),
        )
        savings = unique_class_fraction(corpus, depth=2).storage_savings
        assert savings == pytest.approx(0.5, abs=1e-12)

    def test_planted_corpus_matches_hand_arithmetic(self):
        # naive 3800; dedup keeps appB's copy of lib.core (5 * 200) plus
        # 600 + 1000 + 800 of unique classes, so 1 - 3400/3800 = 2/19.
        corpus = make_corpus(
            ("appA", 1000, {"lib.core.alpha": 4, "avendor.own.stuff": 6}),
            ("appB", 2000, {"lib.core.beta": 5, "bvendor.own.stuff": 5}),
            ("appC", 800, {"cvendor.deep.pkg": 8}),
        )
        savings = unique_class_fraction(corpus, depth=2).storage_savings
        assert savings == pytest.approx(2 / 19, abs=1e-9)

    def test_size_tie_keeps_the_larger_holder(self):
        # Equal per-class sizes, so the copy with 7 classes is kept:
        # dedup = 100 + 100 + 700 out of 1200 naive.
        corpus = make_corpus(
            ("alpha", 400, {"sharedlib.util": 3, "paone.xfeature": 1}),
            ("beta", 800, {"sharedlib.util": 7, "pbtwo.yfeature": 1}),
        )
        savings = unique_class_fraction(corpus, depth=2).storage_savings
        assert savings == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_synthetic_corpora_match_independent_pricing(self, seed):
        synth = synth_corpus(24, seed=seed)
        for depth in (2, 3, 4, 5):
            got = unique_class_fraction(synth.corpus, depth=depth).storage_savings
            assert got == pytest.approx(savings_by_hand(synth.corpus, depth), rel=1e-12)

    def test_savings_stay_in_unit_interval(self):
        synth = synth_corpus(30, seed=17)
        for depth in range(1, 9):
            value = unique_class_fraction(synth.corpus, depth=depth).storage_savings
            assert 0.0 <= value < 1.0

    def test_zero_class_app_is_rejected(self):
        bad = Corpus(apps=[AppRecord(app_id="hollow", dex_size_bytes=100, packages={})])
        with pytest.raises(CorpusError, match="zero classes"):
            unique_class_fraction(bad, depth=2)


class TestSynthesis:
    def test_same_seed_reproduces_the_corpus(self):
        first = synth_corpus(10, seed=42)
        second = synth_corpus(10, seed=42)
        assert first.corpus.apps == second.corpus.apps
        assert first.placements == second.placements

    def test_different_seeds_differ(self):
        assert synth_corpus(10, seed=1).corpus.apps != synth_corpus(10, seed=2).corpus.apps

    def test_placements_record_actual_holders(self):
        synth = synth_corpus(15, seed=7)
        for path, holders in synth.placements.items():
            for app in synth.corpus.apps:
                if app.app_id in holders:
                    assert path in app.packages
                else:
                    assert path not in app.packages

    def test_app_count_validated(self):
        with pytest.raises(CorpusError):
            synth_corpus(0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_apps": 2.5}, "n_apps 2.5 is not an integer"),
            ({"n_apps": True}, "n_apps True is not an integer"),
            ({"n_apps": 0}, "n_apps must be at least 1"),
            ({"n_apps": -1}, "n_apps must be at least 1, got -1"),
            ({"n_apps": 3.0}, "n_apps 3.0 is not an integer"),
            ({"n_apps": "3"}, "n_apps '3' is not an integer"),
            ({"n_apps": None}, "n_apps None is not an integer"),
        ],
    )
    def test_what_the_writer_or_parser_would_refuse_is_refused_at_once(self, kwargs, message):
        kwargs = {"n_apps": 3, **kwargs}
        with pytest.raises(CorpusError, match=re.escape(message)):
            synth_corpus(**kwargs)

    @pytest.mark.parametrize("path, count", DEFAULT_LIBRARY_POOL)
    def test_each_pool_library_is_drawn_at_its_rate_with_its_count(self, path, count):
        synth = synth_corpus(5000, seed=5)
        holders = [a.app_id for a in synth.corpus.apps if path in a.packages]
        assert synth.placements[path] == holders
        assert all(a.packages[path] == count for a in synth.corpus.apps if path in a.packages)
        # Independent draws at 0.35: 1750 holders expected, sd 33.7.
        assert abs(len(holders) - 1750) <= 5 * 33.7

    @pytest.mark.parametrize("path", [path for path, _ in DEFAULT_LIBRARY_POOL])
    def test_a_pool_library_is_shared_up_to_its_depth(self, path):
        synth = synth_corpus(200, seed=9)
        holders = synth.placements[path]
        assert len(holders) >= 2
        depth = len(path.split("."))
        for k in range(1, depth):
            _, shared, _ = _overlap(synth.corpus, k)
            assert set(holders) <= set(shared[_shared_key(path, k)])
        # At its own depth the library's group is its holders alone: no
        # own package and no other library falls in it.
        _, shared, _ = _overlap(synth.corpus, depth)
        assert shared[path] == holders
        _, shared, _ = _overlap(synth.corpus, depth + 1)
        assert not [key for key in shared if key.startswith(path + ".")]

    @pytest.mark.parametrize("depth", [2, 3, 4, 5, 6, 7])
    def test_an_app_is_unique_unless_a_library_prefix_is_shared(self, depth):
        # From depth 2 an app's own packages start with its own vendor, so
        # only a library whose prefix another app also holds is shared.
        synth = synth_corpus(400, seed=3)
        by_prefix = {}
        for path, ids in synth.placements.items():
            key = _shared_key(path, depth)
            if key is not None:
                by_prefix.setdefault(key, set()).update(ids)
        report = unique_class_fraction(synth.corpus, depth)
        bare = 0
        for app in synth.corpus.apps:
            keys = [_shared_key(path, depth) for path in app.packages if path in synth.placements]
            shared = any(len(by_prefix.get(key, ())) >= 2 for key in keys if key is not None)
            assert (report.per_app_unique_fraction[app.app_id] < 100.0) == shared
            bare += not keys
        assert bare > 0  # apps that drew no library are entirely unique
        if depth > 5:  # deeper than every pool path
            assert report.storage_savings == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 23, 2**70, "ten thousand and one"])
    def test_own_packages_never_displace_a_library(self, seed):
        # Past 9,999 apps the ids, and so the generated names, take five
        # digits. An own package named like a library would overwrite it.
        pool = dict(DEFAULT_LIBRARY_POOL)
        synth = synth_corpus(10_012, seed=seed)
        placed = {path: set(ids) for path, ids in synth.placements.items()}
        found = {path: [] for path in pool}
        for app in synth.corpus.apps:
            held = {path for path, ids in placed.items() if app.app_id in ids}
            libraries = [path for path in app.packages if path in pool]
            assert set(libraries) == held
            assert len(app.packages) == len(held) + 4 + 1
            for path in libraries:
                assert app.packages[path] == pool[path]
                found[path].append(app.app_id)
        assert synth.corpus.apps[-1].app_id == "app10011"
        assert synth.placements == {path: sorted(ids) for path, ids in found.items()}


def synth_fields(synth):
    """Apps as (id, size, package items) and placements as items, so that
    a comparison covers every order."""
    apps = [(a.app_id, a.dex_size_bytes, list(a.packages.items())) for a in synth.corpus.apps]
    return apps, list(synth.placements.items())


class TestSynthesisOracle:
    """``synth_corpus`` gives the corpus of the original generator, which
    drew with ``randrange`` and ``randint``, apps, packages and placements
    in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 60),
        st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=6)),
    )
    def test_matches_the_original_generator(self, n_apps, seed):
        got = synth_fields(synth_corpus(n_apps, seed=seed))
        assert got == synth_fields(reference_synth_corpus(n_apps, seed=seed))

    @pytest.mark.parametrize("n_apps, seed", [(2500, 23), (10_001, "ten thousand and one")])
    def test_large_seeded_corpora_match_the_original_generator(self, n_apps, seed):
        # Past 9,999 apps the ids take five digits and sort out of index
        # order, so the placements must be sorted.
        got = synth_fields(synth_corpus(n_apps, seed=seed))
        assert got == synth_fields(reference_synth_corpus(n_apps, seed=seed))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 99))
    def test_an_accepted_corpus_is_written_read_and_reported(self, n_apps, seed):
        synth = synth_corpus(n_apps, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.tsv"
            write_corpus(synth.corpus, path)
            assert parse_corpus(path).apps == synth.corpus.apps
        for depth in (1, 3):
            unique_class_fraction(synth.corpus, depth)


class TestCorpusIO:
    def test_round_trip_preserves_every_app(self, tmp_path):
        synth = synth_corpus(10, seed=13)
        path = tmp_path / "corpus.tsv"
        write_corpus(synth.corpus, path)
        again = parse_corpus(path)
        assert again.apps == synth.corpus.apps

    def test_literal_text_parses_without_a_file(self):
        corpus = parse_corpus("demo\t1200\tcom.demo.app=3;org.lib.core=9\n")
        assert corpus.apps[0].app_id == "demo"
        assert corpus.apps[0].packages == {"com.demo.app": 3, "org.lib.core": 9}

    def test_comments_and_blank_lines_skipped(self):
        text = "# corpus header\n\napp1\t100\tcom.one.app=1\n"
        assert len(parse_corpus(text).apps) == 1

    def test_wrong_field_count_names_the_line(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse_corpus("app1\t100\tcom.one.app=1\napp2\t100\n")

    def test_non_integer_size_rejected(self):
        with pytest.raises(CorpusError, match="not an integer"):
            parse_corpus("app1\tbig\tcom.one.app=1\n")

    def test_negative_size_rejected(self):
        with pytest.raises(CorpusError, match="non-negative"):
            parse_corpus("app1\t-5\tcom.one.app=1\n")

    def test_zero_class_count_rejected(self):
        with pytest.raises(CorpusError, match="at least 1"):
            parse_corpus("app1\t100\tcom.one.app=0\n")

    def test_entry_without_count_rejected(self):
        with pytest.raises(CorpusError, match="lacks"):
            parse_corpus("app1\t100\tcom.one.app\n")

    def test_duplicate_package_in_one_app_rejected(self):
        with pytest.raises(CorpusError, match="duplicate package"):
            parse_corpus("app1\t100\tcom.one.app=1;com.one.app=2\n")

    def test_duplicate_app_id_rejected(self):
        text = "app1\t100\tcom.one.app=1\napp1\t200\tcom.two.app=2\n"
        with pytest.raises(CorpusError, match="duplicate app id"):
            parse_corpus(text)

    def test_app_without_packages_names_the_line(self, tmp_path):
        corpus = make_corpus(("full", 100, {"com.one.app": 1}), ("hollow", 100, {}))
        path = tmp_path / "corpus.tsv"
        write_corpus(corpus, path)
        assert path.read_text().splitlines()[1] == "hollow\t100\t"
        with pytest.raises(CorpusError, match="line 2: app 'hollow' declares no classes"):
            parse_corpus(path)

    @pytest.mark.parametrize(
        "app_id, package",
        [
            ("#x", "com.one.app"),
            (" sp ", "com.one.app"),
            ("", "com.one.app"),
            ("tab\tid", "com.one.app"),
            ("two\nlines", "com.one.app"),
            ("app", "com;foo.bar"),
            ("app", "com.foo=bar.x"),
            ("app", "com.sep\u2028line"),
            ("app", ""),
        ],
    )
    def test_uncarried_id_or_package_is_refused_at_write(self, tmp_path, app_id, package):
        corpus = make_corpus(("fine", 100, {"com.one.app": 1}), (app_id, 100, {package: 2}))
        path = tmp_path / "corpus.tsv"
        with pytest.raises(CorpusError, match=re.escape(f"app {app_id!r}:")):
            write_corpus(corpus, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"dex_size_bytes": -3}, "dex size must be non-negative"),
            ({"dex_size_bytes": 2.5}, "dex size 2.5 is not an integer"),
            ({"com.x.z": 0}, "class count must be at least 1"),
            ({"com.x.z": True}, "class count True is not an integer"),
            ({"com.x.z": 0, "dex_size_bytes": -3}, "dex size must be non-negative"),
        ],
    )
    def test_record_changed_after_construction_is_refused_at_write(
        self, tmp_path, edit, message
    ):
        corpus = make_corpus(("fine", 100, {"com.one.app": 1}), ("a", 100, {"com.x.y": 1}))
        changed = corpus.apps[1]
        for key, value in edit.items():
            if key == "dex_size_bytes":
                changed.dex_size_bytes = value
            else:
                changed.packages[key] = value
        path = tmp_path / "corpus.tsv"
        with pytest.raises(CorpusError, match=re.escape(f"app 'a': {message}")):
            write_corpus(corpus, path)
        assert not path.exists()

    def test_missing_file_reports_the_path(self, tmp_path):
        with pytest.raises(CorpusError, match="cannot read"):
            parse_corpus(tmp_path / "absent.tsv")


# Segments chosen so that generated packages collide: one app often holds
# several packages under one key, keys recur across apps, and one-letter
# segments mark some packages obfuscated, and empty ones give paths such
# as "com..lib" or ".net" (but not the empty path, which a corpus file
# cannot carry).
SEGMENTS = ["com", "org", "lib", "core", "util", "net", "a", "q", ""]

# Characters that the corpus format gives a meaning: its separators, the
# comment mark, whitespace that strip() removes, and line breaks of
# str.splitlines() (plus "\x1f" and "\xa0", which are whitespace only).
HOSTILE = "\t;=# \n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029"


def carriable(corpus):
    """Whether every id and package can go through a corpus file, by the
    reader's rules: fields split on tabs, lines on str.splitlines(), each
    line stripped, '#' lines skipped, entries split on ';' and '='."""
    for app in corpus.apps:
        if not app.app_id or app.app_id.strip() != app.app_id or app.app_id[0] == "#":
            return False
        for name in (app.app_id, *app.packages):
            if not name or any(c in name for c in "\t;=") or len(f"{name}x".splitlines()) != 1:
                return False
    return True


@st.composite
def hostile_corpora(draw):
    """Up to 4 apps whose ids and package names mix plain names with
    text over the HOSTILE characters."""
    name = st.one_of(
        st.sampled_from(["app", "com.lib.core", "x y", "#", "a#b"]),
        st.text(alphabet="ab." + HOSTILE, max_size=5),
    )
    apps = []
    for app_id in draw(st.lists(name, min_size=1, max_size=4, unique=True)):
        packages = draw(st.dictionaries(name, st.integers(1, 12), min_size=1, max_size=3))
        apps.append(AppRecord(app_id, draw(st.integers(0, 5000)), packages))
    return Corpus(apps=apps)


@st.composite
def corpora(draw, min_apps=1):
    """Up to 7 apps with shuffled ids; per-class sizes drawn from a short
    list so that size ties occur, zero-byte apps included."""
    ids = draw(st.permutations([f"app{i}" for i in range(7)]))
    n_apps = draw(st.integers(min_apps, 7))
    apps = []
    for app_id in ids[:n_apps]:
        paths = draw(
            st.lists(
                st.lists(st.sampled_from(SEGMENTS), min_size=1, max_size=7)
                .map(".".join)
                .filter(bool),
                min_size=1,
                max_size=6,
                unique=True,
            )
        )
        packages = {p: draw(st.integers(1, 12)) for p in paths}
        per_class = draw(st.sampled_from([0, 0, 100, 100, 250, 333]))
        size = sum(packages.values()) * per_class + draw(st.sampled_from([0, 0, 7]))
        apps.append(AppRecord(app_id=app_id, dex_size_bytes=size, packages=packages))
    return Corpus(apps=apps)


class TestRecordChecks:
    """Records refuse what ``parse_corpus`` refuses, with its messages, and
    reports refuse ids duplicated after the corpus was built."""

    def test_class_count_below_one_is_refused(self):
        with pytest.raises(CorpusError, match="app 'a': class count must be at least 1"):
            AppRecord("a", 10, {"com.x.y": 0})

    def test_bool_class_count_is_refused(self):
        with pytest.raises(CorpusError, match="app 'a': class count True is not an integer"):
            AppRecord("a", 10, {"com.x.y": 2, "com.x.z": True})

    def test_non_integer_class_count_is_refused(self):
        with pytest.raises(CorpusError, match=r"app 'a': class count 2\.0 is not an integer"):
            AppRecord("a", 10, {"com.x.y": 2.0})

    def test_negative_dex_size_is_refused(self):
        with pytest.raises(CorpusError, match="app 'a': dex size must be non-negative"):
            AppRecord("a", -1, {"com.x.y": 1})

    def test_non_integer_dex_size_is_refused(self):
        with pytest.raises(CorpusError, match="app 'a': dex size True is not an integer"):
            AppRecord("a", True, {"com.x.y": 1})

    @pytest.mark.parametrize("size, count", [(10, 0), (-5, 1)])
    def test_messages_are_the_parser_messages(self, size, count):
        with pytest.raises(CorpusError) as parsed:
            parse_corpus(f"a\t{size}\tcom.x.y={count}\n")
        with pytest.raises(CorpusError) as built:
            AppRecord("a", size, {"com.x.y": count})
        assert str(parsed.value).removeprefix("line 1: ") == str(built.value).removeprefix(
            "app 'a': "
        )

    @pytest.mark.parametrize(
        "app_id, packages, message",
        [
            ("a", {1: 5}, "app 'a': package 1 is not a string"),
            ("a", {"com.x.y": 2, b"com.x.z": 5}, "app 'a': package b'com.x.z' is not a string"),
            (7, {"com.x.y": 5}, "app id 7 is not a string"),
            (None, {"com.x.y": 5}, "app id None is not a string"),
        ],
    )
    def test_non_string_id_or_package_is_refused(self, tmp_path, app_id, packages, message):
        with pytest.raises(CorpusError, match=re.escape(message)):
            AppRecord(app_id, 10, packages)
        # The same values set after construction are refused at write.
        corpus = make_corpus(("fine", 100, {"com.one.app": 1}), ("a", 10, {"com.x.y": 5}))
        corpus.apps[1].app_id = app_id
        corpus.apps[1].packages = packages
        path = tmp_path / "corpus.tsv"
        with pytest.raises(CorpusError, match=re.escape(message)):
            write_corpus(corpus, path)
        assert not path.exists()

    def test_duplicate_id_appended_after_construction_is_refused(self, tmp_path):
        corpus = make_corpus(("a", 100, {"com.one.app": 1}), ("b", 100, {"com.one.app": 2}))
        corpus.apps.append(AppRecord("a", 50, {"com.two.app": 3}))
        with pytest.raises(CorpusError, match="duplicate app id 'a'"):
            unique_class_fraction(corpus, 2)
        path = tmp_path / "corpus.tsv"
        with pytest.raises(CorpusError, match="duplicate app id 'a'"):
            write_corpus(corpus, path)
        assert not path.exists()


class TestGeneratedCorpora:
    @settings(max_examples=100, deadline=None)
    @given(corpora(), st.sampled_from(["{}", "+{}", "0{}", " {} "]))
    def test_parsed_corpus_equals_the_corpus_built_through_records(self, corpus, spell):
        # The parser builds records without the record checks; every value
        # it accepts must be one the checks accept, typed as they type it.
        text = "".join(
            f"{a.app_id}\t{spell.format(a.dex_size_bytes)}\t"
            + ";".join(f"{p}={spell.format(c)}" for p, c in a.packages.items())
            + "\n"
            for a in corpus.apps
        )
        parsed = parse_corpus(text)
        built = Corpus(
            apps=[AppRecord(a.app_id, a.dex_size_bytes, dict(a.packages)) for a in parsed.apps]
        )
        assert parsed == built == corpus
        for got, want in zip(parsed.apps, built.apps):
            assert type(got) is AppRecord
            assert vars(got) == vars(want)
            assert type(got.dex_size_bytes) is int
            assert list(map(type, got.packages.values())) == [int] * len(got.packages)

    @settings(max_examples=300, deadline=None)
    @given(corpora(), st.integers(1, 6))
    def test_one_pass_matches_the_multi_pass_reference(self, corpus, depth):
        got = unique_class_fraction(corpus, depth)
        want = reference_unique_class_fraction(corpus, depth)
        assert got.depth == want.depth
        assert list(got.per_app_unique_fraction.items()) == list(
            want.per_app_unique_fraction.items()
        )
        assert got.mean_unique_fraction == want.mean_unique_fraction
        assert got.median_unique_fraction == want.median_unique_fraction
        assert got.storage_savings == want.storage_savings

    @settings(max_examples=100, deadline=None)
    @given(corpora(), st.integers(1, 6))
    def test_fractions_and_savings_stay_in_range(self, corpus, depth):
        report = unique_class_fraction(corpus, depth)
        values = report.per_app_unique_fraction.values()
        assert all(0.0 <= v <= 100.0 for v in values)
        assert 0.0 <= report.mean_unique_fraction <= 100.0
        assert 0.0 <= report.median_unique_fraction <= 100.0
        assert 0.0 <= report.storage_savings <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(corpora(), hostile_corpora()))
    def test_write_then_parse_round_trips(self, corpus):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.tsv"
            if not carriable(corpus):
                with pytest.raises(CorpusError) as refused:
                    write_corpus(corpus, path)
                named = re.match(r"app (.*): a corpus file cannot carry", str(refused.value))
                bad = [a for a in corpus.apps if not carriable(Corpus(apps=[a]))]
                assert named and named.group(1) in [repr(a.app_id) for a in bad]
                return
            write_corpus(corpus, path)
            assert parse_corpus(path).apps == corpus.apps

    @settings(max_examples=100, deadline=None)
    @given(corpora(), st.integers(1, 6), st.data())
    def test_zero_class_app_is_rejected(self, corpus, depth, data):
        at = data.draw(st.integers(0, len(corpus.apps)))
        corpus.apps.insert(at, AppRecord(app_id="hollow", dex_size_bytes=100, packages={}))
        with pytest.raises(CorpusError, match="zero classes"):
            unique_class_fraction(corpus, depth)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.tsv"
            write_corpus(corpus, path)
            with pytest.raises(CorpusError, match=f"line {at + 1}: app 'hollow' declares no"):
                parse_corpus(path)
