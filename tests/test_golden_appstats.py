"""Pinned outputs of the ``appstats`` command on generated corpora.

Each case writes a ``synth_corpus`` corpus of 50, 600 or 2,500 apps to a
file, runs ``appstats`` on it through ``cli.dispatch`` at prefix depths 1
to 5, and compares a sha256 of stdout against a digest recorded from the
implementation that tested obfuscation with a per-segment generator and
summed each app's classes twice. A 10,000-app corpus is checked field by
field against the multi-pass reference instead.
"""

import hashlib

import pytest

from offloadsim import cli
from offloadsim.appstats import synth_corpus, unique_class_fraction, write_corpus

from conftest import reference_unique_class_fraction

SIZES = {50: 21, 600: 22, 2500: 23}  # app count -> synth_corpus seed

GOLDEN = {
    (50, 1):
        "5a6bbdaa500b492c000c28b0a3231230a81a78e82f81907c91115f2173315de8",
    (50, 2):
        "41b7eba75ea962ad48f837e3ab063815be4ac7d841136361b09400cea21b5032",
    (50, 3):
        "2238a9a0b34dbe3f0a6040d6bb7e8299949948954c66655be7cac34ff4d2ffa6",
    (50, 4):
        "1cedb79b786c0935fc7b3c6f3fe8ed2d7d4b652784e54b9490f83856f075bdb6",
    (50, 5):
        "b503d45c3b91cfa86667e252b6917dd8cb77aa8c65d03d2b0b0863c1cb7bb2a2",
    (600, 1):
        "3f6c6d766c6d0ef58082d1fea940d607a30d5ebff00511a19a26d3631a0eae4b",
    (600, 2):
        "c03152c8f62bd6d9973affc95e06e0fff4af8637bbe5783c2109d674554dc472",
    (600, 3):
        "54fbb31769a7c8990bde7c38ddb0a5fd804226cd5ecf282b3fd9b20af86fccd0",
    (600, 4):
        "c01cc5eacbe70ba5069c8c5eb06594362ad6ce9c376ba702cad9ac403a4bab02",
    (600, 5):
        "494c44a0c8685879ae23e821aee4ba746675d25489c391a9f2724ef3921afd90",
    (2500, 1):
        "b5bffd0106af12a391fe61cce9c0eb00708da0035d3a6a2f2284db1999659d83",
    (2500, 2):
        "ccf8cc9b930d11eaa89d3d81ad6a7aa87b4c7de4b5ba347551dff5ed9659f743",
    (2500, 3):
        "4bbc2278f7ed959efe81eca11ab7708981b43c03c1abd4bf1a4315a16358540c",
    (2500, 4):
        "ba2f2d944056f48667b1230311cda6c7870ef78c2fa90ce98f3b0a9b1a9d318a",
    (2500, 5):
        "9b77236562d298f3e58069c36bbad41f52d46cffb783d7172e7c9c4158784dd3",
}


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpora")
    paths = {}
    for n_apps, seed in SIZES.items():
        paths[n_apps] = base / f"corpus{n_apps}.tsv"
        write_corpus(synth_corpus(n_apps, seed=seed).corpus, paths[n_apps])
    return paths


@pytest.mark.parametrize("n_apps, depth", sorted(GOLDEN))
def test_appstats_output_matches_recorded_digest(capsys, corpus_files, n_apps, depth):
    code = cli.dispatch(["appstats", "--corpus", str(corpus_files[n_apps]), "--depth", str(depth)])
    out, err = capsys.readouterr()
    assert (code.exit_code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(n_apps, depth)]


def test_ten_thousand_apps_match_the_multi_pass_reference():
    corpus = synth_corpus(10_000, seed=24).corpus
    got = unique_class_fraction(corpus, 3)
    want = reference_unique_class_fraction(corpus, 3)
    assert got.depth == want.depth
    assert list(got.per_app_unique_fraction.items()) == list(
        want.per_app_unique_fraction.items()
    )
    assert got.mean_unique_fraction == want.mean_unique_fraction
    assert got.median_unique_fraction == want.median_unique_fraction
    assert got.storage_savings == want.storage_savings
