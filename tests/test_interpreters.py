"""Float results carry the same bits on every CPython >= 3.10 on PATH or
installed under pyenv.

Python 3.12 made the built-in sum() compensate float rounding, so a sum()
left in a metric path gives other bits there than on 3.11. CPython
promises the same stream across versions only for ``random()``, and the
arrival stream's origin draw, the scale-free generator's attachment draw
and the corpus generator's bounded integers use ``getrandbits``: the
written bytes of synthetic corpora are compared by digest. The script
``interp_values.py`` runs under each other interpreter in a subprocess and
its reprs must equal the ones computed in this process.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import interp_values

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


PROBE = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:2])"


def cpython_version(exe) -> tuple[int, int] | None:
    """``(3, minor)`` of the CPython that ``exe`` starts, or None when it
    fails to start or is not CPython."""
    try:
        res = subprocess.run([exe, "-c", PROBE], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    fields = res.stdout.split()
    if res.returncode != 0 or len(fields) != 3 or fields[0] != "CPython":
        return None
    return int(fields[1]), int(fields[2])


def pyenv_candidates(minor: int) -> list[str]:
    """``versions/3.<minor>.*/bin/python3.<minor>`` under ``$PYENV_ROOT``
    (default ``~/.pyenv``), newest patch release first: a pyenv shim on
    PATH fails to start when its version is installed but not selected."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = []
    for exe in root.glob(f"versions/3.{minor}.*/bin/python3.{minor}"):
        patch = exe.parents[1].name.split(".")[2]
        if patch.isdigit():
            found.append((int(patch), str(exe)))
    return [exe for _, exe in sorted(found, reverse=True)]


def other_interpreters() -> dict[str, str]:
    """Version -> executable for each other CPython >= 3.10: the
    ``python3.X`` on PATH, or, when that is missing or fails to start, the
    first of ``pyenv_candidates`` that starts."""
    found = {}
    for minor in range(10, 20):
        on_path = shutil.which(f"python3.{minor}")
        for exe in ([on_path] if on_path else []) + pyenv_candidates(minor):
            version = cpython_version(exe)
            if version is not None:
                break
        else:
            continue
        if version >= (3, 10) and version != sys.version_info[:2]:
            found["%d.%d" % version] = exe
    return found


def test_other_interpreters_give_the_same_bits():
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 on PATH or under pyenv")
    expected = interp_values.values()
    here = "%d.%d" % sys.version_info[:2]
    compared = f"Python {here} against {', '.join(sorted(interpreters))}"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for version, exe in sorted(interpreters.items()):
        res = subprocess.run(
            [exe, str(TESTS / "interp_values.py")],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert res.returncode == 0, f"{compared}: Python {version} ({exe}) failed:\n{res.stderr}"
        got = json.loads(res.stdout)
        differ = sorted(k for k in expected if got.get(k) != expected[k])
        assert not differ, (
            f"{compared}: Python {version} ({exe}) gives other bits than Python {here} for {differ}"
        )
