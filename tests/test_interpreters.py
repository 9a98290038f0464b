"""Float results carry the same bits on every CPython >= 3.10 on PATH.

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


def other_interpreters() -> dict[str, str]:
    """Version -> executable for each other CPython >= 3.10 on PATH that
    starts; an executable that fails to start counts as absent."""
    found = {}
    probe = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:2])"
    for minor in range(10, 20):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        try:
            res = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = res.stdout.split()
        if res.returncode != 0 or len(fields) != 3 or fields[0] != "CPython":
            continue
        version = (int(fields[1]), int(fields[2]))
        if version >= (3, 10) and version != sys.version_info[:2]:
            found["%d.%d" % version] = exe
    return found


def test_other_interpreters_give_the_same_bits():
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 on PATH")
    expected = interp_values.values()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for version, exe in sorted(interpreters.items()):
        res = subprocess.run(
            [exe, str(TESTS / "interp_values.py")],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert res.returncode == 0, f"Python {version} ({exe}) failed:\n{res.stderr}"
        got = json.loads(res.stdout)
        differ = sorted(k for k in expected if got.get(k) != expected[k])
        assert not differ, f"Python {version} ({exe}) gives other bits for {differ}"
