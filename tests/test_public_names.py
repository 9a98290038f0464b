"""Every module's public names: each ``__all__`` entry is defined and listed
once, and a star import of the module works. A name deleted from a module
but left in its ``__all__`` fails here, not in a user's import."""

import importlib
import pkgutil

import pytest

import offloadsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(offloadsim.__path__))


def test_every_module_is_checked():
    assert {"cli", "partition", "simulator", "topology", "workload"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_once_and_star_import_works(name):
    module = importlib.import_module(f"offloadsim.{name}")
    exported = getattr(module, "__all__", None)
    if exported is not None:
        assert [n for n in exported if not hasattr(module, n)] == []
        assert len(set(exported)) == len(exported)
    exec(f"from offloadsim.{name} import *", {})
