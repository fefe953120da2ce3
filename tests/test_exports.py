"""Every name a module exports in ``__all__`` resolves, so a deletion cannot
leave a stale export behind."""

import importlib
import pkgutil

import pytest

import mdlab

# importing __main__ runs the command line
MODULES = sorted(info.name for info in pkgutil.iter_modules(mdlab.__path__) if info.name != "__main__")


def test_modules_are_found():
    assert {"cli", "distributions", "experiments", "mc", "oracle", "theory"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mdlab.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_the_exact_engines_are_exported():
    from mdlab import oracle

    assert {"enumerate_exact", "hitting_time", "lattice_dp_max", "twopoint_dp"} <= set(oracle.__all__)
