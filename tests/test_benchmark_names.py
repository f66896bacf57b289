"""The names by which the benchmark reaches into freemono must keep resolving.

``perfbench/spans.py`` wraps the functions its ``LAYERS`` names, and
``perfbench/workload.py`` times the ``freemono.cli`` checks its
``CLI_CHECKS`` names.  A rename in freemono breaks ``run.py --trace 1`` or
the timed parts without failing any other test, so these tests load both
files (read only) and look every name up.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import freemono.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans, workload = _load("spans"), _load("workload")


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in spans.LAYERS.items()
                                         for name in names])
def test_traced_name_resolves(layer, name):
    owner = importlib.import_module(f"freemono.{layer}")
    for part in name.split("."):  # "Class.method" names a method on its class
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("name", workload.CLI_CHECKS)
def test_timed_check_resolves_in_cli(name):
    assert callable(getattr(freemono.cli, name))
