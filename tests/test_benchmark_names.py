"""The names by which the benchmark reaches into freemono must keep resolving.

``perfbench/spans.py`` wraps the functions its ``LAYERS`` names, and
``perfbench/workload.py`` times the ``freemono.cli`` checks its
``CLI_CHECKS`` names, calls ``freemono.cli.main`` and replays witnesses
through the top-level exports it reaches as ``self.fm.<name>`` (and
``freemono.<name>``).  A rename in freemono breaks ``run.py --trace 1``,
the timed parts or the replays (counted there as failed replays) without
failing any other test, so these tests load both files (read only) and
look every name up.
"""

import ast
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


def _package_names():
    # every attribute workload.py reads off the package: self.fm.<name> or freemono.<name>
    tree = ast.parse((PERFBENCH / "workload.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "freemono"
                    or isinstance(owner, ast.Attribute) and owner.attr == "fm"
                    and isinstance(owner.value, ast.Name) and owner.value.id == "self"):
                names.add(node.attr)
    return sorted(names)


def test_the_replayed_exports_are_read():
    assert {"catalog", "cli", "halfplane_margin", "pair_margin",
            "point_from_json"} <= set(_package_names())


@pytest.mark.parametrize("name", _package_names())
def test_package_name_resolves(name):
    assert hasattr(freemono, name)


def test_cli_main_is_callable():
    assert callable(freemono.cli.main)
