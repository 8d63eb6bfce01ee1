"""The package's public names are pinned: a new export is a deliberate diff."""

import ast
import importlib
from pathlib import Path

import johnson_p2c

PUBLIC = {
    "CheckReport",
    "ElementSet",
    "EndpointQuad",
    "GenericGraph",
    "JohnsonGraph",
    "LevelSpec",
    "P2CSolution",
    "Path",
    "QJGraph",
    "Relabeling",
    "SweepSummary",
    "apply_relabeling",
    "check_hamilton",
    "check_p2c",
    "clear_caches",
    "complement",
    "fig1_counterexample",
    "hamilton_bruteforce",
    "hamilton_complete",
    "hamilton_johnson",
    "hamilton_qj",
    "k_subsets",
    "p2c_bruteforce",
    "p2c_complete",
    "p2c_johnson",
    "p2c_qj",
    "sweep",
    "to_dot",
}


def _acceptance_imports():
    """(module, name) for every name tests/test_acceptance.py imports from
    the package or one of its modules."""
    source = Path(__file__).with_name("test_acceptance.py").read_text()
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and node.module.split(".")[0] == "johnson_p2c"
        for alias in node.names
    ]


def test_all_is_the_pinned_set():
    assert len(johnson_p2c.__all__) == len(set(johnson_p2c.__all__)) == 28
    assert set(johnson_p2c.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in johnson_p2c.__all__:
        assert getattr(johnson_p2c, name) is not None


def test_acceptance_imports_are_public():
    imports = _acceptance_imports()
    assert len(imports) > 10
    for module, name in imports:
        assert name in PUBLIC, (module, name)
        assert getattr(importlib.import_module(module), name) is getattr(
            johnson_p2c, name
        )
