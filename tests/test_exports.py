"""The package's public names: `__all__` is exactly what `__init__` imports."""

import ast
from pathlib import Path

import uplink_noma


def _imported_names():
    """Every public name bound by a `from ... import` in `__init__`."""
    tree = ast.parse(Path(uplink_noma.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not (alias.asname or alias.name).startswith("_")
    ]


def test_every_exported_name_resolves():
    missing = [name for name in uplink_noma.__all__ if not hasattr(uplink_noma, name)]
    assert missing == []
    assert len(set(uplink_noma.__all__)) == len(uplink_noma.__all__)


def test_every_imported_public_name_is_exported():
    assert sorted(_imported_names()) == sorted(uplink_noma.__all__)
