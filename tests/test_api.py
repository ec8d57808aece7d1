"""`herdflu.__all__` is the package's public API, kept in step with what
`herdflu/__init__.py` imports."""

import ast
import pathlib

import herdflu


def test_all_is_sorted_and_unique():
    assert herdflu.__all__ == sorted(set(herdflu.__all__))


def test_every_name_in_all_resolves():
    # A stale string imports fine and breaks only `from herdflu import *`.
    for name in herdflu.__all__:
        assert hasattr(herdflu, name), name
    namespace = {}
    exec("from herdflu import *", namespace)
    assert set(herdflu.__all__) <= set(namespace)


def test_every_public_import_is_in_all():
    tree = ast.parse(pathlib.Path(herdflu.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported
    assert sorted(n for n in imported if not n.startswith("_")
                  and n not in herdflu.__all__) == []
