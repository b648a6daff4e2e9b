"""Every name that ``specrad`` re-exports is public in the module that
defines it: each ``specrad.__all__`` name is in that module's ``__all__``."""

import ast
import importlib
import inspect

import specrad


def _imports_by_module():
    tree = ast.parse(inspect.getsource(specrad))
    return {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_every_public_name_is_public_where_it_is_defined():
    imports = _imports_by_module()
    assert sorted(n for names in imports.values() for n in names) == sorted(specrad.__all__)
    missing = {
        (module, name)
        for module, names in imports.items()
        for name in names
        if name not in importlib.import_module(f"specrad.{module}").__all__
    }
    assert missing == set()
