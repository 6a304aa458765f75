import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hydrisim

SRC = Path(hydrisim.__file__).parent
MODULES = ["hydrisim"] + ["hydrisim." + m.name
                          for m in pkgutil.iter_modules(hydrisim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def _unused_imports(tree: ast.Module) -> list:
    """Names a module binds by import, anywhere in it, and never reads.
    A name listed in ``__all__`` counts as read: it is re-exported."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
