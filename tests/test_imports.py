"""No dead imports: every name a module of the package, the tests or the
demos imports is read in that module or listed in its ``__all__``.  The
package's ``__init__.py`` only re-exports, so it is left out."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/jordanbundles", "tests", "demos")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def _unread_imports(tree: ast.Module):
    """Names bound by an import of ``tree`` that no ``Name`` node reads and
    ``__all__`` does not list (``import a.b`` binds ``a``)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = {e.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for e in node.value.elts}
    return sorted(imported - read - exported)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_read(path):
    assert _unread_imports(ast.parse(path.read_text(), str(path))) == []


def test_scan_finds_an_unread_import():
    tree = ast.parse("import os\nfrom a.b import c as d, e\n__all__ = ['e']\nprint(os)\n")
    assert _unread_imports(tree) == ["d"]
