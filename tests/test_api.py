"""The public API holds only names the package itself uses.

A name in ``etseek.__all__`` that no production module references is a
test oracle; it belongs in ``tests/reference.py``.  A reference is a name
or attribute in the code of some ``etseek`` module other than
``__init__.py``, outside the name's own ``def`` or ``class``; imports,
docstrings and comments do not count.
"""

import ast
from pathlib import Path

import etseek


def _references(node, enclosing, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            if child.id not in enclosing:
                found.add(child.id)
        elif isinstance(child, ast.Attribute) and child.attr not in enclosing:
            found.add(child.attr)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _references(child, enclosing | {child.name}, found)
        else:
            _references(child, enclosing, found)
    return found


def test_every_public_name_has_a_production_reference():
    used = set()
    for path in Path(etseek.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            _references(ast.parse(path.read_text(encoding="utf-8")), frozenset(), used)
    unused = sorted(set(etseek.__all__) - used)
    assert not unused, f"public names no production module uses: {unused}"


def test_reference_walk_skips_own_body_imports_and_docstrings():
    tree = ast.parse(
        '"""helper is documented here."""\n'
        "from m import helper, other\n"
        "def helper():\n"
        "    return helper()\n"
        "class Box:\n"
        "    def make(self):\n"
        "        return Box(other.value)\n"
    )
    found = _references(tree, frozenset(), set())
    assert "helper" not in found
    assert "Box" not in found
    assert {"other", "value"} <= found
