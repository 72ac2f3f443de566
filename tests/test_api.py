"""The package holds only code the package itself uses.

A name in ``etseek.__all__``, or a top-level ``def`` or ``class`` of an
``etseek`` module, that no production module references is a test
oracle; it belongs in ``tests/reference.py``.  A reference is a name or
attribute in the code of some ``etseek`` module other than
``__init__.py``, outside the name's own ``def`` or ``class``; imports,
docstrings and comments do not count.  The composable building blocks
that ``perfbench`` rebinds by name are kept until the benchmark stops
naming them.

The README's "Model" section names, for each equation, the code that
computes it, its reference and the test that pins the two; every one of
those names must exist.
"""

import ast
import importlib
import re
from pathlib import Path

import etseek

PACKAGE = Path(etseek.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"
README = PACKAGE.parents[1] / "README.md"
TESTS = Path(__file__).parent


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


def _modules():
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _production_references():
    used = set()
    for path, tree in _modules().items():
        if path.name != "__init__.py":
            _references(tree, frozenset(), used)
    return used


def test_every_public_name_has_a_production_reference():
    unused = sorted(set(etseek.__all__) - _production_references())
    assert not unused, f"public names no production module uses: {unused}"


def test_every_top_level_definition_is_used_or_benchmarked():
    used = _production_references()
    bench = "\n".join(path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py")))
    unused = sorted(
        node.name
        for tree in _modules().values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
        and not re.search(rf"\b{node.name}\b", bench)
    )
    assert not unused, f"definitions neither production code nor perfbench uses: {unused}"


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


def _assigned(tree, name):
    """The literal value assigned to the top-level ``name`` in ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no top-level {name} assignment")


def _rebound_attributes(tree):
    """Every ``etseek.<module>.<name>`` that ``tree`` assigns to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Attribute)
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == "etseek"
                ):
                    yield f"etseek.{target.value.attr}", target.attr


def test_every_benchmark_binding_resolves():
    # The benchmark rebinds these names to timers and fails if one is gone.
    def parse(name):
        return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))

    bindings = [(module, attr) for module, attr, _ in _assigned(parse("tracing.py"), "BINDINGS")]
    rebound = list(_rebound_attributes(parse("worker.py")))
    assert ("etseek.engine", "run_average_loop") in rebound
    missing = sorted({
        f"{module}.{attr}"
        for module, attr in bindings + rebound
        if not hasattr(importlib.import_module(module), attr)
    })
    assert not missing, f"names the benchmark rebinds but the package lacks: {missing}"


def _defines(tree, chain):
    """Whether ``tree`` defines ``chain``: a top-level def or class, then
    the members nested in it, one name per level."""
    body = tree.body
    for name in chain:
        defs = {
            node.name: node
            for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        if name not in defs:
            return False
        body = defs[name].body
    return True


def test_every_name_in_the_readme_model_exists():
    text = README.read_text(encoding="utf-8")
    assert "\n## Model\n" in text
    model = text.split("\n## Model\n", 1)[1].split("\n## ", 1)[0]
    code = set(re.findall(r"`(etseek(?:\.\w+)+)`", model))
    tests = set(re.findall(r"`tests/(\w+\.py)((?:::\w+)+)`", model))
    assert code and tests
    missing = []
    for dotted in sorted(code):
        module, *attrs = dotted.split(".")[1:]
        try:
            obj = importlib.import_module(f"etseek.{module}")
            for attr in attrs:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            missing.append(dotted)
    for file, chain in sorted(tests):
        path = TESTS / file
        tree = ast.parse(path.read_text(encoding="utf-8")) if path.exists() else ast.Module([], [])
        if not _defines(tree, chain.split("::")[1:]):
            missing.append(f"tests/{file}{chain}")
    assert not missing, f"names the README model gives that do not exist: {missing}"
