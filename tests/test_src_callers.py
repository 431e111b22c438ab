"""Every name that ``src/sunflows`` defines has a caller outside the tests.

A module-level function or class, or a public method, must be referenced by
name from one of:

- other package code (``__init__.py`` re-exports do not count, and neither
  does the definition itself);
- a demo script;
- the benchmark tracer's ``SPANNED`` targets, which it wraps by name.

Helpers that only tests call belong in the tests.  Likewise every name that
``__init__.py`` re-exports is read through the package namespace by a demo, and
no module of the package, the demos or the tests imports a name it never reads.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sunflows"
TRACER = ROOT / "benchmarks" / "tracer.py"


def _identifiers(tree: ast.AST, skip=()) -> set[str]:
    """Names and attribute names used in ``tree``, outside the line ranges of ``skip``."""
    out = set()
    for node in ast.walk(tree):
        if any(lo <= getattr(node, "lineno", 0) <= hi for lo, hi in skip):
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _span(node: ast.AST) -> tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return first, node.end_lineno


def _definitions(tree: ast.Module):
    """(name, lines of its definition) for module-level defs and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, _span(node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", _span(item)


def _spanned_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {part for names in module.SPANNED.values() for qual in names
            for part in qual.split(".")}


def test_every_src_definition_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    external = _spanned_names()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        external |= _identifiers(ast.parse(demo.read_text()))
    used_elsewhere = {path: set().union(*(_identifiers(t) for p, t in trees.items() if p != path))
                      for path in trees}
    orphans = []
    for path, tree in trees.items():
        for qual, span in _definitions(tree):
            name = qual.split(".")[-1]
            if name in external or name in used_elsewhere[path]:
                continue
            if name not in _identifiers(tree, skip=[span]):
                orphans.append(f"{path.stem}.{qual}")
    assert not orphans, f"defined in src but called only by tests (or not at all): {orphans}"


def _package_reads(tree: ast.Module) -> set[str]:
    """Names a script reads from the package namespace: ``sunflows.x`` through any alias of
    ``import sunflows``, and ``from sunflows import x``."""
    aliases, out = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "sunflows"}
        elif isinstance(node, ast.ImportFrom) and node.module == "sunflows" and not node.level:
            out |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            out.add(node.attr)
    return out


def test_every_package_export_is_read_by_a_demo():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    read = set().union(*(_package_reads(ast.parse(demo.read_text()))
                         for demo in sorted((ROOT / "demos").glob("*.py"))))
    unread = sorted(exported - read)
    assert not unread, f"re-exported by the package but read by no demo: {unread}"


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names bound by the imports of ``tree`` (``__future__`` aside) that it never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({a.asname or a.name: node.lineno for a in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unread = {str(p.relative_to(ROOT)): names for p in paths
              if (names := _unread_imports(ast.parse(p.read_text())))}
    assert not unread, f"imported but never read: {unread}"
