"""One finite-difference engine: every stencil of the package is a ``directional_derivative``.

Read off the source, without running it: in ``src/sunflows`` only
``brackets.directional_derivative`` reads the stencil offsets ``_STEPS`` and
calls the central difference ``_central``, and the only function that takes
matrix exponentials of scaled basis directions, exp(tZ) over a basis, is
``brackets._exp_along``.  A cached power table, a second stencil builder or a
curve along the basis built in another module fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sunflows"
BASES = {"_basis", "su_basis", "sl_real_basis", "sl_complex_basis", "borel_basis"}
EXPONENTIALS = {"expm_normal", "expm_diagonal", "expm"}


def _name(node):
    """The name a Name or Attribute node refers to, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _units(tree: ast.Module, stem: str):
    """(qualified name, node) of each function and method of a module, and of its top level."""
    top = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{stem}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{stem}.{node.name}.{item.name}", item
        else:
            top.append(node)
    yield f"{stem}.<module>", ast.Module(body=top, type_ignores=[])


def _package_units():
    for path in sorted(PACKAGE.glob("*.py")):
        yield from _units(ast.parse(path.read_text()), path.stem)


def _exponentiates_a_scaled_basis(unit) -> bool:
    """Whether ``unit`` calls a matrix exponential on a product of a basis with a scalar.

    A basis is a call of one of ``BASES``, read directly, as an array or through
    subscripts and methods, or a name bound to one (by assignment or as a loop
    target); a scaled basis is a product ``*`` or a ``scaled`` call with a basis
    operand, or a name bound to one.  A contraction with a basis (``@``,
    ``ordered_sum``) is no scaling.
    """
    basis_names, scaled_names = set(), set()

    def is_basis(e):
        while isinstance(e, (ast.Subscript, ast.Attribute, ast.Call)):
            if isinstance(e, ast.Call) and _name(e.func) in BASES:
                return True
            if isinstance(e, ast.Call) and _name(e.func) in ("array", "asarray") and e.args:
                e = e.args[0]
                continue
            e = e.func if isinstance(e, ast.Call) else e.value
        return isinstance(e, ast.Name) and e.id in basis_names

    def is_scaled(e):
        for node in ast.walk(e):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                if is_basis(node.left) or is_basis(node.right):
                    return True
            if isinstance(node, ast.Call) and _name(node.func) == "scaled":
                if any(is_basis(a) for a in node.args):
                    return True
            if isinstance(node, ast.Name) and node.id in scaled_names:
                return True
        return False

    def targets(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    before = None
    while before != (len(basis_names), len(scaled_names)):
        before = (len(basis_names), len(scaled_names))
        for node in ast.walk(unit):
            if isinstance(node, ast.Assign):
                new = set().union(*(targets(t) for t in node.targets))
                if is_basis(node.value):
                    basis_names |= new
                elif is_scaled(node.value):
                    scaled_names |= new
            elif isinstance(node, (ast.For, ast.comprehension)) and is_basis(node.iter):
                basis_names |= targets(node.target)
    return any(isinstance(node, ast.Call) and _name(node.func) in EXPONENTIALS
               and any(is_scaled(a) for a in node.args) for node in ast.walk(unit))


def test_only_directional_derivative_reads_the_stencil():
    readers = {name: set() for name in ("_central", "_STEPS")}
    for qual, unit in _package_units():
        for node in ast.walk(unit):
            name = node.id if isinstance(node, ast.Name) else None
            if name in readers and isinstance(node.ctx, ast.Load):
                readers[name].add(qual)
    assert readers == {"_central": {"brackets.directional_derivative"},
                       "_STEPS": {"brackets.directional_derivative"}}


def test_only_brackets_exp_along_builds_exp_of_a_basis():
    builders = {qual for qual, unit in _package_units() if _exponentiates_a_scaled_basis(unit)}
    assert builders == {"brackets._exp_along"}


# stencil builders this guard must catch: a cached table of exp(hZ) per basis direction, one
# curve exp(tZ) per direction (as ``tests/curve_stencils.py`` builds them) and a stacked curve
_CAUGHT = {
    "table": """
def _steps(kind, n):
    table = []
    for z in _basis(kind, n)[0]:
        a = STEP[kind] * z
        e = expm_normal(a)
        table.append([e, e @ e])
    return table
""",
    "curves": """
def conjugation_curves(n):
    return [lambda p, t, z=z: p.conjugate(liecore.expm_normal(t * z))
            for z in liecore.su_basis(n)]
""",
    "stack": """
def curve(t, n):
    return scipy.linalg.expm(scaled(t, np.array(borel_basis(n))))
""",
}

# exponentials that only read a basis through a contraction: random draws from a basis
_PASSED = """
def sl_of_normals(z, n):
    basis = borel_basis(n)
    b = ordered_sum(z[..., :len(basis)], basis)
    return expm_normal(0.35 / (n * n) * (b + adjoint(b)))


def directions(rng, n):
    basis = borel_basis(n).reshape(-1, n * n)
    z = rng.standard_normal((30, len(basis))) @ basis
    return expm_normal(0.3 * z.reshape(30, n, n))
"""


def test_the_basis_guard_catches_stencil_builders_and_passes_contractions():
    for label, source in _CAUGHT.items():
        assert _exponentiates_a_scaled_basis(ast.parse(source)), label
    for _, unit in _units(ast.parse(_PASSED), "passed"):
        assert not _exponentiates_a_scaled_basis(unit)
