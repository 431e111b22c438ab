"""Derivative and bracket engines.

Every bracket goes through ``bracket_matrix``: the point's geometry supplies
per-observable gradients (group and fiber gradients on the cotangent bundle,
left and right complexified derivatives on the Heisenberg double, per-letter
left/right gradient tables on fusion spaces), and one contraction per
geometry pairs them against its bivector: the canonical cotangent bracket,
the Heisenberg-double bracket built from the two isotropic projections, and
the quasi-Poisson bracket of fusion spaces, where every bivector term reduces
to trace-form pairings of per-letter left/right gradients.

Gradients are exact where the observable knows them.  An observable may
carry ``grad_table(point)``, returning on cotangent and fusion points the
same table the finite-difference engine would build.  Word traces
(``word_observable``), class functions of words (``moduli.WordHamiltonian``,
``observables.WordFunction``) carry it: one chain rule, Goldman's cyclic
derivative for traces and conjugation of the class-function gradient for
the rest, gives every letter's left and right gradient.  Observables without
a table (pullbacks, momentum pullbacks, matrix-entry observables) and every
observable on a Heisenberg point go through one call of the
finite-difference engine.  Those engines stay as the fallback and as the
oracle the exact tables are tested against.

Directional derivatives are fourth-order central differences with one step
per basis (``STEP``).  This module builds every finite-difference stencil,
one basis block at a time, as one (directions, offsets, n, n) stack:
translations multiply one cached array of the powers of exp(hZ) per basis
(``_steps``), and the additive directions are shifts m + k h Z.  The
gradient engines, the finite-difference oracles and the differentials of
``probes`` all use them.  Gradients are assembled against cached dual bases,
so no linear solve happens per call.

The engines wrap each stencil matrix into a point and evaluate every
observable there, each point built once for all of them.  The oracles
(``group_gradient_fd``, ``algebra_gradient_fd``, ``borel_gradient_fd``)
hand the whole stack to a function's ``values`` when it has one (the
closed-form class, algebra and Borel families), so a block costs one
stacked eigenvalue solve instead of one normal form per stencil point;
opaque callables are still evaluated one stencil matrix at a time.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import UnsupportedBracket, UnsupportedWord
from .liecore import (
    IM_FORM,
    TRACE_FORM,
    borel_basis,
    dual_basis,
    pair,
    project_borel,
    project_compact,
    skew_traceless,
    sl_real_basis,
    su_basis,
)
from .spaces import CotangentPoint, FusionPoint, HeisenbergPoint

# stencil offsets, in units of the step h, and as an array (offsets, 1, 1)
_STEPS = (-2, -1, 1, 2)
_OFFSETS = np.array(_STEPS)[:, np.newaxis, np.newaxis]

# the finite-difference step of each basis; the log-composed dressing
# invariants on the Borel group carry more curvature, so their step is finer
H = 1e-3
STEP = {"su": H, "sl": H, "borel": 3e-4}


def _central(values, h: float):
    """Fourth-order central difference from the values at the offsets _STEPS * h.

    The values may be scalars or arrays; arrays give one derivative per entry.
    """
    fm2, fm1, fp1, fp2 = values
    return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)


def directional_derivative(f, curve, richardson: bool = False):
    """d/dt f(curve(t)) at t = 0 by central differences; f may be array-valued.

    With ``richardson`` the step-h and step-h/2 differences are combined to
    cancel the h^4 error term.
    """
    base = _central([f(curve(k * H)) for k in _STEPS], H)
    if not richardson:
        return base
    half = H / 2
    fine = _central([f(curve(k * half)) for k in _STEPS], half)
    return (16 * fine - base) / 15


# ---------------------------------------------------------------------------
# stencils: the one place a finite-difference point is built
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _basis(kind: str, n: int):
    """(directions, dual) of the "su", "sl" or "borel" basis.

    su and sl are dual under the trace and im forms.  A Borel derivative is
    solved into su, so the "borel" dual is the inverse of the matrix
    im-pair(borel_r, su_s).
    """
    if kind == "su":
        basis = su_basis(n)
        return basis, dual_basis(basis, TRACE_FORM)
    if kind == "sl":
        basis = sl_real_basis(n)
        return basis, dual_basis(basis, IM_FORM)
    basis = borel_basis(n)
    return basis, np.linalg.inv(np.array([[pair(z, w, IM_FORM) for w in su_basis(n)]
                                          for z in basis]))


@lru_cache(maxsize=None)
def _steps(kind: str, n: int) -> np.ndarray:
    """exp(k h Z) for each direction Z of the basis and each offset k, h = STEP[kind].

    One read-only (directions, offsets, n, n) array.  The powers are products
    of exp(hZ) and its inverse, the adjoint on su.
    """
    table = []
    for z in _basis(kind, n)[0]:
        e = scipy.linalg.expm(STEP[kind] * z)
        ei = e.conj().T if kind == "su" else np.linalg.inv(e)
        powers = {1: e, -1: ei, 2: e @ e, -2: ei @ ei}
        table.append([powers[k] for k in _STEPS])
    table = np.array(table)
    table.flags.writeable = False
    return table


def _translations(kind: str, m: np.ndarray, left: bool) -> np.ndarray:
    """The stencil stack (directions, offsets, n, n) of the translations u m (``left``)
    or m u of m by the table's powers u."""
    steps = _steps(kind, m.shape[0])
    return steps @ m if left else m @ steps


def _shifts(kind: str, m: np.ndarray) -> np.ndarray:
    """The stencil stack (directions, offsets, n, n) of the shifts m + k h Z."""
    directions = np.array(_basis(kind, m.shape[0])[0])[:, np.newaxis]
    return m + (_OFFSETS * STEP[kind]) * directions


def _tangent_blocks(x, sides=("lmul", "rmul")):
    """(key, stencil block) of each block of directions spanning the tangent space at x.

    Every group slot is translated on each of ``sides`` ('lmul': u m, 'rmul':
    m u), by su on fusion and cotangent points and by sl on the Heisenberg
    double; a cotangent point has one left-translation block 'group' and the
    fiber shifts 'fiber'.  A block is (kind, stack, wrap): wrap turns a
    matrix of the stack into the point the observables read.
    """
    if isinstance(x, CotangentPoint):
        yield "group", ("su", _translations("su", x.g, True), lambda g: CotangentPoint(g, x.j))
        yield "fiber", ("su", _shifts("su", x.j), lambda j: CotangentPoint(x.g, j))
    elif isinstance(x, HeisenbergPoint):
        for side in sides:
            yield side, ("sl", _translations("sl", x.x, side == "lmul"), HeisenbergPoint)
    elif isinstance(x, FusionPoint):
        for slot in x.space.slots:
            for side in sides:
                yield (*slot, side), ("su", _translations("su", x.slot(*slot), side == "lmul"),
                                      lambda m, s=slot: x.with_slots({s: m}))
    else:
        raise UnsupportedBracket(f"no tangent stencils on points of type {type(x).__name__}")


def _stencil_derivatives(fns, block) -> np.ndarray:
    """Central differences of each function along each stencil, (directions, functions).

    ``block`` is (kind, stack, wrap): stack[d, i] is the matrix at offset
    _STEPS[i] * h along basis direction d.  With a ``wrap`` the functions are
    observables of the points wrap(stack[d, i]), each point built once for
    all of them.  Without one they read the matrices themselves: a function
    with ``values`` evaluates the whole stack in one call, and any other
    callable is called on one matrix at a time.
    """
    kind, stack, wrap = block
    values = np.empty((len(fns),) + stack.shape[:2])
    pointwise = []
    for i, fn in enumerate(fns):
        if wrap is None and hasattr(fn, "values"):
            values[i] = fn.values(stack)
        else:
            pointwise.append(i)
    if pointwise:
        for d, row in enumerate(stack):
            for k, m in enumerate(row):
                p = m if wrap is None else wrap(m)
                for i in pointwise:
                    values[i, d, k] = fns[i](p)
    return _central(np.moveaxis(values, -1, 0), STEP[kind]).T


def _stencil_gradients(fns, block) -> list[np.ndarray]:
    """Gradient of each function from its values on a stencil block.

    The central differences are summed against the dual basis one direction
    at a time, in basis order: a BLAS contraction would reorder the sum and
    change the last bits of every bracket.
    """
    kind, stack, _ = block
    dual = _basis(kind, stack.shape[-1])[1]
    return [sum(d * e for d, e in zip(column, dual))
            for column in _stencil_derivatives(fns, block).T]


def differentials(fns, x) -> np.ndarray:
    """Rows: the derivative of each function along the left-translation and fiber basis at x."""
    return np.concatenate([_stencil_derivatives(fns, block)
                           for _, block in _tangent_blocks(x, ("lmul",))]).T


# ---------------------------------------------------------------------------
# gradients per geometry
# ---------------------------------------------------------------------------

def _fd_tables(obs_list, x) -> list[dict]:
    """Per observable, the gradient on every block of ``_tangent_blocks(x)``, by key."""
    tables = [dict() for _ in obs_list]
    for key, block in _tangent_blocks(x):
        for tab, grad in zip(tables, _stencil_gradients(obs_list, block)):
            tab[key] = grad
    return tables


def fusion_gradient_tables(obs_list, point: FusionPoint):
    """Per-letter translation gradients of each observable.

    Returns one dict per observable keyed by (factor, component, side) where
    side 'lmul' is the left-multiplication derivative (the right-invariant
    frame) and 'rmul' the right-multiplication derivative (the left-invariant
    frame).
    """
    return _fd_tables(obs_list, point)


def cotangent_gradients(obs_list, point: CotangentPoint):
    """(group gradient, fiber gradient) of each observable at (g, J)."""
    return [(t["group"], t["fiber"]) for t in _fd_tables(obs_list, point)]


def heisenberg_derivatives_multi(obs_list, point: HeisenbergPoint):
    """Left and right complexified derivatives (DF, D'F) of each observable.

    Both are elements of the realified complex algebra, characterized by
    im-pair(Z, DF) = d/dt F(exp(tZ) X) and the right-sided analogue.
    """
    return [(t["lmul"], t["rmul"]) for t in _fd_tables(obs_list, point)]


# ---------------------------------------------------------------------------
# exact gradient tables of word observables
# ---------------------------------------------------------------------------

def word_table(x, letters, cuts, gaps=None):
    """Gradient table of an observable of the word W_0 ... W_(k-1) at x.

    ``cuts[i]`` is the observable's gradient under inserting exp(tZ) just
    before letter i (``cuts[k]``: after the last letter), ``gaps[i]`` its
    linear gradient in letter i when that letter is the additive cotangent
    fiber 'j'.  A letter W contributes cuts[i] to its left-multiplication
    and cuts[i+1] to its right-multiplication gradient; an inverted letter
    W^-1 contributes -cuts[i+1] and -cuts[i].  Returns what
    ``fusion_gradient_tables`` or ``cotangent_gradients`` would return for
    the observable.
    """
    zero = np.zeros((x.n, x.n), dtype=complex)
    if isinstance(x, CotangentPoint):
        group = fiber = zero
        for i, name in enumerate(letters):
            if name == "j":
                if gaps is None:
                    raise UnsupportedWord("the fiber letter 'j' needs a linear gradient")
                fiber = fiber + gaps[i]
            elif name == "g":
                group = group + cuts[i]
            elif name == "g~":
                group = group - cuts[i + 1]
        return group, fiber
    if not isinstance(x, FusionPoint):
        raise UnsupportedBracket(f"no exact gradient table on {type(x).__name__}")
    table = {(f, comp, side): zero for f, comp in x.space.slots for side in ("lmul", "rmul")}
    for i, name in enumerate(letters):
        (f, comp), inverse = x.letter_slot(name)
        left, right = (-cuts[i + 1], -cuts[i]) if inverse else (cuts[i], cuts[i + 1])
        table[f, comp, "lmul"] = table[f, comp, "lmul"] + left
        table[f, comp, "rmul"] = table[f, comp, "rmul"] + right
    return table


def trace_word_table(x, letters, coeff: complex):
    """Gradient table of Re tr(coeff W_0 ... W_(k-1)) at x (Im tr: coeff -1j).

    Goldman's cyclic derivative: the word read from just after letter i
    round to just before it is the linear gradient in letter i, and the
    cyclic rotation starting at letter i is the gradient at cut i.
    """
    mats = [x.letter(name) for name in letters]
    eye = np.eye(x.n, dtype=complex)
    prefix, suffix = [eye], [eye]
    for m, m_back in zip(mats, reversed(mats)):
        prefix.append(prefix[-1] @ m)
        suffix.append(m_back @ suffix[-1])
    suffix.reverse()  # suffix[i] = W_i ... W_(k-1)
    rest = [suffix[i + 1] @ prefix[i] for i in range(len(mats))]
    cuts = [skew_traceless(coeff * (m @ r)) for m, r in zip(mats, rest)]
    gaps = [skew_traceless(coeff * r) for r in rest]
    return word_table(x, letters, cuts + cuts[:1], gaps)


def class_word_table(x, letters, grad: np.ndarray):
    """Gradient table of f(W_0 ... W_(k-1)) for a class function f of unitary letters.

    ``grad`` is f's gradient at the word's value P.  Inserting exp(tZ) after
    the prefix A moves P to exp(t A Z A^-1) P, so the gradient at that cut
    is A^-1 grad A.
    """
    cuts = [grad]
    prefix = np.eye(x.n, dtype=complex)
    for name in letters:
        prefix = prefix @ x.letter(name)
        cuts.append(prefix.conj().T @ grad @ prefix)
    return word_table(x, letters, cuts)


def _gradients(obs_list, x) -> list:
    """Gradient of each observable at x in the form the geometry's contraction reads.

    On cotangent and fusion points an observable's own ``grad_table`` is
    used when it has one; the rest, and every observable on a Heisenberg
    point, go through one call of the geometry's finite-difference engine.
    """
    if isinstance(x, HeisenbergPoint):
        return heisenberg_derivatives_multi(obs_list, x)
    if isinstance(x, FusionPoint):
        engine = fusion_gradient_tables
    elif isinstance(x, CotangentPoint):
        engine = cotangent_gradients
    else:
        raise UnsupportedBracket(f"no bracket on points of type {type(x).__name__}")
    grads = [o.grad_table(x) if hasattr(o, "grad_table") else None for o in obs_list]
    opaque = [i for i, g in enumerate(grads) if g is None]
    if opaque:
        for i, g in zip(opaque, engine([obs_list[i] for i in opaque], x)):
            grads[i] = g
    return grads


# ---------------------------------------------------------------------------
# contractions per geometry
# ---------------------------------------------------------------------------

def conjugation_gradient(table: dict, point: FusionPoint, f: int) -> np.ndarray:
    """Generating-field gradient of the diagonal conjugation on factor f."""
    n = point.n
    out = np.zeros((n, n), dtype=complex)
    for slot in point.space.factor_slots[f]:
        out = out + table[(*slot, "lmul")] - table[(*slot, "rmul")]
    return out


def total_conjugation_gradient(table: dict, point: FusionPoint) -> np.ndarray:
    n = point.n
    out = np.zeros((n, n), dtype=complex)
    for f in range(len(point.factors)):
        out = out + conjugation_gradient(table, point, f)
    return out


def _double_term(tf, th, f) -> float:
    # per-letter gradients: R = right-invariant frame (lmul), L = left-invariant (rmul)
    aRF, aLF = tf[(f, 0, "lmul")], tf[(f, 0, "rmul")]
    bRF, bLF = tf[(f, 1, "lmul")], tf[(f, 1, "rmul")]
    aRH, aLH = th[(f, 0, "lmul")], th[(f, 0, "rmul")]
    bRH, bLH = th[(f, 1, "lmul")], th[(f, 1, "rmul")]
    val = pair(aRF, aLH) - pair(aRH, aLF)
    val -= pair(bRF, bLH) - pair(bRH, bLF)
    val += pair(aLF, bLH + bRH) - pair(aLH, bLF + bRF)
    val += pair(aRF, bLH - bRH) - pair(aRH, bLF - bRF)
    return 0.5 * val


def _conj_term(tf, th, f) -> float:
    return 0.5 * (
        pair(tf[(f, 0, "lmul")], th[(f, 0, "rmul")])
        - pair(th[(f, 0, "lmul")], tf[(f, 0, "rmul")])
    )


def fusion_bracket_from_tables(tf, th, point: FusionPoint) -> float:
    """Contract the fused bivector with precomputed gradient tables."""
    total = 0.0
    for f, t in enumerate(point.space.types):
        total += _double_term(tf, th, f) if t == "D" else _conj_term(tf, th, f)
    conj_f = [conjugation_gradient(tf, point, f) for f in range(len(point.factors))]
    conj_h = [conjugation_gradient(th, point, f) for f in range(len(point.factors))]
    for f1 in range(len(point.factors)):
        for f2 in range(f1 + 1, len(point.factors)):
            total -= 0.5 * (pair(conj_f[f1], conj_h[f2]) - pair(conj_h[f1], conj_f[f2]))
    return total


def _cotangent_contraction(grad_f, grad_h, point: CotangentPoint) -> float:
    """Canonical cotangent bracket in right-translation coordinates."""
    (gf, jf), (gh, jh) = grad_f, grad_h
    lie = jf @ jh - jh @ jf
    return pair(gf, jh) - pair(gh, jf) + pair(point.j, lie)


def _half_difference(z: np.ndarray) -> np.ndarray:
    """The operator (compact projection - Borel projection)/2."""
    return 0.5 * (project_compact(z) - project_borel(z))


def _heisenberg_contraction(deriv_f, deriv_h, point: HeisenbergPoint) -> float:
    """Heisenberg-double bracket from the (DF, D'F) derivative pairs."""
    (df, dpf), (dh, dph) = deriv_f, deriv_h
    return pair(df, _half_difference(dh), IM_FORM) + pair(dpf, _half_difference(dph), IM_FORM)


# ---------------------------------------------------------------------------
# the bracket and derived checks
# ---------------------------------------------------------------------------

def bracket_matrix(obs_list, gen_obs_list, x) -> np.ndarray:
    """Brackets {obs_list[i], gen_obs_list[j]} at x, as a matrix.

    Observables with a ``grad_table`` use it; one call of the geometry's
    finite-difference engine covers all the others.  An observable passed in
    both lists (the same object) is differentiated once.
    """
    everything = list(obs_list)
    rows = len(everything)
    index = {id(o): i for i, o in enumerate(everything)}
    cols = []
    for o in gen_obs_list:
        if id(o) not in index:
            index[id(o)] = len(everything)
            everything.append(o)
        cols.append(index[id(o)])
    grads = _gradients(everything, x)
    if isinstance(x, FusionPoint):
        contract = fusion_bracket_from_tables
    elif isinstance(x, CotangentPoint):
        contract = _cotangent_contraction
    else:
        contract = _heisenberg_contraction
    out = np.zeros((rows, len(cols)))
    for i in range(rows):
        for j, c in enumerate(cols):
            out[i, j] = contract(grads[i], grads[c], x)
    return out


def poisson_bracket(f_obs, h_obs, point) -> float:
    """Bracket of two observables on any supported phase space."""
    return float(bracket_matrix([f_obs], [h_obs], point)[0, 0])


def fusion_bracket(f_obs, h_obs, point: FusionPoint) -> float:
    """Quasi-Poisson bracket of two observables on a fusion space."""
    return poisson_bracket(f_obs, h_obs, point)


def group_gradient_fd(fns, g: np.ndarray, side: str = "L") -> list[np.ndarray]:
    """Trace-form gradient of each scalar function in ``fns`` on SU(n) by differences.

    ``side`` "L" moves g to exp(tZ) g, "R" to g exp(tZ).  A function is a
    ClassFunction, whose ``values`` reads the whole stencil stack, or any
    callable of one matrix.
    """
    return _stencil_gradients(fns, ("su", _translations("su", g, side == "L"), None))


def algebra_gradient_fd(fns, j_alg: np.ndarray) -> list[np.ndarray]:
    """Trace-form gradient of each scalar function in ``fns`` on su(n) by differences.

    A function is an AlgebraFunction or any callable of one matrix.
    """
    return _stencil_gradients(fns, ("su", _shifts("su", j_alg), None))


def borel_gradient_fd(fns, b: np.ndarray) -> list[np.ndarray]:
    """Algebra-valued dressing gradient of each function in ``fns`` on the Borel group.

    Solves im-pair(Z_r, W) = d/dt fn(exp(t Z_r) b) over a Borel basis.  A
    function is a BorelFunction or any callable of one matrix.  Each
    function gets its own matrix-vector product, so its gradient does not
    depend on which other functions share the call.
    """
    n = b.shape[0]
    kb, inverse = su_basis(n), _basis("borel", n)[1]
    derivs = _stencil_derivatives(fns, ("borel", _translations("borel", b, True), None))
    out = []
    for column in derivs.T:
        coeffs = inverse @ np.ascontiguousarray(column)
        out.append(sum(coeffs[s] * kb[s] for s in range(len(kb))))
    return out


def momentum_condition_matrix(obs_list, k_fns, point: FusionPoint) -> np.ndarray:
    """Defects of the momentum-map/bivector compatibility condition, as a matrix.

    Entry (i, j) compares the bracket of obs_list[i] with the momentum
    pullback of the group function k_fns[j] against half the pairing of the
    observable's total conjugation gradient with the two-sided gradient of
    k_fns[j] at the momentum value.  Observables with a ``grad_table`` use
    it; one gradient-table call covers the others and every pullback.
    """
    pulled = [lambda x, k_fn=k_fn: k_fn(x.momentum()) for k_fn in k_fns]
    tables = _gradients(list(obs_list) + pulled, point)
    phi = point.momentum()
    two_sided = [left + right for left, right in zip(group_gradient_fd(k_fns, phi, "L"),
                                                     group_gradient_fd(k_fns, phi, "R"))]
    rows = len(obs_list)
    out = np.zeros((rows, len(k_fns)))
    for i in range(rows):
        conj_grad = total_conjugation_gradient(tables[i], point)
        for j, grad in enumerate(two_sided):
            lhs = fusion_bracket_from_tables(tables[i], tables[rows + j], point)
            out[i, j] = abs(lhs - 0.5 * pair(conj_grad, grad))
    return out


def momentum_condition_residual(f_obs, k_fn, point: FusionPoint) -> float:
    """The 1x1 case of ``momentum_condition_matrix``."""
    return float(momentum_condition_matrix([f_obs], [k_fn], point)[0, 0])
