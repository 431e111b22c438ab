"""Derivative and bracket engines.

Every bracket goes through ``bracket_matrix``: the point's geometry supplies
per-observable gradients (group and fiber gradients on the cotangent bundle,
left and right complexified derivatives on the Heisenberg double, per-letter
left/right gradient tables on fusion spaces), and each geometry states its
bivector P once, as its sharp map (``sharp``), from stacked gradient tables
to stacked Hamiltonian velocities keyed like the flows' velocities: the
canonical cotangent bivector, the Heisenberg-double bivector built from the
two isotropic projections, and the quasi-Poisson bivector of fusion spaces.
{F, H} is F's table paired with P-sharp of H's (``velocity_pairings``, the
one pairing kernel, which also pairs the flows' closed-form velocities).

Gradients are exact tables, and only exact tables.  An observable carries
``grad_table(point)``, returning the dict the geometry's finite-difference
engine would build, keyed like ``_tangent_blocks``: 'group' and 'fiber' on cotangent
points, the complexified derivatives 'lmul' (D) and 'rmul' (D') on the Heisenberg
double and (factor, component, side) on fusion points.  Word traces
(``word_observable``) carry it on all three, from Goldman's cyclic
derivative; class functions of words (``moduli.WordHamiltonian``,
``observables.WordFunction``) carry it on cotangent and fusion points, by
conjugating the class-function gradient along the word; functions of the
right Iwasawa factors (``observables.RightFactorFunction``, the Heisenberg
generators) carry it through the first-order Iwasawa splitting, the
dressing linearization.  Chart pullbacks are letter substitutions
(``observables.substitute``) and a momentum pullback k(mu) is a class
function of the whole momentum word, so they carry word tables too.
``bracket_matrix``, ``momentum_condition_matrix`` and ``differentials`` read
that one interface on every geometry, and refuse an observable without a
table (``UnsupportedBracket``).  The finite-difference table engine
(``_fd_tables`` and its per-geometry names) is no bracket path: it is the
oracle the exact tables are tested against.

Points may be stacks (``spaces``).  The word, class and right-factor
tables, ``gradient_stack``, ``sharp``, ``velocity_pairings``,
``bracket_matrix``, ``momentum_condition_matrix`` and ``differentials``
take a leading point axis: tables are (..., observables, n, n) and
brackets (..., rows, columns), each point with the bytes of its one-point
call.  The stencils below are built one point at a time.

Directional derivatives are fourth-order central differences with one step
per basis (``STEP``).  This module builds every finite-difference stencil,
one basis block at a time, as one (directions, offsets, n, n) stack:
translations multiply one cached array of the powers of exp(hZ) per basis
(``_steps``), and the additive directions are shifts m + k h Z.  The
gradient engines and the finite-difference oracles use them.  Gradients are
assembled against cached dual bases, so no linear solve happens per call.

The engines wrap each stencil matrix into a point and evaluate every
observable there, each point built once for all of them.  The oracles
(``group_gradient_fd``, ``algebra_gradient_fd``, ``borel_gradient_fd``) hand
the whole stack to ``stack_values`` when a function has a stacked ``value``
(the closed-form families), so a block costs one eigenvalue solve; opaque
callables see one matrix at a time.  No suite check calls the oracles: the
tests hold the exact gradients to them, and the benchmark's tracer spans them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UnsupportedBracket, UnsupportedWord
from .liecore import (
    IM_FORM,
    TRACE_FORM,
    adjoint,
    borel_basis,
    dual_basis,
    expm_diagonal,
    expm_normal,
    gram,
    ordered_sum,
    project_borel,
    project_compact,
    read_only,
    skew_traceless,
    sl_real_basis,
    su_basis,
    traceless,
)
from .spaces import CotangentPoint, FusionPoint, HeisenbergPoint

# stencil offsets, in units of the step h, and as an array (offsets, 1, 1)
_STEPS = (-2, -1, 1, 2)
_OFFSETS = np.array(_STEPS)[:, np.newaxis, np.newaxis]

# the finite-difference step of each basis; the log-composed dressing
# invariants on the Borel group carry more curvature, so their step is finer
H = 1e-3
STEP = {"su": H, "sl": H, "borel": 3e-4}
# the form each translation basis is dual under, and that pairs its directions with gradients
FORM = {"su": TRACE_FORM, "sl": IM_FORM}


def _central(values, h: float):
    """Fourth-order central difference from the values at the offsets _STEPS * h.

    The values may be scalars or arrays; arrays give one derivative per entry.
    """
    fm2, fm1, fp1, fp2 = values
    return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)


def directional_derivative(f, curve, richardson: bool = False):
    """d/dt f(curve(t)) at t = 0 by central differences, in one call of curve and of f:
    curve maps the array of stencil times to their points, stacked on a leading axis, and f
    gives one row per time (f may be array-valued).  With ``richardson`` the stack also
    holds the step-h/2 stencil, and the two differences cancel the h^4 error term."""
    times = np.array(_STEPS) * H
    rows = f(curve(np.concatenate([times, times / 2]) if richardson else times))
    base = _central(rows[:4], H)
    if not richardson:
        return base
    return (16 * _central(rows[4:], H / 2) - base) / 15


# ---------------------------------------------------------------------------
# stencils: the one place a finite-difference point is built
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _basis(kind: str, n: int):
    """(directions, dual) of the "su", "sl" or "borel" basis, as read-only arrays.

    su and sl are dual under their forms (``FORM``).  A Borel derivative is
    solved into su, so the "borel" dual is the inverse of the matrix
    im-pair(borel_r, su_s).
    """
    if kind == "borel":
        basis, su = borel_basis(n), _basis("su", n)[0]
        dual = np.linalg.inv(np.array([gram(z, su, IM_FORM) for z in basis]))
    else:
        basis = np.array(su_basis(n) if kind == "su" else sl_real_basis(n))
        dual = dual_basis(basis, FORM[kind])
    return read_only(basis), read_only(dual)


def _dual_sum(kind: str, n: int, derivs) -> np.ndarray:
    """The gradient whose derivative along each direction of the basis is ``derivs``,
    summed against the dual basis in basis order, so every bracket keeps its last bits."""
    return ordered_sum(derivs, _basis(kind, n)[1])


@lru_cache(maxsize=None)
def _steps(kind: str, n: int) -> np.ndarray:
    """exp(k h Z) for each direction Z of the basis and each offset k, h = STEP[kind].

    One read-only (directions, offsets, n, n) array.  The powers are products
    of exp(hZ) and its inverse, the adjoint on su.  Every sl and Borel
    direction is diagonal or square-zero, so exp(hZ) is exactly the entrywise
    exponential of its diagonal plus its off-diagonal part.
    """
    table = []
    for z in _basis(kind, n)[0]:
        a = STEP[kind] * z
        if kind == "su":
            e = expm_normal(a)
            ei = e.conj().T
        else:
            e = expm_diagonal(a) + (a - np.diag(np.diagonal(a)))
            ei = np.linalg.inv(e)
        powers = {1: e, -1: ei, 2: e @ e, -2: ei @ ei}
        table.append([powers[k] for k in _STEPS])
    return read_only(np.array(table))


def _translations(kind: str, m: np.ndarray, left: bool) -> np.ndarray:
    """The stencil stack (directions, offsets, n, n) of the translations u m (``left``)
    or m u of m by the table's powers u."""
    steps = _steps(kind, m.shape[0])
    return steps @ m if left else m @ steps


def _shifts(kind: str, m: np.ndarray) -> np.ndarray:
    """The stencil stack (directions, offsets, n, n) of the shifts m + k h Z."""
    directions = _basis(kind, m.shape[0])[0][:, np.newaxis]
    return m + (_OFFSETS * STEP[kind]) * directions


def _tangent_blocks(x, sides=("lmul", "rmul")):
    """(key, kind, stencil) of each block of directions spanning the tangent space at x.

    Every group slot is translated on each of ``sides`` ('lmul': u m, 'rmul':
    m u), by su on fusion and cotangent points and by sl on the Heisenberg
    double; a cotangent point has one left-translation block 'group' and the
    fiber shifts 'fiber'.  ``stencil()`` builds the block's (stack, wrap) only
    when called: wrap turns a matrix of the stack into the point the
    observables read.
    """
    if isinstance(x, CotangentPoint):
        yield "group", "su", lambda: (_translations("su", x.g, True),
                                      lambda g: CotangentPoint(g, x.j))
        yield "fiber", "su", lambda: (_shifts("su", x.j), lambda j: CotangentPoint(x.g, j))
    elif isinstance(x, HeisenbergPoint):
        for side in sides:
            yield side, "sl", lambda s=side: (_translations("sl", x.x, s == "lmul"),
                                              HeisenbergPoint)
    elif isinstance(x, FusionPoint):
        for slot in x.space.slots:
            for side in sides:
                yield (*slot, side), "su", lambda s=slot, left=side == "lmul": (
                    _translations("su", x.slot(*s), left), lambda m: x.with_slots({s: m}))
    else:
        raise UnsupportedBracket(f"no tangent stencils on points of type {type(x).__name__}")


def stack_values(fns, stack) -> np.ndarray:
    """(functions, ...): each closed-form function's ``value`` on a stack (..., n, n), one call
    each, except that the spectral functions of one kernel share its call on the stack."""
    kernels = {type(fn).spectra: fn for fn in fns if hasattr(fn, "of_spectra")}
    spectra = {kernel: fn.spectra(stack) for kernel, fn in kernels.items()}
    return np.array([fn.of_spectra(spectra[type(fn).spectra]) if hasattr(fn, "of_spectra")
                     else fn.value(stack) for fn in fns])


def _stencil_derivatives(fns, block) -> np.ndarray:
    """Central differences of each function along each stencil, (directions, functions).

    ``block`` is (kind, stack, wrap): stack[d, i] is the matrix at offset
    _STEPS[i] * h along basis direction d.  With a ``wrap`` the functions are
    observables of the points wrap(stack[d, i]), each point built once for
    all of them.  Without one they read the matrices themselves: a function
    with ``value`` (a closed-form family) evaluates the whole stack in one
    call, the spectral functions of one kernel share its spectra of the
    stack, and any other callable is called on one matrix at a time.
    """
    kind, stack, wrap = block
    values = np.empty((len(fns),) + stack.shape[:2])
    closed = [i for i, fn in enumerate(fns) if wrap is None and hasattr(fn, "value")]
    if closed:
        values[closed] = stack_values([fns[i] for i in closed], stack)
    pointwise = [i for i in range(len(fns)) if i not in closed]
    if pointwise:
        for d, row in enumerate(stack):
            for k, m in enumerate(row):
                p = m if wrap is None else wrap(m)
                for i in pointwise:
                    values[i, d, k] = fns[i](p)
    return _central(np.moveaxis(values, -1, 0), STEP[kind]).T


def _stencil_gradients(fns, block) -> list[np.ndarray]:
    """Gradient of each function from its values on a stencil block."""
    kind, stack, _ = block
    return [_dual_sum(kind, stack.shape[-1], column)
            for column in _stencil_derivatives(fns, block).T]


def differentials(fns, x) -> np.ndarray:
    """Rows: the derivative of each function along the left-translation and fiber basis at x.

    Each basis direction is paired with the function's gradient table in the
    basis's form (trace on su, im on sl).
    """
    stack = gradient_stack(fns, x)
    return np.concatenate([gram(stack[key], _basis(kind, x.n)[0], FORM[kind])
                           for key, kind, _ in _tangent_blocks(x, ("lmul",))], axis=-1)


# ---------------------------------------------------------------------------
# gradients per geometry
# ---------------------------------------------------------------------------

def _fd_tables(obs_list, x) -> list[dict]:
    """Per observable, the gradient on every block of ``_tangent_blocks(x)``, by key."""
    tables = [dict() for _ in obs_list]
    for key, kind, stencil in _tangent_blocks(x):
        for tab, grad in zip(tables, _stencil_gradients(obs_list, (kind, *stencil()))):
            tab[key] = grad
    return tables


def fusion_gradient_tables(obs_list, point: FusionPoint):
    """Per-letter translation gradients of each observable, keyed (factor, component, side).

    'lmul' is the left-multiplication derivative (the right-invariant frame),
    'rmul' the right-multiplication derivative (the left-invariant frame).
    """
    return _fd_tables(obs_list, point)


def cotangent_gradients(obs_list, point: CotangentPoint):
    """The 'group' and 'fiber' gradients of each observable at (g, J)."""
    return _fd_tables(obs_list, point)


def heisenberg_derivatives_multi(obs_list, point: HeisenbergPoint):
    """The complexified derivatives 'lmul' (DF) and 'rmul' (D'F) of each observable, by FD:
    elements of the realified complex algebra with im-pair(Z, DF) = d/dt F(exp(tZ) X) and
    the right-sided analogue."""
    return _fd_tables(obs_list, point)


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
    W^-1 contributes -cuts[i+1] and -cuts[i].  Returns the table that
    ``fusion_gradient_tables`` or ``cotangent_gradients`` builds for the
    observable.
    """
    zero = np.zeros_like(x.matrices()[0][1], dtype=complex)
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
        return {"group": group, "fiber": fiber}
    if not isinstance(x, FusionPoint):
        raise UnsupportedBracket(f"no exact gradient table on {type(x).__name__}")
    table = {(f, comp, side): zero for f, comp in x.space.slots for side in ("lmul", "rmul")}
    for i, name in enumerate(letters):
        (f, comp), inverse = x.letter_slot(name)
        left, right = (-cuts[i + 1], -cuts[i]) if inverse else (cuts[i], cuts[i + 1])
        table[f, comp, "lmul"] = table[f, comp, "lmul"] + left
        table[f, comp, "rmul"] = table[f, comp, "rmul"] + right
    return table


# per Heisenberg letter (X, X^H, X^-1, X^-H): (sign, adjoint, offset).  Translating X inserts
# +-Z or +-Z^H at the cut before or after the letter, so letter i adds sign * C_(i+offset) to
# the left and sign * C_(i+1-offset) to the right matrix of _heisenberg_word_table, each
# conjugate-transposed when ``adjoint``.
_HEISENBERG_LETTERS = {"x": (1, False, 0), "xh": (1, True, 1), "x~": (-1, False, 1),
                       "xh~": (-1, True, 0)}


def _heisenberg_word_table(letters, rotations):
    """'lmul' (D) and 'rmul' (D') of Re tr(coeff W_0 ... W_(k-1)) on the Heisenberg double.

    ``rotations[i]`` is C_i = coeff (W_i ... W_(k-1)) (W_0 ... W_(i-1)), with
    C_k = C_0: inserting Z at cut i moves the trace by Re tr(Z C_i).  Summing
    the letters' cuts gives M with d/dt F(exp(tZ) X) = Re tr(M Z) (M' on the
    right), and D is the traceless part of i M, since im-pair(Z, i M) =
    Re tr(M Z).
    """
    sides = {"lmul": 0, "rmul": 0}
    for i, name in enumerate(letters):
        sign, conjugate, offset = _HEISENBERG_LETTERS[name]
        for side, cut in zip(sides, (i + offset, i + 1 - offset)):
            c = rotations[cut]
            sides[side] = sides[side] + sign * (adjoint(c) if conjugate else c)
    return {side: traceless(1j * m) for side, m in sides.items()}


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
    rotations = [coeff * (m @ r) for m, r in zip(mats, rest)]
    if isinstance(x, HeisenbergPoint):
        return _heisenberg_word_table(letters, rotations + rotations[:1])
    cuts = [skew_traceless(c) for c in rotations]
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
        cuts.append(adjoint(prefix) @ grad @ prefix)
    return word_table(x, letters, cuts)


# per right Iwasawa factor: the part of the splitting W = k + beta (k in su(n), beta Borel)
# that moves it, and the form its functions' gradients pair in
_RIGHT_FACTOR = {"b_right": (project_borel, IM_FORM), "u_right": (project_compact, TRACE_FORM)}


def right_factor_table(x, factor: str, grad):
    """'lmul' (D) and 'rmul' (D') of F(X) = f(m), m the right Iwasawa factor ``factor`` of X.

    ``factor`` is 'b_right' (f a Borel function, whose gradient pairs in the
    im form) or 'u_right' (f a class function, the trace form); ``grad(m)``
    is f's gradient, form(V, grad(m)) = d/dt f(exp(tV) m).  First-order Iwasawa
    splitting, the dressing linearization: in X = u_left b_right^-1 =
    b_left u_right^-1, translating X by exp(tZ) inserts exp(tW), W = c^-1 Z c,
    before the factor's inverse, where c is u_left (left translation) or
    b_right (right) for b_right, and b_left or u_right for u_right.  The part
    P(W) in the factor's algebra moves m to m exp(-t P(W)); the other part
    goes to the cofactor.  So the derivative along Z is -form(P(W), m^-1
    grad(m) m), summed against the sl duals.
    """
    if not isinstance(x, HeisenbergPoint):
        raise UnsupportedBracket(f"no right Iwasawa factor on {type(x).__name__}")
    part, form = _RIGHT_FACTOR[factor]
    m = x.factor(factor)
    moved = (np.linalg.inv(m) @ grad(m) @ m)[..., np.newaxis, :, :]
    directions = _basis("sl", x.n)[0]
    # each cofactor c gets a directions axis, so that c^-1 Z c runs over the directions Z
    cofactors = [c[..., np.newaxis, :, :]
                 for c in (x.factor("u_left" if factor == "b_right" else "b_left"), m)]
    return {side: _dual_sum("sl", x.n, -gram(part(np.linalg.inv(c) @ directions @ c),
                                             moved, form)[..., 0])
            for side, c in zip(("lmul", "rmul"), cofactors)}


def _gradients(obs_list, x) -> list:
    """Each observable's own ``grad_table`` at x, in the form the geometry's sharp map reads.

    There is no fallback: an observable without a table raises
    ``UnsupportedBracket`` naming it.  Finite-difference tables are the
    tests' oracle, not a bracket path.
    """
    if type(x) not in _SHARP:
        raise UnsupportedBracket(f"no bracket on points of type {type(x).__name__}")
    for o in obs_list:
        if not hasattr(o, "grad_table"):
            raise UnsupportedBracket(f"{getattr(o, '__name__', o)!r} has no exact gradient table")
    return [o.grad_table(x) for o in obs_list]


# ---------------------------------------------------------------------------
# the bivector of each geometry, as its sharp map
# ---------------------------------------------------------------------------

def _pick(stack: dict, index) -> dict:
    return {key: s[..., index, :, :] for key, s in stack.items()}


def stack_tables(tables) -> dict:
    """Each key's matrices stacked over ``tables`` into one (..., tables, n, n) array, after
    the point axes; a table without the key holds zero there (a velocity that does not move
    that matrix)."""
    keys = dict.fromkeys(key for t in tables for key in t)
    zero = np.zeros_like(next(iter(tables[0].values())))
    return {key: np.stack([t.get(key, zero) for t in tables], axis=-3) for key in keys}


def gradient_stack(obs_list, x) -> dict:
    """The gradient tables of ``obs_list`` at x, each key's table stacked over the observables."""
    return stack_tables(_gradients(obs_list, x))


def conjugation_gradient(table: dict, slots) -> np.ndarray:
    """Generating-field gradient of the diagonal conjugation on the letters of ``slots``: the
    sum of their left- minus their right-multiplication gradients."""
    return sum(table[(*slot, "lmul")] - table[(*slot, "rmul")] for slot in slots)


def _cotangent_sharp(th, x: CotangentPoint) -> dict:
    """The canonical bivector in right-translation coordinates: the group moves by the fiber
    gradient on the left, the fiber by [fiber gradient, J] minus the group gradient."""
    jh, j = th["fiber"], x.j[..., np.newaxis, :, :]
    return {"group": jh, "fiber": jh @ j - j @ jh - th["group"]}


def _half_difference(z: np.ndarray) -> np.ndarray:
    """The operator (compact projection - Borel projection)/2, on a matrix or a stack."""
    return 0.5 * (project_compact(z) - project_borel(z))


def _heisenberg_sharp(th, x: HeisenbergPoint) -> dict:
    """The Heisenberg-double bivector (Semenov-Tian-Shansky): each side's complexified
    derivative, D on the left and D' on the right, moves that side by its half difference."""
    return {side: _half_difference(th[side]) for side in ("lmul", "rmul")}


# P-sharp of one factor's own bivector: per slot key (comp, side) of the factor, the signed
# column keys whose gradients sum to its velocity, before the overall 1/2.  'lmul' is the
# right-invariant frame (R), 'rmul' the left-invariant one (L).  A 'D' factor (a, b):
# aR: aL + bL - bR, aL: bL + bR - aR, bR: aR - aL - bL, bL: bR - aL - aR; a 'K' factor c:
# cR: cL, cL: -cR.
_FACTOR_SHARP = {
    "D": {(0, "lmul"): ((1, 0, "rmul"), (1, 1, "rmul"), (-1, 1, "lmul")),
          (0, "rmul"): ((1, 1, "rmul"), (1, 1, "lmul"), (-1, 0, "lmul")),
          (1, "lmul"): ((1, 0, "lmul"), (-1, 0, "rmul"), (-1, 1, "rmul")),
          (1, "rmul"): ((1, 1, "lmul"), (-1, 0, "rmul"), (-1, 0, "lmul"))},
    "K": {(0, "lmul"): ((1, 0, "rmul"),), (0, "rmul"): ((-1, 0, "lmul"),)},
}


def _fusion_sharp(th, x: FusionPoint) -> dict:
    """The quasi-Poisson bivector of the fusion product: each factor's own (``_FACTOR_SHARP``)
    plus, on the letters of factor g, the conjugation by sum_(f<g) C_f - sum_(f>g) C_f, where
    C_f is factor f's ``conjugation_gradient``; all halved."""
    conj = [conjugation_gradient(th, slots) for slots in x.space.factor_slots]
    v = {}
    for f, t in enumerate(x.space.types):
        w = sum(conj[:f]) - sum(conj[f + 1:])
        for (comp, side), terms in _FACTOR_SHARP[t].items():
            local = sum(sign * th[f, c, s] for sign, c, s in terms)
            v[f, comp, side] = 0.5 * (local + w if side == "lmul" else local - w)
    return v


_SHARP = {CotangentPoint: _cotangent_sharp, HeisenbergPoint: _heisenberg_sharp,
          FusionPoint: _fusion_sharp}


def sharp(th: dict, x) -> dict:
    """P-sharp: the Hamiltonian velocity of each observable whose stacked gradient table is
    ``th``, as a stacked velocity dict keyed like the tables, like ``flows``' velocities and
    like ``Point.tangent``.  The bivector of each geometry is stated here once."""
    return _SHARP[type(x)](th, x)


# ---------------------------------------------------------------------------
# the bracket and derived checks
# ---------------------------------------------------------------------------

def velocity_pairings(tf: dict, velocities: dict, x) -> np.ndarray:
    """d/dt of each row observable along each velocity, (rows, velocities), from stacked dicts
    (``stack_tables``): the sum over the velocities' keys of form(table[key], velocity[key]),
    the trace form on su and the im form on sl."""
    form = IM_FORM if isinstance(x, HeisenbergPoint) else TRACE_FORM
    return sum(gram(tf[key], v, form) for key, v in velocities.items())


def bracket_matrix(obs_list, gen_obs_list, x) -> np.ndarray:
    """Brackets {obs_list[i], gen_obs_list[j]} at x, as a matrix: the rows' tables paired
    with the columns' Hamiltonian velocities (``sharp``).

    Every observable brings its exact ``grad_table``; one without raises
    ``UnsupportedBracket``.  An observable passed in both lists (the same
    object) is differentiated once.
    """
    index = {}
    for o in [*obs_list, *gen_obs_list]:
        index.setdefault(id(o), (len(index), o))
    stack = gradient_stack([o for _, o in index.values()], x)
    rows, cols = ([index[id(o)][0] for o in side] for side in (obs_list, gen_obs_list))
    return velocity_pairings(_pick(stack, rows), sharp(_pick(stack, cols), x), x)


def fusion_bracket(f_obs, h_obs, point: FusionPoint) -> float:
    """Quasi-Poisson bracket of two observables on a fusion space."""
    return float(bracket_matrix([f_obs], [h_obs], point)[0, 0])


def group_gradient_fd(fns, g: np.ndarray) -> list[np.ndarray]:
    """Trace-form gradient of each scalar function in ``fns`` on SU(n) by differences along
    the left translations exp(tZ) g.

    A function is a ClassFunction, whose ``value`` reads the whole stencil
    stack, or any callable of one matrix.
    """
    return _stencil_gradients(fns, ("su", _translations("su", g, True), None))


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
    kb, inverse = _basis("su", n)[0], _basis("borel", n)[1]
    derivs = _stencil_derivatives(fns, ("borel", _translations("borel", b, True), None))
    return [ordered_sum(inverse @ np.ascontiguousarray(column), kb) for column in derivs.T]


def momentum_condition_matrix(obs_list, k_fns, point: FusionPoint) -> np.ndarray:
    """Defects of the moment map condition, as a (observables, class functions) matrix.

    The condition (Alekseev, Kosmann-Schwarzbach and Meinrenken) is a
    velocity identity: the Hamiltonian velocity of the momentum pullback
    k(mu) equals half the conjugation velocity of the two-sided gradient of k
    at mu.  Entry (i, j) pairs obs_list[i] with the difference for k_fns[j].
    The pullback's table is the word table of k_fns[j] over the whole
    momentum word.
    """
    phi = point.momentum()
    word = [name for f in range(len(point.factors)) for name in point.space.momentum_word(f)]
    th = stack_tables([class_word_table(point, word, k_fn.grad(phi)) for k_fn in k_fns])
    conj = point.conjugation_velocity(np.stack([k_fn.two_sided_grad(phi) for k_fn in k_fns],
                                               axis=-3))
    defect = {key: v - 0.5 * conj[key] for key, v in sharp(th, point).items()}
    return np.abs(velocity_pairings(gradient_stack(obs_list, point), defect, point))


def momentum_condition_residual(f_obs, k_fn, point: FusionPoint) -> float:
    """The 1x1 case of ``momentum_condition_matrix``."""
    return float(momentum_condition_matrix([f_obs], [k_fn], point)[0, 0])
