"""Derivative and bracket engines.

Every bracket goes through ``bracket_matrix``: the point's geometry supplies
per-observable gradients (group and fiber gradients on the cotangent bundle,
left and right complexified derivatives on the Heisenberg double, per-letter
left/right gradient tables on fusion spaces), and each geometry states its
bivector P once, as its sharp map (``sharp``), from stacked gradient tables
to stacked Hamiltonian velocities keyed like the flows' velocities: the
canonical cotangent bivector, the Heisenberg-double bivector built from the
two isotropic projections, and the quasi-Poisson bivector of fusion spaces,
which couples the factors through running sums of their conjugation gradients.
{F, H} is F's table paired with P-sharp of H's (``velocity_pairings``, the
one pairing kernel, which also pairs the flows' closed-form velocities; one
``liecore.gram`` per key, with no product stack).

Gradients are exact tables, and only exact tables.  An observable carries
``grad_table(point)``, returning the dict the geometry's finite-difference
engine would build, keyed like ``_tangent_blocks``: 'group' and 'fiber' on cotangent
points, the complexified derivatives 'lmul' (D) and 'rmul' (D') on the Heisenberg
double and (factor, component, side) on fusion points.  Every word table
comes from one chain rule (``word_table``): a letter of kind plain, adjoint,
inverse or inverse adjoint (``_LETTER_KINDS``) adds a signed cut of the word,
adjoint where flagged, to the keys it moves, which each geometry names
(``_letter_rule``).  Word traces (``word_observable``) carry it on all three,
from Goldman's cyclic derivative; class functions of words
(``moduli.WordHamiltonian``, ``observables.WordFunction``) carry it on
cotangent and fusion points, by conjugating the class-function gradient
along the word; functions of the
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
call.  The finite-difference tables are built one point at a time.

Every finite-difference value is a ``directional_derivative``, a fourth-order
central difference with step H.  The tables (``_fd_tables``) and the oracles
(``group_gradient_fd``, ``algebra_gradient_fd``, ``borel_gradient_fd``) take
one per basis block (``_fd_gradients``), along the translations by exp(tZ)
over every direction Z at once (``_exp_along``; the Borel curves at
``BOREL_SPEED``) or the shifts m + tZ, and sum it against a cached dual basis,
so no linear solve happens per call.  A table builds each stencil point once
for all observables; a closed-form function reads the whole stack in one
call (``stack_values``), an opaque callable one matrix at a time.  No suite
check calls them: the tests hold the exact gradients to them, and the
benchmark's tracer spans them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, groupby

import numpy as np

from .errors import ShapeError, UnsupportedBracket, UnsupportedWord
from .liecore import (
    IM_FORM,
    TRACE_FORM,
    adjoint,
    borel_basis,
    diagonal_matrix,
    dual_basis,
    expm_diagonal,
    expm_normal,
    gram,
    ordered_sum,
    project_borel,
    project_compact,
    read_only,
    scaled,
    skew_traceless,
    sl_real_basis,
    su_basis,
    traceless,
)
from .spaces import CotangentPoint, FusionPoint, HeisenbergPoint

# stencil offsets, in units of the step H
_STEPS = (-2, -1, 1, 2)

# the finite-difference step; the log-composed dressing invariants on the Borel group carry
# more curvature, so their curves run at BOREL_SPEED, a step of 3e-4
H = 1e-3
BOREL_SPEED = 0.3
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
# the curves that finite-difference tables and oracles difference along
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _basis(kind: str, n: int):
    """(directions, dual) of the "su", "sl" or "borel" basis, as read-only arrays.

    su and sl are dual under their forms (``FORM``).  A Borel derivative is
    solved into su, so the "borel" dual is su-valued: im-pair(borel_r,
    dual_s) = delta_rs, each dual summed over su in basis order.
    """
    if kind == "borel":
        basis, su = borel_basis(n), _basis("su", n)[0]
        dual = ordered_sum(np.linalg.inv(gram(basis, su, IM_FORM)).T, su)
    else:
        basis = np.array(su_basis(n) if kind == "su" else sl_real_basis(n))
        dual = dual_basis(basis, FORM[kind])
    return read_only(basis), read_only(dual)


def _dual_sum(kind: str, n: int, derivs) -> np.ndarray:
    """The gradient whose derivative along each direction of the basis is ``derivs``,
    summed against the dual basis in basis order, so every bracket keeps its last bits."""
    return ordered_sum(derivs, _basis(kind, n)[1])


def _exp_along(kind: str, n: int, t: np.ndarray) -> np.ndarray:
    """exp(tZ) for each time of t and each direction Z of the basis, (times, directions, n, n).
    Every sl and Borel direction is diagonal or square-zero, so there exp(tZ) is exactly the
    entrywise exponential of its diagonal plus its off-diagonal part."""
    a = scaled(t[:, np.newaxis], _basis(kind, n)[0])
    if kind == "su":
        return expm_normal(a)
    return expm_diagonal(a) + (a - diagonal_matrix(np.diagonal(a, axis1=-2, axis2=-1)))


def _curve(kind: str, m: np.ndarray, side: str):
    """t -> the (times, directions, n, n) stack through m along every direction Z of the
    basis: the translations exp(tZ) m ('lmul') or m exp(tZ) ('rmul'), or the shifts m + tZ
    ('shift')."""
    n = m.shape[-1]
    if side == "shift":
        return lambda t: m + scaled(t[:, np.newaxis], _basis(kind, n)[0])
    if side == "lmul":
        return lambda t: _exp_along(kind, n, t) @ m
    return lambda t: m @ _exp_along(kind, n, t)


def _tangent_blocks(x, sides=("lmul", "rmul")):
    """(key, kind, curve, wrap) of each block of directions spanning the tangent space at x.

    Every group slot is translated on each of ``sides`` by su on fusion and
    cotangent points and by sl on the Heisenberg double; a cotangent point
    has one left-translation block 'group' and the fiber shifts 'fiber'.  The
    ``curve`` builds its stack only when called; wrap turns a matrix of the
    stack into the point the observables read.
    """
    if isinstance(x, CotangentPoint):
        yield "group", "su", _curve("su", x.g, "lmul"), lambda g: CotangentPoint(g, x.j)
        yield "fiber", "su", _curve("su", x.j, "shift"), lambda j: CotangentPoint(x.g, j)
    elif isinstance(x, HeisenbergPoint):
        for side in sides:
            yield side, "sl", _curve("sl", x.x, side), HeisenbergPoint
    elif isinstance(x, FusionPoint):
        for slot in x.space.slots:
            for side in sides:
                yield ((*slot, side), "su", _curve("su", x.slot(*slot), side),
                       lambda m, s=slot: x.with_slots({s: m}))
    else:
        raise UnsupportedBracket(f"no tangent stencils on points of type {type(x).__name__}")


def stack_values(fns, stack) -> np.ndarray:
    """(functions, ...): each closed-form function's ``value`` on a stack (..., n, n), one call
    each, except that the spectral functions of one normal form share its spectra call."""
    forms = {fn.form: fn for fn in fns if hasattr(fn, "of_spectra")}
    spectra = {form: fn.spectra(stack) for form, fn in forms.items()}
    return np.array([fn.of_spectra(spectra[fn.form]) if hasattr(fn, "of_spectra")
                     else fn.value(stack) for fn in fns])


def _fd_gradients(fns, kind: str, n: int, curve, wrap=None, speed: float = 1.0) -> list:
    """Gradient of each function along one basis block: one ``directional_derivative`` on
    ``curve`` run at ``speed``, summed against the dual basis.

    With a ``wrap`` the functions are observables of the points wrap(m), each
    point built once for all of them.  Without one, the closed-form families
    (``value``) read the whole stack in one call (``stack_values``) and any
    other callable one matrix at a time.
    """
    closed = [i for i, fn in enumerate(fns) if wrap is None and hasattr(fn, "value")]
    pointwise = [i for i in range(len(fns)) if i not in closed]

    def values(stack):  # (times, directions, n, n) -> (times, directions, functions)
        out = np.empty(stack.shape[:2] + (len(fns),))
        if closed:
            out[..., closed] = np.moveaxis(stack_values([fns[i] for i in closed], stack), 0, -1)
        if pointwise:
            for index in np.ndindex(stack.shape[:2]):
                p = stack[index] if wrap is None else wrap(stack[index])
                out[index + (pointwise,)] = [fns[i](p) for i in pointwise]
        return out

    derivs = directional_derivative(values, lambda t: curve(speed * t)) / speed
    return [_dual_sum(kind, n, column) for column in derivs.T]


def differentials(fns, x) -> np.ndarray:
    """Rows: the derivative of each function along the left-translation and fiber basis at x.

    Each basis direction is paired with the function's gradient table in the
    basis's form (trace on su, im on sl).
    """
    stack = gradient_stack(fns, x)
    return np.concatenate([gram(stack[key], _basis(kind, x.n)[0], FORM[kind])
                           for key, kind, *_ in _tangent_blocks(x, ("lmul",))], axis=-1)


# ---------------------------------------------------------------------------
# gradients per geometry
# ---------------------------------------------------------------------------

def _fd_tables(obs_list, x) -> list[dict]:
    """Per observable, the gradient on every block of ``_tangent_blocks(x)``, by key."""
    tables = [dict() for _ in obs_list]
    for key, kind, curve, wrap in _tangent_blocks(x):
        for tab, grad in zip(tables, _fd_gradients(obs_list, kind, x.n, curve, wrap)):
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

# Goldman's letter kinds, (sign, adjoint, offset): translating a letter by exp(tZ) inserts Z
# at the cut just before it (left) or just after it (right); an inverse letter takes -Z, an
# adjoint letter Z^H, each at the opposite cut.  So letter i adds sign * C_(i+offset) to its
# left key and sign * C_(i+1-offset) to its right key, conjugate-transposed when ``adjoint``.
# The additive fiber 'j' is a "gap" letter: it adds its linear gradient gaps[i] instead.
_LETTER_KINDS = {"plain": (1, False, 0), "adjoint": (1, True, 1), "inverse": (-1, False, 1),
                 "inverse adjoint": (-1, True, 0), "gap": (1, False, 0)}

# each cotangent and Heisenberg letter: its kind and the keys it moves, left then right
_LETTER_RULES = {
    CotangentPoint: {"g": ("plain", "group"), "g~": ("inverse", "group"), "j": ("gap", "fiber")},
    HeisenbergPoint: {name: (kind, "lmul", "rmul") for name, kind in (
        ("x", "plain"), ("xh", "adjoint"), ("x~", "inverse"), ("xh~", "inverse adjoint"))},
}


def _letter_rule(x, name: str) -> tuple:
    """(kind, keys...) of the letter ``name`` at x: its kind and the table keys it moves.  A
    fusion letter is plain, or inverse when it ends in '~', on its slot's 'lmul' and 'rmul'."""
    if isinstance(x, FusionPoint):
        slot, inverse = x.letter_slot(name)
        return "inverse" if inverse else "plain", (*slot, "lmul"), (*slot, "rmul")
    if name not in _LETTER_RULES.get(type(x), {}):
        raise ShapeError(f"no letter {name!r} on points of type {type(x).__name__}")
    return _LETTER_RULES[type(x)][name]


def word_table(x, letters, cuts, gaps=None):
    """Gradient table of an observable of the word W_0 ... W_(k-1) at x, by the chain rule.

    ``cuts[i]`` is the observable's gradient under inserting exp(tZ) just before letter i
    (``cuts[k]``: after the last letter), ``gaps[i]`` its linear gradient in a cotangent fiber
    letter 'j'.  Each letter adds its cuts to the keys it moves, by its kind (``_letter_rule``);
    a key of ``_tangent_blocks`` that no letter moves stays zero.  The cuts are su-valued on
    cotangent and fusion points, and the complex rotations of ``trace_word_table`` on the
    Heisenberg double, whose sums that maps to D and D'; cuts stacked at axis -3, a stacked table.
    """
    zero = np.zeros_like((gaps if cuts is None else cuts)[0], dtype=complex)
    table = {key: zero for key, *_ in _tangent_blocks(x)}
    for i, name in enumerate(letters):
        kind, *keys = _letter_rule(x, name)
        sign, conjugate, offset = _LETTER_KINDS[kind]
        source = gaps if kind == "gap" else cuts
        if source is None:
            raise UnsupportedWord("the fiber letter 'j' needs a linear gradient")
        for key, cut in zip(keys, (i + offset, i + 1 - offset)):
            c = adjoint(source[cut]) if conjugate else source[cut]
            table[key] = table[key] + c if sign > 0 else table[key] - c
    return table


def trace_word_table(x, letters, coeff: complex):
    """Gradient table of Re tr(coeff W_0 ... W_(k-1)) at x (Im tr: coeff -1j).

    Goldman's cyclic derivative: the word read from just after letter i
    round to just before it is the linear gradient in letter i, and the
    cyclic rotation C_i = coeff (W_i ... W_(k-1)) (W_0 ... W_(i-1)) is the
    gradient at cut i, skew-projected on su.  On the Heisenberg double
    inserting Z at cut i moves the trace by Re tr(Z C_i), so the cuts are the
    C_i themselves, and the letters' sums M (M' on the right) give D = the
    traceless part of i M, since im-pair(Z, i M) = Re tr(M Z).
    """
    mats = [x.letter(name) for name in letters]
    eye = np.eye(x.n, dtype=complex)
    prefix = list(accumulate(mats, np.matmul, initial=eye))  # W_0 ... W_(i-1)
    suffix = list(accumulate(mats[::-1], lambda s, m: m @ s, initial=eye))[::-1]  # W_i ... W_(k-1)
    rest = [suffix[i + 1] @ prefix[i] for i in range(len(mats))]
    rotations = [coeff * (m @ r) for m, r in zip(mats, rest)]
    if isinstance(x, HeisenbergPoint):
        sums = word_table(x, letters, rotations + rotations[:1])
        return {side: traceless(1j * m) for side, m in sums.items()}
    cuts = [skew_traceless(c) for c in rotations]
    gaps = [skew_traceless(coeff * r) for r in rest]
    return word_table(x, letters, cuts + cuts[:1], gaps)


def class_word_table(x, letters, grad: np.ndarray):
    """Gradient tables of f(W_0 ... W_(k-1)) for class functions f of unitary letters.

    ``grad`` is each f's gradient at the word's value P, stacked at axis -3 as the tables are.
    Inserting exp(tZ) after the prefix A moves P to exp(t A Z A^-1) P, so the gradient at that
    cut is A^-1 grad A.  There is none on the Heisenberg double, whose letters are not unitary.
    """
    if isinstance(x, HeisenbergPoint):
        raise UnsupportedBracket("no class-function word table on the Heisenberg double")
    prefixes = accumulate(map(x.letter, letters), np.matmul, initial=np.eye(x.n, dtype=complex))
    next(prefixes)  # the cut before the first letter is grad itself
    return word_table(x, letters, [grad] + [adjoint(a) @ grad @ a
                                            for a in (p[..., np.newaxis, :, :] for p in prefixes)])


# per right Iwasawa factor: the part of the splitting W = k + beta (k in su(n), beta Borel)
# that moves it, and the form its functions' gradients pair in
_RIGHT_FACTOR = {"b_right": (project_borel, IM_FORM), "u_right": (project_compact, TRACE_FORM)}


def right_factor_table(x, factor: str, grad: np.ndarray):
    """'lmul' (D) and 'rmul' (D') of F(X) = f(m), m the right Iwasawa factor ``factor`` of X.

    ``factor`` is 'b_right' (f a Borel function, whose gradient pairs in the
    im form) or 'u_right' (f a class function, the trace form); ``grad``
    is a run of f's gradients at m, at axis -3, form(V, grad) = d/dt f(exp(tV) m), each summed
    against the duals on its own.  First-order Iwasawa
    splitting, the dressing linearization: in X = u_left b_right^-1 =
    b_left u_right^-1, translating X by exp(tZ) inserts exp(tW), W = c^-1 Z c,
    before the factor's inverse, where c is u_left (left translation) or
    b_right (right) for b_right, and b_left or u_right for u_right.  The part
    P(W) in the factor's algebra moves m to m exp(-t P(W)); the other part
    goes to the cofactor.  So the derivative along Z is -form(P(W), m^-1
    grad(m) m), summed against the sl duals.
    """
    part, form = _RIGHT_FACTOR[factor]
    m = x.factor(factor)
    moved = np.linalg.inv(m)[..., np.newaxis, :, :] @ grad @ m[..., np.newaxis, :, :]
    cofactors = np.stack([x.factor("u_left" if factor == "b_right" else "b_left"), m])
    bases = x.form(f"{factor} bases", lambda cs: _right_factor_bases(cs, part), cofactors)
    derivs = [-gram(basis, moved, form) for basis in bases]  # (..., directions, functions)
    return {side: np.stack([_dual_sum("sl", x.n, d[..., k]) for k in range(d.shape[-1])], -3)
            for side, d in zip(("lmul", "rmul"), derivs)}


def _right_factor_bases(cofactors, part) -> tuple:
    """part(c^-1 Z c) over the sl directions Z, (..., directions, n, n), for each cofactor c
    of the (2, ..., n, n) stack: the same at a point for every function of its factor."""
    directions = _basis("sl", cofactors.shape[-1])[0]
    # each cofactor c gets a directions axis, so that c^-1 Z c runs over the directions Z
    return tuple(read_only(part(np.linalg.inv(c) @ directions @ c))
                 for c in cofactors[..., np.newaxis, :, :])


def _gradients(obs_list, x) -> list:
    """Each observable's own ``grad_table`` at x, in the form the geometry's sharp map reads;
    an observable without one raises ``UnsupportedBracket`` naming it (no fallback)."""
    for o in obs_list:
        if not hasattr(o, "grad_table"):
            raise UnsupportedBracket(f"{getattr(o, '__name__', o)!r} has no exact gradient table")
    return [o.grad_table(x) for o in obs_list]


# ---------------------------------------------------------------------------
# the bivector of each geometry, as its sharp map
# ---------------------------------------------------------------------------

def _pick(stack: dict, index) -> dict:
    """Entry ``index`` of the observable axis (-3) of each key of a stacked table."""
    return {key: s[..., index, :, :] for key, s in stack.items()}


def stack_tables(tables, join=np.stack) -> dict:
    """Each key's matrices stacked over ``tables`` into one (..., tables, n, n) array, after
    the point axes (``join=np.concatenate`` joins stacked tables), keys in order of first
    appearance; a table without the key holds zero there (a velocity that does not move it)."""
    keys = dict.fromkeys(key for t in tables for key in t)
    zeros = [np.zeros_like(next(iter(t.values()))) for t in tables]
    return {key: join([t.get(key, z) for t, z in zip(tables, zeros)], axis=-3) for key in keys}


def run_of(o):
    """The rule of an observable's run: its class and ``run_key`` value
    (``observables.RunTable``), or False for an observable with a table of its own."""
    return hasattr(o, "run_table") and (type(o), getattr(o, o.run_key))


def gradient_stack(obs_list, x) -> dict:
    """The gradient tables of ``obs_list`` at x, each key's table stacked over the observables,
    in one call per run of one ``run_of``."""
    if type(x) not in _SHARP:
        raise UnsupportedBracket(f"no bracket on points of type {type(x).__name__}")
    parts = [type(run[0]).run_table(run, x) if k else stack_tables(_gradients(run, x))
             for k, run in ((k, list(run)) for k, run in groupby(obs_list, run_of))]
    return parts[0] if len(parts) == 1 else stack_tables(parts, np.concatenate)


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
    C_f is factor f's ``conjugation_gradient``; all halved.  One pass over the factors: the
    prefix sums run forward, and the suffix sums (the one factor-long list) run back."""
    conj = [conjugation_gradient(th, slots) for slots in x.space.factor_slots]
    after = list(accumulate(conj[:0:-1], lambda total, c: c + total, initial=0))
    v = {}
    for f, (t, before) in enumerate(zip(x.space.types, accumulate(conj, initial=0))):
        w = before - after.pop()  # sum_(f' > f) C_f', freed once read
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
    """d/dt of each row observable along each velocity, (..., rows, velocities), from stacked
    dicts (``stack_tables``): the sum over the velocities' keys of form(table[key],
    velocity[key]), the trace form on su and the im form on sl, one ``liecore.gram`` per key."""
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
    return _fd_gradients(fns, "su", len(g), _curve("su", g, "lmul"))


def algebra_gradient_fd(fns, j_alg: np.ndarray) -> list[np.ndarray]:
    """Trace-form gradient of each scalar function in ``fns`` on su(n) by differences.

    A function is an AlgebraFunction or any callable of one matrix.
    """
    return _fd_gradients(fns, "su", len(j_alg), _curve("su", j_alg, "shift"))


def borel_gradient_fd(fns, b: np.ndarray) -> list[np.ndarray]:
    """Algebra-valued dressing gradient of each function in ``fns`` on the Borel group: the
    su element W with im-pair(Z_r, W) = d/dt fn(exp(t Z_r) b) over a Borel basis, the curves
    at ``BOREL_SPEED``.  A function is a BorelFunction or any callable of one matrix."""
    return _fd_gradients(fns, "borel", len(b), _curve("borel", b, "lmul"), speed=BOREL_SPEED)


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
    th = class_word_table(point, word, np.stack([k_fn.grad(phi) for k_fn in k_fns], axis=-3))
    conj = point.conjugation_velocity(np.stack([k_fn.two_sided_grad(phi) for k_fn in k_fns],
                                               axis=-3))
    defect = {key: v - 0.5 * conj[key] for key, v in sharp(th, point).items()}
    return np.abs(velocity_pairings(gradient_stack(obs_list, point), defect, point))


def momentum_condition_residual(f_obs, k_fn, point: FusionPoint) -> float:
    """The 1x1 case of ``momentum_condition_matrix``."""
    return float(momentum_condition_matrix([f_obs], [k_fn], point)[0, 0])
