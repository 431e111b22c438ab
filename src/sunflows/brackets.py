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

Directional derivatives are seeded fourth-order central differences;
gradients are assembled against cached dual bases, so no linear solve
happens per call.  Every gradient engine, the finite-difference oracles
included, takes a list of observables and evaluates all of them at each
stencil point once.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class DiffConfig:
    """Finite-difference step control for all derivative engines."""

    h: float = 1e-3

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("step must be positive")


DEFAULT_DIFF = DiffConfig()

# stencil offsets, in units of the step h
_STEPS = (-2, -1, 1, 2)


def _central(values, h: float):
    """Fourth-order central difference from the values at the offsets _STEPS * h.

    The values may be scalars or arrays; arrays give one derivative per entry.
    """
    fm2, fm1, fp1, fp2 = values
    return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)


def directional_derivative(f, curve, cfg: DiffConfig = DEFAULT_DIFF, richardson: bool = False):
    """d/dt f(curve(t)) at t = 0 by central differences; f may be array-valued.

    With ``richardson`` the step-h and step-h/2 differences are combined to
    cancel the h^4 error term.
    """
    base = _central([f(curve(k * cfg.h)) for k in _STEPS], cfg.h)
    if not richardson:
        return base
    half = cfg.h / 2
    fine = _central([f(curve(k * half)) for k in _STEPS], half)
    return (16 * fine - base) / 15


# ---------------------------------------------------------------------------
# cached bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _su_pair(n: int):
    basis = su_basis(n)
    return basis, dual_basis(basis, TRACE_FORM)

@lru_cache(maxsize=None)
def _sl_pair(n: int):
    basis = sl_real_basis(n)
    return basis, dual_basis(basis, IM_FORM)

@lru_cache(maxsize=None)
def _borel_to_su_inverse(n: int):
    """Inverse of the matrix im-pair(borel_r, su_s), for Borel gradients."""
    bb, kb = borel_basis(n), su_basis(n)
    m = np.array([[pair(z, w, IM_FORM) for w in kb] for z in bb])
    return np.linalg.inv(m)

@lru_cache(maxsize=None)
def _group_steps(n: int, h: float):
    """exp(k h Z) for each su-basis direction Z and each stencil offset k."""
    basis, dual = _su_pair(n)
    table = []
    for z in basis:
        e = scipy.linalg.expm(h * z)
        ei = e.conj().T
        powers = {1: e, -1: ei, 2: e @ e, -2: ei @ ei}
        table.append([powers[k] for k in _STEPS])
    return basis, dual, table

@lru_cache(maxsize=None)
def _sl_steps(n: int, h: float):
    basis, dual = _sl_pair(n)
    table = []
    for z in basis:
        e = scipy.linalg.expm(h * z)
        em = np.linalg.inv(e)
        powers = {1: e, -1: em, 2: e @ e, -2: em @ em}
        table.append([powers[k] for k in _STEPS])
    return basis, dual, table


@lru_cache(maxsize=None)
def _expm_steps(basis: str, n: int, h: float):
    """expm((k h) Z) for each direction Z of the "su" or "borel" basis and each offset k.

    These are the stencil points of the finite-difference oracles, computed as
    their one-curve-per-call form did; unlike _group_steps, no power is squared.
    """
    directions = _su_pair(n)[0] if basis == "su" else borel_basis(n)
    return [[scipy.linalg.expm((k * h) * z) for k in _STEPS] for z in directions]


def _stencil_derivatives(obs_list, stencils, cfg: DiffConfig) -> np.ndarray:
    """Central differences of each observable along each stencil, (directions, observables).

    ``stencils`` yields, for each basis direction in order, the points at the
    offsets _STEPS * h along it.  Every point is evaluated once for all
    observables.
    """
    return np.array([
        _central(np.array([[obs(p) for obs in obs_list] for p in points]), cfg.h)
        for points in stencils
    ])


def _stencil_gradients(obs_list, stencils, dual, cfg: DiffConfig) -> list[np.ndarray]:
    """Gradient of each observable from its values on per-direction stencils.

    The central differences are summed against the dual basis one direction
    at a time, in basis order: a BLAS contraction would reorder the sum and
    change the last bits of every bracket.
    """
    derivs = _stencil_derivatives(obs_list, stencils, cfg)
    return [sum(d * e for d, e in zip(column, dual)) for column in derivs.T]


# ---------------------------------------------------------------------------
# gradients per geometry
# ---------------------------------------------------------------------------

def fusion_gradient_tables(obs_list, point: FusionPoint, cfg: DiffConfig = DEFAULT_DIFF):
    """Per-letter translation gradients of each observable.

    Returns one dict per observable keyed by (factor, component, side) where
    side 'lmul' is the left-multiplication derivative (the right-invariant
    frame) and 'rmul' the right-multiplication derivative (the left-invariant
    frame).
    """
    _, dual, table = _group_steps(point.n, cfg.h)
    tables = [dict() for _ in obs_list]
    for slot in point.space.slots:
        m = point.slot(*slot)
        for side in ("lmul", "rmul"):
            stencils = ([point.with_slots({slot: u @ m if side == "lmul" else m @ u})
                         for u in us] for us in table)
            grads = _stencil_gradients(obs_list, stencils, dual, cfg)
            for tab, grad in zip(tables, grads):
                tab[(*slot, side)] = grad
    return tables


def cotangent_gradients(obs_list, point: CotangentPoint, cfg: DiffConfig = DEFAULT_DIFF):
    """(group gradient, fiber gradient) of each observable at (g, J)."""
    basis, dual, table = _group_steps(point.n, cfg.h)
    group = _stencil_gradients(
        obs_list, ([CotangentPoint(u @ point.g, point.j) for u in us] for us in table),
        dual, cfg)
    fiber = _stencil_gradients(
        obs_list, ([CotangentPoint(point.g, point.j + k * cfg.h * z) for k in _STEPS]
                   for z in basis),
        dual, cfg)
    return list(zip(group, fiber))


def heisenberg_derivatives_multi(obs_list, point: HeisenbergPoint,
                                 cfg: DiffConfig = DEFAULT_DIFF):
    """Left and right complexified derivatives (DF, D'F) of each observable.

    Both are elements of the realified complex algebra, characterized by
    im-pair(Z, DF) = d/dt F(exp(tZ) X) and the right-sided analogue.
    """
    _, dual, table = _sl_steps(point.n, cfg.h)
    left = _stencil_gradients(
        obs_list, ([HeisenbergPoint(u @ point.x) for u in us] for us in table), dual, cfg)
    right = _stencil_gradients(
        obs_list, ([HeisenbergPoint(point.x @ u) for u in us] for us in table), dual, cfg)
    return list(zip(left, right))


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


def _gradients(obs_list, x, cfg: DiffConfig) -> list:
    """Gradient of each observable at x in the form the geometry's contraction reads.

    On cotangent and fusion points an observable's own ``grad_table`` is
    used when it has one; the rest, and every observable on a Heisenberg
    point, go through one call of the geometry's finite-difference engine.
    """
    if isinstance(x, HeisenbergPoint):
        return heisenberg_derivatives_multi(obs_list, x, cfg)
    if isinstance(x, FusionPoint):
        engine = fusion_gradient_tables
    elif isinstance(x, CotangentPoint):
        engine = cotangent_gradients
    else:
        raise UnsupportedBracket(f"no bracket on points of type {type(x).__name__}")
    grads = [o.grad_table(x) if hasattr(o, "grad_table") else None for o in obs_list]
    opaque = [i for i, g in enumerate(grads) if g is None]
    if opaque:
        for i, g in zip(opaque, engine([obs_list[i] for i in opaque], x, cfg)):
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

def bracket_matrix(obs_list, gen_obs_list, x, cfg: DiffConfig = DEFAULT_DIFF) -> np.ndarray:
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
    grads = _gradients(everything, x, cfg)
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


def poisson_bracket(f_obs, h_obs, point, cfg: DiffConfig = DEFAULT_DIFF) -> float:
    """Bracket of two observables on any supported phase space."""
    return float(bracket_matrix([f_obs], [h_obs], point, cfg)[0, 0])


def fusion_bracket(f_obs, h_obs, point: FusionPoint, cfg: DiffConfig = DEFAULT_DIFF) -> float:
    """Quasi-Poisson bracket of two observables on a fusion space."""
    return poisson_bracket(f_obs, h_obs, point, cfg)


def group_gradient_fd(fns, g: np.ndarray, side: str = "L",
                      cfg: DiffConfig = DEFAULT_DIFF) -> list[np.ndarray]:
    """Trace-form gradient of each scalar function in ``fns`` on SU(n) by differences.

    ``side`` "L" moves g to exp(tZ) g, "R" to g exp(tZ).
    """
    n = g.shape[0]
    table = _expm_steps("su", n, cfg.h)
    stencils = ([u @ g if side == "L" else g @ u for u in us] for us in table)
    return _stencil_gradients(fns, stencils, _su_pair(n)[1], cfg)


def algebra_gradient_fd(fns, j_alg: np.ndarray,
                        cfg: DiffConfig = DEFAULT_DIFF) -> list[np.ndarray]:
    """Trace-form gradient of each scalar function in ``fns`` on su(n) by differences."""
    basis, dual = _su_pair(j_alg.shape[0])
    stencils = ([j_alg + (k * cfg.h) * z for k in _STEPS] for z in basis)
    return _stencil_gradients(fns, stencils, dual, cfg)


def borel_gradient_fd(fns, b: np.ndarray, cfg: DiffConfig = DEFAULT_DIFF) -> list[np.ndarray]:
    """Algebra-valued dressing gradient of each function in ``fns`` on the Borel group.

    Solves im-pair(Z_r, W) = d/dt fn(exp(t Z_r) b) over a Borel basis.  Each
    function gets its own matrix-vector product, so its gradient does not
    depend on which other functions share the call.
    """
    n = b.shape[0]
    kb = su_basis(n)
    stencils = ([u @ b for u in us] for us in _expm_steps("borel", n, cfg.h))
    derivs = _stencil_derivatives(fns, stencils, cfg)
    out = []
    for column in derivs.T:
        coeffs = _borel_to_su_inverse(n) @ np.ascontiguousarray(column)
        out.append(sum(coeffs[s] * kb[s] for s in range(len(kb))))
    return out


def momentum_condition_matrix(obs_list, k_fns, point: FusionPoint,
                              cfg: DiffConfig = DEFAULT_DIFF) -> np.ndarray:
    """Defects of the momentum-map/bivector compatibility condition, as a matrix.

    Entry (i, j) compares the bracket of obs_list[i] with the momentum
    pullback of the group function k_fns[j] against half the pairing of the
    observable's total conjugation gradient with the two-sided gradient of
    k_fns[j] at the momentum value.  Observables with a ``grad_table`` use
    it; one gradient-table call covers the others and every pullback.
    """
    pulled = [lambda x, k_fn=k_fn: k_fn(x.momentum()) for k_fn in k_fns]
    tables = _gradients(list(obs_list) + pulled, point, cfg)
    phi = point.momentum()
    two_sided = [left + right for left, right in zip(group_gradient_fd(k_fns, phi, "L", cfg),
                                                     group_gradient_fd(k_fns, phi, "R", cfg))]
    rows = len(obs_list)
    out = np.zeros((rows, len(k_fns)))
    for i in range(rows):
        conj_grad = total_conjugation_gradient(tables[i], point)
        for j, grad in enumerate(two_sided):
            lhs = fusion_bracket_from_tables(tables[i], tables[rows + j], point)
            out[i, j] = abs(lhs - 0.5 * pair(conj_grad, grad))
    return out


def momentum_condition_residual(f_obs, k_fn, point: FusionPoint,
                                cfg: DiffConfig = DEFAULT_DIFF) -> float:
    """The 1x1 case of ``momentum_condition_matrix``."""
    return float(momentum_condition_matrix([f_obs], [k_fn], point, cfg)[0, 0])
