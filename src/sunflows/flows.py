"""Closed-form flows, their tau = 0 velocities (keyed like gradient tables) and torus actions.

All flows are exact group-theoretic formulas; no integrator touches the main
paths.  An optional Runge-Kutta integration of the bracket-defined vector
field exists purely as a cross-check oracle.  After each flow step the
unitarity drift of group components is measured and, only if it exceeds the
drift tolerance, the component is re-projected (and the event logged).

Flows, velocities and torus actions act on stacked points (``spaces``), with
one flow time or one row of torus angles per point, or one for all of them.
They read the normal forms and Iwasawa halves the point keeps (``spaces.Point.form``), so
every generator and torus action at one point shares one per matrix.

Generators are a stack axis too: a flow or velocity takes a run of Hamiltonians of one
``rule`` and gives their flows on a leading axis (unmoved matrices as views), their velocities
at axis -3, each matrix with the bytes of its one-generator call (the one-element run).
"""

from __future__ import annotations

import logging

import numpy as np

from . import brackets, decomp, liecore, moduli
from .errors import ShapeError, UnsupportedBracket
from .liecore import RootDatum, adjoint, scaled
from .observables import (AlgebraFunction, BorelFunction, ClassFunction, entry_observable,
                          grads_on)
from .spaces import CotangentPoint, FusionPoint, HeisenbergPoint

logger = logging.getLogger(__name__)

DRIFT_TOL = 1e-9


def maybe_reproject(u: np.ndarray, label: str) -> np.ndarray:
    """u with each matrix that drifts more than DRIFT_TOL re-projected, one event each."""
    drift = np.asarray(liecore.unitarity_defect(u))
    bad = drift > DRIFT_TOL
    if not bad.any():
        return u
    for d in drift[bad]:
        logger.warning("unitarity drift %.3e on %s; re-projecting", d, label)
    u = u.copy()
    u[bad] = liecore.project_special_unitary(u[bad])
    return u


def rule(ham):
    """The rule of a Hamiltonian's flow: a word Hamiltonian's block, else its domain base."""
    kinds = (AlgebraFunction, BorelFunction, ClassFunction)
    return next((kind for kind in kinds if isinstance(ham, kind)), getattr(ham, "block", None))


# the matrix that each kind of Hamiltonian reads on the cotangent bundle and Heisenberg double
_READS = {CotangentPoint: {AlgebraFunction: ("j",), ClassFunction: ("g",)},
          HeisenbergPoint: {BorelFunction: "b_right", ClassFunction: "u_right"}}


def run_gradients(x, hams, axis: int = 0) -> tuple:
    """(rule, gradients) of a run of Hamiltonians of one rule, each at the matrix it reads
    (``_READS``; a word Hamiltonian's block value), on a new axis (``grads_on``)."""
    if len(kinds := {rule(h) for h in hams}) != 1:
        raise UnsupportedBracket(f"a run of Hamiltonians shares one rule, not {kinds}")
    kind = kinds.pop()
    if isinstance(x, FusionPoint):
        return kind, grads_on([h.classfn for h in hams], x, kind, hams[0].block_value(x), axis)
    if (key := _READS[type(x)].get(kind)) is None:
        raise UnsupportedBracket(f"unsupported {type(x).__name__} Hamiltonians {hams!r}")
    m = x.factor(key) if isinstance(x, HeisenbergPoint) else getattr(x, key[0])
    return kind, grads_on(hams, x, key, m, axis)


# ---------------------------------------------------------------------------
# torus elements
# ---------------------------------------------------------------------------

def _weighted(tau: np.ndarray, elements) -> np.ndarray:
    """sum_j tau[..., j] e_j, per row of angles tau."""
    tau = np.asarray(tau, dtype=float)[..., np.newaxis, np.newaxis]
    return sum(tau[..., j, :, :] * e for j, e in enumerate(elements))


def coroot_torus_element(tau: np.ndarray, datum: RootDatum) -> np.ndarray:
    """exp(-i sum tau_j h_j) over the simple coroots."""
    return liecore.expm_diagonal(-1j * _weighted(tau, datum.coroots))


def coweight_torus_element(tau: np.ndarray, datum: RootDatum) -> np.ndarray:
    """exp(-i sum tau_j w_j) over the fundamental coweights."""
    return liecore.expm_diagonal(-1j * _weighted(tau, datum.coweights))


# ---------------------------------------------------------------------------
# cotangent flows
# ---------------------------------------------------------------------------

def cotangent_flow(x: CotangentPoint, hams, tau) -> CotangentPoint:
    """Exact flows of a run of invariant Hamiltonians on the cotangent bundle.

    Fiber-invariant Hamiltonians translate the group component by
    exp(tau * grad); base class functions translate the fiber by -tau * grad.
    """
    kind, z = run_gradients(x, hams)
    if kind is AlgebraFunction:
        g = maybe_reproject(liecore.expm_normal(scaled(tau, z)) @ x.g, "cotangent group part")
        return CotangentPoint(g, np.broadcast_to(x.j, g.shape)).keeping(x, ("j",))
    j = x.j - scaled(tau, z)
    return CotangentPoint(np.broadcast_to(x.g, j.shape), j).keeping(x, ("g",))


def cotangent_velocity(x: CotangentPoint, hams) -> dict:
    """d/dtau of ``cotangent_flow`` at tau = 0."""
    kind, z = run_gradients(x, hams, -3)
    return {"group": z} if kind is AlgebraFunction else {"fiber": -z}


def cotangent_torus_action(x: CotangentPoint, tau: np.ndarray, family: str,
                           datum: RootDatum) -> CotangentPoint:
    """Joint flows of the two commuting families.

    'chamber': compact-torus action twisting the group part through the
    chamber frame of the fiber; 'translate': additive action on the fiber
    through the alcove frame of the group part.
    """
    if family == "chamber":
        chamber = x.form(("j",), decomp.chamber_diagonalize, x.j)
        t = chamber.transport(coroot_torus_element(tau, datum))
        return CotangentPoint(maybe_reproject(t @ x.g, "cotangent torus"), x.j).keeping(x, ("j",))
    if family == "translate":
        alcove = x.form(("g",), decomp.alcove_diagonalize, x.g)
        shift = alcove.transport(-1j * _weighted(tau, datum.coroots))
        return CotangentPoint(x.g, x.j - shift).keeping(x, ("g",))
    raise ShapeError(f"unknown cotangent torus family {family!r}")


# ---------------------------------------------------------------------------
# Heisenberg flows
# ---------------------------------------------------------------------------

def heisenberg_flow(x: HeisenbergPoint, hams, tau) -> HeisenbergPoint:
    """Exact flows of a run of Hamiltonians on the Heisenberg double.

    Borel-family Hamiltonians right-translate by exp(-tau * dressing
    gradient of the right Borel factor).  Class-function Hamiltonians
    right-multiply by the Borel factor of exp(i tau * grad at the right
    unitary factor), which is positive definite because i*grad is Hermitian.
    """
    if rule(hams[0]) is ClassFunction:
        return heisenberg_class_flow(x, hams, tau)[0]
    return HeisenbergPoint(x.x @ liecore.expm_normal(scaled(-tau, run_gradients(x, hams)[1])))


def heisenberg_velocity(x: HeisenbergPoint, hams) -> dict:
    """d/dtau of ``heisenberg_flow`` at tau = 0; a class function's is the first-order b_left."""
    kind, z = run_gradients(x, hams, -3)
    return {"rmul": -z if kind is BorelFunction else liecore.project_borel(1j * z)}


def heisenberg_class_flow(x: HeisenbergPoint, hams, tau) -> tuple[HeisenbergPoint, np.ndarray]:
    """The flows of a run of class-function Hamiltonians and their unitary cofactors (the
    conjugators of u_right), from one Iwasawa split of exp(i tau grad) each."""
    pos = liecore.expm_normal(scaled(1j * tau, run_gradients(x, hams)[1]))
    b_left, u_right = decomp.iwasawa_right(pos)
    return HeisenbergPoint(x.x @ b_left), adjoint(u_right)


def positive_factorization(tau: np.ndarray, alcove, datum: RootDatum) -> np.ndarray:
    """Borel factor of frame^-1 exp(sum tau_j h_j) frame at the frame of an alcove form."""
    pos = alcove.transport(liecore.expm_diagonal(_weighted(tau, datum.coroots)))
    return decomp.iwasawa_right(pos)[0]


def heisenberg_torus_action(x: HeisenbergPoint, tau: np.ndarray, family: str,
                            datum: RootDatum) -> HeisenbergPoint:
    """'dress': compact-torus action through the chamber frame of the
    positive part of the right Borel factor; 'translate': the proper
    noncompact action through the positive factorization at u_right."""
    if family == "dress":
        chamber = x.form("b_right", decomp.borel_chamber_diagonalize, x.factor("b_right"))
        return HeisenbergPoint(x.x @ chamber.transport(coroot_torus_element(tau, datum)))
    if family == "translate":
        alcove = x.form("u_right", decomp.alcove_diagonalize, x.factor("u_right"))
        return HeisenbergPoint(x.x @ positive_factorization(tau, alcove, datum))
    raise ShapeError(f"unknown Heisenberg torus family {family!r}")


# ---------------------------------------------------------------------------
# internally fused double: the one-handle fusion space
# ---------------------------------------------------------------------------

# the double's slots as blocks of its one handle: chi(A) right-translates B ('single'), chi(B)
# right-translates A ('partner') and chi([A, B]) conjugates both ('commutator')
DOUBLE_BLOCKS = {"first": ("single", 1), "second": ("partner", 1), "momentum": ("commutator", 1)}


def _block_hamiltonian(ham: ClassFunction | None, slot: str):
    """The word Hamiltonian of ham on the block of a double slot (a torus action reads no ham)."""
    if slot not in DOUBLE_BLOCKS:
        raise ShapeError(f"unknown double slot {slot!r}")
    return moduli.WordHamiltonian(DOUBLE_BLOCKS[slot], ham)


def double_flow(x: FusionPoint, hams, tau, slot: str) -> FusionPoint:
    """The moduli flows of a run of class functions on the block of a double slot
    (``DOUBLE_BLOCKS``)."""
    return moduli.moduli_flow(x, [_block_hamiltonian(h, slot) for h in hams], tau)


def double_velocity(x: FusionPoint, hams, slot: str) -> dict:
    """d/dtau of ``double_flow`` at tau = 0."""
    return moduli.moduli_velocity(x, [_block_hamiltonian(h, slot) for h in hams])


def double_torus_action(x: FusionPoint, tau: np.ndarray, slot: str,
                        datum: RootDatum) -> FusionPoint:
    """The moduli torus action of the block of a double slot, one angle row per point."""
    return moduli.moduli_torus_action(x, np.asarray(tau)[..., np.newaxis, :],
                                      [_block_hamiltonian(None, slot)], datum)


def s_transform(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mapping-class building block (A, B) -> (B^-1, B^-1 A B)."""
    bi = adjoint(b)
    return bi, bi @ a @ b


# s_transform as a letter map of the double: the word each target letter reads in the source
# letters, so a word function pulls back to the word function of ``observables.substitute``
S_LETTERS = {"a1": ("b1~",), "b1": ("b1~", "a1", "b1")}


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------

def flow(x, hams, tau, slot: str | None = None):
    """Exact flows of a run of Hamiltonians on any supported phase point; ``slot`` selects the
    fused double's family ('first', 'second' or 'momentum'), word Hamiltonians carry a block."""
    if isinstance(x, CotangentPoint):
        return cotangent_flow(x, hams, tau)
    if isinstance(x, HeisenbergPoint):
        return heisenberg_flow(x, hams, tau)
    if isinstance(x, FusionPoint):
        if isinstance(hams[0], moduli.WordHamiltonian):
            return moduli.moduli_flow(x, hams, tau)
        return double_flow(x, hams, tau, slot or "first")
    raise UnsupportedBracket(f"no flow on points of type {type(x).__name__}")


def torus_action(x, tau, datum: RootDatum, kind: str):
    """Joint torus/line action maps by kind name.

    Kinds: cotangent 'chamber'/'translate', Heisenberg 'dress'/'translate',
    double the slots of ``DOUBLE_BLOCKS``.  Word-Hamiltonian families use the
    moduli-space action directly.
    """
    if isinstance(x, CotangentPoint):
        return cotangent_torus_action(x, tau, kind, datum)
    if isinstance(x, HeisenbergPoint):
        return heisenberg_torus_action(x, tau, kind, datum)
    if isinstance(x, FusionPoint):
        return double_torus_action(x, tau, kind, datum)
    raise UnsupportedBracket(f"no torus action on {type(x).__name__}")


# ---------------------------------------------------------------------------
# bracket-defined oracle
# ---------------------------------------------------------------------------

def rk4_bracket_flow(x: FusionPoint, ham_obs, tau: float, steps: int = 16) -> FusionPoint:
    """Integrate the bracket-defined vector field; cross-check oracle only.

    The tangent vector at a point is assembled from the brackets of the
    matrix entries with the Hamiltonian: Re and Im of entry (i, j) of a
    letter are the exact ``entry_observable``s of E_ji and -i E_ji.  Then the
    factors are stepped additively and re-projected to the group after the
    integration.
    """
    eye = np.eye(x.n)
    entries = [entry_observable(c * np.outer(eye[j], eye[i]), x.space.momentum_word(f)[comp])
               for f, comp in x.space.slots for i in range(x.n) for j in range(x.n)
               for c in (1, -1j)]

    def vector(p: FusionPoint) -> list:
        """(slot, velocity) for every slot of p."""
        vals = brackets.bracket_matrix(entries, [ham_obs], p)[:, 0]
        vel = (vals[0::2] + 1j * vals[1::2]).reshape(-1, p.n, p.n)
        return list(zip(p.space.slots, vel))

    def shifted(p: FusionPoint, vec, scale: float) -> FusionPoint:
        return p.with_slots({slot: p.slot(*slot) + scale * m for slot, m in vec})

    def step(p: FusionPoint, dt: float) -> FusionPoint:
        k1 = vector(p)
        k2 = vector(shifted(p, k1, dt / 2))
        k3 = vector(shifted(p, k2, dt / 2))
        k4 = vector(shifted(p, k3, dt))
        total = [(slot, m1 + 2 * m2 + 2 * m3 + m4)
                 for (slot, m1), (_, m2), (_, m3), (_, m4) in zip(k1, k2, k3, k4)]
        return shifted(p, total, dt / 6)

    p = x
    dt = tau / steps
    for _ in range(steps):
        p = step(p, dt)
    return p.map(liecore.project_special_unitary)
