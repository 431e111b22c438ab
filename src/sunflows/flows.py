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

An observable is the Hamiltonian of its flow: a word function of J or of g on the cotangent
bundle, a right-factor function of b_right or of u_right on the Heisenberg double, a word
Hamiltonian (``moduli.WordHamiltonian``) on a fusion space.  ``flow``, ``velocity`` and
``torus_action`` pick the geometry by point type, and each geometry branches on what the
observables read.  Generators are a stack axis too: a flow or velocity takes a run of
observables of one ``brackets.run_of`` and gives their flows on a leading axis (unmoved
matrices as views), their velocities at axis -3, each matrix with the bytes of its
one-generator call (the one-element run).
"""

from __future__ import annotations

import logging

import numpy as np

from . import brackets, decomp, liecore, moduli
from .errors import ShapeError, UnsupportedBracket
from .liecore import RootDatum, adjoint, scaled
from .observables import ClassFunction, entry_observable, run_gradients
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


def _reading(x, run, *keys):
    """What a run of observables reads (``brackets.run_of``), one of ``keys``; anything else
    has no flow on x's geometry and raises ``UnsupportedBracket``."""
    if (kind := brackets.run_of(run[0])) and kind[1] in keys:
        return kind[1]
    raise UnsupportedBracket(f"unsupported {type(x).__name__} Hamiltonians {run!r}")


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

def cotangent_flow(x: CotangentPoint, run, tau) -> CotangentPoint:
    """Exact flows of a run of invariant Hamiltonians on the cotangent bundle.

    Functions of the fiber J translate the group component by exp(tau * grad); class
    functions of g translate the fiber by -tau * grad.
    """
    fiber = _reading(x, run, ("j",), ("g",)) == ("j",)
    z = run_gradients(run, x, 0)
    if fiber:
        g = maybe_reproject(liecore.expm_normal(scaled(tau, z)) @ x.g, "cotangent group part")
        return CotangentPoint(g, np.broadcast_to(x.j, g.shape)).keeping(x, ("j",))
    j = x.j - scaled(tau, z)
    return CotangentPoint(np.broadcast_to(x.g, j.shape), j).keeping(x, ("g",))


def cotangent_velocity(x: CotangentPoint, run) -> dict:
    """d/dtau of ``cotangent_flow`` at tau = 0."""
    fiber = _reading(x, run, ("j",), ("g",)) == ("j",)
    z = run_gradients(run, x)
    return {"group": z} if fiber else {"fiber": -z}


def cotangent_torus_action(x: CotangentPoint, tau: np.ndarray, gens) -> CotangentPoint:
    """Joint flows of the coroot action variables ``gens`` of one of the two families.

    Those of J: compact-torus action twisting the group part through the
    chamber frame of the fiber; those of g: additive action on the fiber
    through the alcove frame of the group part.
    """
    datum = gens[0].fn.datum
    if _reading(x, gens, ("j",), ("g",)) == ("j",):
        chamber = x.form(("j",), decomp.chamber_diagonalize, x.j)
        t = chamber.transport(coroot_torus_element(tau, datum))
        return CotangentPoint(maybe_reproject(t @ x.g, "cotangent torus"), x.j).keeping(x, ("j",))
    alcove = x.form(("g",), decomp.alcove_diagonalize, x.g)
    shift = alcove.transport(-1j * _weighted(tau, datum.coroots))
    return CotangentPoint(x.g, x.j - shift).keeping(x, ("g",))


# ---------------------------------------------------------------------------
# Heisenberg flows
# ---------------------------------------------------------------------------

def heisenberg_flow(x: HeisenbergPoint, run, tau) -> HeisenbergPoint:
    """Exact flows of a run of Hamiltonians on the Heisenberg double.

    Borel-family Hamiltonians right-translate by exp(-tau * dressing
    gradient of the right Borel factor).  Class-function Hamiltonians
    right-multiply by the Borel factor of exp(i tau * grad at the right
    unitary factor), which is positive definite because i*grad is Hermitian.
    """
    if _reading(x, run, "b_right", "u_right") == "u_right":
        return heisenberg_class_flow(x, run, tau)[0]
    return HeisenbergPoint(x.x @ liecore.expm_normal(scaled(-tau, run_gradients(run, x, 0))))


def heisenberg_velocity(x: HeisenbergPoint, run) -> dict:
    """d/dtau of ``heisenberg_flow`` at tau = 0; a class function's is the first-order b_left."""
    borel = _reading(x, run, "b_right", "u_right") == "b_right"
    z = run_gradients(run, x)
    return {"rmul": -z if borel else liecore.project_borel(1j * z)}


def heisenberg_class_flow(x: HeisenbergPoint, run, tau) -> tuple[HeisenbergPoint, np.ndarray]:
    """The flows of a run of class functions of u_right and their unitary cofactors (the
    conjugators of u_right), from one Iwasawa split of exp(i tau grad) each."""
    pos = liecore.expm_normal(scaled(1j * tau, run_gradients(run, x, 0)))
    b_left, u_right = decomp.iwasawa_right(pos)
    return HeisenbergPoint(x.x @ b_left), adjoint(u_right)


def positive_factorization(tau: np.ndarray, alcove, datum: RootDatum) -> np.ndarray:
    """Borel factor of frame^-1 exp(sum tau_j h_j) frame at the frame of an alcove form."""
    pos = alcove.transport(liecore.expm_diagonal(_weighted(tau, datum.coroots)))
    return decomp.iwasawa_right(pos)[0]


def heisenberg_torus_action(x: HeisenbergPoint, tau: np.ndarray, gens) -> HeisenbergPoint:
    """Joint flows of the coroot action variables ``gens`` of one of the two families.  Those of
    b_right: compact-torus action through the chamber frame of the positive part of the right
    Borel factor; those of u_right: the proper noncompact action through the positive
    factorization at u_right."""
    datum = gens[0].fn.datum
    if _reading(x, gens, "b_right", "u_right") == "b_right":
        chamber = x.form("b_right", decomp.borel_chamber_diagonalize, x.factor("b_right"))
        return HeisenbergPoint(x.x @ chamber.transport(coroot_torus_element(tau, datum)))
    alcove = x.form("u_right", decomp.alcove_diagonalize, x.factor("u_right"))
    return HeisenbergPoint(x.x @ positive_factorization(tau, alcove, datum))


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

def _dispatch(x, what: str, cotangent, heisenberg, fusion):
    """The dispatcher's function for x's geometry.  Each dispatcher names its functions at each
    call, so that a function set on a module later (a wrapper) is the one called."""
    for kind, fn in ((CotangentPoint, cotangent), (HeisenbergPoint, heisenberg),
                     (FusionPoint, fusion)):
        if isinstance(x, kind):
            return fn
    raise UnsupportedBracket(f"no {what} on points of type {type(x).__name__}")


def flow(x, run, tau):
    """Exact flows of a run of observables of one ``brackets.run_of`` on any supported phase
    point, one flowed point per observable on a leading axis."""
    return _dispatch(x, "flow", cotangent_flow, heisenberg_flow, moduli.moduli_flow)(x, run, tau)


def velocity(x, run) -> dict:
    """d/dtau of ``flow`` at tau = 0, the observable axis at -3."""
    return _dispatch(x, "velocity", cotangent_velocity, heisenberg_velocity,
                     moduli.moduli_velocity)(x, run)


def _family_torus_action(x: FusionPoint, tau, gens) -> FusionPoint:
    """The moduli torus action of word Hamiltonians, read as one row of rank angles per block."""
    tau, datum = np.asarray(tau), gens[0].fn.datum
    return moduli.moduli_torus_action(x, tau.reshape(tau.shape[:-1] + (-1, datum.rank)), gens,
                                      datum)


def torus_action(x, tau, gens):
    """The joint flows of the action variables ``gens`` (observables) by the angles tau, one per
    variable on the last axis (a row per point of a stack)."""
    return _dispatch(x, "torus action", cotangent_torus_action, heisenberg_torus_action,
                     _family_torus_action)(x, tau, gens)


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
