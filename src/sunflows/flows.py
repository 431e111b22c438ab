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
"""

from __future__ import annotations

import logging

import numpy as np

from . import brackets, decomp, liecore, moduli
from .errors import ShapeError, UnsupportedBracket
from .liecore import RootDatum, adjoint, scaled
from .observables import AlgebraFunction, BorelFunction, ClassFunction, entry_observable, grad_on
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

def cotangent_flow(x: CotangentPoint, ham, tau: float) -> CotangentPoint:
    """Exact flow of an invariant Hamiltonian on the cotangent bundle.

    Fiber-invariant Hamiltonians translate the group component by
    exp(tau * grad); base class functions translate the fiber by -tau * grad.
    """
    if isinstance(ham, AlgebraFunction):
        g = liecore.expm_normal(scaled(tau, grad_on(ham, x, ("j",), x.j))) @ x.g
        return CotangentPoint(maybe_reproject(g, "cotangent group part"), x.j).keeping(x, ("j",))
    if isinstance(ham, ClassFunction):
        shift = scaled(tau, grad_on(ham, x, ("g",), x.g))
        return CotangentPoint(x.g, x.j - shift).keeping(x, ("g",))
    raise UnsupportedBracket(f"unsupported cotangent Hamiltonian {ham!r}")


def cotangent_velocity(x: CotangentPoint, ham) -> dict:
    """d/dtau of ``cotangent_flow`` at tau = 0."""
    if isinstance(ham, AlgebraFunction):
        return {"group": grad_on(ham, x, ("j",), x.j)}
    if isinstance(ham, ClassFunction):
        return {"fiber": -grad_on(ham, x, ("g",), x.g)}
    raise UnsupportedBracket(f"unsupported cotangent Hamiltonian {ham!r}")


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

def heisenberg_flow(x: HeisenbergPoint, ham, tau: float) -> HeisenbergPoint:
    """Exact flow on the Heisenberg double.

    Borel-family Hamiltonians right-translate by exp(-tau * dressing
    gradient of the right Borel factor).  Class-function Hamiltonians
    right-multiply by the Borel factor of exp(i tau * grad at the right
    unitary factor), which is positive definite because i*grad is Hermitian.
    """
    if isinstance(ham, BorelFunction):
        return HeisenbergPoint(x.x @ liecore.expm_normal(
            scaled(-tau, grad_on(ham, x, "b_right", x.factor("b_right")))))
    if isinstance(ham, ClassFunction):
        pos = liecore.expm_normal(scaled(1j * tau, grad_on(ham, x, "u_right", x.factor("u_right"))))
        return HeisenbergPoint(x.x @ decomp.iwasawa_right(pos)[0])
    raise UnsupportedBracket(f"unsupported Heisenberg Hamiltonian {ham!r}")


def heisenberg_velocity(x: HeisenbergPoint, ham) -> dict:
    """d/dtau of ``heisenberg_flow`` at tau = 0; a class function's is the first-order b_left."""
    if isinstance(ham, BorelFunction):
        return {"rmul": -grad_on(ham, x, "b_right", x.factor("b_right"))}
    if isinstance(ham, ClassFunction):
        return {"rmul": liecore.project_borel(1j * grad_on(ham, x, "u_right", x.factor("u_right")))}
    raise UnsupportedBracket(f"unsupported Heisenberg Hamiltonian {ham!r}")


def heisenberg_flow_unitary_part(x: HeisenbergPoint, ham: ClassFunction, tau: float) -> np.ndarray:
    """The unitary cofactor of the class-function flow (conjugator of u_right)."""
    pos = liecore.expm_normal(scaled(1j * tau, grad_on(ham, x, "u_right", x.factor("u_right"))))
    return adjoint(decomp.iwasawa_right(pos)[1])


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


def double_flow(x: FusionPoint, ham: ClassFunction, tau: float, slot: str) -> FusionPoint:
    """The moduli flow of a class function on the block of a double slot (``DOUBLE_BLOCKS``)."""
    return moduli.moduli_flow(x, _block_hamiltonian(ham, slot), tau)


def double_velocity(x: FusionPoint, ham: ClassFunction, slot: str) -> dict:
    """d/dtau of ``double_flow`` at tau = 0."""
    return moduli.moduli_velocity(x, _block_hamiltonian(ham, slot))


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

def flow(x, ham, tau: float, slot: str | None = None):
    """Exact flow on any supported phase point.

    ``slot`` selects the Hamiltonian family on the fused double ('first',
    'second' or 'momentum'); word Hamiltonians carry their block themselves.
    """
    if isinstance(x, CotangentPoint):
        return cotangent_flow(x, ham, tau)
    if isinstance(x, HeisenbergPoint):
        return heisenberg_flow(x, ham, tau)
    if isinstance(x, FusionPoint):
        if isinstance(ham, moduli.WordHamiltonian):
            return moduli.moduli_flow(x, ham, tau)
        return double_flow(x, ham, tau, slot or "first")
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
