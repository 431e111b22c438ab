"""Commuting Hamiltonian families on fusion spaces and their exact flows.

A family is specified by a set I of single-factor indices, a disjoint set
I_hat of commutator indices, a level-0 collection J of non-intersecting
conjugation-factor intervals, optional nested interval levels, and optional
extras: consecutive commutator ranges and tail words.  Each admissible block
carries the rank-many alcove variables as generators; single-factor blocks
use coroot variables while momentum-type blocks use coweight variables, so
that all torus actions close up with period 2*pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import brackets, decomp, flows, liecore
from .errors import AssumptionViolation, InvalidPlan, InvalidShape, UnsupportedWord
from .liecore import RootDatum, adjoint, scaled
from .observables import (
    AlcoveCoroot,
    AlcoveCoweight,
    ClassFunction,
    PowerTrace,
    RunTable,
    WordFunction,
    inverse_word,
    substitute,
    word_observable,
)
from .spaces import FusionPoint, FusionSpace, conjugation_velocity


# ---------------------------------------------------------------------------
# interval families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalFamily:
    """Block data selecting a commuting family on a canonical fusion space."""

    single: tuple[int, ...] = ()
    commutators: tuple[int, ...] = ()
    intervals: tuple[tuple[int, int], ...] = ()
    nested: tuple[tuple[tuple[int, int], ...], ...] = ()
    commutator_ranges: tuple[tuple[int, int], ...] = ()
    tails: tuple[tuple[int, int], ...] = ()


def _check_interval_list(intervals, n_holes: int, what: str):
    prev_end = 0
    for lo, hi in intervals:
        if not (1 <= lo < hi <= n_holes):
            raise AssumptionViolation(
                f"clause interval-bounds: {what} [{lo},{hi}] must satisfy 1 <= lo < hi <= {n_holes}"
            )
        if lo <= prev_end:
            raise AssumptionViolation(
                f"clause interval-order: {what} [{lo},{hi}] overlaps or touches the previous interval"
            )
        prev_end = hi


def validate_family(space: FusionSpace, fam: IntervalFamily) -> None:
    """Check the admissibility clauses; raises AssumptionViolation naming the clause."""
    m, n_holes = space.num_double, space.num_conj
    if space.types != ("D",) * m + ("K",) * n_holes:
        raise AssumptionViolation("clause canonical-order: family requires a canonical space")
    if not family_blocks(fam):
        raise AssumptionViolation("clause nonempty: at least one block is required")
    for i in fam.single:
        if not 1 <= i <= m:
            raise AssumptionViolation(f"clause single-range: index {i} outside 1..{m}")
    for i in fam.commutators:
        if not 1 <= i <= m:
            raise AssumptionViolation(f"clause commutator-range: index {i} outside 1..{m}")
    if set(fam.single) & set(fam.commutators):
        raise AssumptionViolation("clause disjoint: single and commutator index sets intersect")
    if len(set(fam.single)) != len(fam.single) or len(set(fam.commutators)) != len(fam.commutators):
        raise AssumptionViolation("clause distinct: repeated factor index")
    _check_interval_list(fam.intervals, n_holes, "interval")
    if m == 0:
        if n_holes < 3:
            raise AssumptionViolation("clause m0-size: with no double factors, need n >= 3")
        covered = set()
        for lo, hi in fam.intervals:
            covered |= set(range(lo, hi + 1))
        if covered >= set(range(1, n_holes + 1)):
            raise AssumptionViolation(
                "clause m0-proper: the interval union must be a proper subset of {1..n}"
            )
    if m == 1 and n_holes == 0 and fam.commutators:
        raise AssumptionViolation(
            "clause m1n0-commutator: the torus-with-one-hole family excludes the commutator block"
        )
    lower_levels = [fam.intervals]
    for lvl, level in enumerate(fam.nested, start=1):
        _check_interval_list(level, n_holes, f"nested-level-{lvl} interval")
        for lo, hi in level:
            for prior in lower_levels:
                for plo, phi in prior:
                    inside = lo <= plo and phi <= hi and (hi - lo) > (phi - plo)
                    disjoint = hi < plo or phi < lo
                    if not (inside or disjoint):
                        raise AssumptionViolation(
                            f"clause nesting: [{lo},{hi}] neither properly contains nor avoids [{plo},{phi}]"
                        )
        lower_levels.append(level)
    blocked = set(fam.single) | set(fam.commutators)
    for k1, k2 in fam.commutator_ranges:
        if not (1 <= k1 < k2 <= m):
            raise AssumptionViolation(
                f"clause commutator-range-bounds: [{k1},{k2}] must satisfy 1 <= k1 < k2 <= {m}"
            )
        if set(range(k1, k2 + 1)) & blocked:
            raise AssumptionViolation(
                "clause commutator-range-disjoint: range meets the single/commutator index sets"
            )
    max_used = max([0, *fam.single, *fam.commutators])
    first_interval = min([lo for lo, _ in fam.intervals], default=n_holes + 1)
    for k, kappa in fam.tails:
        if not (1 <= k <= m and 0 <= kappa <= n_holes):
            raise AssumptionViolation(f"clause tail-bounds: ({k},{kappa}) outside the space")
        if k <= max_used:
            raise AssumptionViolation(
                f"clause tail-start: tail start {k} must exceed every single/commutator index"
            )
        if kappa >= first_interval:
            raise AssumptionViolation(
                f"clause tail-end: tail end {kappa} must precede the first interval"
            )


# ---------------------------------------------------------------------------
# word Hamiltonians
# ---------------------------------------------------------------------------

# the blocks of one letter of a handle: (component read, component moved, sign of the move).
# 'partner' is the fused double's chi(B) (``flows.DOUBLE_BLOCKS``), not a family block kind.
LETTER_MOVES = {"single": (0, 1, np.negative), "partner": (1, 0, np.positive)}


def block_positions(space: FusionSpace, block: tuple) -> list[int]:
    """Consecutive factor positions whose momenta multiply to the block value.

    Every momentum-type block is the product of factor momenta over a
    consecutive run of fused factors; only such runs carry the flow formula.
    """
    kind = block[0]
    d_pos, k_pos = list(space.kind_positions["D"]), list(space.kind_positions["K"])
    if kind == "commutator":
        positions = [d_pos[block[1] - 1]]
    elif kind == "interval":
        positions = k_pos[block[1] - 1 : block[2]]
    elif kind == "commutator-range":
        positions = d_pos[block[1] - 1 : block[2]]
    elif kind == "tail":
        k, kappa = block[1], block[2]
        positions = d_pos[k - 1 :] + k_pos[:kappa]
    elif kind == "span":
        positions = list(range(block[1], block[2] + 1))
    else:
        raise UnsupportedWord(f"unknown block kind {kind!r}")
    if not positions or positions != list(range(positions[0], positions[-1] + 1)):
        raise UnsupportedWord(f"block {block} is not a consecutive factor run")
    return positions


@dataclass(frozen=True)
class WordHamiltonian(RunTable):
    """A class function applied to one admissible block of a fusion point."""

    block: tuple
    classfn: ClassFunction

    @property
    def name(self) -> str:
        return f"{self.classfn.name}@{'-'.join(str(p) for p in self.block)}"

    @property
    def move(self):
        """A letter block's (component read, component moved, sign), ``LETTER_MOVES``; else None."""
        return LETTER_MOVES.get(self.block[0])

    def block_value(self, x: FusionPoint) -> np.ndarray:
        if self.move:
            return x.pair(self.block[1])[self.move[0]]
        return x.momentum(block_positions(x.space, self.block))

    def __call__(self, x: FusionPoint) -> np.ndarray:
        """The class function at the block value of x, one value per point of a stack."""
        return self.classfn.value(self.block_value(x))

    run_key = "block"

    def word(self, space: FusionSpace) -> tuple[str, ...]:
        """Letter names whose product is the block value, e.g. ('a1', 'b1', 'a1~', 'b1~', 'c1')."""
        if self.move:
            return ("ab"[self.move[0]] + str(self.block[1]),)
        return tuple(name for f in block_positions(space, self.block)
                     for name in space.momentum_word(f))

    @staticmethod
    def run_table(run, x: FusionPoint) -> dict:
        """Exact gradient tables keyed (factor, component, side), stacked over the run."""
        return brackets.class_word_table(x, run[0].word(x.space),
                                         flows.run_gradients(x, run, -3)[1])

    def letters(self, x: FusionPoint):
        """Slots (factor, component) moved by this block's flow (a letter block: the other
        letter of its handle)."""
        if self.move:
            return [(x.space.position("D", self.block[1]), self.move[1])]
        return [s for f in block_positions(x.space, self.block) for s in x.space.factor_slots[f]]


def family_blocks(fam: IntervalFamily) -> list[tuple]:
    blocks: list[tuple] = [("single", i) for i in fam.single]
    blocks += [("commutator", i) for i in fam.commutators]
    blocks += [("interval", lo, hi) for lo, hi in fam.intervals]
    for level in fam.nested:
        blocks += [("interval", lo, hi) for lo, hi in level]
    blocks += [("commutator-range", k1, k2) for k1, k2 in fam.commutator_ranges]
    blocks += [("tail", k, kappa) for k, kappa in fam.tails]
    return blocks


def hamiltonian_family(space: FusionSpace, fam: IntervalFamily,
                       datum: RootDatum) -> list[WordHamiltonian]:
    """Generators of the commuting family: one per block and alcove variable.

    Single-factor blocks carry the coroot alcove variables and every
    momentum-type block carries the coweight alcove variables.
    """
    validate_family(space, fam)
    out = []
    for block in family_blocks(fam):
        if block[0] == "single":
            fns = [AlcoveCoroot(j, datum) for j in range(datum.rank)]
        else:
            fns = [AlcoveCoweight(j, datum) for j in range(datum.rank)]
        out.extend(WordHamiltonian(block, fn) for fn in fns)
    return out


# ---------------------------------------------------------------------------
# flows and torus actions
# ---------------------------------------------------------------------------

def _move_letters(x: FusionPoint, ham: "WordHamiltonian", u: np.ndarray) -> FusionPoint:
    """Right-translate the moved letter of a letter block by u, re-projected if it drifts, or
    conjugate every letter of a momentum block by u; the others take u's axes as views."""
    if ham.move:
        moved = {s: flows.maybe_reproject(x.slot(*s) @ u, f"fusion slot {s}")
                 for s in ham.letters(x)}
    else:
        ui = adjoint(u)
        moved = {s: u @ x.slot(*s) @ ui for s in ham.letters(x)}
    if (shape := next(iter(moved.values())).shape) != x.slot(*x.space.slots[0]).shape:
        # one generator's view is m[np.newaxis], at a small part of np.broadcast_to's cost
        x = x.map(lambda m: m[np.newaxis] if shape[0] == 1 else np.broadcast_to(m, shape))
    return x.with_slots(moved)


def moduli_flow(x: FusionPoint, hams: list[WordHamiltonian], tau) -> FusionPoint:
    """Exact integral curves of a run of word Hamiltonians of one block.

    Letter blocks right-translate the other letter of their handle by
    exp(-/+ tau * grad) (``LETTER_MOVES``) and keep the form of the letter they read;
    all momentum-type blocks conjugate every letter of the block by exp(tau * grad of the
    class function at the block value).
    """
    ham = hams[0]
    t = ham.move[2](tau) if ham.move else tau
    out = _move_letters(x, ham, liecore.expm_normal(scaled(t, flows.run_gradients(x, hams)[1])))
    return out.keeping(x, ham.block) if ham.move else out


def moduli_velocity(x: FusionPoint, hams: list[WordHamiltonian]) -> dict:
    """d/dtau of ``moduli_flow`` at tau = 0, the generator axis at -3."""
    ham, z = hams[0], flows.run_gradients(x, hams, -3)[1]
    if ham.move:
        return {(*s, "rmul"): ham.move[2](z) for s in ham.letters(x)}
    return conjugation_velocity(ham.letters(x), z)


def moduli_torus_action(x: FusionPoint, taus, hams: list[WordHamiltonian],
                        datum: RootDatum) -> FusionPoint:
    """Joint torus action of a family, one angle vector per block.

    ``taus`` maps each distinct block (in family order) to a rank-length
    angle vector, (..., blocks, rank) with one set per point of a stack.
    Letter blocks translate by the coroot torus element (at -/+ the angles) in
    the alcove frame of their argument; momentum blocks conjugate by the
    coweight torus element in the alcove frame of the block value, which the
    point keeps.  A block whose letters no earlier block moved reads the form x keeps, and the
    result keeps the forms of the blocks whose letters no block moved.
    """
    blocks = dict.fromkeys(h.block for h in hams)
    reps = [WordHamiltonian(block, PowerTrace(1)) for block in blocks]
    taus = np.asarray(taus, dtype=float)
    if taus.shape[-2:] != (len(reps), datum.rank):
        raise InvalidShape(f"need {(len(reps), datum.rank)} angles, got {taus.shape}")
    reads = [{x.letter_slot(name)[0] for name in rep.word(x.space)} for rep in reps]
    out, moved = x, set()
    for rep, slots, tau in zip(reps, reads, np.moveaxis(taus, -2, 0)):
        t = (flows.coroot_torus_element(rep.move[2](tau), datum) if rep.move
             else flows.coweight_torus_element(tau, datum))
        at = out if slots & moved else x  # an unmoved block value has the bytes of x's
        alcove = at.form(rep.block, decomp.alcove_diagonalize, rep.block_value(at))
        out = _move_letters(out, rep, alcove.transport(t))
        moved |= set(rep.letters(x))
    for rep, slots in zip(reps, reads):
        if not slots & moved:
            out.keeping(x, rep.block)
    return out


# ---------------------------------------------------------------------------
# permutations of fused factors
# ---------------------------------------------------------------------------

def _swapped_space(space: FusionSpace, j) -> FusionSpace:
    """The fusion space with factors j and j+1 (0-based) exchanged."""
    if not (isinstance(j, int) and 0 <= j < len(space.types) - 1):
        raise InvalidPlan(f"no adjacent pair at position {j!r}")
    types = list(space.types)
    types[j], types[j + 1] = types[j + 1], types[j]
    return FusionSpace(space.n, tuple(types))


def swap_adjacent(x: FusionPoint, j: int) -> FusionPoint:
    """Exchange factors j and j+1 (0-based); the left momentum twists the right.

    This is the standard quasi-Poisson identification of the two fusion
    orders: (.., m_j, m_(j+1), ..) maps to (.., momentum_j(m_j) . m_(j+1), m_j, ..).
    """
    target = _swapped_space(x.space, j)
    phi = x.factor_momentum(j)
    phi_inv = adjoint(phi)
    twisted = x.with_slots({s: phi @ x.slot(*s) @ phi_inv
                            for s in x.space.factor_slots[j + 1]}).factors[j + 1]
    new_factors = list(x.factors)
    new_factors[j], new_factors[j + 1] = twisted, x.factors[j]
    return FusionPoint(target, tuple(new_factors))


def permutation_pushforward(x: FusionPoint, plan: list[int]) -> FusionPoint:
    """Apply a sequence of adjacent transpositions of fused factors."""
    out = x
    for j in plan:
        out = swap_adjacent(out, j)
    return out


def _swap_letters(space: FusionSpace, j: int) -> tuple[FusionSpace, dict]:
    """``swap_adjacent(., j)`` as a letter map: the target space and the source word of each
    target letter, phi_j . letter . phi_j^-1 on the twisted factor (phi_j: factor j's
    momentum word)."""
    target, phi = _swapped_space(space, j), space.momentum_word(j)
    words = {}
    for f, comp in target.slots:
        letter = (space.momentum_word({j: j + 1, j + 1: j}.get(f, f))[comp],)
        words[target.momentum_word(f)[comp]] = (
            phi + letter + inverse_word(phi) if f == j else letter)
    return target, words


def pullback_hamiltonian(h, plan: list[int]):
    """Observable on the source space: h, a word observable or a word Hamiltonian,
    evaluated after the pushforward.  Each swap is a letter map (``_swap_letters``), so the
    pullback is the word function of h's word in the source letters, with its exact table."""

    def pulled(space: FusionSpace):
        words = {}  # each letter of ``space``, as a word in the source letters
        for j in plan:
            space, step = _swap_letters(space, j)
            words = {name: substitute(word, words) for name, word in step.items()}
        if isinstance(h, WordHamiltonian):
            return WordFunction(h.classfn, substitute(h.word(space), words))
        return word_observable(substitute(h.letters, words), h.part)

    def obs(x: FusionPoint):
        return pulled(x.space)(x)

    obs.grad_table = lambda x: pulled(x.space).grad_table(x)
    obs.__name__ = f"pullback[{getattr(h, 'name', getattr(h, '__name__', 'h'))}]"
    return obs


# ---------------------------------------------------------------------------
# sphere-with-four-holes specifics
# ---------------------------------------------------------------------------

def sphere_family() -> IntervalFamily:
    """The commuting family of the four-holed sphere model: one interval [1,2]."""
    return IntervalFamily(intervals=((1, 2),))
