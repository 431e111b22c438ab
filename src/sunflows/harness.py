"""Uniform per-space harnesses used by the scenario runner and test suites.

A harness bundles, for one phase space: regular point sampling, a probe
family of word observables, the commuting families of generators (each an observable that
is the Hamiltonian of its exact flow), the torus actions with their periodicity type (the
joint flows of the family's action variables) and the conserved quantities per family.  The
symmetry action is the points' own ``conjugate``.  The checks are written once against it.
A run of generators of one rule (``brackets.run_of``) flows and differentiates in one call
(``runs``); flows, velocities and torus actions are those of ``flows``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from . import brackets, decomp, flows, liecore, moduli
from .errors import (InvalidShape, NotPositiveDefinite, RegularityViolation, SamplingFailure,
                     SingularMatrix)
from .liecore import RootDatum, adjoint
from .observables import (
    AlcoveCoroot,
    AlgebraPower,
    BorelChamberCoroot,
    BorelPower,
    ChamberCoroot,
    PowerTrace,
    RightFactorFunction,
    WordFunction,
    word_observable,
)
from .spaces import (
    CotangentPoint,
    FusionSpace,
    HeisenbergPoint,
    cotangent_momentum,
    double_space,
    heisenberg_momentum,
    moduli_space,
    sphere_space,
)

SAMPLING_MARGIN = 0.08
# the errors by which a sampler's check rejects a candidate; any other error is a fault
_REJECTIONS = (RegularityViolation, NotPositiveDefinite, SingularMatrix)


@dataclass(frozen=True)
class Generator:
    """One commuting-family generator: its observable, which is the Hamiltonian of its exact
    flow (``flows.flow``); a run of generators flows and differentiates in one call."""

    name: str
    obs: object  # a WordFunction, RightFactorFunction or moduli.WordHamiltonian

    def flow(self, p, tau):
        """The one-element run's flow, its generator axis dropped."""
        out = Run([self]).flow(p, tau)
        return out.map(lambda m: m[0]).keeping(out)

    def velocity(self, p) -> dict:
        """The one-element run's velocity, its generator axis dropped."""
        return {key: v[..., 0, :, :] for key, v in Run([self]).velocity(p).items()}


class Run(tuple):
    """Consecutive generators of one rule (``runs``): one flow and one velocity call each."""

    def flow(self, p, tau):
        return flows.flow(p, [g.obs for g in self], tau)

    def velocity(self, p) -> dict:
        return flows.velocity(p, [g.obs for g in self])


def runs(gens) -> list[Run]:
    """``gens`` in order, split into runs of one rule (``brackets.run_of``)."""
    return [Run(run) for _, run in groupby(gens, lambda g: brackets.run_of(g.obs))]


@dataclass(frozen=True)
class TorusSpec:
    """A torus/line action: the joint flow of the action variable of each angle."""

    name: str
    generators: tuple                # the Generator of each angle
    periodic: bool

    @property
    def dim(self) -> int:
        return len(self.generators)

    def act(self, p, tau):
        """p moved by the angles tau, one per generator on the last axis
        (``flows.torus_action``)."""
        return flows.torus_action(p, tau, [g.obs for g in self.generators])


@dataclass(frozen=True)
class ConservedSpec:
    name: str
    family: str
    fn: object                       # callable point -> ndarray


class Harness:
    def __init__(self, n: int, datum: RootDatum):
        self.n = n
        self.datum = datum

    def points(self, rng, count=None):
        """``count`` regular points as one stacked point; one point without a count."""
        raise NotImplementedError

    def sample(self, rng) -> object:
        """One regular point: the one-point form of ``points``."""
        return self.points(rng)

    def sample_stack(self, rng, count: int, *draws):
        """``count`` points from one stacked draw (``points``), then the ``draws`` (functions of
        rng, such as angles or group elements) of each point in turn; with draws, also each
        draw's values on a leading point axis."""
        x = self.points(rng, count)
        rows = [tuple(draw(rng) for draw in draws) for _ in range(count)]
        return (x, *map(np.array, zip(*rows))) if draws else x

    def probes(self) -> list:
        raise NotImplementedError

    def families(self) -> dict[str, list[Generator]]:
        raise NotImplementedError

    def torus_specs(self) -> list[TorusSpec]:
        raise NotImplementedError

    def conserved(self) -> list[ConservedSpec]:
        raise NotImplementedError

    def extra_generators(self) -> list[Generator]:
        """Generators outside the families that the flow checks also run."""
        return []

    def crafted_keys(self) -> list[str]:
        return []


def sample_regular(kind: str, draws: int, draw, check):
    """The first of ``draws`` calls of ``draw()`` that ``check`` does not reject by raising
    ``RegularityViolation``, ``NotPositiveDefinite`` or ``SingularMatrix`` (any other error
    propagates); when every draw is rejected, ``SamplingFailure`` names the draw count and the
    last rejection."""
    last = None
    for _ in range(draws):
        x = draw()
        try:
            check(x)
            return x
        except _REJECTIONS as exc:
            last = exc
    raise SamplingFailure(f"could not sample a regular {kind} point in {draws} draws; "
                          f"last: {last}")


def _generators(fns, obs=lambda fn: fn, name="{}") -> list[Generator]:
    """One Generator per function fn, in order: the observable obs(fn), named fn's name in the
    pattern ``name``."""
    return [Generator(name.format(fn.name), obs(fn)) for fn in fns]


def _action_variables(gens, rank: int) -> tuple:
    """A family's action variables: its last ``rank`` generators, the coroots."""
    return tuple(gens[-rank:])


def _power_indices(n: int) -> list[int]:
    # odd traceless powers vanish identically on su(2); skip degenerate ones
    return [2, 4] if n == 2 else [2, 3]


# ---------------------------------------------------------------------------
# cotangent bundle
# ---------------------------------------------------------------------------

class CotangentHarness(Harness):
    def points(self, rng, count=None):
        """g = V exp(i diag(xi)) V^H with xi an alcove vector; J = W i diag(eta) W^H with eta a
        chamber vector of spread below n."""
        n, floor = self.n, 2 * SAMPLING_MARGIN
        g = liecore.conjugated_spectrum(n, rng, lambda xi: np.exp(1j * xi), floor, count=count)
        j = liecore.conjugated_spectrum(n, rng, lambda eta: 1j * eta, floor, n, count)
        return CotangentPoint(g, liecore.skew_traceless(j))

    def probes(self):
        words = [("g",), ("g", "g"), ("j", "j"), ("g", "j"), ("g", "g", "j"),
                 ("g", "j", "j"), ("g~", "j"), ("g", "j", "g", "j")]
        obs = [word_observable(w) for w in words]
        obs += [word_observable(w, part="im") for w in (("g", "j"), ("g", "g", "j"))]
        return obs

    def families(self):
        datum, powers, coroots = self.datum, _power_indices(self.n), range(self.datum.rank)
        fiber = [AlgebraPower(k) for k in powers] + [ChamberCoroot(j, datum) for j in coroots]
        base = [PowerTrace(k) for k in powers] + [AlcoveCoroot(j, datum) for j in coroots]
        return {name: _generators(fns, partial(WordFunction, letters=letters))
                for name, fns, letters in (("fiber-invariants", fiber, ("j",)),
                                           ("base-class", base, ("g",)))}

    def torus_specs(self):
        fams, rank = self.families(), self.datum.rank
        return [TorusSpec("chamber-torus", _action_variables(fams["fiber-invariants"], rank), True),
                TorusSpec("fiber-translation", _action_variables(fams["base-class"], rank), False)]

    def conserved(self):
        return [
            ConservedSpec("conjugation-momentum", "fiber-invariants", cotangent_momentum),
            ConservedSpec("conjugation-momentum", "base-class", cotangent_momentum),
            ConservedSpec("transported-fiber-pair", "fiber-invariants",
                          lambda p: np.stack([adjoint(p.g) @ p.j @ p.g, p.j], axis=-3)),
            ConservedSpec("group-and-momentum-pair", "base-class",
                          lambda p: np.stack([p.g, cotangent_momentum(p)], axis=-3)),
        ]

    def crafted_keys(self):
        return ["cotangent-compact-torus", "cotangent-line-action"]


# ---------------------------------------------------------------------------
# Heisenberg double
# ---------------------------------------------------------------------------

class HeisenbergHarness(Harness):
    def points(self, rng, count=None):
        """X with Iwasawa factors u_right = U and b_right = B: U = V exp(i diag(xi)) V^H with xi
        an alcove vector, and B = ``borel_of_posdef``(Q exp(diag(lam)) Q^H) with lam a chamber
        vector whose gaps beyond the floor share 0.6.  With the positive QR B^-1 U = Q_m R,
        X = Q_m^H B^-1 = R U^H, so u_left = Q_m^H and b_left = R."""
        n, floor = self.n, 2 * SAMPLING_MARGIN
        u = liecore.conjugated_spectrum(n, rng, lambda xi: np.exp(1j * xi), floor, count=count)
        pos = liecore.conjugated_spectrum(n, rng, np.exp, floor, floor * n + 0.6, count)
        b_inv = np.linalg.inv(decomp.borel_of_posdef(pos))
        return HeisenbergPoint(adjoint(decomp.iwasawa_left(b_inv @ u)[0]) @ b_inv)

    def probes(self):
        words = [("x",), ("x", "x"), ("x", "xh"), ("x", "x", "xh"),
                 ("x~", "xh"), ("x", "xh", "x", "xh")]
        obs = [word_observable(w) for w in words]
        obs += [word_observable(w, part="im") for w in (("x",), ("x", "x", "xh"))]
        # the one probe with an inverse adjoint letter
        return obs + [word_observable(("x", "xh~"))]

    def families(self):
        datum, coroots = self.datum, range(self.datum.rank)
        borel = [BorelPower(k) for k in (1, 2)] + [BorelChamberCoroot(j, datum) for j in coroots]
        unitary = ([PowerTrace(k) for k in _power_indices(self.n)]
                   + [AlcoveCoroot(j, datum) for j in coroots])
        return {name: _generators(fns, partial(RightFactorFunction, factor=factor))
                for name, fns, factor in (("borel-invariants", borel, "b_right"),
                                          ("unitary-class", unitary, "u_right"))}

    def torus_specs(self):
        fams, rank = self.families(), self.datum.rank
        return [TorusSpec("dressing-torus", _action_variables(fams["borel-invariants"], rank),
                          True),
                TorusSpec("borel-translation", _action_variables(fams["unitary-class"], rank),
                          False)]

    def conserved(self):
        def right_borel(p):
            return p.factor("b_right")

        def posdef_pairs(p):
            pos, u_right = decomp.posdef_of_borel(p.factor("b_right")), p.factor("u_right")
            return np.stack([pos, adjoint(u_right) @ pos @ u_right], axis=-3)

        def w_invariant(p):
            return heisenberg_momentum(p) @ adjoint(p.factor("u_left"))

        return [
            ConservedSpec("right-borel-factor", "borel-invariants", right_borel),
            ConservedSpec("posdef-momentum-pair", "borel-invariants", posdef_pairs),
            ConservedSpec("group-momentum", "borel-invariants", heisenberg_momentum),
            ConservedSpec("group-momentum", "unitary-class", heisenberg_momentum),
            ConservedSpec("triangular-invariant", "unitary-class", w_invariant),
        ]

    def crafted_keys(self):
        return ["heisenberg-compact-torus", "heisenberg-line-action"]


# ---------------------------------------------------------------------------
# fusion spaces (double, sphere, moduli)
# ---------------------------------------------------------------------------

# the JSON shape of each family key: a list of indices, of [lo, hi] pairs or of
# levels of pairs
_FAMILY_SHAPES = {"single": "index", "commutators": "index", "intervals": "pair",
                  "nested": "level", "commutator_ranges": "pair", "tails": "pair"}


def _family_items(key: str, value, shape: str) -> tuple:
    """``value`` as a tuple of items of ``shape``; clause family names what is wrong."""
    if not isinstance(value, (list, tuple)):
        raise InvalidShape(f"clause family: {key} entry {value!r} is not a list")
    if shape == "index":
        if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in value):
            raise InvalidShape(f"clause family: {key} entry {value!r} holds a non-integer index")
        return tuple(value)
    if shape == "pair":
        if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in value):
            raise InvalidShape(f"clause family: {key} entry {value!r} is not a list of "
                               "[lo, hi] pairs")
        return tuple(_family_items(key, p, "index") for p in value)
    return tuple(_family_items(key, level, "pair") for level in value)


def _family_from_config(space: FusionSpace, family) -> moduli.IntervalFamily:
    if isinstance(family, moduli.IntervalFamily):
        return family
    if not isinstance(family, dict):
        raise InvalidShape("clause family: a moduli config needs a family object with keys "
                           f"among {', '.join(_FAMILY_SHAPES)}")
    unknown = set(family) - set(_FAMILY_SHAPES)
    if unknown:
        raise InvalidShape(f"clause family: unknown family keys {sorted(unknown)}")
    return moduli.IntervalFamily(**{key: _family_items(key, value, _FAMILY_SHAPES[key])
                                    for key, value in family.items()})


def family_torus(hams) -> TorusSpec:
    """The joint torus of a word-Hamiltonian family, one angle per generator: the generators
    come block by block, rank many each (``flows.torus_action``)."""
    return TorusSpec("family-torus", tuple(_generators(hams)), True)


class FusionHarness(Harness):
    kind = "fusion"  # the point kind a SamplingFailure names

    def __init__(self, n: int, datum: RootDatum, space: FusionSpace,
                 family: moduli.IntervalFamily, label: str):
        super().__init__(n, datum)
        self.space = space
        self.label = label
        self.hams = moduli.hamiltonian_family(space, family, datum)
        self.blocks = moduli.family_blocks(family)

    def points(self, rng, count=None):
        """The first ``count`` candidates whose ``regular_values`` clear every alcove wall by
        SAMPLING_MARGIN, as one stacked point (one point without a count).  Each round draws
        as many stacked candidates as the stack lacks and tests them by one eigenvalue solve,
        so no round draws past the last point and the points are those of a one-point loop;
        the budget is 128 candidates per point."""
        want, kept, accepted, closest = count or 1, [], 0, np.inf
        while accepted < want:
            if (drawn := sum(ok.size for _, ok in kept)) == 128 * want:
                raise SamplingFailure(f"could not sample {want} regular {self.kind} points in "
                                      f"{drawn} draws: {accepted} accepted, smallest wall "
                                      f"margin {closest:.3e}")
            x = self.space.random_point(rng, min(want - accepted, 128 * want - drawn))
            spectra = np.linalg.eigvals(np.stack(self.regular_values(x), axis=-3))
            margins = decomp.alcove_walls(decomp.alcove_phases(np.angle(spectra))[0]).min((-2, -1))
            kept.append((x, margins >= SAMPLING_MARGIN))
            accepted, closest = accepted + kept[-1][1].sum(), min(closest, margins.min())
        rows = slice(None) if count else 0
        return x.with_slots({s: np.concatenate([y.slot(*s)[ok] for y, ok in kept])[rows]
                             for s in self.space.slots})

    def regular_values(self, x) -> list:
        """Each block value once: a block has rank generators."""
        return [h.block_value(x) for h in self.hams[::self.datum.rank]]

    def probes(self):
        letters = [self.space.momentum_word(f)[comp] for f, comp in self.space.slots]
        words = [(l,) for l in letters]
        k = len(letters)
        for i in range(k):
            words.append((letters[i], letters[(i + 1) % k]))
            words.append((letters[i], letters[(i + 1) % k] + "~"))
        words.append((letters[0], letters[0], letters[1 % k]))
        words.append((letters[0], letters[1 % k], letters[1 % k]))
        words.append(tuple(letters))
        obs = [word_observable(w) for w in words]
        obs += [word_observable(w, part="im") for w in words[:3]]
        unique = {}
        for o in obs:
            unique.setdefault(o.__name__, o)
        return list(unique.values())[:12]

    def families(self):
        return {self.label: _generators(self.hams)}

    def extra_generators(self):
        """Polynomial class functions on the same blocks, for flow checks."""
        return _generators([moduli.WordHamiltonian(block, PowerTrace(k)) for block in self.blocks
                            for k in _power_indices(self.n)[:1]])

    def torus_specs(self):
        return [family_torus(self.hams)]

    def conserved(self):
        return [ConservedSpec("product-momentum", self.label, lambda p: p.momentum())] + [
            ConservedSpec(f"block-value-{'-'.join(str(s) for s in block)}", self.label,
                          lambda p, rep=moduli.WordHamiltonian(block, PowerTrace(1)):
                          rep(p)[..., np.newaxis]) for block in self.blocks]

    def crafted_keys(self):
        table = {
            (1, 0): ["double-first-family"],
            (0, 3): ["sphere-adjoint-torus"],
            (0, 4): ["holed-sphere-intervals"],
            (1, 3): ["one-handle-intervals", "one-handle-commutator"],
            (2, 0): ["genus2-mixed", "genus2-double-adjoint"],
            (2, 2): ["two-handles-with-holes", "alternating-blocks"],
        }
        return table.get((self.space.num_double, self.space.num_conj), [])


class DoubleHarness(FusionHarness):
    """Internally fused double with the first-slot ('h') or second-slot ('htilde') family;
    it shares the fusion harness's sampler and probes, and overrides the rest."""

    kind = "double"

    def __init__(self, n: int, datum: RootDatum, which: str = "h"):
        Harness.__init__(self, n, datum)
        self.space = double_space(n)
        self.which = which
        self.label = "h" if which == "h" else "htilde"
        self.slot = "first" if which == "h" else "second"

    def _generators(self, fns, slot: str) -> list[Generator]:
        """One generator per class function on the block of ``slot`` (``flows.DOUBLE_BLOCKS``),
        named fn@slot."""
        return _generators(fns, partial(moduli.WordHamiltonian, flows.DOUBLE_BLOCKS[slot]),
                           "{}@" + slot)

    def families(self):
        return {self.label: self._generators(
            [PowerTrace(k) for k in _power_indices(self.n)]
            + [AlcoveCoroot(j, self.datum) for j in range(self.datum.rank)], self.slot)}

    def extra_generators(self):
        """The momentum family H = chi([A, B])."""
        return self._generators([PowerTrace(k) for k in _power_indices(self.n)], "momentum")

    def regular_values(self, x) -> list:
        """A, B and the momentum [A, B]."""
        return [*x.pair(1), x.momentum()]

    def torus_specs(self):
        return [TorusSpec(f"{self.slot}-slot-torus",
                          _action_variables(self.families()[self.label], self.datum.rank), True)]

    def conserved(self):
        def first_pair(p):
            a, b = p.pair(1)
            return np.stack([a, b @ a @ adjoint(b)], axis=-3)

        def second_pair(p):
            a, b = p.pair(1)
            return np.stack([a @ b @ adjoint(a), b], axis=-3)

        specs = [ConservedSpec("commutator-momentum", self.label, lambda p: p.momentum())]
        if self.which == "h":
            specs.append(ConservedSpec("first-slot-pair", self.label, first_pair))
        else:
            specs.append(ConservedSpec("second-slot-pair", self.label, second_pair))
        return specs

    def crafted_keys(self):
        return ["double-first-family"] if self.which == "h" else []


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_harness(space: str, n: int, datum: RootDatum, family=None,
                  m: int = 0, holes: int = 0) -> Harness:
    if space == "cotangent":
        return CotangentHarness(n, datum)
    if space == "heisenberg":
        return HeisenbergHarness(n, datum)
    if space == "double":
        return DoubleHarness(n, datum, which=(family or "h"))
    if space == "sphere4":
        return FusionHarness(n, datum, sphere_space(n), moduli.sphere_family(), "sphere")
    if space == "moduli":
        msp = moduli_space(m, holes, n)
        fam = _family_from_config(msp, family)
        return FusionHarness(n, datum, msp, fam, "interval-family")
    raise InvalidShape(f"unknown space {space!r}")
