"""Uniform per-space harnesses used by the scenario runner and test suites.

A harness bundles, for one phase space: regular point sampling, a probe
family of word observables, the commuting Hamiltonian families with their
exact flows and bracket-side observables, the torus actions with their
periodicity type (the angle flows are the family's action-variable flows),
and the conserved quantities per family.  The symmetry action is the
points' own ``conjugate``.  The checks are written once against it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import decomp, flows, liecore, moduli
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
    stack,
)

SAMPLING_MARGIN = 0.08
# the errors by which a sampler's check rejects a candidate; any other error is a fault
_REJECTIONS = (RegularityViolation, NotPositiveDefinite, SingularMatrix)


@dataclass(frozen=True)
class Generator:
    """One commuting-family generator: observable, exact flow and the flow's velocity."""

    name: str
    obs: object                      # callable point -> float
    flow: object                     # callable (point, tau) -> point
    velocity: object                 # callable point -> d/dtau flow at tau = 0, as in flows


@dataclass(frozen=True)
class TorusSpec:
    """A torus/line action (point, angles) -> point and the action variable of each angle."""

    name: str
    act: object
    generators: tuple                # the Generator of each angle: its flow and velocity
    periodic: bool

    @property
    def dim(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class ConservedSpec:
    name: str
    family: str
    fn: object                       # callable point -> ndarray


class Harness:
    def __init__(self, n: int, datum: RootDatum):
        self.n = n
        self.datum = datum

    def sample(self, rng) -> object:
        """One regular point."""
        raise NotImplementedError

    def sample_stack(self, rng, count: int, *draws):
        """``count`` points as one stacked point (``spaces.stack``), each drawn just before its
        own ``draws`` (functions of rng, such as angles or group elements); with draws, also
        each draw's values on a leading point axis."""
        rows = [(self.sample(rng), *(draw(rng) for draw in draws)) for _ in range(count)]
        points, *values = zip(*rows)
        return (stack(points), *map(np.array, values)) if draws else stack(points)

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
    """The first of ``draws`` calls of ``draw()`` that ``check`` does not reject.

    ``check`` rejects a candidate by raising ``RegularityViolation``,
    ``NotPositiveDefinite`` or ``SingularMatrix``, and any other error
    propagates; when every draw is rejected, ``SamplingFailure``
    names the draw count and the last rejection.
    """
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


class BuiltHarness(Harness):
    """Points regular by construction: ``build(rng, count)`` conjugates spectra that clear
    every wall by twice SAMPLING_MARGIN by Haar frames (``liecore.conjugated_spectrum``), a
    stack from one stacked draw, or one point without a count; no point is drawn again."""

    def sample(self, rng):
        return self.build(rng)

    def sample_stack(self, rng, count: int, *draws):
        """``count`` points from one stacked build, then the ``draws`` of each point in turn."""
        x = self.build(rng, count)
        rows = [tuple(draw(rng) for draw in draws) for _ in range(count)]
        return (x, *map(np.array, zip(*rows))) if draws else x


def _word_generators(fns, letters, flow, velocity, suffix: str = "") -> list[Generator]:
    """One generator per invariant function of the word ``letters``; flow(p, fn, t)."""
    return [Generator(fn.name + suffix, WordFunction(fn, letters),
                      lambda p, t, fn=fn: flow(p, fn, t), lambda p, fn=fn: velocity(p, fn))
            for fn in fns]


def _moduli_generators(hams) -> list[Generator]:
    """One generator per word Hamiltonian, with its moduli flow."""
    return [Generator(h.name, h, lambda p, t, h=h: moduli.moduli_flow(p, h, t),
                      lambda p, h=h: moduli.moduli_velocity(p, h)) for h in hams]


def _action_variables(gens, rank: int) -> tuple:
    """A family's action variables: its last ``rank`` generators, the coroots."""
    return tuple(gens[-rank:])


def _power_indices(n: int) -> list[int]:
    # odd traceless powers vanish identically on su(2); skip degenerate ones
    return [2, 4] if n == 2 else [2, 3]


# ---------------------------------------------------------------------------
# cotangent bundle
# ---------------------------------------------------------------------------

class CotangentHarness(BuiltHarness):
    def build(self, rng, count=None):
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
        datum, flow, velocity = self.datum, flows.cotangent_flow, flows.cotangent_velocity
        fiber = _word_generators([AlgebraPower(k) for k in _power_indices(self.n)]
                                 + [ChamberCoroot(j, datum) for j in range(datum.rank)],
                                 ("j",), flow, velocity)
        base = _word_generators([PowerTrace(k) for k in _power_indices(self.n)]
                                + [AlcoveCoroot(j, datum) for j in range(datum.rank)],
                                ("g",), flow, velocity)
        return {"fiber-invariants": fiber, "base-class": base}

    def torus_specs(self):
        datum, fams = self.datum, self.families()
        return [
            TorusSpec("chamber-torus",
                      lambda p, tau: flows.cotangent_torus_action(p, tau, "chamber", datum),
                      _action_variables(fams["fiber-invariants"], datum.rank), True),
            TorusSpec("fiber-translation",
                      lambda p, tau: flows.cotangent_torus_action(p, tau, "translate", datum),
                      _action_variables(fams["base-class"], datum.rank), False),
        ]

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

def _right_factor_generators(fns, factor: str) -> list[Generator]:
    """One generator per function of the right Iwasawa factor ('b_right' or 'u_right')."""
    return [Generator(fn.name, RightFactorFunction(fn, factor),
                      lambda p, t, fn=fn: flows.heisenberg_flow(p, fn, t),
                      lambda p, fn=fn: flows.heisenberg_velocity(p, fn))
            for fn in fns]


class HeisenbergHarness(BuiltHarness):
    def build(self, rng, count=None):
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
        return obs

    def families(self):
        datum = self.datum
        borel = _right_factor_generators([BorelPower(k) for k in (1, 2)] + [
            BorelChamberCoroot(j, datum) for j in range(datum.rank)], "b_right")
        unitary = _right_factor_generators([PowerTrace(k) for k in _power_indices(self.n)]
                                           + [AlcoveCoroot(j, datum) for j in range(datum.rank)],
                                           "u_right")
        return {"borel-invariants": borel, "unitary-class": unitary}

    def torus_specs(self):
        datum, fams = self.datum, self.families()
        return [
            TorusSpec("dressing-torus",
                      lambda p, tau: flows.heisenberg_torus_action(p, tau, "dress", datum),
                      _action_variables(fams["borel-invariants"], datum.rank), True),
            TorusSpec("borel-translation",
                      lambda p, tau: flows.heisenberg_torus_action(p, tau, "translate", datum),
                      _action_variables(fams["unitary-class"], datum.rank), False),
        ]

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
        raise InvalidShape(f"clause family: cannot interpret family spec {family!r}")
    unknown = set(family) - set(_FAMILY_SHAPES)
    if unknown:
        raise InvalidShape(f"clause family: unknown family keys {sorted(unknown)}")
    return moduli.IntervalFamily(**{key: _family_items(key, value, _FAMILY_SHAPES[key])
                                    for key, value in family.items()})


def family_torus(hams, datum: RootDatum) -> TorusSpec:
    """The joint torus of a word-Hamiltonian family, one angle per generator.

    The generators come block by block, rank many each, so the angles read
    as one row per block (per point of a stack).
    """
    def act(p, tau):
        tau = np.asarray(tau)
        return moduli.moduli_torus_action(p, tau.reshape(tau.shape[:-1] + (-1, datum.rank)),
                                          hams, datum)

    return TorusSpec("family-torus", act,
                     tuple(_moduli_generators(hams)), True)


class FusionHarness(Harness):
    kind = "fusion"  # the point kind a SamplingFailure names

    def __init__(self, n: int, datum: RootDatum, space: FusionSpace,
                 family: moduli.IntervalFamily, label: str):
        super().__init__(n, datum)
        self.space = space
        self.label = label
        self.hams = moduli.hamiltonian_family(space, family, datum)
        self.blocks = moduli.family_blocks(family)

    def sample(self, rng):
        """The first of 128 draws whose ``regular_values`` all clear the sampling margin."""
        def check(x):
            for value in self.regular_values(x):
                decomp.alcove_diagonalize(value, SAMPLING_MARGIN)
        return sample_regular(self.kind, 128, lambda: self.space.random_point(rng), check)

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
        seen = set()
        out = []
        for o in obs:
            if o.__name__ not in seen:
                seen.add(o.__name__)
                out.append(o)
        return out[:12]

    def families(self):
        return {self.label: _moduli_generators(self.hams)}

    def extra_generators(self):
        """Polynomial class functions on the same blocks, for flow checks."""
        return _moduli_generators([moduli.WordHamiltonian(block, PowerTrace(k))
                                   for block in self.blocks
                                   for k in _power_indices(self.n)[:1]])

    def torus_specs(self):
        return [family_torus(self.hams, self.datum)]

    def conserved(self):
        specs = [ConservedSpec("product-momentum", self.label, lambda p: p.momentum())]
        for bi, block in enumerate(self.blocks):
            rep = moduli.WordHamiltonian(block, PowerTrace(1))
            specs.append(ConservedSpec(
                f"block-value-{'-'.join(str(s) for s in block)}", self.label,
                lambda p, rep=rep: rep(p)[..., np.newaxis]))
        return specs

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

    def families(self):
        letter = "a1" if self.which == "h" else "b1"
        flow = lambda p, fn, t: flows.double_flow(p, fn, t, self.slot)
        velocity = lambda p, fn: flows.double_velocity(p, fn, self.slot)
        return {self.label: _word_generators(
            [PowerTrace(k) for k in _power_indices(self.n)]
            + [AlcoveCoroot(j, self.datum) for j in range(self.datum.rank)],
            (letter,), flow, velocity, suffix=f"@{self.slot}")}

    def extra_generators(self):
        """The momentum family H = chi([A, B])."""
        flow = lambda p, fn, t: flows.double_flow(p, fn, t, "momentum")
        velocity = lambda p, fn: flows.double_velocity(p, fn, "momentum")
        return _word_generators([PowerTrace(k) for k in _power_indices(self.n)],
                                ("a1", "b1", "a1~", "b1~"), flow, velocity, suffix="@momentum")

    def regular_values(self, x) -> list:
        """A, B and the momentum [A, B]."""
        return [*x.pair(1), x.momentum()]

    def torus_specs(self):
        datum, slot = self.datum, self.slot
        return [TorusSpec(
            f"{slot}-slot-torus",
            lambda p, tau: flows.double_torus_action(p, np.asarray(tau), slot, datum),
            _action_variables(self.families()[self.label], datum.rank), True)]

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
