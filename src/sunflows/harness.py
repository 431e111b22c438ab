"""Uniform per-space harnesses used by the scenario runner and test suites.

A harness bundles, for one phase space: regular point sampling, a probe
family of word observables, the commuting Hamiltonian families with their
exact flows and bracket-side observables, the torus actions with their
periodicity type, the conserved quantities per family, and the symmetry
action.  The verification checks are then written once against this
interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import decomp, flows, moduli
from .errors import InvalidShape, SamplingFailure, SunflowsError
from .liecore import RootDatum
from .observables import (
    AlcoveCoroot,
    AlgebraPower,
    BorelChamberCoroot,
    BorelPower,
    ChamberCoroot,
    PowerTrace,
    WordFunction,
    word_observable,
)
from .spaces import (
    FusionSpace,
    cotangent_momentum,
    double_space,
    heisenberg_momentum,
    moduli_space,
    quasi_adjoint,
    random_cotangent_point,
    random_heisenberg_point,
    sphere_space,
)

SAMPLING_MARGIN = 0.08


@dataclass(frozen=True)
class Generator:
    """One commuting-family generator: observable plus exact flow."""

    name: str
    obs: object                      # callable point -> float
    flow: object                     # callable (point, tau) -> point
    periodic: bool                   # does the 2*pi flow close up


@dataclass(frozen=True)
class TorusSpec:
    """A torus/line action: map (point, angles) -> point."""

    name: str
    act: object
    dim: int
    periodic: bool
    family: str                      # matching generator family


@dataclass(frozen=True)
class ConservedSpec:
    name: str
    family: str
    fn: object                       # callable point -> ndarray


class Harness:
    kind = "abstract"

    def __init__(self, n: int, datum: RootDatum):
        self.n = n
        self.datum = datum

    def sample(self, rng) -> object:
        raise NotImplementedError

    def probes(self) -> list:
        raise NotImplementedError

    def families(self) -> dict[str, list[Generator]]:
        raise NotImplementedError

    def torus_specs(self) -> list[TorusSpec]:
        raise NotImplementedError

    def conserved(self) -> list[ConservedSpec]:
        raise NotImplementedError

    def symmetry(self, eta, x):
        raise NotImplementedError

    def crafted_keys(self) -> list[str]:
        return []


def sample_regular(kind: str, draws: int, draw, check):
    """The first of ``draws`` calls of ``draw()`` that ``check`` does not reject.

    ``check`` rejects a candidate by raising a ``SunflowsError``; when every
    draw is rejected, ``SamplingFailure`` names the draw count and the last
    rejection.
    """
    last = None
    for _ in range(draws):
        x = draw()
        try:
            check(x)
            return x
        except SunflowsError as exc:
            last = exc
    raise SamplingFailure(f"could not sample a regular {kind} point in {draws} draws; "
                          f"last: {last}")


def _word_generators(fns, letters, flow, periodic: bool, suffix: str = "") -> list[Generator]:
    """One generator per invariant function of the word ``letters``; flow(p, fn, t)."""
    return [Generator(fn.name + suffix, WordFunction(fn, letters),
                      lambda p, t, fn=fn: flow(p, fn, t), periodic)
            for fn in fns]


def _power_indices(n: int) -> list[int]:
    # odd traceless powers vanish identically on su(2); skip degenerate ones
    return [2, 4] if n == 2 else [2, 3]


# ---------------------------------------------------------------------------
# cotangent bundle
# ---------------------------------------------------------------------------

class CotangentHarness(Harness):
    kind = "cotangent"

    def sample(self, rng):
        def check(x):
            decomp.alcove_diagonalize(x.g, SAMPLING_MARGIN)
            decomp.chamber_diagonalize(x.j, SAMPLING_MARGIN)
        return sample_regular("cotangent", 64, lambda: random_cotangent_point(self.n, rng), check)

    def probes(self):
        words = [("g",), ("g", "g"), ("j", "j"), ("g", "j"), ("g", "g", "j"),
                 ("g", "j", "j"), ("g~", "j"), ("g", "j", "g", "j")]
        obs = [word_observable(w) for w in words]
        obs += [word_observable(w, part="im") for w in (("g", "j"), ("g", "g", "j"))]
        return obs

    def families(self):
        datum = self.datum
        flow = flows.cotangent_flow
        fiber = (_word_generators([AlgebraPower(k) for k in _power_indices(self.n)],
                                  ("j",), flow, periodic=False)
                 + _word_generators([ChamberCoroot(j, datum) for j in range(datum.rank)],
                                    ("j",), flow, periodic=True))
        base = _word_generators([PowerTrace(k) for k in _power_indices(self.n)]
                                + [AlcoveCoroot(j, datum) for j in range(datum.rank)],
                                ("g",), flow, periodic=False)
        return {"fiber-invariants": fiber, "base-class": base}

    def torus_specs(self):
        datum = self.datum
        return [
            TorusSpec("chamber-torus",
                      lambda p, tau: flows.cotangent_torus_action(p, tau, "chamber", datum),
                      datum.rank, True, "fiber-invariants"),
            TorusSpec("fiber-translation",
                      lambda p, tau: flows.cotangent_torus_action(p, tau, "translate", datum),
                      datum.rank, False, "base-class"),
        ]

    def torus_generator_flow(self, spec_name: str, j: int):
        """The single-variable flow matching the j-th torus coordinate."""
        datum = self.datum
        if spec_name == "chamber-torus":
            fn = ChamberCoroot(j, datum)
        else:
            fn = AlcoveCoroot(j, datum)
        return lambda p, t: flows.cotangent_flow(p, fn, t)

    def conserved(self):
        return [
            ConservedSpec("conjugation-momentum", "fiber-invariants", cotangent_momentum),
            ConservedSpec("conjugation-momentum", "base-class", cotangent_momentum),
            ConservedSpec("transported-fiber-pair", "fiber-invariants",
                          lambda p: np.stack([p.g.conj().T @ p.j @ p.g, p.j])),
            ConservedSpec("group-and-momentum-pair", "base-class",
                          lambda p: np.stack([p.g, cotangent_momentum(p)])),
        ]

    def symmetry(self, eta, x):
        return x.conjugate(eta)

    def crafted_keys(self):
        return ["cotangent-compact-torus", "cotangent-line-action"]


# ---------------------------------------------------------------------------
# Heisenberg double
# ---------------------------------------------------------------------------

def _right_factor_generators(fns, factor: str, periodic: bool) -> list[Generator]:
    """One generator per function of the right Iwasawa factor ('b_right' or 'u_right')."""
    return [Generator(fn.name, lambda p, fn=fn: fn.value(getattr(p.factors(), factor)),
                      lambda p, t, fn=fn: flows.heisenberg_flow(p, fn, t), periodic)
            for fn in fns]


class HeisenbergHarness(Harness):
    kind = "heisenberg"

    def sample(self, rng):
        def check(x):
            f = x.factors()
            decomp.alcove_diagonalize(f.u_right, SAMPLING_MARGIN)
            decomp.borel_chamber_diagonalize(f.b_right, SAMPLING_MARGIN)
        return sample_regular("Heisenberg", 64, lambda: random_heisenberg_point(self.n, rng),
                              check)

    def probes(self):
        words = [("x",), ("x", "x"), ("x", "xh"), ("x", "x", "xh"),
                 ("x~", "xh"), ("x", "xh", "x", "xh")]
        obs = [word_observable(w) for w in words]
        obs += [word_observable(w, part="im") for w in (("x",), ("x", "x", "xh"))]
        return obs

    def families(self):
        datum = self.datum
        borel = (_right_factor_generators([BorelPower(k) for k in (1, 2)], "b_right",
                                          periodic=False)
                 + _right_factor_generators([BorelChamberCoroot(j, datum)
                                             for j in range(datum.rank)], "b_right",
                                            periodic=True))
        unitary = _right_factor_generators([PowerTrace(k) for k in _power_indices(self.n)]
                                           + [AlcoveCoroot(j, datum) for j in range(datum.rank)],
                                           "u_right", periodic=False)
        return {"borel-invariants": borel, "unitary-class": unitary}

    def torus_specs(self):
        datum = self.datum
        return [
            TorusSpec("dressing-torus",
                      lambda p, tau: flows.heisenberg_torus_action(p, tau, "dress", datum),
                      datum.rank, True, "borel-invariants"),
            TorusSpec("borel-translation",
                      lambda p, tau: flows.heisenberg_torus_action(p, tau, "translate", datum),
                      datum.rank, False, "unitary-class"),
        ]

    def torus_generator_flow(self, spec_name: str, j: int):
        datum = self.datum
        fn = BorelChamberCoroot(j, datum) if spec_name == "dressing-torus" else AlcoveCoroot(j, datum)
        return lambda p, t: flows.heisenberg_flow(p, fn, t)

    def conserved(self):
        def right_borel(p):
            return p.factors().b_right

        def posdef_pairs(p):
            f = p.factors()
            pos = decomp.posdef_of_borel(f.b_right)
            return np.stack([pos, f.u_right.conj().T @ pos @ f.u_right])

        def pl_momentum(p):
            return heisenberg_momentum(p)

        def w_invariant(p):
            f = p.factors()
            return f.b_left @ f.b_right @ f.u_left.conj().T

        return [
            ConservedSpec("right-borel-factor", "borel-invariants", right_borel),
            ConservedSpec("posdef-momentum-pair", "borel-invariants", posdef_pairs),
            ConservedSpec("group-momentum", "borel-invariants", pl_momentum),
            ConservedSpec("group-momentum", "unitary-class", pl_momentum),
            ConservedSpec("triangular-invariant", "unitary-class", w_invariant),
        ]

    def symmetry(self, eta, x):
        return quasi_adjoint(eta, x)

    def crafted_keys(self):
        return ["heisenberg-compact-torus", "heisenberg-line-action"]


# ---------------------------------------------------------------------------
# fusion spaces (double, sphere, moduli)
# ---------------------------------------------------------------------------

def _family_from_config(space: FusionSpace, family) -> moduli.IntervalFamily:
    if isinstance(family, moduli.IntervalFamily):
        return family
    if isinstance(family, dict):
        return moduli.IntervalFamily(
            single=tuple(family.get("single", ())),
            commutators=tuple(family.get("commutators", ())),
            intervals=tuple(tuple(iv) for iv in family.get("intervals", ())),
            nested=tuple(tuple(tuple(iv) for iv in lvl) for lvl in family.get("nested", ())),
            commutator_ranges=tuple(tuple(r) for r in family.get("commutator_ranges", ())),
            tails=tuple(tuple(t) for t in family.get("tails", ())),
        )
    raise InvalidShape(f"cannot interpret family spec {family!r}")


class FusionHarness(Harness):
    kind = "fusion"

    def __init__(self, n: int, datum: RootDatum, space: FusionSpace,
                 family: moduli.IntervalFamily, label: str):
        super().__init__(n, datum)
        self.space = space
        self.family = family
        self.label = label
        moduli.validate_family(space, family)
        self.hams = moduli.hamiltonian_family(space, family, datum)
        self.blocks = moduli.family_blocks(family)

    def sample(self, rng):
        def check(x):
            for h in self.hams:
                decomp.alcove_diagonalize(h.block_value(x), SAMPLING_MARGIN)
        return sample_regular("fusion", 128, lambda: self.space.random_point(rng), check)

    def probes(self):
        letters = []
        for i in range(1, self.space.num_double + 1):
            letters += [f"a{i}", f"b{i}"]
        letters += [f"c{k}" for k in range(1, self.space.num_conj + 1)]
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
        gens = []
        for h in self.hams:
            gens.append(Generator(
                h.name, h, lambda p, t, h=h: moduli.moduli_flow(p, h, t), periodic=True))
        return {self.label: gens}

    def extra_power_generators(self) -> list[Generator]:
        """Polynomial class functions on the same blocks, for flow checks."""
        gens = []
        for block in self.blocks:
            for k in _power_indices(self.n)[:1]:
                h = moduli.WordHamiltonian(block, PowerTrace(k))
                gens.append(Generator(
                    h.name, h, lambda p, t, h=h: moduli.moduli_flow(p, h, t), periodic=False))
        return gens

    def torus_specs(self):
        datum = self.datum
        dim = len(self.blocks) * datum.rank

        def act(p, tau):
            return moduli.moduli_torus_action(
                p, np.asarray(tau).reshape(len(self.blocks), datum.rank), self.hams, datum)

        return [TorusSpec("family-torus", act, dim, True, self.label)]

    def torus_generator_flow(self, spec_name: str, j: int):
        h = self.hams[j]
        return lambda p, t: moduli.moduli_flow(p, h, t)

    def conserved(self):
        specs = [ConservedSpec("product-momentum", self.label, lambda p: p.momentum())]
        for bi, block in enumerate(self.blocks):
            rep = moduli.WordHamiltonian(block, PowerTrace(1))
            specs.append(ConservedSpec(
                f"block-value-{'-'.join(str(s) for s in block)}", self.label,
                lambda p, rep=rep: np.array([rep(p)])))
        return specs

    def symmetry(self, eta, x):
        return x.conjugate(eta)

    def crafted_keys(self):
        table = {
            ("double", 1, 0): ["double-first-family"],
            ("sphere", 0, 3): ["sphere-adjoint-torus"],
            ("moduli", 0, 4): ["holed-sphere-intervals"],
            ("moduli", 1, 3): ["one-handle-intervals", "one-handle-commutator"],
            ("moduli", 2, 0): ["genus2-mixed", "genus2-double-adjoint"],
            ("moduli", 2, 2): ["two-handles-with-holes", "alternating-blocks"],
        }
        for (_, m, holes), keys in table.items():
            if (self.space.num_double, self.space.num_conj) == (m, holes):
                return keys
        return []


class DoubleHarness(FusionHarness):
    """Internally fused double with the three class-function Hamiltonian slots."""

    kind = "double"

    def __init__(self, n: int, datum: RootDatum, which: str = "h"):
        space = double_space(n)
        family = (moduli.IntervalFamily(single=(1,)) if which == "h"
                  else moduli.IntervalFamily(commutators=(1,)))
        self.which = which
        if which == "htilde":
            # second-slot family: build generators directly
            super().__init__(n, datum, space, moduli.IntervalFamily(single=(1,)), "htilde")
        else:
            super().__init__(n, datum, space, family, "h")

    def families(self):
        datum = self.datum
        slot, letter = ("first", "a1") if self.which == "h" else ("second", "b1")
        flow = lambda p, fn, t: flows.double_flow(p, fn, t, slot)
        gens = (_word_generators([PowerTrace(k) for k in _power_indices(self.n)],
                                 (letter,), flow, periodic=False, suffix=f"@{slot}")
                + _word_generators([AlcoveCoroot(j, datum) for j in range(datum.rank)],
                                   (letter,), flow, periodic=True, suffix=f"@{slot}"))
        return {"h" if self.which == "h" else "htilde": gens}

    def momentum_generators(self) -> list[Generator]:
        flow = lambda p, fn, t: flows.double_flow(p, fn, t, "momentum")
        return _word_generators([PowerTrace(k) for k in _power_indices(self.n)],
                                ("a1", "b1", "a1~", "b1~"), flow, periodic=False,
                                suffix="@momentum")

    def sample(self, rng):
        def check(x):
            a, b = x.pair(1)
            decomp.alcove_diagonalize(a, SAMPLING_MARGIN)
            decomp.alcove_diagonalize(b, SAMPLING_MARGIN)
            decomp.alcove_diagonalize(x.momentum(), SAMPLING_MARGIN)
        return sample_regular("double", 128, lambda: self.space.random_point(rng), check)

    def torus_specs(self):
        datum = self.datum
        slot = "first" if self.which == "h" else "second"
        return [TorusSpec(
            f"{slot}-slot-torus",
            lambda p, tau: flows.double_torus_action(p, np.asarray(tau), slot, datum),
            datum.rank, True, "h" if self.which == "h" else "htilde")]

    def torus_generator_flow(self, spec_name: str, j: int):
        datum = self.datum
        fn = AlcoveCoroot(j, datum)
        slot = "first" if self.which == "h" else "second"
        return lambda p, t: flows.double_flow(p, fn, t, slot)

    def conserved(self):
        label = "h" if self.which == "h" else "htilde"
        def first_pair(p):
            a, b = p.pair(1)
            return np.stack([a, b @ a @ b.conj().T])

        def second_pair(p):
            a, b = p.pair(1)
            return np.stack([a @ b @ a.conj().T, b])

        specs = [ConservedSpec("commutator-momentum", label, lambda p: p.momentum())]
        if self.which == "h":
            specs.append(ConservedSpec("first-slot-pair", label, first_pair))
        else:
            specs.append(ConservedSpec("second-slot-pair", label, second_pair))
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
