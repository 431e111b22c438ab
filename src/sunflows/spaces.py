"""Phase-space points and space descriptors.

Three kinds of phase space appear: the cotangent bundle of SU(n) realized as
pairs (g, J) by right translations, the Heisenberg double realized as
SL(n, C), and fusion products of conjugation factors ('K') and double
factors ('D') covering the internally fused double, the sphere system and
all moduli-type spaces.  Points are immutable; every operation returns new
arrays.

Every point is an ordered list of labelled matrices (``matrices()``); the
flattening and the distance of all point types are read from that list.  On
a fusion space the list is the space's ``slots``: two per 'D' factor, one per
'K' factor, in factor order.  Every point has ``conjugate(eta)``, the action
of the symmetry group SU(n): conjugation of every matrix on cotangent and
fusion points, the quasi-adjoint action on the Heisenberg double.

Points are stacks.  Every matrix of a point may carry leading point axes,
(..., n, n), and ``stack(points)`` builds one such point from per-point
draws.  ``flat``, ``distance``, ``tangent``, ``conjugation_velocity``,
``conjugate`` (by one eta or one per point), ``letter``, ``factor`` and the
momentum maps act on each point of a stack; a single point is the case with
no leading axis.  ``distance`` takes one norm per point, because a norm over
stacked axes is not bit-equal to the one-point norm.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import decomp, liecore
from .errors import InvalidShape, ShapeError
from .liecore import adjoint


class Point:
    """The flattener and the metric shared by every point type.

    Every point type also has ``tangent(velocity)``, the ``flat()``-ordered vector of a
    velocity keyed like the gradient tables (as in ``flows``): a translation Z moves its
    matrix m by Z m ('lmul') or m Z ('rmul'), and a missing key does not move it.
    """

    def matrices(self) -> tuple[tuple[str, np.ndarray], ...]:
        """The point's matrices in order, each with its label."""
        raise NotImplementedError

    def flat(self) -> np.ndarray:
        """Real, then imaginary entries of each matrix, matrix by matrix, on the last axis."""
        parts = []
        for _, m in self.matrices():
            parts += [m.real.reshape(m.shape[:-2] + (-1,)), m.imag.reshape(m.shape[:-2] + (-1,))]
        return np.concatenate(parts, axis=-1)

    def distance(self, other: "Point"):
        """Euclidean norm of the flattened difference, per point of a stack."""
        return liecore.norms(self.flat() - other.flat())

    def form(self, key, kernel, m):
        """kernel(m) for the point's matrix m that ``key`` names (a letter word, a block or a
        factor name), kept for as long as the point lives; a kernel that raises keeps nothing."""
        forms = self.__dict__.setdefault("_forms", {})
        if key not in forms:
            forms[key] = kernel(m)
        return forms[key]

    def keeping(self, x: "Point", key) -> "Point":
        """This point, with the form x keeps for ``key``: the two share the matrix it names."""
        if key in x.__dict__.get("_forms", {}):
            self.__dict__.setdefault("_forms", {})[key] = x._forms[key]
        return self


# ---------------------------------------------------------------------------
# cotangent bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CotangentPoint(Point):
    g: np.ndarray
    j: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    def matrices(self):
        return (("g", self.g), ("j", self.j))

    def letter(self, name: str) -> np.ndarray:
        if name == "g":
            return self.g
        if name == "g~":
            return adjoint(self.g)
        if name == "j":
            return self.j
        raise ShapeError(f"unknown cotangent letter {name!r}")

    def conjugate(self, eta: np.ndarray) -> "CotangentPoint":
        ei = adjoint(eta)
        return CotangentPoint(eta @ self.g @ ei, eta @ self.j @ ei)

    def conjugation_velocity(self, z: np.ndarray) -> dict:
        """Velocity of conjugate(exp(tz)) at t = 0: z g - g z = (z - g z g^H) g, z j - j z."""
        return {"group": z - self.g @ z @ adjoint(self.g), "fiber": z @ self.j - self.j @ z}

    def tangent(self, velocity: dict) -> np.ndarray:
        """'group' Z moves g by Z g, 'fiber' V moves j by V."""
        zero = np.zeros_like(self.j)
        return CotangentPoint(velocity["group"] @ self.g if "group" in velocity else zero,
                              velocity.get("fiber", zero)).flat()


def cotangent_momentum(x: CotangentPoint) -> np.ndarray:
    """Momentum map of the conjugation action: J - g^-1 J g."""
    return x.j - adjoint(x.g) @ x.j @ x.g


def random_cotangent_point(n: int, rng: np.random.Generator) -> CotangentPoint:
    return CotangentPoint(liecore.random_group_element(n, rng),
                          liecore.random_algebra_element(n, rng))


# ---------------------------------------------------------------------------
# Heisenberg double
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeisenbergPoint(Point):
    x: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    def matrices(self):
        return (("x", self.x),)

    def letter(self, name: str) -> np.ndarray:
        if name == "x":
            return self.x
        if name == "x~":
            return np.linalg.inv(self.x)
        if name == "xh":
            return adjoint(self.x)
        if name == "xh~":
            return np.linalg.inv(adjoint(self.x))
        raise ShapeError(f"unknown Heisenberg letter {name!r}")

    def factor(self, name: str) -> np.ndarray:
        """Iwasawa factor ``name`` from the kept half: (u_left, b_right) or (b_left, u_right)."""
        half = "iwasawa_left" if name in ("u_left", "b_right") else "iwasawa_right"
        return self.form(half, getattr(decomp, half), self.x)[int(name.endswith("right"))]

    def conjugate(self, eta: np.ndarray) -> "HeisenbergPoint":
        """Quasi-adjoint action: eta X u_right(eta b_left(X))."""
        twist = decomp.iwasawa_right(eta @ self.factor("b_left"))[1]
        return HeisenbergPoint(eta @ self.x @ twist)

    def conjugation_velocity(self, z: np.ndarray) -> dict:
        """Velocity of conjugate(exp(tz)) at t = 0: z X - X k, k the compact part of
        b_left^-1 z b_left (the dressing linearization of u_right(exp(tz) b_left))."""
        b_left = self.factor("b_left")
        return {"lmul": z, "rmul": -liecore.project_compact(np.linalg.inv(b_left) @ z @ b_left)}

    def tangent(self, velocity: dict) -> np.ndarray:
        return HeisenbergPoint(sum(z @ self.x if side == "lmul" else self.x @ z
                                   for side, z in velocity.items())).flat()


def heisenberg_momentum(x: HeisenbergPoint) -> np.ndarray:
    """Group-valued momentum map b_left b_right of the quasi-adjoint action."""
    return x.factor("b_left") @ x.factor("b_right")


def random_heisenberg_point(n: int, rng: np.random.Generator) -> HeisenbergPoint:
    return HeisenbergPoint(liecore.random_sl_element(n, rng))


# ---------------------------------------------------------------------------
# fusion products of 'D' and 'K' factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FusionSpace:
    """Ordered fusion product of double ('D') and conjugation ('K') factors."""

    n: int
    types: tuple[str, ...]

    def __post_init__(self):
        if not self.types:
            raise InvalidShape("a fusion space needs at least one factor")
        if any(t not in ("D", "K") for t in self.types):
            raise InvalidShape(f"unknown factor types in {self.types}")

    @cached_property
    def factor_slots(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per factor, its (factor, component) slots: two for 'D', one for 'K'."""
        return tuple(((f, 0), (f, 1)) if t == "D" else ((f, 0),)
                     for f, t in enumerate(self.types))

    @cached_property
    def slots(self) -> tuple[tuple[int, int], ...]:
        """Every (factor, component) slot of a point, in factor order."""
        return tuple(s for fs in self.factor_slots for s in fs)

    @cached_property
    def kind_positions(self) -> dict[str, tuple[int, ...]]:
        """Factor positions of the 'D' and of the 'K' factors, in factor order."""
        return {kind: tuple(f for f, t in enumerate(self.types) if t == kind)
                for kind in ("D", "K")}

    def position(self, kind: str, i: int) -> int:
        """Factor position of the i-th factor of type kind (1-based)."""
        positions = self.kind_positions[kind]
        if not 1 <= i <= len(positions):
            what = "double factor" if kind == "D" else "conjugation factor"
            raise InvalidShape(f"no {what} with index {i}")
        return positions[i - 1]

    def momentum_word(self, f: int) -> tuple[str, ...]:
        """Letters whose product is factor f's momentum: (a_i, b_i, a_i~, b_i~) for the i-th
        'D' factor, (c_i,) for the i-th 'K' factor.  Letter ``comp`` reads slot (f, comp)."""
        kind = self.types[f]
        i = self.types[: f + 1].count(kind)
        return (f"a{i}", f"b{i}", f"a{i}~", f"b{i}~") if kind == "D" else (f"c{i}",)

    @property
    def num_double(self) -> int:
        return len(self.kind_positions["D"])

    @property
    def num_conj(self) -> int:
        return len(self.kind_positions["K"])

    def random_point(self, rng: np.random.Generator) -> "FusionPoint":
        """Random group elements in every slot, in slot order, from one stacked draw."""
        draws = iter(liecore.random_group_element(self.n, rng, len(self.slots)))
        return FusionPoint(self, tuple((next(draws), next(draws)) if t == "D" else next(draws)
                                       for t in self.types))


def moduli_space(m: int, n_holes: int, n: int) -> FusionSpace:
    """The canonical fusion space with m double factors and n_holes conjugation factors."""
    if m < 0 or n_holes < 0 or (m == 0 and n_holes == 0):
        raise InvalidShape("need m, n >= 0 and not both zero")
    return FusionSpace(n=n, types=("D",) * m + ("K",) * n_holes)


def double_space(n: int) -> FusionSpace:
    return moduli_space(1, 0, n)


def sphere_space(n: int) -> FusionSpace:
    return moduli_space(0, 3, n)


def conjugation_velocity(slots, z: np.ndarray) -> dict:
    """Velocity of conjugating the letters of ``slots`` by exp(tau Z)."""
    return {(*slot, side): v for slot in slots for side, v in (("lmul", z), ("rmul", -z))}


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b @ adjoint(a) @ adjoint(b)


@dataclass(frozen=True)
class FusionPoint(Point):
    """Point of a fusion space; 'D' entries are pairs, 'K' entries single matrices."""

    space: FusionSpace
    factors: tuple

    @property
    def n(self) -> int:
        return self.space.n

    def factor_momentum(self, f: int) -> np.ndarray:
        if self.space.types[f] == "D":
            a, b = self.factors[f]
            return commutator(a, b)
        return self.factors[f]

    def momentum(self, positions=None) -> np.ndarray:
        """Product of the factor momenta at ``positions`` in order, all of them by default
        (per point of a stack: the identity broadcasts)."""
        out = np.eye(self.n, dtype=complex)
        for f in range(len(self.factors)) if positions is None else positions:
            out = out @ self.factor_momentum(f)
        return out

    def slot(self, f: int, comp: int) -> np.ndarray:
        """The matrix in component comp of factor f."""
        fac = self.factors[f]
        return fac[comp] if self.space.types[f] == "D" else fac

    def with_slots(self, values: dict) -> "FusionPoint":
        """The point with the matrices of ``values`` ({(factor, comp): matrix}) replaced."""
        factors = list(self.factors)
        for (f, comp), m in values.items():
            if self.space.types[f] == "D":
                m = tuple(m if c == comp else old for c, old in enumerate(factors[f]))
            factors[f] = m
        return FusionPoint(self.space, tuple(factors))

    def map(self, fn) -> "FusionPoint":
        """The point with fn applied to every matrix."""
        return self.with_slots({s: fn(self.slot(*s)) for s in self.space.slots})

    def matrices(self):
        types = self.space.types
        return tuple((f"f{f}{'ab'[comp] if types[f] == 'D' else 'c'}", self.slot(f, comp))
                     for f, comp in self.space.slots)

    def pair(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The i-th double factor (1-based, counting 'D' factors only)."""
        return self.factors[self.space.position("D", i)]

    def letter_slot(self, name: str) -> tuple[tuple[int, int], bool]:
        """The (factor, component) a letter reads, and whether it is inverted."""
        inverse = name.endswith("~")
        core = name[:-1] if inverse else name
        kind, idx = core[0], int(core[1:])
        if kind in ("a", "b"):
            return (self.space.position("D", idx), "ab".index(kind)), inverse
        if kind == "c":
            return (self.space.position("K", idx), 0), inverse
        raise ShapeError(f"unknown fusion letter {name!r}")

    def letter(self, name: str) -> np.ndarray:
        slot, inverse = self.letter_slot(name)
        m = self.slot(*slot)
        return adjoint(m) if inverse else m

    def conjugate(self, eta: np.ndarray) -> "FusionPoint":
        ei = adjoint(eta)
        return self.map(lambda m: eta @ m @ ei)

    def conjugation_velocity(self, z: np.ndarray) -> dict:
        """Velocity of conjugate(exp(tz)) at t = 0."""
        return conjugation_velocity(self.space.slots, z)

    def tangent(self, velocity: dict) -> np.ndarray:
        moved = {slot: np.zeros_like(self.slot(*slot)) for slot in self.space.slots}
        for (f, comp, side), z in velocity.items():
            m = self.slot(f, comp)
            moved[f, comp] = moved[f, comp] + (z @ m if side == "lmul" else m @ z)
        return self.with_slots(moved).flat()


def stack(points) -> Point:
    """One point of the type of ``points[0]`` whose matrices stack those of the points on a
    new leading axis."""
    first = points[0]
    if isinstance(first, FusionPoint):
        return first.with_slots({s: np.stack([p.slot(*s) for p in points])
                                 for s in first.space.slots})
    return type(first)(*(np.stack([getattr(p, f.name) for p in points]) for f in fields(first)))


def moduli_point(space: FusionSpace, pairs, holes) -> FusionPoint:
    """Point of a canonical space from double pairs and conjugation components."""
    if len(pairs) != space.num_double or len(holes) != space.num_conj:
        raise InvalidShape("component counts do not match the space shape")
    return FusionPoint(space, tuple(pairs) + tuple(holes))


def embed_shift(u: FusionPoint) -> FusionPoint:
    """Append the inverse momentum as a final conjugation factor.

    The image lies on the unit level set of the enlarged space's momentum map
    and realizes the shifting-trick identification.
    """
    target = FusionSpace(u.n, u.space.types + ("K",))
    return FusionPoint(target, u.factors + (np.linalg.inv(u.momentum()),))
