"""Scalar observables and the closed-form derivative families.

Class functions on the group, invariant functions on the algebra, and
dressing-invariant functions on the Borel group each carry a value and an
exact gradient: the group gradient is the algebra element representing the
left-translation derivative against the trace form, the algebra gradient
represents the linear derivative, and the Borel gradient represents the
left-translation derivative against the imaginary trace form.  The families
here also evaluate a whole stack (..., n, n) of matrices at once
(``values``), which is how the finite-difference oracles read their
stencils; the oracles evaluate a function without ``values`` one matrix at
a time.  Word traces supply generic probe observables on every phase space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import brackets, decomp
from .errors import UnsupportedWord
from .liecore import RootDatum, skew_traceless


def _traces(ms: np.ndarray) -> np.ndarray:
    """Real parts of the traces of a stack (..., n, n)."""
    return np.trace(ms, axis1=-2, axis2=-1).real


# ---------------------------------------------------------------------------
# class functions on the group
# ---------------------------------------------------------------------------

class ClassFunction:
    """Conjugation-invariant function on SU(n) with an exact gradient."""

    name = "class-function"

    def value(self, g: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, g: np.ndarray) -> np.ndarray:
        """Algebra element N with pair(Z, N) = d/dt value(exp(tZ) g) at t=0."""
        raise NotImplementedError


@dataclass(frozen=True)
class PowerTrace(ClassFunction):
    """Re tr(g^k), the basic polynomial class function."""

    k: int
    coeff: float = 1.0

    @property
    def name(self):
        return f"retr{self.k}"

    def value(self, g):
        return float(self.values(g))

    def values(self, gs):
        return self.coeff * _traces(np.linalg.matrix_power(gs, self.k))

    def grad(self, g):
        return self.coeff * self.k * skew_traceless(np.linalg.matrix_power(g, self.k))


@dataclass(frozen=True)
class AlcoveCoroot(ClassFunction):
    """Pairing of the alcove phase vector with the j-th simple coroot."""

    j: int
    datum: RootDatum
    margin: float = decomp.DEFAULT_REGULARITY_MARGIN

    @property
    def name(self):
        return f"coroot{self.j}"

    def value(self, g):
        xi = decomp.alcove_diagonalize(g, self.margin).spectrum
        return float(xi[self.j] - xi[self.j + 1])

    def values(self, gs):
        xi = decomp.alcove_spectra(gs, self.margin)
        return xi[..., self.j] - xi[..., self.j + 1]

    def grad(self, g):
        return decomp.grad_alcove_coroot(g, self.j, self.datum, self.margin)


@dataclass(frozen=True)
class AlcoveCoweight(ClassFunction):
    """Pairing of the alcove phase vector with the j-th fundamental coweight."""

    j: int
    datum: RootDatum
    margin: float = decomp.DEFAULT_REGULARITY_MARGIN

    @property
    def name(self):
        return f"coweight{self.j}"

    def value(self, g):
        xi = decomp.alcove_diagonalize(g, self.margin).spectrum
        return decomp.coweight_values(xi, self.datum)[self.j]

    def values(self, gs):
        return decomp.coweight_values(decomp.alcove_spectra(gs, self.margin),
                                      self.datum)[..., self.j]

    def grad(self, g):
        return decomp.grad_alcove_coweight(g, self.j, self.datum, self.margin)


# ---------------------------------------------------------------------------
# invariant functions on the algebra
# ---------------------------------------------------------------------------

class AlgebraFunction:
    """Conjugation-invariant function on su(n) with an exact gradient."""

    name = "algebra-function"

    def value(self, j_alg: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, j_alg: np.ndarray) -> np.ndarray:
        """Algebra element W with pair(Z, W) = d/dt value(J + tZ) at t=0."""
        raise NotImplementedError


@dataclass(frozen=True)
class AlgebraPower(AlgebraFunction):
    """tr((iJ)^k); even powers include the quadratic Casimir k=2."""

    k: int
    coeff: float = 1.0

    @property
    def name(self):
        return f"algpow{self.k}"

    def value(self, j_alg):
        return float(self.values(j_alg))

    def values(self, js):
        return self.coeff * _traces(np.linalg.matrix_power(1j * js, self.k))

    def grad(self, j_alg):
        n = j_alg.shape[0]
        m = self.k * 1j * np.linalg.matrix_power(1j * j_alg, self.k - 1)
        return self.coeff * (m - (np.trace(m) / n) * np.eye(n))


@dataclass(frozen=True)
class ChamberCoroot(AlgebraFunction):
    """Pairing of the chamber spectrum with the j-th simple coroot."""

    j: int
    datum: RootDatum
    margin: float = decomp.DEFAULT_REGULARITY_MARGIN

    @property
    def name(self):
        return f"chamber{self.j}"

    def value(self, j_alg):
        xi = decomp.chamber_diagonalize(j_alg, self.margin).spectrum
        return float(xi[self.j] - xi[self.j + 1])

    def values(self, js):
        xi = decomp.chamber_spectra(js, self.margin)
        return xi[..., self.j] - xi[..., self.j + 1]

    def grad(self, j_alg):
        return decomp.grad_chamber_coroot(j_alg, self.j, self.datum, self.margin)


# ---------------------------------------------------------------------------
# dressing-invariant functions on the Borel group
# ---------------------------------------------------------------------------

class BorelFunction:
    """Dressing-invariant function on the Borel group with exact gradient."""

    name = "borel-function"

    def value(self, b: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, b: np.ndarray) -> np.ndarray:
        """Algebra element W with im-pair(Z, W) = d/dt value(exp(tZ) b), Z Borel."""
        raise NotImplementedError


@dataclass(frozen=True)
class BorelChamberCoroot(BorelFunction):
    """Half the j-th chamber coroot variable of i log(b b^H)."""

    j: int
    datum: RootDatum
    margin: float = decomp.DEFAULT_REGULARITY_MARGIN

    @property
    def name(self):
        return f"borelchamber{self.j}"

    def value(self, b):
        xi = decomp.borel_chamber_diagonalize(b, self.margin).spectrum
        return 0.5 * float(xi[self.j] - xi[self.j + 1])

    def values(self, bs):
        xi = decomp.borel_chamber_spectra(bs, self.margin)
        return 0.5 * (xi[..., self.j] - xi[..., self.j + 1])

    def grad(self, b):
        return decomp.borel_chamber_diagonalize(b, self.margin).transport(
            1j * self.datum.coroots[self.j])


@dataclass(frozen=True)
class BorelPower(BorelFunction):
    """tr((b b^H)^k), the polynomial dressing-invariant family."""

    k: int
    coeff: float = 1.0

    @property
    def name(self):
        return f"borelpow{self.k}"

    def value(self, b):
        return float(self.values(b))

    def values(self, bs):
        return self.coeff * _traces(np.linalg.matrix_power(decomp.posdef_of_borel(bs), self.k))

    def grad(self, b):
        n = b.shape[0]
        pk = np.linalg.matrix_power(decomp.posdef_of_borel(b), self.k)
        return self.coeff * 2 * self.k * 1j * (pk - (np.trace(pk) / n) * np.eye(n))


# ---------------------------------------------------------------------------
# generic word-trace probes
# ---------------------------------------------------------------------------

def word_product(x, letters) -> np.ndarray:
    """The product of the named letters of x, left to right."""
    m = x.letter(letters[0])
    for name in letters[1:]:
        m = m @ x.letter(name)
    return m


def word_observable(letters: tuple[str, ...], part: str = "re", coeff: float = 1.0):
    """Observable x -> coeff * Re/Im tr(product of letters of x).

    Letters are resolved by the point's ``letter`` method, e.g. 'g', 'j' on
    the cotangent bundle, 'x', 'xh~' on the Heisenberg double, or 'a1', 'c2~'
    on fusion spaces.  The observable carries its exact gradient table on
    cotangent and fusion points as the function attribute ``grad_table``,
    which survives ``functools.update_wrapper``.
    """
    letters = tuple(letters)
    # Im tr(P) = Re tr(-i P)
    trace_coeff = coeff if part == "re" else -1j * coeff

    def obs(x):
        t = np.trace(word_product(x, letters))
        return coeff * float(t.real if part == "re" else t.imag)

    obs.__name__ = ("" if part == "re" else "im-") + "tr[" + ".".join(letters) + "]"
    obs.grad_table = lambda x: brackets.trace_word_table(x, letters, trace_coeff)
    return obs


@dataclass(frozen=True)
class WordFunction:
    """An invariant function of the product of named letters of a point.

    ``fn`` is a ClassFunction of a word of unitary letters (e.g. ('a1',) or
    the commutator word ('a1', 'b1', 'a1~', 'b1~')), or an AlgebraFunction
    of the cotangent fiber word ('j',).  The value is fn.value of the
    product and the gradient table comes from fn.grad by the chain rule.
    """

    fn: object
    letters: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.fn, AlgebraFunction) and self.letters != ("j",):
            raise UnsupportedWord(f"an algebra function reads the word ('j',), "
                                  f"not {self.letters}")

    def __call__(self, x) -> float:
        return self.fn.value(word_product(x, self.letters))

    def grad_table(self, x):
        grad = self.fn.grad(word_product(x, self.letters))
        if isinstance(self.fn, AlgebraFunction):
            return brackets.word_table(x, self.letters, None, [grad])
        return brackets.class_word_table(x, self.letters, grad)


def observable_product(f, g):
    def obs(x):
        return f(x) * g(x)

    obs.__name__ = f"({getattr(f, '__name__', 'f')})*({getattr(g, '__name__', 'g')})"
    return obs


def pullback(f, chart):
    """Observable f composed with a point map (used for permutation pullbacks)."""

    def obs(x):
        return f(chart(x))

    obs.__name__ = f"pullback[{getattr(f, '__name__', 'f')}]"
    return obs
