"""Scalar observables and the closed-form derivative families.

Class functions on the group, invariant functions on the algebra, and
dressing-invariant functions on the Borel group each carry a value and an
exact gradient: the group gradient is the algebra element representing the
left-translation derivative against the trace form, the algebra gradient
represents the linear derivative, and the Borel gradient represents the
left-translation derivative against the imaginary trace form.  ``value``
and ``grad`` take a matrix or a stack (..., n, n), one value or gradient
per matrix.  The four action variables (coroot and coweight pairings of the alcove, chamber
and Borel-chamber spectra) are one rule, ``_Variable``, each stating its row of it and its
domain base.  Such a spectral function reads ``value`` off a frame-free spectra kernel
(``of_spectra(spectra(m))``), one eigenvalue solve per stencil block, and ``grad`` off a
normal form (``at(normal_form(m))``), which a point keeps for all of them (``grads_on``).
The word, class and right-factor observables take a point or a stacked
point.  Word traces supply generic probe observables on every phase space,
and functions of a right Iwasawa factor are the Heisenberg generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import brackets, decomp
from .errors import UnsupportedBracket, UnsupportedWord
from .liecore import RootDatum, skew_traceless, trace, traceless
from .spaces import HeisenbergPoint


# the coefficient c of Re tr(c P) for each part: Im tr(P) = Re tr(-i P)
_PART = {"re": 1.0, "im": -1j}


# ---------------------------------------------------------------------------
# class functions on the group
# ---------------------------------------------------------------------------

class ClassFunction:
    """Conjugation-invariant function on SU(n) with an exact gradient."""

    def value(self, g: np.ndarray) -> np.ndarray:
        """One value per matrix of g, (..., n, n) -> (...)."""
        return self.of_spectra(self.spectra(g))

    def grad(self, g: np.ndarray) -> np.ndarray:
        """Algebra element N with pair(Z, N) = d/dt value(exp(tZ) g) at t=0."""
        return self.at(self.normal_form(g))

    def two_sided_grad(self, g: np.ndarray) -> np.ndarray:
        """grad_L + grad_R: the right gradient of a class function equals its left one."""
        return 2 * self.grad(g)


@dataclass(frozen=True)
class PowerTrace(ClassFunction):
    """Re tr(g^k), the basic polynomial class function; Im tr(g^k) with part "im"."""

    k: int
    part: str = "re"

    @property
    def name(self):
        return f"{self.part}tr{self.k}"

    def value(self, g):
        return trace(_PART[self.part] * np.linalg.matrix_power(g, self.k)).real

    def grad(self, g):
        return self.k * skew_traceless(_PART[self.part] * np.linalg.matrix_power(g, self.k))


@dataclass(frozen=True)
class _Variable:
    """The j-th action variable of a decomp normal form, stated once: each public class gives
    its row (``label``, ``form``, ``weights``, ``scale``, ``negate``) and its domain base.

    The name is label + j.  The value (``of_spectra``) is ``scale`` times the j-th pairing of
    the form's spectrum with the datum's ``weights``, coroots or coweights; the gradient
    (``at``) is the form's transport of -(i weight_j), or of +(i weight_j) without ``negate``.
    ``spectra`` and ``normal_form`` look the form's two kernels up in decomp at each call.
    """

    j: int
    datum: RootDatum
    weights, scale, negate = "coroots", 1.0, True

    @property
    def name(self):
        return f"{self.label}{self.j}"

    def spectra(self, m):
        return getattr(decomp, f"{self.form}_spectra")(m)

    def normal_form(self, m):
        return getattr(decomp, f"{self.form}_diagonalize")(m)

    def of_spectra(self, xi):
        pairings = (decomp.coroot_values(xi) if self.weights == "coroots"
                    else decomp.coweight_values(xi, self.datum))
        return self.scale * pairings[..., self.j]

    def at(self, form):
        d = 1j * getattr(self.datum, self.weights)[self.j]
        return form.transport(-d if self.negate else d)


class AlcoveCoroot(_Variable, ClassFunction):
    """Pairing of the alcove phase vector with the j-th simple coroot."""

    label, form = "coroot", "alcove"


class AlcoveCoweight(_Variable, ClassFunction):
    """Pairing of the alcove phase vector with the j-th fundamental coweight."""

    label, form, weights = "coweight", "alcove", "coweights"


# ---------------------------------------------------------------------------
# invariant functions on the algebra
# ---------------------------------------------------------------------------

class AlgebraFunction:
    """Conjugation-invariant function on su(n) with an exact gradient."""

    def value(self, j_alg: np.ndarray) -> np.ndarray:
        """One value per matrix of j_alg, (..., n, n) -> (...)."""
        return self.of_spectra(self.spectra(j_alg))

    def grad(self, j_alg: np.ndarray) -> np.ndarray:
        """Algebra element W with pair(Z, W) = d/dt value(J + tZ) at t=0."""
        return self.at(self.normal_form(j_alg))


@dataclass(frozen=True)
class AlgebraPower(AlgebraFunction):
    """tr((iJ)^k); even powers include the quadratic Casimir k=2."""

    k: int

    @property
    def name(self):
        return f"algpow{self.k}"

    def value(self, j_alg):
        return trace(np.linalg.matrix_power(1j * j_alg, self.k)).real

    def grad(self, j_alg):
        return traceless(self.k * 1j * np.linalg.matrix_power(1j * j_alg, self.k - 1))


class ChamberCoroot(_Variable, AlgebraFunction):
    """Pairing of the chamber spectrum with the j-th simple coroot."""

    label, form = "chamber", "chamber"


# ---------------------------------------------------------------------------
# dressing-invariant functions on the Borel group
# ---------------------------------------------------------------------------

class BorelFunction:
    """Dressing-invariant function on the Borel group with exact gradient."""

    def value(self, b: np.ndarray) -> np.ndarray:
        """One value per matrix of b, (..., n, n) -> (...)."""
        return self.of_spectra(self.spectra(b))

    def grad(self, b: np.ndarray) -> np.ndarray:
        """Algebra element W with im-pair(Z, W) = d/dt value(exp(tZ) b), Z Borel."""
        return self.at(self.normal_form(b))


class BorelChamberCoroot(_Variable, BorelFunction):
    """Half the j-th chamber coroot variable of i log(b b^H)."""

    label, form, scale, negate = "borelchamber", "borel_chamber", 0.5, False


@dataclass(frozen=True)
class BorelPower(BorelFunction):
    """tr((b b^H)^k), the polynomial dressing-invariant family."""

    k: int

    @property
    def name(self):
        return f"borelpow{self.k}"

    def value(self, b):
        return trace(np.linalg.matrix_power(decomp.posdef_of_borel(b), self.k)).real

    def grad(self, b):
        pk = np.linalg.matrix_power(decomp.posdef_of_borel(b), self.k)
        return 2 * self.k * 1j * traceless(pk)


def grads_on(fns, x, key, m: np.ndarray, axis: int = -3) -> np.ndarray:
    """fn.grad(m) of each function of a run, m the matrix of x named ``key`` (off x's kept
    normal form if fn is spectral, which may have fewer axes than m), over m's axes, on one
    new axis: -3 (a table's or a velocity's observable axis) or 0 (a flow's generator axis)."""
    grads = [fn.at(x.form(key, fn.normal_form, m)) if hasattr(fn, "at") else fn.grad(m)
             for fn in fns]
    return np.stack([g if g.shape == m.shape else np.broadcast_to(g, m.shape) for g in grads],
                    axis)


class RunTable:
    """An observable whose class builds one stacked table for a run of its observables with one
    value of their field ``run_key`` (``run_table``); its own is the one-element run's."""

    def grad_table(self, x) -> dict:
        return brackets._pick(type(self).run_table([self], x), 0)


# ---------------------------------------------------------------------------
# generic word-trace probes
# ---------------------------------------------------------------------------

def word_product(x, letters) -> np.ndarray:
    """The product of the named letters of x, left to right."""
    return reduce(np.matmul, map(x.letter, letters))


def word_observable(letters: tuple[str, ...], part: str = "re"):
    """Observable x -> Re/Im tr(product of letters of x), one per point of a stack.

    Letters are resolved by the point's ``letter`` method, e.g. 'g', 'j' on
    the cotangent bundle, 'x', 'xh~' on the Heisenberg double, or 'a1', 'c2~'
    on fusion spaces.  The observable carries its exact gradient table on
    all three as the function attribute ``grad_table``, and its word as
    ``letters`` and ``part``; function attributes survive
    ``functools.update_wrapper``.
    """
    letters = tuple(letters)

    def obs(x):
        t = getattr(trace(word_product(x, letters)), "real" if part == "re" else "imag")
        return float(t) if t.ndim == 0 else t

    obs.__name__ = ("" if part == "re" else "im-") + "tr[" + ".".join(letters) + "]"
    obs.grad_table = lambda x: brackets.trace_word_table(x, letters, _PART[part])
    obs.letters, obs.part = letters, part
    return obs


def entry_observable(c: np.ndarray, letter: str):
    """Observable x -> Re tr(c m) of one letter m: unlike a word trace, not invariant under
    conjugation.  Its gradient table is the letter's, with cuts m c and c m."""
    def obs(x):
        t = trace(c @ x.letter(letter)).real
        return float(t) if t.ndim == 0 else t

    def grad_table(x):
        if isinstance(x, HeisenbergPoint):
            raise UnsupportedBracket("a letter entry has no table on the Heisenberg double")
        m = x.letter(letter)
        return brackets.word_table(x, (letter,), [skew_traceless(m @ c), skew_traceless(c @ m)])

    obs.grad_table = grad_table
    return obs


def inverse_word(letters) -> tuple[str, ...]:
    """The word of the inverse product: the letters reversed, each inverted."""
    return tuple(name[:-1] if name.endswith("~") else name + "~" for name in reversed(letters))


def substitute(letters, words: dict) -> tuple[str, ...]:
    """The word with each letter replaced by its word in ``words`` (an inverted letter by the
    inverse word; an unnamed letter stays): a chart that is a letter map pulls a word
    function back to the word function of the substituted word."""
    out = ()
    for name in letters:
        word = words.get(name.rstrip("~"), (name.rstrip("~"),))
        out += inverse_word(word) if name.endswith("~") else word
    return out


@dataclass(frozen=True)
class WordFunction(RunTable):
    """An invariant function of the product of named letters of a point.

    ``fn`` is a ClassFunction of a word of unitary letters (e.g. ('a1',) or
    the commutator word ('a1', 'b1', 'a1~', 'b1~')), or an AlgebraFunction of the cotangent
    fiber word ('j',).  The value is fn.value of the product, one per point of a stack, and
    the gradient table comes from fn.grad by the chain rule.
    """

    fn: object
    letters: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.fn, AlgebraFunction) and self.letters != ("j",):
            raise UnsupportedWord(f"an algebra function reads the word ('j',), "
                                  f"not {self.letters}")

    def __call__(self, x) -> np.ndarray:
        return self.fn.value(word_product(x, self.letters))

    run_key = "letters"

    @staticmethod
    def run_table(run, x) -> dict:
        letters = run[0].letters
        grads = grads_on([w.fn for w in run], x, letters, word_product(x, letters))
        if isinstance(run[0].fn, AlgebraFunction):
            return brackets.word_table(x, letters, None, [grads])
        return brackets.class_word_table(x, letters, grads)


@dataclass(frozen=True)
class RightFactorFunction(RunTable):
    """A function of one right Iwasawa factor of a Heisenberg point.

    ``fn`` is a BorelFunction of ``factor`` 'b_right' or a ClassFunction of
    'u_right'.  The value is fn.value of the factor, one per point of a stack, and the
    gradient table {'lmul': D, 'rmul': D'} comes from fn.grad through the first-order
    Iwasawa splitting.
    """

    fn: object
    factor: str

    def __post_init__(self):
        if not ((self.factor == "b_right" and isinstance(self.fn, BorelFunction))
                or (self.factor == "u_right" and isinstance(self.fn, ClassFunction))):
            raise UnsupportedWord(f"{self.fn!r} is not a function of the factor {self.factor!r}")

    def __call__(self, x) -> np.ndarray:
        return self.fn.value(x.factor(self.factor))

    run_key = "factor"

    @staticmethod
    def run_table(run, x) -> dict:
        factor = run[0].factor
        return brackets.right_factor_table(
            x, factor, lambda m: grads_on([r.fn for r in run], x, factor, m))
