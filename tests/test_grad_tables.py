"""Exact gradient tables against the finite-difference engines they replace.

Every observable with a ``grad_table`` must return what the geometry's
finite-difference engine builds for it (``cotangent_gradients`` or
``fusion_gradient_tables``), to truncation error; on the Heisenberg double
the oracle is the Richardson-extrapolated derivative along each sl
direction, whose error stays below the plain engine's h^4 term.
Brackets read exact tables only: an observable without one is refused by
name, and ``bracket_matrix`` mixes exact tables with the finite-difference
tables that ``fd_observable`` attaches to opaque compositions.
Chart pullbacks are letter substitutions: each substituted observable must
match its opaque composition, and no check of a suite builds a
finite-difference table.
"""

import numpy as np
import pytest
import scipy.linalg
from curve_stencils import fd_observable, per_time

from sunflows import brackets, flows, harness, liecore, moduli, observables as ob
from sunflows.errors import ShapeError, SunflowsError, UnsupportedBracket, UnsupportedWord
from sunflows.scenario import ScenarioConfig, all_generators, run_scenario
from sunflows.spaces import (CotangentPoint, FusionPoint, HeisenbergPoint, Point, double_space,
                             moduli_space, sphere_space)

MODULI_FAMILY = {"single": [1], "commutators": [2], "intervals": [[1, 2]]}
# every block kind a word Hamiltonian on the (m=2, holes=2) space can carry
EXTRA_BLOCKS = [("commutator-range", 1, 2), ("tail", 1, 1), ("span", 0, 1), ("span", 1, 3),
                ("interval", 1, 2), ("commutator", 1), ("single", 2)]


def _harness(space, n):
    datum = liecore.build_root_datum(n)
    if space == "moduli":
        return harness.build_harness("moduli", n, datum, family=MODULI_FAMILY, m=2, holes=2)
    if space == "htilde":
        return harness.build_harness("double", n, datum, family="htilde")
    return harness.build_harness(space, n, datum)


def _observables(h, n):
    obs = h.probes() + [g.obs for g in all_generators(h)]
    if isinstance(h, harness.CotangentHarness):
        obs += [ob.word_observable(("j", "g~", "g", "j"), part="im"),
                ob.word_observable(("g~", "g~", "j"))]
    elif isinstance(h, harness.HeisenbergHarness):
        obs += [ob.word_observable(("xh~", "x", "x~"), part="im"),
                ob.word_observable(("x", "xh~", "xh", "x~"))]
    elif h.space.num_conj == 2:
        datum = liecore.build_root_datum(n)
        obs += [moduli.WordHamiltonian(block, fn) for block in EXTRA_BLOCKS
                for fn in (ob.AlcoveCoweight(0, datum), ob.PowerTrace(2))]
        obs += [ob.word_observable(("a1~", "c2", "b2~", "a1"), part="im"),
                ob.word_observable(("c1~", "c1~", "b1"))]
    if not isinstance(h, harness.HeisenbergHarness):
        # a letter entry, which no conjugation leaves invariant
        first = "g" if isinstance(h, harness.CotangentHarness) else h.space.momentum_word(0)[0]
        obs.append(ob.entry_observable(np.random.default_rng(n).standard_normal((n, n)), first))
    return obs


def _flat(table):
    return np.concatenate([table[k].ravel() for k in sorted(table)])


def _richardson_heisenberg_derivatives(obs, x):
    """The 'lmul' and 'rmul' derivatives (D, D') of each observable from
    Richardson-extrapolated derivatives along each sl direction, on both sides."""
    n = x.n
    values = lambda p: np.array([o(p) for o in obs])
    sides = {}
    for side in ("lmul", "rmul"):
        derivs = np.array([brackets.directional_derivative(
            *per_time(values, lambda t, z=z: HeisenbergPoint(
                scipy.linalg.expm(t * z) @ x.x if side == "lmul"
                else x.x @ scipy.linalg.expm(t * z))),
            richardson=True) for z in liecore.sl_real_basis(n)])
        sides[side] = [brackets._dual_sum("sl", n, column) for column in derivs.T]
    return [dict(zip(sides, grads)) for grads in zip(*sides.values())]


def _fd_tables(obs, x):
    if isinstance(x, HeisenbergPoint):
        return _richardson_heisenberg_derivatives(obs, x)
    if isinstance(x, CotangentPoint):
        return brackets.cotangent_gradients(obs, x)
    return brackets.fusion_gradient_tables(obs, x)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("space", ["cotangent", "heisenberg", "double", "htilde", "sphere4",
                                   "moduli"])
def test_exact_tables_match_finite_differences(space, n):
    h = _harness(space, n)
    x = h.sample(np.random.default_rng(40 + n))
    obs = _observables(h, n)
    assert all(hasattr(o, "grad_table") for o in obs)
    fd = _fd_tables(obs, x)
    for o, table_fd in zip(obs, fd):
        table = o.grad_table(x)
        assert table.keys() == table_fd.keys()
        exact, approx = _flat(table), _flat(table_fd)
        name = getattr(o, "__name__", getattr(o, "name", o))
        assert np.linalg.norm(exact - approx) <= 1e-7 * max(1.0, np.linalg.norm(approx)), name


@pytest.mark.parametrize("space", ["cotangent", "double", "moduli"])
def test_bracket_matrix_mixes_exact_and_opaque_observables(space):
    n = 3
    h = _harness(space, n)
    x = h.sample(np.random.default_rng(50))
    probes = h.probes()[:5]
    gens = [g.obs for g in all_generators(h)][:4]
    chart = (lambda p: p.conjugate(p.g)) if space == "cotangent" else (
        lambda p: p.conjugate(p.slot(0, 0)))
    pulled = fd_observable(lambda p: probes[1](chart(p)))
    mixed = brackets.bracket_matrix(probes + [pulled], gens + [pulled], x)
    opaque = lambda o: fd_observable(lambda p: o(p))
    all_fd = brackets.bracket_matrix([opaque(o) for o in probes] + [pulled],
                                     [opaque(o) for o in gens] + [pulled], x)
    assert np.allclose(mixed, all_fd, rtol=1e-7, atol=1e-7)
    # the opaque observable is differentiated by the same finite differences either way
    assert mixed[-1, -1] == all_fd[-1, -1]


def test_pulled_family_matrix_equals_pairwise_brackets():
    """The permutation check's pulled family: one matrix, the same bits as pair by pair."""
    n = 3
    datum = liecore.build_root_datum(n)
    x = moduli_space(2, 2, n).random_point(np.random.default_rng(51))
    pulled = [moduli.pullback_hamiltonian(
        moduli.WordHamiltonian(("span", p1, p2), ob.AlcoveCoweight(j, datum)), [1])
        for p1, p2 in ((0, 1), (2, 3)) for j in range(datum.rank)]
    mat = brackets.bracket_matrix(pulled, pulled, x)
    pairs = [(i, j) for i in range(len(pulled)) for j in range(i + 1, len(pulled))]
    pairwise = [brackets.fusion_bracket(pulled[i], pulled[j], x) for i, j in pairs]
    assert np.array_equal([mat[i, j] for i, j in pairs], pairwise)


class _PlainPoint(Point):
    """A point type no geometry knows, with one letter 'm'."""

    n = 2

    def letter(self, name):
        return np.eye(2, dtype=complex)

    def matrices(self):
        return (("m", np.eye(2, dtype=complex)),)


def test_tables_refuse_unsupported_points_and_words():
    rng = np.random.default_rng(52)
    probe = ob.word_observable(("m",))
    with pytest.raises(UnsupportedBracket):
        probe.grad_table(_PlainPoint())
    with pytest.raises(UnsupportedBracket):
        brackets.bracket_matrix([probe], [probe], _PlainPoint())
    x = harness.build_harness("heisenberg", 2, liecore.build_root_datum(2)).sample(rng)
    # a class function of a unitary word and a letter entry have no table on the Heisenberg
    # double, and the fiber word 'j' no letter there ...
    with pytest.raises(UnsupportedBracket):
        ob.WordFunction(ob.PowerTrace(2), ("x",)).grad_table(x)
    with pytest.raises(UnsupportedBracket):
        ob.entry_observable(np.eye(2), "x").grad_table(x)
    with pytest.raises(ShapeError):
        ob.WordFunction(ob.AlgebraPower(2), ("j",)).grad_table(x)
    # ... and a right Iwasawa factor exists only there
    y = harness.build_harness("cotangent", 2, liecore.build_root_datum(2)).sample(rng)
    with pytest.raises(UnsupportedBracket):
        ob.RightFactorFunction(ob.BorelPower(1), "b_right").grad_table(y)
    with pytest.raises(UnsupportedWord):
        ob.WordFunction(ob.AlgebraPower(2), ("g",))
    with pytest.raises(UnsupportedWord):
        ob.RightFactorFunction(ob.PowerTrace(2), "b_right")


def test_the_fiber_word_takes_only_algebra_functions():
    """A class function of J is refused where it is built: its group gradient is no linear
    gradient, so it has neither a table nor a flow."""
    with pytest.raises(UnsupportedWord):
        ob.WordFunction(ob.PowerTrace(2), ("j",))
    with pytest.raises(UnsupportedWord):
        ob.WordFunction(ob.AlcoveCoroot(0, liecore.build_root_datum(2)), ("j",))


# well-formed and malformed letter names of every geometry
LETTER_NAMES = ("g", "g~", "j", "j~", "x", "xh", "x~", "xh~", "x~~", "a1", "a1~", "b1", "b1~",
                "b2~", "c1", "c2~", "c3", "a", "c", "q1", "zz", "", "~")


@pytest.mark.parametrize("space", ["cotangent", "heisenberg", "double", "sphere4", "moduli"])
def test_letters_and_their_rules_agree(space):
    """A letter the point reads has a rule in the chain rule, and a letter it refuses has none:
    ``_letter_rule`` raises what ``letter`` raises, and a word table with an unknown letter
    raises ShapeError too."""
    x = _harness(space, 2).sample(np.random.default_rng(55))

    def refusal(call, name):
        try:
            call(x, name)
        except SunflowsError as err:
            return type(err)
        return None

    for name in LETTER_NAMES:
        assert refusal(type(x).letter, name) == refusal(brackets._letter_rule, name), name
    for name in brackets._LETTER_RULES.get(type(x), {}):
        x.letter(name)
    with pytest.raises(ShapeError):
        brackets.word_table(x, ("q1",), [np.zeros((2, 2), complex)] * 2)


def test_brackets_refuse_an_observable_without_a_table():
    """No finite-difference fallback: every bracket path names the untabled observable."""
    x = double_space(2).random_point(np.random.default_rng(53))
    probe = ob.word_observable(("a1", "b1"))

    def untabled_probe(p):
        return probe(p)

    calls = (lambda: brackets.bracket_matrix([probe], [untabled_probe], x),
             lambda: brackets.bracket_matrix([untabled_probe], [probe], x),
             lambda: brackets.momentum_condition_matrix([untabled_probe], [ob.PowerTrace(1)], x),
             lambda: brackets.differentials([probe, untabled_probe], x))
    for call in calls:
        with pytest.raises(UnsupportedBracket, match="untabled_probe"):
            call()


@pytest.mark.parametrize("space", ["cotangent", "heisenberg", "double", "moduli"])
def test_differentials_build_no_stencil(space, monkeypatch):
    """Differential rows read only the keys and kinds of the tangent blocks: with the
    exponentials along the basis (``_exp_along``) and the shifts' scaling refusing, the rows
    are the same."""
    n = 3
    h = _harness(space, n)
    x = h.sample(np.random.default_rng(54))
    fns = h.probes()[:3] + [g.obs for g in all_generators(h)][:3]
    rows = brackets.differentials(fns, x)

    def refuse(*args):
        raise AssertionError("differentials built a stencil")

    monkeypatch.setattr(brackets, "_exp_along", refuse)
    monkeypatch.setattr(brackets, "scaled", refuse)
    assert np.array_equal(brackets.differentials(fns, x), rows)


# ---------------------------------------------------------------------------
# chart pullbacks are letter substitutions: each substituted observable against
# its opaque composition
# ---------------------------------------------------------------------------

def _match_their_compositions(pulled, composed, x):
    """Each substituted observable agrees with its opaque composition to roundoff, and its
    exact table is the composition's finite-difference table, to truncation error."""
    for p, c, table_fd in zip(pulled, composed, brackets.fusion_gradient_tables(composed, x)):
        assert abs(p(x) - c(x)) <= 1e-13 * max(1.0, abs(c(x)))
        table = p.grad_table(x)
        assert table.keys() == table_fd.keys()
        exact, approx = _flat(table), _flat(table_fd)
        assert np.linalg.norm(exact - approx) <= 1e-7 * max(1.0, np.linalg.norm(approx))


def _target_hamiltonians(space, datum):
    """Word observables and word Hamiltonians of every target space of the plans below."""
    if space.num_double == 2:
        words = [("a2", "c1"), ("c1", "b2", "c2"), ("a1", "b2~", "c2", "b1")]
        blocks = [("span", 0, 1), ("span", 1, 3), ("single", 2)]
    else:
        words = [("a1", "c1", "c3~"), ("c2", "b1", "c3"), ("b1~", "c2", "a1", "c1")]
        blocks = [("span", 1, 2), ("span", 0, 3), ("single", 1)]
    return ([ob.word_observable(words[0]), ob.word_observable(words[1], part="im"),
             ob.word_observable(words[2])]
            + [moduli.WordHamiltonian(block, fn) for block in blocks
               for fn in (ob.AlcoveCoweight(0, datum), ob.PowerTrace(2))])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("plan", [[0], [1], [2], [1, 0], [0, 1, 2]])
@pytest.mark.parametrize("shape", [(2, 2), (1, 3)])
def test_permutation_pullbacks_match_their_compositions(shape, plan, n):
    datum = liecore.build_root_datum(n)
    x = moduli_space(*shape, n).random_point(np.random.default_rng(70 + n))
    hams = _target_hamiltonians(x.space, datum)
    _match_their_compositions(
        [moduli.pullback_hamiltonian(h, plan) for h in hams],
        [lambda p, h=h: h(moduli.permutation_pushforward(p, plan)) for h in hams], x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_s_transform_pullbacks_match_their_compositions(n):
    x = double_space(n).random_point(np.random.default_rng(80 + n))

    def smap(p):
        return FusionPoint(p.space, (flows.s_transform(*p.pair(1)),))

    fs = [ob.word_observable(("a1", "b1")), ob.word_observable(("a1", "a1", "b1")),
          ob.word_observable(("b1~", "a1", "b1", "b1"), part="im")]
    pulled = [ob.word_observable(ob.substitute(f.letters, flows.S_LETTERS), f.part) for f in fs]
    fs.append(ob.WordFunction(ob.PowerTrace(2), ("a1", "b1", "a1~", "b1~")))
    pulled.append(ob.WordFunction(fs[-1].fn, ob.substitute(fs[-1].letters, flows.S_LETTERS)))
    _match_their_compositions(pulled, [lambda p, f=f: f(smap(p)) for f in fs], x)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("space", [double_space, sphere_space,
                                   lambda n: moduli_space(2, 2, n)])
def test_momentum_pullbacks_match_their_compositions(space, n):
    """k(mu) is a class function of the whole momentum word, the table that
    ``momentum_condition_matrix`` builds."""
    x = space(n).random_point(np.random.default_rng(90 + n))
    word = [name for f in range(len(x.factors)) for name in x.space.momentum_word(f)]
    ks = [ob.PowerTrace(1), ob.PowerTrace(2, part="im"),
          ob.AlcoveCoweight(0, liecore.build_root_datum(n))]
    pulled = [ob.WordFunction(k, tuple(word)) for k in ks]
    _match_their_compositions(pulled, [lambda p, k=k: k.value(p.momentum()) for k in ks], x)
    for k, p in zip(ks, pulled):
        table = brackets.class_word_table(x, word, k.grad(x.momentum()))
        assert np.allclose(_flat(table), _flat(p.grad_table(x)), rtol=0, atol=1e-13)


def test_the_suites_build_no_finite_difference_table(monkeypatch):
    """The full suites of all six spaces at n=3 pass with the finite-difference table engine
    and the three gradient oracles switched off: gradient-oracles differences along random
    directions instead."""
    def refuse(*args, **kwargs):
        raise AssertionError("a suite check built a finite-difference table")

    for name in ("_fd_tables", "group_gradient_fd", "algebra_gradient_fd", "borel_gradient_fd"):
        monkeypatch.setattr(brackets, name, refuse)
    for fields in (dict(space="cotangent"), dict(space="heisenberg"), dict(space="double"),
                   dict(space="double", family="htilde"), dict(space="sphere4"),
                   dict(space="moduli", m=2, holes=2, family=MODULI_FAMILY)):
        report = run_scenario(ScenarioConfig(n=3, seed=42, **fields))
        failed = [(c.name, c.residual, c.detail.get("error")) for c in report.checks
                  if not c.passed]
        assert report.passed and not failed, failed
        assert "gradient-oracles" in [c.name for c in report.checks]
