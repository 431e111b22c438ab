"""Each geometry's sharp map against the per-pair bivector formula and the flows' velocities.

A bracket is the rows' stacked tables paired with P-sharp of the columns'
stacked tables (``brackets.sharp``, ``velocity_pairings``).  Every entry must
match the per-pair bivector formula, written here term by term with
``liecore.pair`` on the same tables, up to the reassociation of its sums
(bit for bit on the Heisenberg double, whose sharp map keeps the formula's
order).  Every column of P-sharp must be, as an ambient tangent vector, the
closed-form velocity of the generator's flow.  The flow-bracket check pairs
those velocities with the probes' tables and differentiates the flows
themselves at one point only: one ``directional_derivative`` call per check,
for all of its generators.  ``liecore.gram``, the pairing under every
bracket, is ``liecore.pair`` entry by entry on any operands, and forms no
product stack.
"""

import tracemalloc

import numpy as np
import pytest
from curve_stencils import fd_observable

from sunflows import brackets, harness, liecore, probes
from sunflows import observables as ob
from sunflows.liecore import IM_FORM, pair
from sunflows.scenario import ScenarioConfig, all_generators, run_scenario
from sunflows.spaces import double_space, moduli_space

# the sums of a sharp map reassociate the per-pair formula's: entries agree to rounding
REL = 1e-13


def _close(mat, reference):
    return np.all(np.abs(mat - reference) <= REL * (1 + np.abs(reference)))


# --- the per-pair reference: one liecore.pair call per term and per (row, column) ---------------

def _conjugation_gradient(table, slots):
    out = 0
    for slot in slots:
        out = out + table[(*slot, "lmul")] - table[(*slot, "rmul")]
    return out


def _double_term(tf, th, f):
    aRF, aLF = tf[(f, 0, "lmul")], tf[(f, 0, "rmul")]
    bRF, bLF = tf[(f, 1, "lmul")], tf[(f, 1, "rmul")]
    aRH, aLH = th[(f, 0, "lmul")], th[(f, 0, "rmul")]
    bRH, bLH = th[(f, 1, "lmul")], th[(f, 1, "rmul")]
    val = pair(aRF, aLH) - pair(aRH, aLF)
    val -= pair(bRF, bLH) - pair(bRH, bLF)
    val += pair(aLF, bLH + bRH) - pair(aLH, bLF + bRF)
    val += pair(aRF, bLH - bRH) - pair(aRH, bLF - bRF)
    return 0.5 * val


def _fusion_pair(tf, th, point):
    total = 0.0
    for f, t in enumerate(point.space.types):
        if t == "D":
            total += _double_term(tf, th, f)
        else:
            total += 0.5 * (pair(tf[(f, 0, "lmul")], th[(f, 0, "rmul")])
                            - pair(th[(f, 0, "lmul")], tf[(f, 0, "rmul")]))
    conj_f = [_conjugation_gradient(tf, slots) for slots in point.space.factor_slots]
    conj_h = [_conjugation_gradient(th, slots) for slots in point.space.factor_slots]
    for f1 in range(len(conj_f)):
        for f2 in range(f1 + 1, len(conj_f)):
            total -= 0.5 * (pair(conj_f[f1], conj_h[f2]) - pair(conj_h[f1], conj_f[f2]))
    return total


def _cotangent_pair(tf, th, point):
    gf, jf, gh, jh = tf["group"], tf["fiber"], th["group"], th["fiber"]
    return pair(gf, jh) - pair(gh, jf) + pair(point.j, jf @ jh - jh @ jf)


def _heisenberg_pair(tf, th, point):
    half = brackets._half_difference
    return (pair(tf["lmul"], half(th["lmul"]), IM_FORM)
            + pair(tf["rmul"], half(th["rmul"]), IM_FORM))


def _quadratic_fusion_sharp(th, point):
    """The fusion sharp map with each factor's coupling summed afresh over the other factors,
    sum(conj[:f]) - sum(conj[f + 1:]), quadratic in the factor count."""
    conj = [brackets.conjugation_gradient(th, slots) for slots in point.space.factor_slots]
    v = {}
    for f, t in enumerate(point.space.types):
        w = sum(conj[:f]) - sum(conj[f + 1:])
        for (comp, side), terms in brackets._FACTOR_SHARP[t].items():
            local = sum(sign * th[f, c, s] for sign, c, s in terms)
            v[f, comp, side] = 0.5 * (local + w if side == "lmul" else local - w)
    return v


_REFERENCE = {"cotangent": _cotangent_pair, "heisenberg": _heisenberg_pair,
              "double": _fusion_pair, "sphere4": _fusion_pair, "moduli": _fusion_pair,
              "moduli-16": _fusion_pair, "alternating-blocks": _fusion_pair}
# the fusion spaces whose running coupling sums reassociate the quadratic ones: 16 factors,
# and the interleaved ("D", "K", "D", "K") space of a crafted point
_WIDE = ("moduli-16", "alternating-blocks")
_FAMILY = {"single": [1], "commutators": [2], "intervals": [[1, 2]]}


def _case(space, n, seed):
    datum = liecore.build_root_datum(n)
    if space == "alternating-blocks":
        crafted = probes.principal_test_point(space, n, datum, np.random.default_rng(seed))
        x = crafted.point
        letters = [x.space.momentum_word(f)[comp] for f, comp in x.space.slots]
        words = [(l,) for l in letters] + [(l, m + "~") for l, m in zip(letters, letters[1:])]
        obs = [ob.word_observable(w) for w in words] + crafted.family
    else:
        kw = {"moduli": dict(m=2, holes=2, family=_FAMILY),
              "moduli-16": dict(m=8, holes=8, family=_FAMILY)}.get(space, {})
        h = harness.build_harness(space.split("-")[0], n, datum, **kw)
        x = h.sample(np.random.default_rng(seed))
        obs = h.probes() + [g.obs for g in all_generators(h)]
    if space in _WIDE:
        # a word through every slot, so that the coupling sums add many nonzero terms
        obs.append(ob.word_observable(tuple(x.space.momentum_word(f)[c]
                                            for f, c in x.space.slots)))
    # probes, generators and one opaque observable, which carries its FD table
    probe = obs[1]
    obs.append(fd_observable(lambda p: probe(p)))
    return x, obs


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("space", sorted(_REFERENCE))
def test_sharp_pairing_is_the_per_pair_formula(space, n):
    x, obs = _case(space, n, 40 + n)
    tables = brackets._gradients(obs, x)
    stack = brackets.gradient_stack(obs, x)
    rows, cols = obs[:7], obs[3:]
    column_stack = {k: s[3:] for k, s in stack.items()}
    velocities = brackets.sharp(column_stack, x)
    mat = brackets.velocity_pairings({k: s[:7] for k, s in stack.items()}, velocities, x)
    reference = np.array([[_REFERENCE[space](tables[i], tables[3 + j], x)
                           for j in range(len(cols))] for i in range(len(rows))])
    assert np.array_equal(mat, brackets.bracket_matrix(rows, cols, x))
    if space == "heisenberg":
        assert np.array_equal(mat, reference)
    else:
        assert _close(mat, reference)
    if _REFERENCE[space] is _fusion_pair:
        # the one-pass coupling: the quadratic sums' bits while no suffix adds three nonzero
        # conjugation gradients (no column here moves more than two factors of (2, 2)), and
        # their value to rounding on the wide spaces
        quadratic = _quadratic_fusion_sharp(column_stack, x)
        assert velocities.keys() == quadratic.keys()
        for key, v in velocities.items():
            if space in _WIDE:
                assert _close(v, quadratic[key]), key
            else:
                assert np.array_equal(v, quadratic[key]), key


# every space of the workbench, the double with both of its families
_SPACES = {"cotangent": {}, "heisenberg": {}, "double-h": dict(family="h"),
           "double-htilde": dict(family="htilde"), "sphere4": {},
           "moduli": dict(m=2, holes=2, family=_FAMILY)}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("label", sorted(_SPACES))
def test_sharp_of_each_generator_is_its_flow_velocity(label, n):
    """The Hamiltonian velocity P-sharp(dH) of every generator moves the point as its
    closed-form flow velocity does (``Point.tangent``, the ambient vector)."""
    h = harness.build_harness(label.split("-")[0], n, liecore.build_root_datum(n),
                              **_SPACES[label])
    rng = np.random.default_rng(30 + n)
    gens = all_generators(h)
    for _ in range(2):
        x = h.sample(rng)
        velocities = brackets.sharp(brackets.gradient_stack([g.obs for g in gens], x), x)
        for j, g in enumerate(gens):
            ref = x.tangent(g.velocity(x))
            got = x.tangent({key: v[j] for key, v in velocities.items()})
            assert np.linalg.norm(got - ref) <= 1e-13 * (1 + np.linalg.norm(ref)), (g.name, j)


@pytest.mark.parametrize("n", range(2, 9))
def test_gram_is_pair_entry_by_entry(n):
    """On leading point axes, broadcast operands and non-contiguous views (conjugate
    transposes, the row picks of ``brackets._pick``), under both forms, every entry of ``gram``
    is ``pair`` of its two matrices, bit for bit."""
    rng = np.random.default_rng(50 + n)
    draw = lambda *shape: rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    left, right = draw(3, 5), draw(3, 4)
    cases = [(left, right), (left[0], right[0]), (left[1, 2], right[2]),
             (left, right[:1]), (left[:1], right),
             (liecore.adjoint(left), right[:, ::-1]), (left[:, ::2], liecore.adjoint(right)),
             (brackets._pick({0: left}, [4, 1, 1])[0], brackets._pick({0: right}, [3])[0]),
             (brackets._pick({0: left}, 2)[0], right),
             (np.broadcast_to(left[0], (2, 5, n, n)), right[:2]), (left.real, right)]
    for a, b in cases:
        for form in (liecore.TRACE_FORM, IM_FORM):
            got = liecore.gram(a, b, form)
            if a.ndim == 2:  # one matrix gives one row
                a, got = a[np.newaxis], got[..., np.newaxis, :]
            shape = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
            a_, b_ = (np.broadcast_to(m, shape + m.shape[-3:]) for m in (a, b))
            for index in np.ndindex(shape):
                want = [[pair(u, v, form) for v in b_[index]] for u in a_[index]]
                assert np.array_equal(got[index], want), (a.shape, b.shape, form, index)


def test_gram_forms_no_product_stack():
    """At n = 8 a 40 x 40 gram allocates far less than one rows x cols x n^2 complex stack."""
    rng = np.random.default_rng(8)
    left, right = (rng.normal(size=(40, 8, 8)) + 1j * rng.normal(size=(40, 8, 8))
                   for _ in range(2))
    tracemalloc.start()
    try:
        liecore.gram(left, right)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 40 * 64 * 16 / 4, peak


@pytest.mark.parametrize("space, words", [
    (double_space(3), [("a1", "b1"), ("a1",), ("b1", "a1", "b1")]),
    (moduli_space(1, 1, 2), [("a1", "c1"), ("c1",), ("b1", "c1", "a1"), ("a1", "b1")]),
])
def test_momentum_condition_matrix_is_the_per_pair_formula(space, words):
    x = space.random_point(np.random.default_rng(18))
    obs = [ob.word_observable(w) for w in words] + [ob.word_observable(words[0], part="im")]
    kfns = [ob.PowerTrace(1), ob.PowerTrace(2, part="im")]
    phi = x.momentum()
    word = [name for f in range(len(x.factors)) for name in x.space.momentum_word(f)]
    # k(mu) is a class function of the whole momentum word, and its left and right
    # gradients agree
    tables = brackets._gradients(obs, x) + [
        brackets._pick(brackets.class_word_table(x, word, k.grad(phi)[np.newaxis]), 0)
        for k in kfns]
    two_sided = [k.grad(phi) + k.grad(phi) for k in kfns]
    reference = np.empty((len(obs), len(kfns)))
    for i in range(len(obs)):
        conj = sum(_conjugation_gradient(tables[i], slots) for slots in x.space.factor_slots)
        for j, grad in enumerate(two_sided):
            lhs = _fusion_pair(tables[i], tables[len(obs) + j], x)
            reference[i, j] = abs(lhs - 0.5 * pair(conj, grad))
    assert _close(brackets.momentum_condition_matrix(obs, kfns, x), reference)


@pytest.mark.parametrize("space", ["cotangent", "heisenberg", "double", "sphere4"])
def test_flow_bracket_differentiates_the_flows_at_one_point(space, monkeypatch):
    """The oracle's share: one Richardson derivative for all generators in the whole suite."""
    calls = []
    derivative = brackets.directional_derivative

    def counted(*args, **kw):
        calls.append(1)
        return derivative(*args, **kw)

    monkeypatch.setattr(brackets, "directional_derivative", counted)
    cfg = ScenarioConfig(space=space, n=2, checks=["flow-bracket"])
    check, = run_scenario(cfg).checks
    gens = all_generators(harness.build_harness(space, 2, liecore.build_root_datum(2)))
    assert check.passed and cfg.points > 1 and len(gens) > 1
    assert len(calls) == 1
