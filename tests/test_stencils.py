"""Shared finite-difference stencils: one engine, every point built and evaluated once.

Every stencil comes from ``brackets.directional_derivative``, on curves along
the basis (``brackets._exp_along``, exp(tZ) for each time and direction) or
additive shifts.  The list forms of the gradient oracles, the per-generator
flow derivatives of the flow-bracket oracle (``flow_derivatives``) and
``momentum_condition_matrix`` must give exactly (bit for bit) what one call
per observable gives, so report bodies do not move.
The closed-form flow velocities are held to those flow derivatives, and a
full suite reaches ``directional_derivative`` from those flow derivatives and from
the gradient oracles' differences along random directions only.
Those derivatives flow all of their stencil times in one call, on a stack of
copies of the point: each time slice of a flow must hold the bytes of its
one-time call.
"""

import sys

import numpy as np
import pytest
import scipy.linalg
from curve_stencils import fd_observable, per_time

from sunflows import brackets, decomp, flows, harness, liecore, moduli, probes
from sunflows import observables as ob
from sunflows.scenario import (ScenarioConfig, all_generators, flow_bracket_worst,
                               flow_derivatives, run_scenario)
from sunflows.spaces import (CotangentPoint, HeisenbergPoint, double_space, moduli_space,
                             random_cotangent_point, stack)


def _group_case(n, rng):
    datum = liecore.build_root_datum(n)
    g = harness.sample_regular("group", 64, lambda: liecore.random_group_element(n, rng),
                               lambda g: decomp.alcove_diagonalize(g, 0.05))
    return g, [ob.PowerTrace(1), ob.PowerTrace(2), ob.AlcoveCoroot(0, datum),
               ob.AlcoveCoweight(datum.rank - 1, datum)]


def _algebra_case(n, rng):
    datum = liecore.build_root_datum(n)
    j_alg = harness.sample_regular("algebra", 64, lambda: liecore.random_algebra_element(n, rng),
                                   lambda j: decomp.chamber_diagonalize(j, 0.05))
    return j_alg, [ob.AlgebraPower(2), ob.AlgebraPower(3), ob.ChamberCoroot(0, datum)]


def _borel_case(n, rng):
    datum = liecore.build_root_datum(n)
    b = harness.sample_regular(
        "Borel", 64, lambda: decomp.iwasawa_decompose(liecore.random_sl_element(n, rng)).b_right,
        lambda b: decomp.borel_chamber_diagonalize(b, 0.05))
    return b, [ob.BorelPower(1), ob.BorelPower(2), ob.BorelChamberCoroot(0, datum)]


def _exact_exp(kind, z, t):
    """exp(tZ) at each time of t, (times, n, n), one direction at a time: expm_normal on su,
    and on sl and Borel directions, which are diagonal or square-zero, the closed forms
    diag(exp(t diag Z)) and I + tZ."""
    a = liecore.scaled(t, z)
    if kind == "su":
        return liecore.expm_normal(a)
    if np.count_nonzero(z - np.diag(np.diag(z))):
        assert not np.any(z @ z)
        return np.eye(len(z)) + a
    return liecore.expm_diagonal(a)


def _reference(fn, m, kind):
    """One function's left-translation derivatives along every direction, each from its own
    ``directional_derivative`` along exp(tZ) m (the Borel curves at ``BOREL_SPEED``)."""
    speed = brackets.BOREL_SPEED if kind == "borel" else 1.0
    return np.array([brackets.directional_derivative(
        fn, lambda t, z=z: _exact_exp(kind, z, speed * t) @ m) / speed
        for z in brackets._basis(kind, m.shape[0])[0]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_group_oracle_list_equals_single_calls(n):
    g, fns = _group_case(n, np.random.default_rng(100 + n))
    values = [fn.value for fn in fns]
    together = brackets.group_gradient_fd(values, g)
    assert len(together) == len(fns)
    for value, grad in zip(values, together):
        single, = brackets.group_gradient_fd([value], g)
        reference = np.zeros((n, n), dtype=complex)
        for d, e in zip(_reference(value, g, "su"), brackets._basis("su", n)[1]):
            reference += d * e
        assert np.array_equal(grad, single)
        assert np.array_equal(grad, reference)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_algebra_oracle_list_equals_single_calls(n):
    j_alg, fns = _algebra_case(n, np.random.default_rng(200 + n))
    values = [fn.value for fn in fns]
    together = brackets.algebra_gradient_fd(values, j_alg)
    basis, dual = brackets._basis("su", n)
    for value, grad in zip(values, together):
        single, = brackets.algebra_gradient_fd([value], j_alg)
        reference = np.zeros((n, n), dtype=complex)
        for z, e in zip(basis, dual):
            reference += brackets.directional_derivative(
                value, lambda t, z=z: j_alg + liecore.scaled(t, z)) * e
        assert np.array_equal(grad, single)
        assert np.array_equal(grad, reference)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_borel_oracle_list_equals_single_calls(n):
    """The Borel dual is su-valued and im-dual to the Borel basis, so the oracle's gradient
    is the derivatives summed against it."""
    b, fns = _borel_case(n, np.random.default_rng(300 + n))
    basis, dual = brackets._basis("borel", n)
    assert np.allclose(liecore.gram(basis, dual, liecore.IM_FORM), np.eye(len(basis)),
                       rtol=0, atol=1e-13)
    assert np.allclose(dual, -liecore.adjoint(dual), rtol=0, atol=1e-15)
    assert np.allclose(liecore.trace(dual), 0, rtol=0, atol=1e-15)
    values = [fn.value for fn in fns]
    together = brackets.borel_gradient_fd(values, b)
    for value, grad in zip(values, together):
        single, = brackets.borel_gradient_fd([value], b)
        reference = sum(d * e for d, e in zip(_reference(value, b, "borel"), dual))
        assert np.array_equal(grad, single)
        assert np.array_equal(grad, reference)


@pytest.mark.parametrize("kind", ["su", "sl", "borel"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_exp_along_is_expm_of_each_time_and_direction(kind, n):
    """exp(tZ) along the basis is, at each stencil time and direction, expm_normal of tZ bit
    for bit on su, and on sl and the Borel algebra exactly scipy's expm by value (the signed
    zeros may differ): every sl and Borel direction is diagonal or square-zero."""
    directions = {"su": liecore.su_basis, "sl": liecore.sl_real_basis,
                  "borel": liecore.borel_basis}[kind](n)
    speed = brackets.BOREL_SPEED if kind == "borel" else 1.0
    times = speed * (np.array(brackets._STEPS) * brackets.H)
    table = brackets._exp_along(kind, n, times)
    assert table.shape == (len(times), len(directions), n, n)
    for row, t in zip(table, times):
        for z, u in zip(directions, row):
            want = scipy.linalg.expm(t * z)
            if kind == "su":
                assert u.tobytes() == liecore.expm_normal(t * z).tobytes()
                assert np.allclose(u, want, rtol=0, atol=1e-17)
            else:
                assert np.array_equal(u, want)


def test_engines_oracles_and_differentials_share_the_table():
    """The cotangent engine's group and fiber gradients are the group and algebra oracles',
    bit for bit, and the differential row of an opaque observable holds the same central
    differences along the same curves.  The last equality is bitwise only at some points (the
    pairing of the table with the basis rounds), so the point is a fixed draw of the
    cotangent constructor."""
    n = 3
    x = random_cotangent_point(n, np.random.default_rng(19))
    obs = ob.word_observable(("g", "j", "j"))
    opaque = fd_observable(lambda p: obs(p))
    on_group = lambda g: obs(CotangentPoint(g, x.j))
    table, = brackets.cotangent_gradients([obs], x)
    assert np.array_equal(table["group"], brackets.group_gradient_fd([on_group], x.g)[0])
    assert np.array_equal(table["fiber"], brackets.algebra_gradient_fd(
        [lambda j: obs(CotangentPoint(x.g, j))], x.j)[0])
    row, = brackets.differentials([opaque], x)
    on_stack = lambda gs: np.array([on_group(g) for g in gs])
    assert np.array_equal(row[:n * n - 1], _reference(on_stack, x.g, "su"))


@pytest.mark.parametrize("space", ["cotangent", "heisenberg", "double"])
def test_tabled_differential_rows_pair_the_basis_with_the_table(space):
    """A tabled observable's differential row is the pairing of each left-translation (and
    fiber) direction with its ``grad_table``: the trace form on su, the im form on sl."""
    n = 3
    h = harness.build_harness(space, n, liecore.build_root_datum(n))
    x = h.sample(np.random.default_rng(20))
    fns = h.probes()[:3] + [g.obs for g in all_generators(h)][:3]
    rows = brackets.differentials(fns, x)
    for fn, row in zip(fns, rows):
        table = fn.grad_table(x)
        if isinstance(x, CotangentPoint):
            blocks = [(liecore.su_basis(n), table[key], liecore.TRACE_FORM)
                      for key in ("group", "fiber")]
        elif isinstance(x, HeisenbergPoint):
            blocks = [(liecore.sl_real_basis(n), table["lmul"], liecore.IM_FORM)]
        else:
            blocks = [(liecore.su_basis(n), table[(*slot, "lmul")], liecore.TRACE_FORM)
                      for slot in x.space.slots]
        expected = [liecore.pair(z, m, form) for basis, m, form in blocks for z in basis]
        assert np.allclose(row, expected, rtol=0, atol=1e-13)


def _per_probe_derivatives(x, gens, obs):
    """One derivative per probe and generator, with one flow call per stencil time."""
    return np.array([[brackets.directional_derivative(
        *per_time(o, lambda t, gen=gen: gen.flow(x, t)), richardson=True) for gen in gens]
        for o in obs])


# every space of the workbench, the double with both of its families
_SPACES = {"cotangent": {}, "heisenberg": {}, "double-h": dict(family="h"),
           "double-htilde": dict(family="htilde"), "sphere4": {},
           "moduli": dict(m=2, holes=2,
                          family={"single": [1], "commutators": [2], "intervals": [[1, 2]]})}


def _build(label, n):
    return harness.build_harness(label.split("-")[0], n, liecore.build_root_datum(n),
                                 **_SPACES[label])


# the times the suite flows by: both Richardson stencils of the flow-bracket oracle, then
# those of conservation, unitary-conjugation-law, flow-commutation and flow-equivariance
_TIMES = np.concatenate([np.array(brackets._STEPS) * brackets.H,
                         np.array(brackets._STEPS) * brackets.H / 2,
                         [0.35, 0.9, 1.8, 0.3, 1.1, 0.7, 0.45]])


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("label", sorted(_SPACES))
def test_a_flow_on_a_time_stack_keeps_the_bytes_of_each_time(label, n):
    """Time is a stack axis: gen.flow(stack([x] * k), times) holds at slice k the bytes of
    gen.flow(x, times[k]), for one point x and for a 2-point stack x (times on the leading
    axis, points on the next), and so does the unitary cofactor of the Heisenberg class
    flows."""
    h = _build(label, n)
    rng = np.random.default_rng(40 + n)
    cases = [(h.sample(rng), _TIMES), (h.sample_stack(rng, 2), _TIMES[:, np.newaxis])]
    k = len(_TIMES)
    for gen in all_generators(h):
        for x, times in cases:
            moved = gen.flow(stack([x] * k), times)
            for j, t in enumerate(_TIMES):
                one = gen.flow(x, float(t))
                for (_, many), (_, m) in zip(moved.matrices(), one.matrices()):
                    assert many[j].tobytes() == m.tobytes(), (gen.name, t)
    for gen in h.families().get("unitary-class", []):
        for x, times in cases:
            gamma = flows.heisenberg_class_flow(stack([x] * k), [gen.obs.fn], times)[1][0]
            for slice_, t in zip(gamma, _TIMES):
                one = flows.heisenberg_class_flow(x, [gen.obs.fn], float(t))[1][0]
                assert slice_.tobytes() == one.tobytes(), (gen.name, t)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("label", sorted(_SPACES))
def test_velocity_pairings_match_the_flow_derivatives(label, n):
    """Every generator's closed-form velocity, paired with the probes' stacked tables, is the
    Richardson derivative of its exact flow, up to the difference's own error."""
    h = _build(label, n)
    rng = np.random.default_rng(21 + n)
    gens, obs = all_generators(h), h.probes()
    for _ in range(3):
        x = h.sample(rng)
        paired = brackets.velocity_pairings(brackets.gradient_stack(obs, x),
                                            brackets.stack_tables([g.velocity(x) for g in gens]),
                                            x)
        d_flow = flow_derivatives(x, gens, obs)
        assert paired.shape == d_flow.shape == (len(obs), len(gens))
        assert np.max(np.abs(paired - d_flow) / (1 + np.abs(d_flow))) <= 1e-9


@pytest.mark.parametrize("space", ["cotangent", "heisenberg", "double"])
def test_oracle_defect_equals_per_probe_loop(space):
    """The oracle point's flow derivatives are one call per generator over all probes, bit for
    bit the per-probe ones; with the oracle the residual is the larger of the two defects."""
    h = harness.build_harness(space, 2, liecore.build_root_datum(2))
    x = h.sample(np.random.default_rng(17))
    gens, obs = all_generators(h), h.probes()
    d_flow = _per_probe_derivatives(x, gens, obs)
    assert np.array_equal(flow_derivatives(x, gens, obs), d_flow)
    mat = brackets.bracket_matrix(obs, [g.obs for g in gens], x)
    oracle = np.max(np.abs(d_flow - mat) / (1.0 + np.abs(mat)))
    assert flow_bracket_worst(x, gens, obs) == max(
        flow_bracket_worst(x, gens, obs, oracle=False), oracle)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("label", sorted(_SPACES))
def test_stacked_flow_bracket_is_the_worst_of_its_points(label, n):
    """The one stacked pass of flow-bracket, on the first point joined to a stack as the check
    draws them, is bit for bit the largest of the one-point residuals of its points, with
    the oracle at the first point only."""
    h = _build(label, n)
    rng = np.random.default_rng(60 + n)
    gens, obs = all_generators(h), h.probes()
    first = h.sample(rng)
    x = stack([stack([first]), h.sample_stack(rng, 3)], np.concatenate)
    points = [x.map(lambda m, i=i: m[i]) for i in range(4)]
    for p, q in zip(points[0].matrices(), first.matrices()):
        assert p[1].tobytes() == q[1].tobytes()
    one_point = [flow_bracket_worst(p, gens, obs, oracle=i == 0) for i, p in enumerate(points)]
    assert flow_bracket_worst(x, gens, obs) == max(one_point)
    assert flow_bracket_worst(x, gens, obs, oracle=False) == max(
        flow_bracket_worst(points[0], gens, obs, oracle=False), *one_point[1:])


@pytest.mark.parametrize("space, words", [
    (double_space(2), [("a1", "b1"), ("a1",), ("b1", "a1", "b1")]),
    (moduli_space(1, 1, 2), [("a1", "c1"), ("c1",), ("b1", "c1", "a1"), ("a1", "b1")]),
])
def test_momentum_condition_matrix_entries_are_pairwise_residuals(space, words):
    x = space.random_point(np.random.default_rng(18))
    obs = [ob.word_observable(w) for w in words]
    kfns = [ob.PowerTrace(1), ob.PowerTrace(2, part="im"), ob.PowerTrace(0)]
    mat = brackets.momentum_condition_matrix(obs, kfns, x)
    assert mat.shape == (len(obs), len(kfns))
    for i, f_obs in enumerate(obs):
        for j, kfn in enumerate(kfns):
            assert mat[i, j] == brackets.momentum_condition_residual(f_obs, kfn, x)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ["su", "sl", "borel"])
def test_dual_sum_is_bit_equal_to_the_sequential_sum(kind, n):
    """The reduction over the basis keeps the order of a Python sum, bit for bit."""
    dual = brackets._basis(kind, n)[1]
    rng = np.random.default_rng(n)
    for derivs in (rng.standard_normal(len(dual)), np.where(np.arange(len(dual)) % 2, -0.0, 1.5)):
        want = sum(d * e for d, e in zip(derivs, dual))
        assert brackets._dual_sum(kind, n, derivs).tobytes() == want.tobytes()


# the flows and torus action maps that a harness generator or TorusSpec calls
_FLOW_MAPS = [(flows, name) for name in ("cotangent_flow", "heisenberg_flow", "double_flow",
                                         "cotangent_torus_action", "heisenberg_torus_action",
                                         "double_torus_action")]
_FLOW_MAPS += [(moduli, "moduli_flow"), (moduli, "moduli_torus_action")]


def _caller(frame) -> str:
    """module.function of the first frame that is not a comprehension or lambda."""
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"


@pytest.mark.parametrize("label", sorted(_SPACES))
def test_finite_differences_run_only_in_the_flow_bracket_oracle(label, monkeypatch):
    """In a full suite at n=2, directional derivatives come only from ``flow_derivatives``
    and from gradient-oracles' differences along random directions, and a generator matrix
    calls no flow and no torus action: the rank and isotropy probes read closed-form
    velocities."""
    callers, in_generator_matrix, moved = set(), [0], []
    derivative = brackets.directional_derivative

    def traced_derivative(*args, **kwargs):
        callers.add(_caller(sys._getframe(1)))
        return derivative(*args, **kwargs)

    def guarded(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            if in_generator_matrix[0]:
                moved.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    generator_matrix = probes.generator_matrix

    def traced_generator_matrix(*args):
        in_generator_matrix[0] += 1
        try:
            return generator_matrix(*args)
        finally:
            in_generator_matrix[0] -= 1

    monkeypatch.setattr(brackets, "directional_derivative", traced_derivative)
    monkeypatch.setattr(probes, "generator_matrix", traced_generator_matrix)
    for module, name in _FLOW_MAPS:
        guarded(module, name)
    space = label.split("-")[0]
    report = run_scenario(ScenarioConfig(space=space, n=2, **_SPACES[label]))
    assert all(c.passed for c in report.checks)
    assert callers == {"sunflows.scenario.flow_derivatives",
                       "sunflows.scenario.check_gradient_oracles"}
    assert not moved
