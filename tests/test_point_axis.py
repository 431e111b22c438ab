"""Points as stacks: a leading point axis on every kernel the per-space checks reach.

A stacked kernel must give, on each slice, the bytes of its one-matrix (or
one-point) call: the report bodies depend on it.  These tests compare the
two with ``tobytes`` at n = 2, 3, 5 and 8 over 40 draws per n, for a stack
of one as well; run every converted check at n = 8 on every space; and
count the normal-form, Iwasawa and bracket-pairing calls of each converted
check, which must not grow with the number of points it evaluates, and of
which none but the listed ones may see a single point; and count its
generator flow calls, one per generator for all of a check's times.
"""

from collections import Counter

import numpy as np
import pytest

from sunflows import brackets, decomp, flows, harness, liecore, observables as ob, probes, spaces
from sunflows.decomp import NormalForm
from sunflows.scenario import SPACE_FREE_RESULTS, ScenarioConfig, checks_for, run_scenario

NS = (2, 3, 5, 8)
DRAWS = 40
FAMILY = {"single": [1], "commutators": [2], "intervals": [[1, 2]]}
SPACES = {"cotangent": {}, "heisenberg": {}, "double": {}, "double-htilde": {"family": "htilde"},
          "sphere4": {}, "moduli": {"m": 2, "holes": 2, "family": FAMILY}}
CONVERTED = ("conservation", "flow-bracket", "freeness-rank", "abelian-family",
             "flow-commutation", "gradient-oracles", "torus-periodicity", "torus-additivity",
             "torus-vs-flows", "flow-equivariance", "bracket-invariance", "differential-rank",
             "momentum-condition", "unitary-conjugation-law", "quasi-adjoint-law",
             "shifting-trick", "iwasawa-roundtrip", "dressing-equivariance",
             "permutation-brackets")


def _config(space, **fields) -> ScenarioConfig:
    return ScenarioConfig(space=space.split("-")[0], **SPACES[space], **fields)


def _converted(space) -> list:
    """The converted checks that run on ``space``."""
    return [c for c in CONVERTED if c in checks_for(_config(space))]


def _leaves(out) -> list:
    """The arrays of a kernel's output, in a fixed order."""
    if isinstance(out, spaces.Point):
        return [m for _, m in out.matrices()]
    if isinstance(out, NormalForm):
        return [out.spectrum, out.frame]
    if isinstance(out, dict):
        return [leaf for key in out for leaf in _leaves(out[key])]
    if isinstance(out, (tuple, list)):
        return [leaf for item in out for leaf in _leaves(item)]
    return [np.asarray(out)]


def _assert_pointwise(stacked, singles, what=""):
    """Slice k of every leaf of ``stacked`` has the bytes of that leaf of ``singles[k]``; a
    leaf without a point axis (a velocity z that every point shares) equals each one."""
    leaves = _leaves(stacked)
    for k, single in enumerate(singles):
        one = _leaves(single)
        assert len(one) == len(leaves), what
        for i, (many, leaf) in enumerate(zip(leaves, one)):
            many = many[k] if many.ndim > leaf.ndim else many
            assert many.shape == leaf.shape, (what, i)
            assert many.tobytes() == leaf.tobytes(), (what, i, k)


def _stacked(column):
    """Per-point arguments on a leading point axis: points by ``spaces.stack``."""
    if isinstance(column[0], spaces.Point):
        return spaces.stack(list(column))
    return np.stack([np.asarray(c) for c in column])


def _check(fn, args, what=""):
    """fn on the stack of ``args`` (per-point argument tuples) against fn on each point, and
    on a stack of one."""
    _assert_pointwise(fn(*map(_stacked, zip(*args))), [fn(*a) for a in args], what)
    _assert_pointwise(fn(*map(_stacked, zip(*args[:1]))), [fn(*args[0])],
                      f"{what} (stack of one)")


# ---------------------------------------------------------------------------
# matrix kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", NS)
def test_matrix_kernels_act_on_each_slice(n):
    rng = np.random.default_rng(700 + n)
    datum = liecore.build_root_datum(n)
    gs = [liecore.random_group_element(n, rng) for _ in range(DRAWS)]
    js = [liecore.random_algebra_element(n, rng) for _ in range(DRAWS)]
    xs = [liecore.random_sl_element(n, rng) for _ in range(DRAWS)]
    bs = [decomp.iwasawa_left(x)[1] for x in xs]
    ms = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(DRAWS)]
    taus = [rng.uniform(-3, 3, n - 1) for _ in range(DRAWS)]
    for name, fn, column in [
            ("adjoint", liecore.adjoint, ms), ("skew_traceless", liecore.skew_traceless, ms),
            ("unitarity_defect", liecore.unitarity_defect, gs),
            ("project_special_unitary", liecore.project_special_unitary, ms),
            ("project_borel", liecore.project_borel, ms),
            ("project_compact", liecore.project_compact, ms),
            ("expm_normal", liecore.expm_normal, js), ("iwasawa_left", decomp.iwasawa_left, xs),
            ("iwasawa_right", decomp.iwasawa_right, xs),
            ("posdef_of_borel", decomp.posdef_of_borel, bs)]:
        _check(fn, [(m,) for m in column], name)
    _check(lambda t: liecore.expm_diagonal(-1j * flows._weighted(t, datum.coroots)),
           [(t,) for t in taus], "expm_diagonal")
    _check(decomp.dress, list(zip(gs, bs)), "dress")
    _check(lambda a, b: liecore.gram(a, b, liecore.IM_FORM),
           [(np.stack([a, b]), np.stack([b, a, b])) for a, b in zip(ms, xs)], "gram")
    _check(lambda c: liecore.ordered_sum(c, brackets._basis("sl", n)[1]),
           [(rng.standard_normal(2 * n * n - 2),) for _ in range(DRAWS)], "ordered_sum")


@pytest.mark.parametrize("n", NS)
def test_expm_normal_keeps_each_matrix_branch(n):
    """A stack that mixes anti-Hermitian and Hermitian matrices: each takes its own branch."""
    rng = np.random.default_rng(720 + n)
    mixed = []
    for k in range(DRAWS):
        z = liecore.random_algebra_element(n, rng) * rng.uniform(0.01, 3)
        mixed.append(z if k % 3 else 1j * z)
    _check(liecore.expm_normal, [(z,) for z in mixed], "expm_normal")
    assert not np.allclose(liecore.expm_normal(np.stack(mixed[:2])),
                           liecore.expm_normal(np.stack(mixed[:2]) * 1j))


@pytest.mark.parametrize("n", NS)
def test_normal_forms_spectra_frames_and_transport_act_on_each_slice(n):
    rng = np.random.default_rng(740 + n)
    draw_b = lambda: decomp.iwasawa_left(liecore.random_sl_element(n, rng))[1]
    cases = [
        (decomp.alcove_diagonalize, [liecore.random_group_element(n, rng) for _ in range(DRAWS)]),
        (decomp.chamber_diagonalize, [liecore.random_algebra_element(n, rng)
                                      for _ in range(DRAWS)]),
        (decomp.borel_chamber_diagonalize, [draw_b() for _ in range(DRAWS)]),
    ]
    diagonal = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    per_point = [np.diag(rng.standard_normal(n) + 0j) for _ in range(DRAWS)]
    for kernel, column in cases:
        _check(lambda m: kernel(m, 0.0), [(m,) for m in column], kernel.__name__)
        _check(lambda m: kernel(m, 0.0).transport(diagonal), [(m,) for m in column],
               f"{kernel.__name__} transport")
        _check(lambda m, d: kernel(m, 0.0).transport(d), list(zip(column, per_point)),
               f"{kernel.__name__} transport per point")


@pytest.mark.parametrize("n", NS)
def test_closed_form_gradients_act_on_each_slice(n):
    rng = np.random.default_rng(760 + n)
    datum = liecore.build_root_datum(n)
    gs = [liecore.random_group_element(n, rng) for _ in range(DRAWS)]
    js = [liecore.random_algebra_element(n, rng) for _ in range(DRAWS)]
    bs = [decomp.iwasawa_left(liecore.random_sl_element(n, rng))[1] for _ in range(DRAWS)]
    for fns, column in [
            ([ob.PowerTrace(2), ob.PowerTrace(3, "im"), ob.AlcoveCoroot(0, datum),
              ob.AlcoveCoweight(n - 2, datum)], gs),
            ([ob.AlgebraPower(2), ob.AlgebraPower(3), ob.ChamberCoroot(n - 2, datum)], js),
            ([ob.BorelPower(2), ob.BorelChamberCoroot(0, datum)], bs)]:
        for fn in fns:
            _check(fn.grad, [(m,) for m in column], fn.name)


# ---------------------------------------------------------------------------
# points, flows, torus actions and bracket tables of each geometry
# ---------------------------------------------------------------------------

def _harness(space, n):
    fields = SPACES[space]
    name = "double" if space.startswith("double") else space
    return harness.build_harness(name, n, liecore.build_root_datum(n),
                                 family=fields.get("family"), m=fields.get("m", 0),
                                 holes=fields.get("holes", 0))


def _points(h, rng):
    """DRAWS points of the harness's space: one at a time from the cotangent and Heisenberg
    harnesses, which build them regular, and unfiltered draws on the fusion spaces."""
    if isinstance(h, harness.BuiltHarness):
        return [h.sample(rng) for _ in range(DRAWS)]
    return [h.space.random_point(rng) for _ in range(DRAWS)]


@pytest.mark.parametrize("space", sorted(SPACES))
@pytest.mark.parametrize("n", NS)
def test_each_geometry_acts_on_each_point_of_a_stack(space, n):
    rng = np.random.default_rng(800 + n)
    h = _harness(space, n)
    pts = [(p,) for p in _points(h, rng)]
    z = liecore.random_algebra_element(n, rng)
    etas = [liecore.random_group_element(n, rng) for _ in range(DRAWS)]
    _check(lambda p: p.flat(), pts, "flat")
    _check(lambda p, q: p.distance(q), [(p, q) for (p,), (q,) in zip(pts, pts[1:] + pts[:1])],
           "distance")
    _check(lambda p: p.conjugation_velocity(z), pts, "conjugation_velocity")
    _check(lambda p: p.tangent(p.conjugation_velocity(z)), pts, "tangent")
    _check(lambda p, eta: p.conjugate(eta), [(p, eta) for (p,), eta in zip(pts, etas)],
           "conjugate")
    if isinstance(h, harness.CotangentHarness):
        _check(spaces.cotangent_momentum, pts, "cotangent_momentum")
    elif isinstance(h, harness.HeisenbergHarness):
        _check(spaces.heisenberg_momentum, pts, "heisenberg_momentum")
        for name in ("u_left", "b_right", "b_left", "u_right"):
            _check(lambda p: p.factor(name), pts, name)
    else:
        _check(lambda p: p.momentum(), pts, "momentum")
    first = pts[0][0]
    re, im = np.random.default_rng(820 + n).standard_normal((2, n, n))
    coeff = re + 1j * im
    for name in ("g", "g~", "j") if space == "cotangent" else (
            ("x", "x~", "xh", "xh~") if space == "heisenberg" else
            [first.space.momentum_word(f)[c] + inv for f, c in first.space.slots
             for inv in ("", "~")]):
        _check(lambda p: p.letter(name), pts, f"letter {name}")
        entry = ob.entry_observable(coeff, name)
        assert type(entry(first)) is float
        _check(entry, pts, f"entry {name}")
    for spec in h.conserved():
        _check(spec.fn, pts, spec.name)
    gens = [g for fam in h.families().values() for g in fam] + h.extra_generators()
    taus = [(rng.uniform(-1, 1),) for _ in range(DRAWS)]
    for gen in gens:
        _check(gen.obs, pts, f"{gen.name} value")
        _check(gen.velocity, pts, f"{gen.name} velocity")
        _check(lambda p: gen.flow(p, 0.35), pts, f"{gen.name} flow")
        _check(lambda p, t: gen.flow(p, t), [(p, t) for (p,), (t,) in zip(pts, taus)],
               f"{gen.name} flow at a time per point")
        _check(gen.obs.grad_table, pts, f"{gen.name} table")
    for spec in h.torus_specs():
        angles = [rng.uniform(-1, 1, spec.dim) for _ in range(DRAWS)]
        _check(spec.act, [(p, tau) for (p,), tau in zip(pts, angles)], spec.name)
        _check(lambda p: probes.generator_matrix(p, [g.velocity for g in spec.generators]),
               pts, f"{spec.name} generator matrix")
    obs = h.probes()
    for o in obs:
        assert type(o(first)) is float
        _check(o, pts, f"{o.__name__} value")
        _check(o.grad_table, pts, o.__name__)
    _check(lambda p: brackets.gradient_stack(obs, p), pts, "gradient_stack")
    _check(lambda p: brackets.sharp(brackets.gradient_stack([g.obs for g in gens], p), p), pts,
           "sharp")
    _check(lambda p: brackets.velocity_pairings(
        brackets.gradient_stack(obs, p),
        brackets.stack_tables([g.velocity(p) for g in gens]), p), pts, "velocity_pairings")
    _check(lambda p: brackets.bracket_matrix(obs, [g.obs for g in gens], p), pts,
           "bracket_matrix")
    _check(lambda p: brackets.differentials([g.obs for g in gens], p), pts, "differentials")
    if hasattr(first, "space"):
        _check(lambda p: brackets.momentum_condition_matrix(
            obs[:3], [ob.PowerTrace(1), ob.PowerTrace(2, "im")], p), pts, "momentum condition")


# ---------------------------------------------------------------------------
# the converted checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space", sorted(SPACES))
def test_converted_checks_reach_their_verdict_at_n8(space):
    """Every converted check passes at n = 8 with points = 2."""
    checks = _converted(space)
    report = run_scenario(_config(space, n=8, points=2, checks=checks))
    assert [c.name for c in report.checks] == checks
    for c in report.checks:
        assert c.passed, (c.name, c.residual, c.detail)


_KERNELS = ("alcove_diagonalize", "chamber_diagonalize", "borel_chamber_diagonalize",
            "iwasawa_decompose", "iwasawa_left", "iwasawa_right")

# the one-matrix kernel calls that a converted check still makes outside the sampler, on
# purpose: the one-point negative control of torus-periodicity on the double, the
# conditioning detail of torus-additivity on the Heisenberg double, the regular point that
# the second half of permutation-brackets draws and the per-point draws of
# dressing-equivariance (flow-bracket's one-point Richardson oracle is not listed: every
# kernel sees it)
ONE_POINT = {("torus-periodicity", "double"): Counter(alcove_diagonalize=1),
             ("torus-additivity", "heisenberg"): Counter(alcove_diagonalize=1, iwasawa_right=2),
             ("permutation-brackets", "moduli"): Counter(alcove_diagonalize=2,
                                                         velocity_pairings=1)}


def _one_point(check, space) -> Counter:
    if check == "dressing-equivariance":
        return Counter(iwasawa_left=20)
    return ONE_POINT.get((check, space), Counter())


def _kernel_calls(monkeypatch, cfg: ScenarioConfig) -> tuple[Counter, Counter]:
    """(calls, one-matrix calls) of the normal-form and Iwasawa kernels and of the bracket
    pairing ``velocity_pairings`` (one-point calls) made outside the samplers (the rejection
    loop ``sample_regular`` and the built harnesses' stacked draw ``build``) and outside
    another of these kernels (so that a call of ``iwasawa_decompose`` counts once, not
    again for each of its halves), by kernel, in one run of ``cfg``."""
    calls, single, depth = Counter(), Counter(), [0]

    def counted(name, fn, matrix=lambda *args: args[0]):
        def wrapper(*args):
            if not depth[0]:
                calls[name] += 1
                single[name] += np.ndim(matrix(*args)) == 2
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapper

    def sampling(fn):
        def wrapper(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapper

    with monkeypatch.context() as mp:
        for name in _KERNELS:
            mp.setattr(decomp, name, counted(name, getattr(decomp, name)))
        # every bracket pairs through velocity_pairings(rows, velocities, point)
        mp.setattr(brackets, "velocity_pairings",
                   counted("velocity_pairings", brackets.velocity_pairings,
                           lambda rows, velocities, x: x.matrices()[0][1]))
        mp.setattr(harness, "sample_regular", sampling(harness.sample_regular))
        for built in (harness.CotangentHarness, harness.HeisenbergHarness):
            mp.setattr(built, "build", sampling(built.build))
        SPACE_FREE_RESULTS.clear()
        report = run_scenario(cfg)
    assert all(c.passed for c in report.checks), [(c.name, c.detail) for c in report.checks]
    return calls, single


@pytest.mark.parametrize("space, check", [
    (space, check) for space in ("cotangent", "heisenberg", "double", "sphere4", "moduli")
    for check in _converted(space)])
def test_converted_checks_call_the_kernels_once_per_stack(space, check, monkeypatch):
    """The kernel calls of a converted check do not grow with its points: the same at
    points = 2 and 14 (flow-bracket evaluates 2 and 14 points, abelian-family 2 and 4 per
    family; the other checks draw a fixed number of points).  Outside the sampler, no kernel
    sees a single matrix or point except flow-bracket's oracle and the calls in ONE_POINT
    (the stencils of gradient-oracles read stacked spectra), so a check that went back to a
    loop over points fails here."""
    fields = dict(n=2 if space == "moduli" else 3, checks=[check])
    few, few_single = _kernel_calls(monkeypatch, _config(space, points=2, **fields))
    many, many_single = _kernel_calls(monkeypatch, _config(space, points=14, **fields))
    assert many == few
    assert many_single == few_single
    if check != "flow-bracket":
        assert +few_single == _one_point(check, space), few_single


def _flow_calls(monkeypatch, cfg: ScenarioConfig) -> int:
    """The ``Generator.flow`` calls of one run of ``cfg``."""
    calls = [0]

    class Counted(harness.Generator):
        def __init__(self, name, obs, flow, velocity):
            def counted(*args):
                calls[0] += 1
                return flow(*args)
            super().__init__(name, obs, counted, velocity)

    with monkeypatch.context() as mp:
        mp.setattr(harness, "Generator", Counted)
        SPACE_FREE_RESULTS.clear()
        report = run_scenario(cfg)
    assert all(c.passed for c in report.checks), [(c.name, c.detail) for c in report.checks]
    return calls[0]


def _expected_flow_calls(check, space, n) -> int:
    """One flow call per generator and all of its times: per generator in flow-bracket (its
    Richardson stencil), per generator and conserved quantity in conservation, per
    generator in unitary-conjugation-law and flow-equivariance; each generator's two first
    steps and then, on the stack of its partners' first steps, one second step after the
    earlier generators and one after the later ones in flow-commutation; one per torus
    angle in torus-vs-flows (the composed flows)."""
    h = _harness(space, n)
    fams = h.families()
    sizes = [len(gens) for gens in fams.values()]
    return {"flow-bracket": sum(sizes) + len(h.extra_generators()),
            "conservation": sum(len(fams.get(s.family, [])) for s in h.conserved()),
            "unitary-conjugation-law": len(fams.get("unitary-class", [])),
            "flow-equivariance": sum(sizes),
            "flow-commutation": sum(2 * g + 2 * (g - 1) for g in sizes),
            "torus-vs-flows": sum(spec.dim for spec in h.torus_specs())}.get(check, 0)


@pytest.mark.parametrize("space, check", [
    (space, check) for space in ("cotangent", "heisenberg", "double", "sphere4", "moduli")
    for check in _converted(space)])
def test_converted_checks_call_each_flow_once_for_all_times(space, check, monkeypatch):
    """Time is a stack axis: a check calls a generator's flow once per point stack for all
    of its times, so its flow calls do not grow with its points (the same at points = 2 and
    14) and are the counts of ``_expected_flow_calls``."""
    n = 2 if space == "moduli" else 3
    few = _flow_calls(monkeypatch, _config(space, n=n, points=2, checks=[check]))
    assert _flow_calls(monkeypatch, _config(space, n=n, points=14, checks=[check])) == few
    assert few == _expected_flow_calls(check, space, n)
