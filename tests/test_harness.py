"""Samplers give up with a message that says how many draws failed and why,
and a fusion stack holds the points of the one-point loop; each torus spec
carries the flow of every angle; every generator's velocity is the derivative
of its flow."""

from collections import Counter

import numpy as np
import pytest

from sunflows import brackets, flows, harness, liecore, moduli
from sunflows.errors import (NotPositiveDefinite, RegularityViolation, SamplingFailure,
                             ShapeError, SingularMatrix, SunflowsError, UnsupportedWord)
from sunflows.observables import (AlcoveCoroot, AlcoveCoweight, BorelChamberCoroot,
                                  ChamberCoroot)
from sunflows.spaces import FusionSpace, stack


def _one(point):
    """The flowed point of a one-generator run, its generator axis dropped."""
    return point.map(lambda m: m[0])


def test_sample_regular_returns_first_accepted_draw():
    draws = iter(range(10))

    def check(x):
        if x < 3:
            raise RegularityViolation(f"draw {x} rejected")

    assert harness.sample_regular("test", 5, lambda: next(draws), check) == 3
    assert next(draws) == 4


def test_sample_regular_names_draws_and_last_rejection():
    draws = iter(range(10))

    def check(x):
        raise RegularityViolation(f"draw {x} rejected")

    with pytest.raises(SamplingFailure) as err:
        harness.sample_regular("test", 4, lambda: next(draws), check)
    assert str(err.value) == ("could not sample a regular test point in 4 draws; "
                              "last: draw 3 rejected")
    assert isinstance(err.value, SunflowsError)


def test_sample_regular_lets_other_errors_through():
    def check(x):
        raise ZeroDivisionError("a bug, not a rejection")

    with pytest.raises(ZeroDivisionError):
        harness.sample_regular("test", 4, lambda: 0, check)


@pytest.mark.parametrize("fault", [ShapeError, UnsupportedWord])
def test_sample_regular_lets_a_faulty_check_through_on_the_first_draw(fault):
    """Only RegularityViolation, NotPositiveDefinite and SingularMatrix reject a
    draw; any other package error inside a check is a bug, not a sampling miss."""
    drawn = []

    def check(x):
        raise fault("a bug, not a rejection")

    with pytest.raises(fault):
        harness.sample_regular("test", 4, lambda: drawn.append(len(drawn)), check)
    assert drawn == [0]


@pytest.mark.parametrize("rejection", [RegularityViolation, NotPositiveDefinite, SingularMatrix])
def test_sample_regular_draws_again_after_each_rejection(rejection):
    draws = iter(range(10))

    def check(x):
        if x < 2:
            raise rejection(f"draw {x} rejected")

    assert harness.sample_regular("test", 4, lambda: next(draws), check) == 2


@pytest.mark.parametrize("space", ["cotangent", "heisenberg"])
@pytest.mark.parametrize("n", range(2, 9))
def test_built_stacks_clear_twice_the_sampling_margin(space, n):
    """The cotangent and Heisenberg points are regular by construction at every admitted n:
    the normal forms of a whole stack clear 2 x SAMPLING_MARGIN, asserted once per stack."""
    from sunflows import decomp
    floor = 2 * harness.SAMPLING_MARGIN
    h = harness.build_harness(space, n, liecore.build_root_datum(n))
    x = h.sample_stack(np.random.default_rng(60 + n), 32)
    assert x.matrices()[0][1].shape == (32, n, n)
    if space == "cotangent":
        decomp.alcove_diagonalize(x.g, floor)
        decomp.chamber_diagonalize(x.j, floor)
    else:
        decomp.alcove_diagonalize(x.factor("u_right"), floor)
        decomp.borel_chamber_diagonalize(x.factor("b_right"), floor)


@pytest.mark.parametrize("count", [None, 16])
@pytest.mark.parametrize("n", range(2, 9))
def test_built_heisenberg_point_has_the_drawn_right_factors(n, count, monkeypatch):
    """X = Q_m^H B^-1, with B^-1 U = Q_m R the positive QR, has the Iwasawa factors
    u_right = U and b_right = B that were drawn, to 1e-12, for one point and for a stack."""
    from sunflows import decomp
    h = harness.HeisenbergHarness(n, liecore.build_root_datum(n))
    drawn = []
    conjugated = liecore.conjugated_spectrum
    monkeypatch.setattr(liecore, "conjugated_spectrum",
                        lambda *args, **kw: drawn.append(conjugated(*args, **kw)) or drawn[-1])
    x = h.points(np.random.default_rng(70 + n), count)
    u, pos = drawn
    factors = decomp.iwasawa_decompose(x.x)
    assert np.max(liecore.norms(factors.u_right - u, 2)) <= 1e-12
    assert np.max(liecore.norms(factors.b_right - decomp.borel_of_posdef(pos), 2)) <= 1e-12


FUSION = {"double": {}, "double-htilde": {"family": "htilde"}, "sphere4": {},
          "moduli-2-2": {"m": 2, "holes": 2,
                         "family": {"single": [1], "commutators": [2], "intervals": [[1, 2]]}},
          "moduli-1-3": {"m": 1, "holes": 3, "family": {"single": [1], "intervals": [[1, 2]]}}}


def _harness(space, n):
    return harness.build_harness(space.split("-")[0], n, liecore.build_root_datum(n),
                                 **FUSION.get(space, {}))


def _loop(h, rng, count):
    """The one-point loop: draw a candidate, keep it when one ``alcove_diagonalize`` of its
    ``regular_values`` clears SAMPLING_MARGIN, until ``count`` are kept; also the number of
    candidates drawn."""
    from sunflows import decomp
    kept, drawn = [], 0
    while len(kept) < count:
        x, drawn = h.space.random_point(rng), drawn + 1
        try:
            decomp.alcove_diagonalize(np.stack(h.regular_values(x)), harness.SAMPLING_MARGIN)
        except RegularityViolation:
            continue
        kept.append(x)
    return kept, drawn


def _bytes(x):
    return [m.tobytes() for _, m in x.matrices()]


def _rounds(monkeypatch) -> list:
    """The candidate count of each stacked round of ``FusionSpace.random_point`` from here on."""
    rounds, draw = [], FusionSpace.random_point

    def counted(space, rng, count=None):
        if count is not None:
            rounds.append(count)
        return draw(space, rng, count)

    monkeypatch.setattr(FusionSpace, "random_point", counted)
    return rounds


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("space", sorted(FUSION))
def test_a_fusion_stack_keeps_the_points_of_the_one_point_loop(space, n):
    """A fusion stack with no per-point draws holds the bytes of the points the one-point loop
    keeps, and leaves the generator where the loop leaves it; so does the one-point sample."""
    h = _harness(space, n)
    stacked, looped = np.random.default_rng(900 + n), np.random.default_rng(900 + n)
    assert _bytes(h.sample_stack(stacked, 12)) == _bytes(stack(_loop(h, looped, 12)[0]))
    assert _bytes(h.sample(stacked)) == _bytes(_loop(h, looped, 1)[0][0])
    assert stacked.bit_generator.state == looped.bit_generator.state


@pytest.mark.parametrize("space", ["double", "moduli-2-2"])
def test_a_fusion_stack_keeps_the_loops_points_through_many_rejections(space, monkeypatch):
    """At margin 0.3 about half the n=5 candidates are rejected: the stack takes several
    rounds, each of as many candidates as the stack lacks, draws exactly the candidates the
    loop draws and keeps the same points."""
    monkeypatch.setattr(harness, "SAMPLING_MARGIN", 0.3)
    h = _harness(space, 5)
    rounds = _rounds(monkeypatch)
    x = h.sample_stack(np.random.default_rng(950), 20)
    kept, drawn = _loop(h, np.random.default_rng(950), 20)
    assert _bytes(x) == _bytes(stack(kept))
    assert len(rounds) >= 3 and rounds[0] == 20 and sum(rounds) == drawn > 20


@pytest.mark.parametrize("count", [None, 4])
@pytest.mark.parametrize("space", sorted(FUSION))
def test_a_fusion_stack_gives_up_within_its_budget(space, count, monkeypatch):
    """No point of SU(3) clears every alcove wall by 2 pi: the sampler stops after 128
    candidates per point and names the kind, the draws, the points accepted and the smallest
    wall margin it saw."""
    monkeypatch.setattr(harness, "SAMPLING_MARGIN", 2 * np.pi)
    h = _harness(space, 3)
    rounds = _rounds(monkeypatch)
    with pytest.raises(SamplingFailure) as err:
        h.points(np.random.default_rng(960), count)
    draws = 128 * (count or 1)
    assert sum(rounds) == draws
    message = str(err.value)
    assert f"regular {h.kind} points in {draws} draws: 0 accepted" in message
    assert 0 <= float(message.rsplit("smallest wall margin ", 1)[1]) < 2 * np.pi / 3


@pytest.mark.parametrize("space", ["cotangent", "heisenberg", *sorted(FUSION)])
def test_a_stack_draws_its_points_then_each_points_draws(space):
    """``sample_stack(rng, k, draw)`` is ``sample_stack(rng, k)`` and then k draws, on twin
    generators, for every harness."""
    h = _harness(space, 3)
    with_draws, after = np.random.default_rng(970), np.random.default_rng(970)

    def draw(rng):
        return liecore.random_group_element(3, rng)

    x, eta = h.sample_stack(with_draws, 5, draw)
    y = h.sample_stack(after, 5)
    etas = np.array([draw(after) for _ in range(5)])
    assert _bytes(x) == _bytes(y) and eta.tobytes() == etas.tobytes()
    assert with_draws.bit_generator.state == after.bit_generator.state


@pytest.mark.parametrize("n", range(2, 9))
def test_gradient_oracles_build_thirty_regular_points_of_each_kind(n, monkeypatch):
    """The oracle points are regular by construction at every admitted n: 30 group, 30
    algebra and 30 Borel points, each kind one stacked draw of 30 Haar frames and 30
    spectra, none redrawn, and each passing its 0.05-margin normal form, asserted on one
    stack per kind."""
    from sunflows import decomp, scenario
    built, asserted = Counter(), Counter()

    def counted(name, fn):
        def wrapper(*args):
            out = fn(*args)
            built[name] += 1
            built[f"{name} points"] += len(out)
            return out
        return wrapper

    def asserting(name, fn):
        def wrapper(x, *margin):
            if margin == (0.05,):
                asserted[name] += 1
                asserted[f"{name} matrices"] += int(np.prod(np.shape(x)[:-2]))
            return fn(x, *margin)
        return wrapper

    monkeypatch.setattr(liecore, "haar_unitary", counted("frame", liecore.haar_unitary))
    monkeypatch.setattr(liecore, "gapped_spectrum", counted("spectrum", liecore.gapped_spectrum))
    for name in ("alcove_diagonalize", "chamber_diagonalize", "borel_chamber_diagonalize"):
        monkeypatch.setattr(decomp, name, asserting(name, getattr(decomp, name)))
    report = scenario.run_scenario(scenario.ScenarioConfig(
        space="cotangent", n=n, seed=42, checks=["gradient-oracles"]))
    check, = report.checks
    assert check.passed, check.detail
    assert built == {"frame": 3, "spectrum": 3, "frame points": 90, "spectrum points": 90}
    kinds = ("alcove_diagonalize", "chamber_diagonalize", "borel_chamber_diagonalize")
    assert asserted == {**{name: 1 for name in kinds},
                        **{f"{name} matrices": 30 for name in kinds}}


def _gapped(gaps):
    """The decreasing zero-sum vector with these consecutive gaps."""
    xi = -np.concatenate([[0.0], np.cumsum(gaps)])
    return xi - xi.mean()


def _oracle_error(fns, point, fds):
    """The gradient-oracles residual of closed-form gradients against their oracle."""
    return max(np.linalg.norm(fn.grad(point) - fd) / (1 + np.linalg.norm(fn.grad(point)))
               for fn, fd in zip(fns, fds))


@pytest.mark.parametrize("n", range(2, 6))
def test_closed_form_gradients_match_the_oracles_at_twice_the_margin(n):
    """Oracle points clear every wall by a floor above twice the 0.05 margin; at points
    with one alcove wall or one chamber gap at exactly 2 x 0.05, the closed-form
    gradients still match the finite-difference oracles within the check's 1e-6."""
    from sunflows import decomp
    wall, datum = 2 * 0.05, liecore.build_root_datum(n)
    rng = np.random.default_rng(80 + n)

    def conjugate(diag):
        q = liecore.haar_unitary(n, rng)
        return (q * diag) @ q.conj().T

    group_fns = ([AlcoveCoroot(j, datum) for j in range(n - 1)]
                 + [AlcoveCoweight(j, datum) for j in range(n - 1)])
    algebra_fns = [ChamberCoroot(j, datum) for j in range(n - 1)]
    borel_fns = [BorelChamberCoroot(j, datum) for j in range(n - 1)]
    worst = 0.0
    # n alcove walls: the n - 1 simple-root gaps and the affine wall 2 pi - (xi_1 - xi_n)
    for near in range(n):
        gaps = np.full(n, (2 * np.pi - wall) / (n - 1))
        gaps[near] = wall
        g = conjugate(np.exp(1j * _gapped(gaps[:-1])))
        assert decomp.alcove_spectra(g[np.newaxis])[0] == pytest.approx(_gapped(gaps[:-1]))
        worst = max(worst, _oracle_error(group_fns, g, brackets.group_gradient_fd(group_fns, g)))
    for near in range(n - 1):
        gaps = np.ones(n - 1)
        gaps[near] = wall
        j_alg = liecore.skew_traceless(conjugate(1j * _gapped(gaps)))
        b = decomp.borel_of_posdef(conjugate(np.exp(_gapped(gaps))))
        assert np.diff(decomp.chamber_diagonalize(j_alg, 0.05).spectrum) == pytest.approx(-gaps)
        assert np.diff(decomp.borel_chamber_diagonalize(b, 0.05).spectrum) == pytest.approx(-gaps)
        worst = max(worst,
                    _oracle_error(algebra_fns, j_alg, brackets.algebra_gradient_fd(algebra_fns, j_alg)),
                    _oracle_error(borel_fns, b, brackets.borel_gradient_fd(borel_fns, b)))
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# torus specs: the flow of every angle
# ---------------------------------------------------------------------------

TORUS_HARNESSES = {
    "cotangent": dict(space="cotangent", n=3),
    "heisenberg": dict(space="heisenberg", n=3),
    "double-h": dict(space="double", n=3, family="h"),
    "double-htilde": dict(space="double", n=3, family="htilde"),
    "sphere4": dict(space="sphere4", n=3),
    "moduli-2-2": dict(space="moduli", n=2, m=2, holes=2,
                       family={"single": [1], "commutators": [2], "intervals": [[1, 2]]}),
}


def _old_generator_flow(h, spec, j):
    """The former ``torus_generator_flow(spec.name, j)`` of each harness."""
    datum = h.datum
    if spec.name == "chamber-torus":
        return lambda p, t: _one(flows.cotangent_flow(p, [ChamberCoroot(j, datum)], t))
    if spec.name == "fiber-translation":
        return lambda p, t: _one(flows.cotangent_flow(p, [AlcoveCoroot(j, datum)], t))
    if spec.name == "dressing-torus":
        return lambda p, t: _one(flows.heisenberg_flow(p, [BorelChamberCoroot(j, datum)], t))
    if spec.name == "borel-translation":
        return lambda p, t: _one(flows.heisenberg_flow(p, [AlcoveCoroot(j, datum)], t))
    if spec.name in ("first-slot-torus", "second-slot-torus"):
        slot = spec.name.split("-")[0]
        return lambda p, t: _one(flows.double_flow(p, [AlcoveCoroot(j, datum)], t, slot))
    return lambda p, t: _one(moduli.moduli_flow(p, [h.hams[j]], t))


@pytest.mark.parametrize("key", sorted(TORUS_HARNESSES))
def test_torus_flows_are_bit_equal_to_the_old_formulas(key):
    cfg = dict(TORUS_HARNESSES[key])
    n = cfg.pop("n")
    datum = liecore.build_root_datum(n)
    h = harness.build_harness(cfg.pop("space"), n, datum, **cfg)
    x = h.sample(np.random.default_rng(7))
    specs = h.torus_specs()
    assert specs
    for spec in specs:
        blocks = len(h.blocks) if spec.name == "family-torus" else 1
        assert len(spec.generators) == spec.dim == blocks * datum.rank
        for j, gen in enumerate(spec.generators):
            for t in (0.37, -0.6):
                assert np.array_equal(gen.flow(x, t).flat(),
                                      _old_generator_flow(h, spec, j)(x, t).flat())


# ---------------------------------------------------------------------------
# velocities: the closed-form tangent of every generator's flow
# ---------------------------------------------------------------------------

VELOCITY_HARNESSES = [
    dict(space="cotangent"), dict(space="heisenberg"), dict(space="double", family="h"),
    dict(space="double", family="htilde"), dict(space="sphere4"),
    dict(space="moduli", m=2, holes=2,
         family={"single": [1], "commutators": [2], "intervals": [[1, 2]]}),
]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kw", VELOCITY_HARNESSES,
                         ids=lambda kw: kw["space"] + str(kw.get("family", "")).replace(" ", ""))
def test_every_velocity_is_the_derivative_of_its_flow(kw, n):
    """x.tangent(velocity) against the Richardson difference of the flow's flat(), for every
    family and extra generator.  On the Heisenberg double this tells a left from a right
    translation, which no probe of flow-bracket can."""
    h = harness.build_harness(n=n, datum=liecore.build_root_datum(n), **kw)
    x = h.sample(np.random.default_rng(90 + n))
    gens = [g for fam in h.families().values() for g in fam] + h.extra_generators()
    for gen in gens:
        exact = x.tangent(gen.velocity(x))
        fd = brackets.directional_derivative(
            lambda p: p.flat(), lambda t: gen.flow(stack([x] * len(t)), t), richardson=True)
        assert np.linalg.norm(exact - fd) <= 1e-8 * np.linalg.norm(fd), gen.name
