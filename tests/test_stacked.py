"""Stacked stencil evaluation: one eigenvalue solve per stencil block.

The finite-difference oracles hand every stencil block, a (4, directions,
n, n) stack, to the closed-form families' ``value`` in one call.  These
tests hold the stacked kernels to the one-matrix ones: the vectorised alcove
phase rule against its loop form, ``value`` of a stack against ``value`` of
each slice, bit for bit, the stacked oracles against the same oracles fed
plain callables, the regularity and positivity checks on every matrix of a
stack, and a count of kernel calls that fails if the oracles go back to one
normal form, or one ``value`` call, per stencil point.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunflows import brackets, decomp, harness, liecore, observables as ob
from sunflows.errors import NotPositiveDefinite, RegularityViolation
from sunflows.scenario import ORACLE_SLICE, ScenarioConfig, run_scenario

TWO_PI = 2 * np.pi


def _alcove_phases_loop(thetas):
    """The one-row phase rule as it was written before it was vectorised: the reference."""
    thetas = np.mod(np.asarray(thetas, dtype=float), TWO_PI)
    order = np.argsort(-thetas, kind="stable")
    sorted_phases = thetas[order]
    s = int(np.round(sorted_phases.sum() / TWO_PI))
    xi = np.concatenate([sorted_phases[s:], sorted_phases[:s] - TWO_PI])
    perm = np.concatenate([order[s:], order[:s]])
    return xi - xi.mean(), perm


# gaps between neighbouring phases: ordinary ones and ones at or near a wall
_GAPS = st.one_of(st.floats(0.0, 0.3), st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]))


@st.composite
def _phase_row(draw, n):
    """n eigenphases of wrap count s (sum near 2 pi s), s drawn from 0..n-1.

    The s largest sit just below 2 pi and the others just above 0, each
    cluster built from gaps that may be zero or near zero, so the s wrapped
    phases and the near-wall spacings are both exercised; the row is
    shuffled and may be given in (-pi, pi] as np.angle returns it.
    """
    s = draw(st.integers(0, n - 1))
    gaps = draw(st.lists(_GAPS, min_size=n, max_size=n))
    low = np.cumsum(gaps[: n - s]) / n
    high = TWO_PI - np.cumsum(gaps[n - s:]) / n
    row = np.concatenate([high, low])
    row = row[draw(st.permutations(range(n)))]
    if draw(st.booleans()):
        row = np.angle(np.exp(1j * row))
    return row


@st.composite
def _phase_stack(draw):
    n = draw(st.integers(2, 8))
    return np.array(draw(st.lists(_phase_row(n), min_size=1, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(_phase_stack())
def test_vectorised_alcove_phases_equal_the_loop_row_by_row(thetas):
    xi, perm = decomp.alcove_phases(thetas)
    assert xi.shape == perm.shape == thetas.shape
    for row, xi_row, perm_row in zip(thetas, xi, perm):
        want_xi, want_perm = _alcove_phases_loop(row)
        one_xi, one_perm = decomp.alcove_phases(row)
        assert np.array_equal(perm_row, want_perm) and np.array_equal(one_perm, want_perm)
        assert np.array_equal(xi_row, want_xi) and np.array_equal(one_xi, want_xi)


@pytest.mark.parametrize("n", range(2, 9))
def test_phase_rows_cover_every_wrap_count(n):
    """The construction of ``_phase_row`` reaches each s = 0..n-1 (here with fixed gaps)."""
    for s in range(n):
        gaps = np.full(n, 0.1)
        row = np.concatenate([TWO_PI - np.cumsum(gaps[n - s:]) / n, np.cumsum(gaps[: n - s]) / n])
        assert int(np.round(row.sum() / TWO_PI)) == s
        xi, _ = decomp.alcove_phases(row)
        assert np.array_equal(xi, _alcove_phases_loop(row)[0])


# ---------------------------------------------------------------------------
# value(stack) against value() of every slice
# ---------------------------------------------------------------------------

# the stencil times of one block
_TIMES = np.array(brackets._STEPS) * brackets.H


def _block(kind, m, side):
    """The oracles' stencil block through m: (4, directions, n, n), the Borel curves at
    ``BOREL_SPEED``."""
    return brackets._curve(kind, m, side)((brackets.BOREL_SPEED if kind == "borel" else 1.0)
                                          * _TIMES)


def _cases(n, rng):
    """(functions, regular point, stencils(m, left)) for the group, algebra and
    Borel families."""
    datum = liecore.build_root_datum(n)
    g = harness.sample_regular("group", 64, lambda: liecore.random_group_element(n, rng),
                               lambda g: decomp.alcove_diagonalize(g, 0.05))
    j_alg = harness.sample_regular("algebra", 64, lambda: liecore.random_algebra_element(n, rng),
                                   lambda j: decomp.chamber_diagonalize(j, 0.05))
    b = harness.sample_regular(
        "Borel", 4096, lambda: decomp.iwasawa_decompose(liecore.random_sl_element(n, rng)).b_right,
        lambda b: decomp.borel_chamber_diagonalize(b, 0.05))
    return [
        ([ob.PowerTrace(1), ob.PowerTrace(2), ob.PowerTrace(3)]
         + [ob.AlcoveCoroot(j, datum) for j in range(datum.rank)]
         + [ob.AlcoveCoweight(j, datum) for j in range(datum.rank)],
         g, lambda m, left: _block("su", m, "lmul" if left else "rmul")),
        ([ob.AlgebraPower(2), ob.AlgebraPower(3)]
         + [ob.ChamberCoroot(j, datum) for j in range(datum.rank)],
         j_alg, lambda m, left: _block("su", m, "shift")),
        ([ob.BorelPower(1), ob.BorelPower(2)]
         + [ob.BorelChamberCoroot(j, datum) for j in range(datum.rank)],
         b, lambda m, left: _block("borel", m, "lmul" if left else "rmul")),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_value_has_the_bytes_of_each_slice(n):
    """All seven families: value of a stencil stack, of a flat list of its matrices and of a
    stack of one carry, slice by slice, the bytes of value of that one matrix."""
    families = set()
    for fns, m, stencils in _cases(n, np.random.default_rng(400 + n)):
        for left in (True, False):
            stack = stencils(m, left)
            for fn in fns:
                families.add(type(fn))
                got = fn.value(stack)
                assert got.shape == stack.shape[:2]
                want = np.array([[fn.value(p) for p in row] for row in stack])
                assert got.tobytes() == want.tobytes(), fn.name
                flat = fn.value(stack.reshape(-1, n, n))
                assert flat.tobytes() == want.tobytes(), fn.name
                one = np.asarray(fn.value(m[np.newaxis]))
                assert one.shape == (1,)
                assert one.tobytes() == np.asarray(fn.value(m)).tobytes(), fn.name
    assert families == set(_FAMILIES)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_families_keep_their_trace_formulas_bit_for_bit(n):
    """value() of the power families on one matrix has the same bits as the trace
    formulas they were written as."""
    (_, g, _), (_, j_alg, _), (_, b, _) = _cases(n, np.random.default_rng(450 + n))
    p = b @ b.conj().T
    for k in (1, 2, 3):
        power = np.linalg.matrix_power
        assert ob.PowerTrace(k).value(g) == float(np.trace(power(g, k)).real)
        assert ob.AlgebraPower(k).value(j_alg) == float(np.trace(power(1j * j_alg, k)).real)
        assert ob.BorelPower(k).value(b) == float(np.trace(power(p, k)).real)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_oracles_agree_with_the_scalar_callable_oracles(n):
    (group_fns, g, _), (algebra_fns, j_alg, _), (borel_fns, b, _) = _cases(
        n, np.random.default_rng(500 + n))
    pairs = [(brackets.group_gradient_fd(group_fns, g),
              brackets.group_gradient_fd([fn.value for fn in group_fns], g))]
    pairs.append((brackets.algebra_gradient_fd(algebra_fns, j_alg),
                  brackets.algebra_gradient_fd([fn.value for fn in algebra_fns], j_alg)))
    pairs.append((brackets.borel_gradient_fd(borel_fns, b),
                   brackets.borel_gradient_fd([fn.value for fn in borel_fns], b)))
    for stacked, scalar in pairs:
        assert len(stacked) == len(scalar)
        for a, c in zip(stacked, scalar):
            assert np.array_equal(a, c)


def test_an_oracle_mixes_stacked_functions_and_callables():
    n = 3
    datum = liecore.build_root_datum(n)
    g = liecore.random_group_element(n, np.random.default_rng(7))
    coroot = ob.AlcoveCoroot(0, datum)
    mixed = brackets.group_gradient_fd([coroot, coroot.value, ob.PowerTrace(2)], g)
    assert np.array_equal(mixed[0], mixed[1])
    assert np.array_equal(mixed[0], brackets.group_gradient_fd([coroot], g)[0])


# ---------------------------------------------------------------------------
# the checks hold on every matrix of a stack
# ---------------------------------------------------------------------------

def _regular_stack(kind, n, rng, count=6):
    if kind == "alcove":
        return np.array([liecore.random_group_element(n, rng) for _ in range(count)])
    if kind == "chamber":
        return np.array([liecore.random_algebra_element(n, rng) for _ in range(count)])
    return np.array([decomp.iwasawa_decompose(liecore.random_sl_element(n, rng)).b_right
                     for _ in range(count)])


def _near_wall(kind, gap):
    xi = np.array([1.0, 1.0 - gap, -2.0 + gap])
    if kind == "alcove":
        return np.diag(np.exp(1j * xi))
    if kind == "chamber":
        return 1j * np.diag(xi)
    return np.diag(np.exp(xi / 2)).astype(complex)  # log(b b^H) = diag(xi)


_SPECTRA = {"alcove": decomp.alcove_spectra, "chamber": decomp.chamber_spectra,
            "borel": decomp.borel_chamber_spectra}


@pytest.mark.parametrize("kind", sorted(_SPECTRA))
@pytest.mark.parametrize("where", [0, 3, 5])
def test_a_stack_with_one_point_inside_the_margin_is_rejected(kind, where):
    kernel = _SPECTRA[kind]
    stack = _regular_stack(kind, 3, np.random.default_rng(600), count=6)
    kernel(stack)
    stack = stack.copy()
    # a gap of 1e-9 is inside the default regularity margin of 1e-8
    stack[where] = _near_wall(kind, 1e-9)
    with pytest.raises(RegularityViolation):
        kernel(stack)
    with pytest.raises(RegularityViolation):
        kernel(stack.reshape(2, 3, 3, 3))


def test_families_reject_a_stencil_block_that_reaches_inside_the_margin():
    """A point 4h + 5e-9 from a wall is regular, but the -2h step of its stencil
    along the wall's coroot moves the gap by -4h, to 5e-9, inside the default
    margin of 1e-8: value() on the block raises."""
    datum = liecore.build_root_datum(3)
    coroot, chamber = ob.AlcoveCoroot(0, datum), ob.ChamberCoroot(0, datum)
    gap = 4 * brackets.H + 5e-9
    g, j_alg = _near_wall("alcove", gap), _near_wall("chamber", gap)
    coroot.value(g), chamber.value(j_alg)
    with pytest.raises(RegularityViolation):
        coroot.value(_block("su", g, "lmul"))
    with pytest.raises(RegularityViolation):
        chamber.value(_block("su", j_alg, "shift"))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_borel_stack_is_not_positive_definite(bad):
    stack = _regular_stack("borel", 3, np.random.default_rng(601)).copy()
    stack[4, 0, 2] = bad
    with pytest.raises(NotPositiveDefinite):
        decomp.borel_chamber_spectra(stack)
    with pytest.raises(NotPositiveDefinite):
        ob.BorelChamberCoroot(0, liecore.build_root_datum(3)).value(stack)


def test_a_singular_borel_stack_is_not_positive_definite():
    stack = _regular_stack("borel", 3, np.random.default_rng(602)).copy()
    stack[2] = 0.0
    with pytest.raises(NotPositiveDefinite):
        decomp.borel_chamber_spectra(stack)


def test_stacked_results_are_read_only():
    stack = _regular_stack("alcove", 4, np.random.default_rng(603))
    xi = decomp.alcove_spectra(stack)
    with pytest.raises(ValueError):
        xi[0, 0] = 0.0


# ---------------------------------------------------------------------------
# regression guard: the oracles read stacks, not stencil points
# ---------------------------------------------------------------------------

_FAMILIES = (ob.PowerTrace, ob.AlcoveCoroot, ob.AlcoveCoweight, ob.AlgebraPower,
             ob.ChamberCoroot, ob.BorelPower, ob.BorelChamberCoroot)
_KERNELS = ("alcove_diagonalize", "chamber_diagonalize", "borel_chamber_diagonalize",
            "iwasawa_left")
_ORACLES = ("group_gradient_fd", "algebra_gradient_fd", "borel_gradient_fd")


def test_gradient_oracles_evaluate_one_stack_per_stencil_block(monkeypatch):
    """With checks=["gradient-oracles"] at n=3: no value() call on one matrix and no normal
    form inside a directional difference, one eigenvalue solve per kernel on the curves of
    each slice of ORACLE_SLICE points of a block, (times, points, directions) stacked, no
    full finite-difference table, and every normal form outside the differences is the
    regularity assertion of a stack of 30 built points, whose normal form gives the exact
    gradients on it."""
    calls, inside, draws, solves, stacks = Counter(), Counter(), Counter(), Counter(), {}
    curves = set()
    depth, kernel_depth = [0], [0]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if depth[0]:
                inside[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def kernel(name, fn):
        inner = counted(name, fn)

        def wrapper(m, *args, **kwargs):
            stacks.setdefault(name, []).append(np.shape(m)[:-2])
            kernel_depth[0] += 1
            try:
                return inner(m, *args, **kwargs)
            finally:
                kernel_depth[0] -= 1
        return wrapper

    def solver(name, fn):
        def wrapper(*args, **kwargs):
            if kernel_depth[0]:
                solves[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def stencil(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def counted_value(fn):
        def wrapper(self, m):
            name = "one-matrix value" if np.ndim(m) == 2 else "stacked value"
            calls[name] += 1
            if depth[0]:
                inside[name] += 1
                curves.add(np.shape(m)[:-2])
            return fn(self, m)
        return wrapper

    sample = harness.sample_regular

    def counted_sample(kind, budget, draw, check):
        def counted_draw():
            draws[kind] += 1
            return draw()
        return sample(kind, budget, counted_draw, check)

    for cls in _FAMILIES:
        monkeypatch.setattr(cls, "value", counted_value(cls.value))
    for name in _KERNELS:
        monkeypatch.setattr(decomp, name, kernel(name, getattr(decomp, name)))
    for name in _ORACLES + ("directional_derivative",):
        monkeypatch.setattr(brackets, name, stencil(getattr(brackets, name)))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eig", solver("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigh", solver("eigh", np.linalg.eigh))
    monkeypatch.setattr(harness, "sample_regular", counted_sample)

    report = run_scenario(ScenarioConfig(space="cotangent", n=3, checks=["gradient-oracles"]))
    assert report.checks[0].passed
    # one directional difference per slice of points of each of the three blocks, no table
    points = 30
    slices = points // ORACLE_SLICE
    assert 1 < ORACLE_SLICE < points and points % ORACLE_SLICE == 0
    assert calls["directional_derivative"] == 3 * slices
    assert not any(calls[name] for name in _ORACLES)
    assert calls["one-matrix value"] == 0
    assert calls["stacked value"] == inside["stacked value"] > 0
    assert curves == {(4, ORACLE_SLICE, 2)}
    assert not any(inside[name] for name in _KERNELS)
    # one eigensolve per slice's curves of a block: the coroot and the coweight share it
    assert inside["eigvals"] == calls["eigvals"] == slices
    assert inside["eigvalsh"] == calls["eigvalsh"] == 2 * slices
    # the points are built regular: no sampling draw, and no Iwasawa factor
    assert not draws
    assert calls["iwasawa_left"] == 0
    # the built points are stacked, one stack of 30 per kind: one regularity assertion per
    # stack, whose normal form the exact gradients on it read: two alcove functions, one
    # chamber function and one Borel chamber function
    assert stacks == {name: [(points,)] for name in _KERNELS[:3]}
    # so the 0.05-margin assertion and the exact gradients of a stack share one eigensolve:
    # one eig for the group stack and one eigh for the algebra and for the Borel stack
    assert solves["eig"] == 1
    assert solves["eigh"] == 2
