"""The fused double flows through the blocks of its one handle, bit for bit.

``flows.double_flow``, ``double_velocity`` and ``double_torus_action`` delegate to the
moduli flow, velocity and torus action on ``flows.DOUBLE_BLOCKS``.  The oracle below writes
out the double's closed forms: chi(A) right-translates B by exp(-tau grad), chi(B)
right-translates A by exp(+tau grad), chi([A, B]) conjugates both, and the coroot tori of
the two letters.  Fusion points draw every slot in one stacked draw; a per-slot loop of
single draws is the oracle for that.
"""

import numpy as np
import pytest

from sunflows import decomp, flows, harness, liecore
from sunflows.errors import ShapeError
from sunflows.liecore import adjoint, scaled
from sunflows.observables import AlcoveCoroot, PowerTrace
from sunflows.spaces import FusionPoint, double_space, moduli_space, sphere_space

SLOTS = ("first", "second", "momentum")


def _old_flow(x, ham, tau, slot):
    a, b = x.pair(1)
    if slot == "first":
        u = liecore.expm_normal(scaled(-tau, ham.grad(a)))
        return x.with_slots({(0, 1): flows.maybe_reproject(b @ u, "double B")})
    if slot == "second":
        u = liecore.expm_normal(scaled(tau, ham.grad(b)))
        return x.with_slots({(0, 0): flows.maybe_reproject(a @ u, "double A")})
    u = liecore.expm_normal(scaled(tau, ham.grad(x.momentum())))
    ui = adjoint(u)
    return x.map(lambda m: u @ m @ ui)


def _old_velocity(x, ham, slot):
    if slot == "first":
        return {(0, 1, "rmul"): -ham.grad(x.pair(1)[0])}
    if slot == "second":
        return {(0, 0, "rmul"): ham.grad(x.pair(1)[1])}
    z = ham.grad(x.momentum())
    return {(*s, side): v for s in x.space.slots for side, v in (("lmul", z), ("rmul", -z))}


def _old_torus_action(x, tau, slot, datum):
    a, b = x.pair(1)
    if slot == "first":
        t = decomp.alcove_diagonalize(a).transport(
            flows.coroot_torus_element(-np.asarray(tau, dtype=float), datum))
        return x.with_slots({(0, 1): b @ t})
    t = decomp.alcove_diagonalize(b).transport(flows.coroot_torus_element(tau, datum))
    return x.with_slots({(0, 0): a @ t})


def _bytes(x):
    return [m.tobytes() for _, m in x.matrices()]


def _points(n, datum):
    """One regular point and a stack of two, each twice: one for the delegation and a fresh
    copy for the oracle, so that no normal form kept on a point is shared."""
    h = harness.DoubleHarness(n, datum)
    one, two = h.sample(np.random.default_rng(n)), h.sample_stack(np.random.default_rng(n), 2)
    return [(p, FusionPoint(p.space, p.factors)) for p in (one, two)]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_double_flows_and_velocities_keep_the_closed_forms(n):
    datum = liecore.build_root_datum(n)
    for x, fresh in _points(n, datum):
        taus = [0.7] + ([np.array([0.7, -1.3])] if x.factors[0][0].ndim == 3 else [])
        for slot in SLOTS:
            for ham in (PowerTrace(2), AlcoveCoroot(0, datum)):
                for tau in taus:
                    assert _bytes(flows.double_flow(x, [ham], tau, slot)) == \
                        _bytes(_old_flow(fresh, ham, tau, slot)), (slot, ham, tau)
                new, old = flows.double_velocity(x, [ham], slot), _old_velocity(fresh, ham, slot)
                assert list(new) == list(old)
                assert [v.tobytes() for v in new.values()] == [v.tobytes() for v in old.values()]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_double_torus_actions_keep_the_closed_forms(n):
    datum = liecore.build_root_datum(n)
    rng = np.random.default_rng(n + 100)
    for x, fresh in _points(n, datum):
        tau = rng.uniform(-3, 3, x.factors[0][0].shape[:-2] + (datum.rank,))
        for slot in ("first", "second"):
            assert _bytes(flows.double_torus_action(x, tau, slot, datum)) == \
                _bytes(_old_torus_action(fresh, tau, slot, datum)), slot


def test_unknown_double_slot_is_rejected():
    x = double_space(2).random_point(np.random.default_rng(0))
    with pytest.raises(ShapeError):
        flows.double_flow(x, [PowerTrace(2)], 0.1, "third")


def _per_slot_point(space, rng):
    """The per-slot loop: one Gaussian real part, then one imaginary part, per slot."""
    def draw():
        n = space.n
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return liecore.expm_normal(liecore.skew_traceless(z))
    return FusionPoint(space, tuple((draw(), draw()) if t == "D" else draw()
                                    for t in space.types))


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("space", [double_space, sphere_space, lambda n: moduli_space(2, 2, n),
                                   lambda n: moduli_space(1, 3, n)],
                         ids=["double", "sphere4", "moduli-2-2", "moduli-1-3"])
def test_random_point_is_the_per_slot_loop(space, n):
    sp = space(n)
    stacked, looped = np.random.default_rng(n), np.random.default_rng(n)
    assert _bytes(sp.random_point(stacked)) == _bytes(_per_slot_point(sp, looped))
    assert stacked.bit_generator.state == looped.bit_generator.state
