"""The point model: matrices, slots, the flattener and the metric of every point type.

The reference formulas below are the per-type flatteners, letter lookups and
CSV labels that the shared ``Point`` API replaced; the API must reproduce
them bit for bit.
"""

import numpy as np
import pytest

from sunflows import decomp, liecore, scenario
from sunflows.spaces import (
    FusionPoint,
    FusionSpace,
    HeisenbergPoint,
    Point,
    random_cotangent_point,
    random_heisenberg_point,
    stack,
)

MIXED = ("D", "K", "D", "K", "K")


def _mixed_point(n=3, seed=0) -> FusionPoint:
    return FusionSpace(n, MIXED).random_point(np.random.default_rng(seed))


def _old_fusion_mats(x: FusionPoint) -> list:
    mats = []
    for t, fac in zip(x.space.types, x.factors):
        mats += list(fac) if t == "D" else [fac]
    return mats


def _points(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "cotangent": random_cotangent_point(3, rng),
        "heisenberg": random_heisenberg_point(3, rng),
        "fusion": _mixed_point(3, seed),
    }


def _old_flat(kind, x) -> np.ndarray:
    if kind == "cotangent":
        return np.concatenate([x.g.real.ravel(), x.g.imag.ravel(),
                               x.j.real.ravel(), x.j.imag.ravel()])
    if kind == "heisenberg":
        return np.concatenate([x.x.real.ravel(), x.x.imag.ravel()])
    parts = []
    for m in _old_fusion_mats(x):
        parts += [m.real.ravel(), m.imag.ravel()]
    return np.concatenate(parts)


@pytest.mark.parametrize("kind", ["cotangent", "heisenberg", "fusion"])
def test_flat_is_bit_equal_to_the_per_type_formulas(kind):
    x = _points()[kind]
    assert isinstance(x, Point)
    flat = x.flat()
    assert flat.dtype == np.float64
    assert np.array_equal(flat, _old_flat(kind, x))


@pytest.mark.parametrize("kind", ["cotangent", "heisenberg", "fusion"])
def test_distance_is_the_norm_of_the_flat_difference(kind):
    x, y = _points(0)[kind], _points(1)[kind]
    assert x.distance(y) == float(np.linalg.norm(x.flat() - y.flat()))
    assert x.distance(x) == 0.0
    assert x.distance(y) == y.distance(x)


def test_slots_are_in_factor_order():
    space = FusionSpace(2, MIXED)
    assert space.slots == ((0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (3, 0), (4, 0))
    assert space.factor_slots[2] == ((2, 0), (2, 1))
    assert space.factor_slots[3] == ((3, 0),)
    assert space.kind_positions == {"D": (0, 2), "K": (1, 3, 4)}
    assert (space.num_double, space.num_conj) == (2, 3)
    x = _mixed_point(2)
    assert [x.slot(*s) is m for s, m in zip(space.slots, _old_fusion_mats(x))] == [True] * 7
    assert [label for label, _ in x.matrices()] == ["f0a", "f0b", "f1c", "f2a", "f2b",
                                                    "f3c", "f4c"]


def test_with_slots_and_map_round_trip_without_touching_the_original():
    x = _mixed_point()
    before = x.flat().copy()
    moved = x.with_slots({(0, 1): 2 * x.slot(0, 1), (3, 0): -x.slot(3, 0)})
    assert np.array_equal(moved.slot(0, 1), 2 * x.slot(0, 1))
    assert np.array_equal(moved.slot(3, 0), -x.slot(3, 0))
    assert moved.slot(0, 0) is x.slot(0, 0) and moved.slot(2, 1) is x.slot(2, 1)
    assert isinstance(moved.factors[0], tuple) and isinstance(moved.factors[3], np.ndarray)
    back = moved.with_slots({(0, 1): x.slot(0, 1), (3, 0): x.slot(3, 0)})
    assert np.array_equal(back.flat(), before)
    doubled = x.map(lambda m: 2 * m)
    assert np.array_equal(doubled.map(lambda m: m / 2).flat(), before)
    assert doubled.space == x.space
    assert np.array_equal(x.flat(), before)


def test_letters_read_the_same_matrices_as_before():
    x = _mixed_point()
    names = ["a1", "b1", "a2", "b2", "c1", "c2", "c3"]
    for name in names + [name + "~" for name in names]:
        inverse = name.endswith("~")
        core = name.rstrip("~")
        kind, idx = core[0], int(core[1:])
        positions = [f for f, t in enumerate(x.space.types)
                     if t == ("K" if kind == "c" else "D")]
        fac = x.factors[positions[idx - 1]]
        old = fac["ab".index(kind)] if kind in "ab" else fac
        assert np.array_equal(x.letter(name), old.conj().T if inverse else old)


def test_fusion_trajectory_header_labels_are_unchanged():
    cfg = scenario.ScenarioConfig(space="moduli", n=2, m=1, holes=2,
                                  family={"single": [1], "intervals": [[1, 2]]})
    text = scenario.export_trajectory(cfg, {"times": [0.0]})
    header = text.splitlines()[2].split(",")
    labels = [h for h in header if h != "tau" and not h.startswith("conserved:")]
    old = []
    for f, t in enumerate(("D", "K", "K")):
        for name in ([f"f{f}a", f"f{f}b"] if t == "D" else [f"f{f}c"]):
            old += [f"{name}_{i}{j}_{part}" for i in range(2) for j in range(2)
                    for part in ("re", "im")]
    assert labels == old


@pytest.mark.parametrize("n", [2, 3, 4])
def test_heisenberg_conjugate_is_the_quasi_adjoint_action(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        x = random_heisenberg_point(n, rng)
        eta = liecore.random_group_element(n, rng)
        # the former spaces.quasi_adjoint(eta, x)
        twist = decomp.iwasawa_decompose(eta @ x.factor("b_left")).u_right
        expected = HeisenbergPoint(eta @ x.x @ twist)
        assert np.array_equal(x.conjugate(eta).flat(), expected.flat())


def _velocity_keys(kind):
    """Key sets of velocities on each point type, most of them missing a key."""
    if kind == "cotangent":
        return [("group",), ("fiber",), ("group", "fiber")]
    if kind == "heisenberg":
        return [("lmul",), ("rmul",), ("lmul", "rmul")]
    return [((0, 0, "lmul"),), ((0, 0, "lmul"), (0, 0, "rmul"), (2, 1, "rmul"), (4, 0, "lmul"))]


@pytest.mark.parametrize("kind", ["cotangent", "heisenberg", "fusion"])
@pytest.mark.parametrize("points", [None, 2])
def test_tangent_over_a_generator_axis_is_bit_equal_to_each_generator(kind, points):
    """A velocity whose matrices carry a generator axis before the point axes gives each
    generator's tangent vector bit for bit, a missing key included (a zero there)."""
    x = _points(0)[kind] if points is None else stack(
        [_points(seed)[kind] for seed in range(points)])
    rng = np.random.default_rng(5)
    lead = (4,) + x.flat().shape[:-1]
    for keys in _velocity_keys(kind):
        velocity = {key: rng.standard_normal(lead + (3, 3)) + 1j * rng.standard_normal(
            lead + (3, 3)) for key in keys}
        moved = x.tangent(velocity)
        assert moved.shape == lead + x.flat().shape[-1:]
        for j in range(4):
            one = x.tangent({key: v[j] for key, v in velocity.items()})
            assert moved[j].tobytes() == one.tobytes()
