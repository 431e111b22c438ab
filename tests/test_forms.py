"""Normal forms live on the point.

A point keeps the normal forms and Iwasawa halves of its own matrices
(``spaces.Point.form``) for as long as it lives, and the flows, velocities,
gradient tables and torus actions at the point read them.  These tests count
the ``decomp`` kernel calls made at one point, hold every kept form to a
fresh kernel call bit for bit, and check that a failed normal form is never
kept and that a new point starts with no forms, but for the one a cotangent flow
or torus action keeps of the matrix it passes through.
"""

from collections import Counter

import numpy as np
import pytest

from sunflows import decomp, flows, harness, liecore, moduli, spaces
from sunflows.errors import RegularityViolation
from sunflows.observables import AlcoveCoroot, ChamberCoroot, grad_on

NORMAL_FORMS = ("alcove_diagonalize", "chamber_diagonalize", "borel_chamber_diagonalize")
HALVES = ("iwasawa_left", "iwasawa_right")
FAMILY = {"single": [1], "commutators": [2], "intervals": [[1, 2]]}
SPACES = {"cotangent": {}, "heisenberg": {}, "double": {}, "double-htilde": {"family": "htilde"},
          "sphere4": {}, "moduli": {"m": 2, "holes": 2, "family": FAMILY}}


def _harness(space, n):
    fields = SPACES[space]
    return harness.build_harness(space.split("-")[0], n, liecore.build_root_datum(n), **fields)


def _counted(monkeypatch, names) -> Counter:
    """Count the calls of the named ``decomp`` kernels from here on."""
    calls = Counter()
    for name in names:
        def wrapper(*args, name=name, kernel=getattr(decomp, name)):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(decomp, name, wrapper)
    return calls


def _read_everything(h, x, rng):
    """Every flow, velocity and gradient table of every family of h at x, and every torus
    action."""
    count = x.matrices()[0][1].shape[0]
    for gens in h.families().values():
        for gen in gens:
            gen.flow(x, 0.3)
            gen.velocity(x)
            gen.obs.grad_table(x)
    for spec in h.torus_specs():
        spec.act(x, rng.uniform(-1, 1, (count, spec.dim)))


def test_a_cotangent_stack_diagonalizes_each_matrix_once(monkeypatch):
    rng = np.random.default_rng(700)
    h = _harness("cotangent", 3)
    x = h.sample_stack(rng, 4)
    calls = _counted(monkeypatch, NORMAL_FORMS)
    _read_everything(h, x, rng)
    _read_everything(h, x, rng)
    assert calls == Counter(chamber_diagonalize=1, alcove_diagonalize=1)


def test_a_heisenberg_point_splits_x_once(monkeypatch):
    """The factor reads, the Borel flows, every velocity and table and the dressing torus of a
    Heisenberg point run each Iwasawa half and each normal form once (the class flows and
    the translation torus split fresh matrices of their own, so they are left out)."""
    rng = np.random.default_rng(701)
    h = _harness("heisenberg", 3)
    x = h.sample_stack(rng, 3)
    calls = _counted(monkeypatch, NORMAL_FORMS + HALVES)
    for _ in range(2):
        for name in ("u_left", "b_right", "b_left", "u_right"):
            x.factor(name)
        spaces.heisenberg_momentum(x)
        x.conjugation_velocity(liecore.random_algebra_element(3, rng))
        for gen in h.families()["borel-invariants"]:
            gen.flow(x, 0.3)
        for gens in h.families().values():
            for gen in gens:
                gen.velocity(x)
                gen.obs.grad_table(x)
        flows.heisenberg_torus_action(x, rng.uniform(-1, 1, (3, 2)), "dress", h.datum)
    assert calls == Counter(iwasawa_left=1, iwasawa_right=1, borel_chamber_diagonalize=1,
                            alcove_diagonalize=1)


def _arrays(form):
    if isinstance(form, tuple):
        return list(form)
    return [form.spectrum, form.columns, form.vectors, form.frame]


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("space", sorted(SPACES))
def test_kept_forms_are_bit_equal_to_a_fresh_kernel_call(space, n, monkeypatch):
    """Every form a point keeps, for every spectral function of every family and torus
    action, has the bytes of a fresh call of its kernel on a copy of its matrix."""
    rng = np.random.default_rng(702 + n)
    h = _harness(space, n)
    inputs = {}
    keep = spaces.Point.form

    def spy(self, key, kernel, m):
        inputs[key] = (kernel, m)
        return keep(self, key, kernel, m)

    for x in (h.sample(rng), h.sample_stack(rng, 3)):
        inputs.clear()
        monkeypatch.setattr(spaces.Point, "form", spy)
        _read_everything(h, x, rng)
        monkeypatch.setattr(spaces.Point, "form", keep)
        forms = vars(x)["_forms"]
        assert set(forms) == set(inputs)
        assert any(isinstance(form, decomp.NormalForm) for form in forms.values())
        for key, form in forms.items():
            kernel, m = inputs[key]
            fresh = kernel(m.copy())
            for kept, want in zip(_arrays(form), _arrays(fresh), strict=True):
                assert kept.tobytes() == want.tobytes(), key


def test_a_point_at_a_wall_raises_on_every_read():
    datum = liecore.build_root_datum(3)
    rng = np.random.default_rng(703)
    at_wall = np.diag(np.exp(1j * np.array([1.0, 1.0, -2.0])))
    x = spaces.CotangentPoint(at_wall, 1j * np.diag([1.0, 1.0, -2.0]))
    for _ in range(3):
        with pytest.raises(RegularityViolation):
            flows.cotangent_velocity(x, AlcoveCoroot(0, datum))
        with pytest.raises(RegularityViolation):
            flows.cotangent_torus_action(x, rng.uniform(-1, 1, 2), "translate", datum)
        with pytest.raises(RegularityViolation):
            grad_on(ChamberCoroot(1, datum), x, ("j",), x.j)
        with pytest.raises(RegularityViolation):
            flows.cotangent_flow(x, ChamberCoroot(0, datum), 0.4)
    assert not vars(x).get("_forms")


def test_new_points_start_with_no_forms():
    """Points made by flows, torus actions, conjugate, stack and with_slots keep nothing of
    the point they came from, except that a cotangent flow or torus action keeps the form of
    the one matrix it passes through unchanged: the very form of that very array."""
    rng = np.random.default_rng(704)
    eta = liecore.random_group_element(3, rng)
    for space in sorted(SPACES):
        h = _harness(space, 3)
        x = h.sample_stack(rng, 2)
        _read_everything(h, x, rng)
        assert vars(x)["_forms"]
        moved = [gen.flow(x, 0.2) for gens in h.families().values() for gen in gens]
        moved += [spec.act(x, rng.uniform(-1, 1, (2, spec.dim))) for spec in h.torus_specs()]
        made = [x.conjugate(eta), spaces.stack([x, x])]
        if isinstance(x, spaces.FusionPoint):
            made += [x.with_slots({(0, 0): x.slot(0, 0)}), x.map(np.copy)]
            if space == "moduli":
                made.append(moduli.swap_adjacent(x, 0))
        if space == "cotangent":
            kept = [(y, key) for y in moved for key in vars(y).get("_forms", {})]
            assert {key for _, key in kept} == {("g",), ("j",)}
            for y, key in kept:
                assert vars(y)["_forms"].keys() == {key}
                assert y.letter(key[0]) is x.letter(key[0]) and key in vars(x)["_forms"]
                assert y.form(key, None, None) is vars(x)["_forms"][key]
        else:
            made += moved
        for y in made:
            assert "_forms" not in vars(y), (space, type(y).__name__)
