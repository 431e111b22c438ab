"""Finite-difference oracles the tests hold the closed forms against.

``probes.generator_matrix`` stacks the closed-form tangent vectors of an
action's velocities.  The helpers here keep its former construction, a
4-point central difference of ``flat()`` along a curve t -> p(t) per
generator, as the oracle the tests hold the velocities against.  Those curves
and the other reference curves of the tests map one time to one point;
``per_time`` gives ``directional_derivative``, which evaluates all of its
stencil times in one call, the list of their points.

Brackets read exact gradient tables only.  ``fd_observable`` gives a
composition that has none (a product, a nested bracket, a chart followed by
an observable) the finite-difference table of its geometry instead.
"""

import numpy as np

from sunflows import brackets, liecore


def fd_observable(f):
    """The observable f with the geometry's finite-difference table as its ``grad_table``."""
    def obs(x):
        return f(x)

    obs.grad_table = lambda x: brackets._fd_tables([f], x)[0]
    return obs


def per_time(f, curve):
    """(f, curve) for ``directional_derivative`` from a one-time curve t -> point and a
    one-point f: the list of the curve's points at the stencil times, and f's row for each."""
    return (lambda points: np.array([f(p) for p in points]),
            lambda times: [curve(t) for t in times])


def stencil_generator_matrix(x, curves) -> np.ndarray:
    """Columns: d/dt curve(x, t).flat() at t = 0, one 4-point central difference each."""
    cols = [brackets.directional_derivative(*per_time(lambda p: p.flat(),
                                                      lambda t, c=curve: c(x, t)))
            for curve in curves]
    return np.stack(cols, axis=1)


def conjugation_curves(n: int) -> list:
    """t -> x.conjugate(exp(tZ)) for each Z of the su(n) basis."""
    return [lambda p, t, z=z: p.conjugate(liecore.expm_normal(t * z))
            for z in liecore.su_basis(n)]


def torus_curves(spec) -> list:
    """t -> spec.act(p, t e_j) for each angle j of a harness TorusSpec."""
    return [lambda p, t, e=e: spec.act(p, t * e) for e in np.eye(spec.dim)]


def assert_columns_close(new: np.ndarray, old: np.ndarray, rel: float = 1e-8) -> None:
    """Every column of ``new`` within ``rel`` of the matching column of ``old``, relative
    to that column's norm."""
    assert new.shape == old.shape
    err = np.linalg.norm(new - old, axis=0)
    scale = np.linalg.norm(old, axis=0)
    assert np.all(err <= rel * scale), (err / scale).max()
