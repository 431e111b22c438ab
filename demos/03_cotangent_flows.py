"""Integrable flows on the cotangent bundle of SU(n).

The two commuting families: invariant functions of the fiber translate the
group component along a frozen direction, class functions of the group
translate the fiber.  Both conserve the conjugation momentum map, and their
flow derivatives reproduce the canonical bracket.

Run me directly:  python demos/03_cotangent_flows.py
"""

import numpy as np

import sunflows as sf
from sunflows import brackets, liecore
from sunflows.observables import (AlcoveCoroot, AlgebraPower, ChamberCoroot, PowerTrace,
                                  WordFunction, word_observable)
from sunflows.spaces import cotangent_momentum, random_cotangent_point, stack


def first(point):
    """The flowed point of a one-Hamiltonian run: flows take a run of observables that read the
    same matrix (each is its own Hamiltonian) and put one flowed point per observable on a
    leading axis."""
    return point.map(lambda m: m[0])


rng = np.random.default_rng(11)
n = 3
datum = sf.build_root_datum(n)
x = random_cotangent_point(n, rng)

print("=== flows of the two Abelian families ===")
# an observable is its own Hamiltonian: a function of the fiber word ('j',) or of ('g',)
quadratic = WordFunction(AlgebraPower(2), ("j",))   # the free Hamiltonian: geodesic flow
base_class = WordFunction(PowerTrace(2), ("g",))    # a class function of the group part

y = first(sf.flow(x, [quadratic], 0.8))
print("fiber family leaves the fiber fixed:", f"{np.linalg.norm(y.j - x.j):.1e}")
y2 = first(sf.flow(x, [base_class], 0.8))
print("class family leaves the group fixed:", f"{np.linalg.norm(y2.g - x.g):.1e}")

phi0 = cotangent_momentum(x)
for ham, label in ((quadratic, "fiber family"), (base_class, "class family")):
    # one call flows the run [ham] at every time, on a stack of copies of x
    times = np.array([0.5, 1.5, 3.0])
    moved = first(sf.flow(stack([x] * len(times)), [ham], times))
    drift = max(np.linalg.norm(m - phi0) for m in cotangent_momentum(moved))
    print(f"momentum drift along {label}: {drift:.2e}")

print("\n=== flow derivative vs canonical bracket ===")
# the curve takes every stencil time at once: one flow call on a stack of copies of x
probe = word_observable(("g", "j", "g", "j"))
for ham in (quadratic, base_class):
    d_flow = brackets.directional_derivative(
        probe, lambda t: first(sf.flow(stack([x] * len(t)), [ham], t)))
    bk = brackets.bracket_matrix([probe], [ham], x)[0, 0]
    print(f"  d/dt probe = {d_flow:+.8f}   bracket = {bk:+.8f}   diff = {abs(d_flow - bk):.1e}")

print("\n=== the compact torus action on the fiber-regular set ===")
# the torus action is the joint flow of the coroot action variables, one angle each
chamber = [WordFunction(ChamberCoroot(j, datum), ("j",)) for j in range(datum.rank)]
tau = np.array([0.7, -0.3])
moved = sf.torus_action(x, tau, chamber)
via_flows = x
for ham, t in zip(chamber, tau):
    via_flows = first(sf.flow(via_flows, [ham], t))
print("action equals composed coroot flows:", f"{moved.distance(via_flows):.2e}")
full_turn = sf.torus_action(x, np.array([2 * np.pi, 0.0]), chamber)
print("2*pi periodicity:", f"{full_turn.distance(x):.2e}")

print("\nthe line action on the group-regular set is proper but not periodic:")
alcove = [WordFunction(AlcoveCoroot(j, datum), ("g",)) for j in range(datum.rank)]
line = sf.torus_action(x, np.array([2 * np.pi, 0.0]), alcove)
print("distance after a 2*pi translation:", f"{line.distance(x):.2f}  (stays away from the start)")

print("\n=== equivariance under the symmetry action ===")
eta = liecore.random_group_element(n, rng)
a = first(sf.flow(x.conjugate(eta), [quadratic], 0.6))
b = first(sf.flow(x, [quadratic], 0.6)).conjugate(eta)
print("flow(eta . x) vs eta . flow(x):", f"{a.distance(b):.2e}")
