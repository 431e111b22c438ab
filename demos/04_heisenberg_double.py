"""The Heisenberg double: factorization flows and their conserved quantities.

Points are elements of SL(n, C); the two commuting families pull back
dressing invariants of the right Borel factor and class functions of the
right unitary factor.  Flows are pure factorization formulas.

Run me directly:  python demos/04_heisenberg_double.py
"""

import numpy as np

import sunflows as sf
from sunflows import brackets
from sunflows.observables import BorelPower, PowerTrace, RightFactorFunction, word_observable
from sunflows.spaces import heisenberg_momentum, random_heisenberg_point, stack


def first(point):
    """The flowed point of a one-Hamiltonian run: flows take a run of Hamiltonians of one kind
    and put one flowed point per Hamiltonian on a leading axis."""
    return point.map(lambda m: m[0])


rng = np.random.default_rng(23)
n = 2
datum = sf.build_root_datum(n)
x = random_heisenberg_point(n, rng)
u0, b0 = x.factor("u_right"), x.factor("b_right")

print("=== the double as a pair (unitary, Borel) ===")
print("right unitary factor:\n", np.round(u0, 4))
print("right Borel factor:\n", np.round(b0, 4))

print("\n=== Borel-family flow conserves the whole right Borel factor ===")
ham = BorelPower(1)
y = first(sf.heisenberg_flow(x, [ham], 1.2))
print("b_right drift:", f"{np.linalg.norm(y.factor('b_right') - b0):.2e}")
print("group momentum drift:",
      f"{np.linalg.norm(heisenberg_momentum(y) - heisenberg_momentum(x)):.2e}")

print("\n=== class-family flow moves the unitary factor by conjugation ===")
from sunflows.flows import heisenberg_class_flow


ham2 = PowerTrace(2)
tau = 0.9
y2, gamma = heisenberg_class_flow(x, [ham2], tau)
y2, gamma = first(y2), gamma[0]
law = np.linalg.norm(y2.factor("u_right") - gamma @ u0 @ gamma.conj().T)
print("conjugation law residual:", f"{law:.2e}")


def triangular_invariant(p):
    """b_left b_right u_left^H, conserved along the class family."""
    return heisenberg_momentum(p) @ p.factor("u_left").conj().T


drift = np.linalg.norm(triangular_invariant(y2) - triangular_invariant(x))
print("triangular invariant drift:", f"{drift:.2e}")

print("\n=== bracket consistency (exact gradient tables) ===")
# the curve takes every stencil time at once: one flow call on a stack of copies of x
probe = word_observable(("x", "x", "xh"))
for ham, obs in ((BorelPower(1), RightFactorFunction(BorelPower(1), "b_right")),
                 (PowerTrace(2), RightFactorFunction(PowerTrace(2), "u_right"))):
    d_flow = brackets.directional_derivative(
        probe, lambda t: first(sf.heisenberg_flow(stack([x] * len(t)), [ham], t)))
    bk = brackets.bracket_matrix([probe], [obs], x)[0, 0]
    print(f"  d/dt probe = {d_flow:+.8f}   bracket = {bk:+.8f}   diff = {abs(d_flow - bk):.1e}")

print("\n=== the two torus directions ===")
dress_turn = sf.heisenberg_torus_action(x, np.array([2 * np.pi]), "dress", datum)
print("dressing torus closes after 2*pi:", f"{dress_turn.distance(x):.2e}")
line = sf.heisenberg_torus_action(x, np.array([2 * np.pi]), "translate", datum)
print("translation direction does not:", f"{line.distance(x):.2f}")
print("(the latter is the proper line action attached to the class family)")
