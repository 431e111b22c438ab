"""Commuting families on fusion spaces: sphere, handles, and permutations.

Fusion spaces are ordered products of conjugation factors and double
factors.  A family picks blocks (single factors, commutators, consecutive
hole intervals, nested intervals, commutator ranges, tails); each block
carries the rank-many alcove variables, whose flows conjugate exactly the
letters inside the block.

Run me directly:  python demos/05_moduli_and_families.py
"""

import numpy as np

import sunflows as sf
from sunflows import brackets, moduli
from sunflows.observables import PowerTrace, word_observable


def first(point):
    """The flowed point of a one-Hamiltonian run: flows take a run of word Hamiltonians of one
    block and put one flowed point per Hamiltonian on a leading axis."""
    return point.map(lambda m: m[0])


rng = np.random.default_rng(3)
n = 2
datum = sf.build_root_datum(n)

print("=== the sphere with four holes, modeled on three conjugation factors ===")
space = sf.sphere_space(n)
x = space.random_point(rng)
fam = sf.sphere_family()
hams = sf.hamiltonian_family(space, fam, datum)
print("generators:", [h.name for h in hams])

h = moduli.WordHamiltonian(("interval", 1, 2), PowerTrace(2))
y = first(moduli.moduli_flow(x, [h], 0.7))
print("third hole is fixed by the flow:", f"{np.linalg.norm(y.factors[2] - x.factors[2]):.1e}")
print("momentum drift:", f"{np.linalg.norm(y.momentum() - x.momentum()):.2e}")
# word traces of (C1, C2), of (C1 C2, C3) and of C3: the flow conjugates C1, C2 together
constants = [word_observable(w) for w in (
    ("c1",), ("c2",), ("c1", "c2"), ("c1", "c2", "c3"), ("c3",), ("c1", "c2", "c3", "c1", "c2"),
    ("c1", "c2", "c2"))]
print("constants of motion drift:", f"{max(abs(f(x) - f(y)) for f in constants):.2e}")

print("\n=== a genus-2 family: one single block, one commutator block ===")
g2 = sf.moduli_space(2, 0, n)
fam2 = sf.IntervalFamily(single=(2,), commutators=(1,))
hams2 = sf.hamiltonian_family(g2, fam2, datum)
x2 = g2.random_point(rng)
vals = brackets.fusion_bracket(hams2[0], hams2[1], x2)
print("generators:", [h.name for h in hams2])
print("their bracket:", f"{vals:.2e}  (the family is Abelian)")

print("\n=== nested intervals extend the family ===")
sp = sf.moduli_space(0, 4, n)
fam3 = sf.IntervalFamily(intervals=((1, 2),), nested=(((1, 3),),))
hams3 = sf.hamiltonian_family(sp, fam3, datum)
x3 = sp.random_point(rng)
inner, outer = hams3[0], hams3[1]
print("blocks:", [h.block for h in hams3])
print("inner/outer bracket:", f"{brackets.fusion_bracket(inner, outer, x3):.2e}")

print("\n=== admissibility is enforced with named clauses ===")
try:
    sf.hamiltonian_family(sf.sphere_space(n), sf.IntervalFamily(intervals=((1, 3),)), datum)
except sf.AssumptionViolation as exc:
    print("rejected:", exc)

print("\n=== permutations of fused factors ===")
m22 = sf.moduli_space(2, 2, n)
x4 = m22.random_point(rng)
y4 = moduli.permutation_pushforward(x4, [1])
print("factor types after one adjacent swap:", y4.space.types)
f_t = word_observable(("a2", "c1"))
h_t = word_observable(("c1", "b2", "c2"))
v_target = brackets.fusion_bracket(f_t, h_t, y4)
v_source = brackets.fusion_bracket(
    moduli.pullback_hamiltonian(f_t, [1]), moduli.pullback_hamiltonian(h_t, [1]), x4)
print("bracket preservation:", f"{abs(v_target - v_source):.2e}")

print("\n=== the shifting trick ===")
u = sf.moduli_space(0, 3, n).random_point(rng)
big = sf.embed_shift(u)
print("embedded point on the unit level set: |momentum - 1| =",
      f"{np.linalg.norm(big.momentum() - np.eye(n)):.1e}")
f1 = word_observable(("c1", "c2"))
f2 = word_observable(("c2", "c3", "c1"))
small = brackets.fusion_bracket(f1, f2, u)
large = brackets.fusion_bracket(f1, f2, big)
print("bracket upstairs vs downstairs:", f"{abs(small - large):.2e}")
