"""Stabilizer and rank probes at crafted principal points.

Each crafted point combines an alcove-interior element, apposition-torus
data and torus commutator solutions so that the joint stabilizer of the
symmetry action and the family torus action is exactly the center.

Run me directly:  python demos/06_isotropy_probes.py
"""

import numpy as np

import sunflows as sf
from sunflows import harness, probes
from sunflows.observables import word_observable

n = 3
datum = sf.build_root_datum(n)
rng = np.random.default_rng(1)

print(f"=== crafted principal points at n={n} ===")
print(f"{'key':30s} {'stab dim':>8s} {'center':>7s} {'min sv':>10s}")
for key in probes.PRINCIPAL_POINT_KEYS:
    pp = probes.principal_test_point(key, n, datum, rng)
    rep = probes.stabilizer_dimension(pp.point, pp.action, n, key)
    print(f"{key:30s} {rep.infinitesimal_dim:8d} {str(rep.center_fixes):>7s} "
          f"{rep.singular_values.min():10.2e}")

print("\n=== a non-principal control: a torus point of the double ===")
g = np.diag(np.exp(1j * np.array([0.7, -0.2, -0.5])))
x = sf.moduli_point(sf.double_space(n), [(g, g)], [])
rep = probes.stabilizer_dimension(x, probes.conjugation_action(n), n, "torus-pair")
print("symmetry stabilizer dimension:", rep.infinitesimal_dim,
      " (the full maximal torus, as expected for commuting torus letters)")

print("\n=== rank checks at a crafted point ===")
pp = probes.principal_test_point("two-handles-with-holes", n, datum,
                                 np.random.default_rng(5))
momentum_word = tuple(name for f in range(len(pp.point.factors))
                      for name in pp.point.space.momentum_word(f))
invariant_probes = [word_observable(("a1",)), word_observable(momentum_word),
                    word_observable(("c1", "c2"))]
# the symmetry's one velocity (the su(n) basis stacked), then the torus's
symmetry, torus = pp.action[:1], pp.action[1:]


def rank(mat):
    return probes.rank_of(mat)[0]


print("torus generator rank:", rank(probes.generator_matrix(pp.point, torus)),
      "expected:", pp.torus_dim)
print("family differential rank:", rank(probes.differential_matrix(pp.point, pp.family)),
      "expected:", pp.torus_dim)
print("symmetry orbit rank:", rank(probes.generator_matrix(pp.point, symmetry)),
      f"(dim of the group is {n * n - 1})")
print("invariant probe rank:", rank(probes.differential_matrix(pp.point, invariant_probes)))

print("\n=== displacement under nontrivial torus angles ===")
pp = probes.principal_test_point("sphere-adjoint-torus", n, datum, np.random.default_rng(9))
torus = harness.family_torus(pp.family)
moved = torus.act(pp.point, 0.5 * np.eye(torus.dim)[0])
print("distance after a half-radian turn:", f"{moved.distance(pp.point):.3f}")
