"""Chamber and alcove normal forms, Iwasawa factors and the dressing action.

Run me directly:  python demos/02_normal_forms.py
"""

import numpy as np

import sunflows as sf
from sunflows import brackets, decomp, liecore
from sunflows.observables import AlcoveCoroot, AlcoveCoweight

rng = np.random.default_rng(7)
n = 3
datum = sf.build_root_datum(n)

print("=== chamber form of an algebra element ===")
j_alg = liecore.random_algebra_element(n, rng)
cd = sf.chamber_diagonalize(j_alg)
print("decreasing spectrum:", np.round(cd.spectrum, 6))
print("reconstruction residual:",
      f"{np.linalg.norm(cd.frame @ j_alg @ cd.frame.conj().T - 1j * np.diag(cd.spectrum)):.2e}")

print("\n=== alcove form of a group element ===")
g = liecore.random_group_element(n, rng)
ad = sf.alcove_diagonalize(g)
xi = ad.spectrum
print("alcove coordinates:", np.round(xi, 6))
print("constraints: decreasing:", bool(np.all(np.diff(xi) < 0)),
      "| zero sum:", f"{xi.sum():.1e}",
      "| range < 2*pi:", bool(xi[0] - xi[-1] < 2 * np.pi))
print("reconstruction residual:",
      f"{np.linalg.norm(ad.frame @ g @ ad.frame.conj().T - np.diag(np.exp(1j * xi))):.2e}")

print("\naction variables of the two kinds, related by the rational matrix Q:")
chi = decomp.coroot_values(xi)
xiv = decomp.coweight_values(xi, datum)
print("  coroot values   :", np.round(chi, 8))
print("  coweight values :", np.round(xiv, 8))
print("  Q @ coroot      :", np.round(datum.q_matrix @ chi, 8))

print("\ngradients match central differences:")
for fn in (AlcoveCoroot(0, datum), AlcoveCoweight(1, datum)):
    fd, = brackets.group_gradient_fd([fn.value], g)
    print(f"  {fn.name}: |closed-form - FD| = {np.linalg.norm(fn.grad(g) - fd):.2e}")

print("\n=== Iwasawa decomposition of a complex group element ===")
x = liecore.random_sl_element(n, rng)
f = sf.iwasawa_decompose(x)
print("X = u_left b_right^-1 residual:",
      f"{np.linalg.norm(x - f.u_left @ np.linalg.inv(f.b_right)):.2e}")
print("X = b_left u_right^-1 residual:",
      f"{np.linalg.norm(x - f.b_left @ f.u_right.conj().T):.2e}")
print("b_right diagonal (positive):", np.round(np.real(np.diag(f.b_right)), 6))

print("\n=== dressing action and the positive part ===")
eta = liecore.random_group_element(n, rng)
b = f.b_right
dressed = sf.dress(eta, b)
lhs = sf.posdef_of_borel(dressed)
rhs = eta @ sf.posdef_of_borel(b) @ eta.conj().T
print("positive-part equivariance residual:", f"{np.linalg.norm(lhs - rhs):.2e}")
p = sf.posdef_of_borel(b)
print("triangular factor round trip:", f"{np.linalg.norm(sf.borel_of_posdef(p) - b):.2e}")
