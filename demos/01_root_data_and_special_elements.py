"""Tour of the su(n) root data and the special group elements.

Run me directly:  python demos/01_root_data_and_special_elements.py
"""

import numpy as np

import sunflows as sf
from sunflows import decomp, liecore, probes

n = 4
datum = sf.build_root_datum(n)

print(f"=== root data for su({n}) ===")
print("simple coroots are the consecutive diagonal differences:")
for j, h in enumerate(datum.coroots):
    print(f"  h_{j + 1} = diag{tuple(np.real(np.diag(h)))}")

print("\nfundamental coweights pair to the Kronecker delta against the roots:")
for j, w in enumerate(datum.coweights):
    vals = decomp.coroot_values(np.real(np.diag(w)))
    print(f"  w_{j + 1}: root values {np.round(vals, 12)}")

print("\nthe rational expansion matrix inverts the transposed Cartan matrix exactly:")
print("  Q =", datum.q_exact)
qc = np.array([[float(sum(datum.q_exact[j][k] * int(datum.cartan[k][l])
                          for k in range(datum.rank)))
                for l in range(datum.rank)] for j in range(datum.rank)])
print("  Q C =\n", qc)

print("\n=== trace-form normalization ===")
e01 = np.zeros((n, n), dtype=complex); e01[0, 1] = 1
e10 = np.zeros((n, n), dtype=complex); e10[1, 0] = 1
print("pair(e_alpha, e_-alpha) =", sf.pair(e01, e10), " (the normalization fixes this to 1)")
print("pair(h_1, h_1)          =", sf.pair(datum.coroots[0], datum.coroots[0]))

print("\n=== special elements ===")
spec = sf.special_elements(n)
print("Coxeter representative (det-corrected cyclic shift):\n", np.round(spec.coxeter_rep.real, 3))
d = np.diag(np.arange(n, dtype=complex))
conj = spec.coxeter_rep @ d @ spec.coxeter_rep.conj().T
print("conjugation permutes diagonal entries cyclically:", np.round(np.real(np.diag(conj)), 6))

print("principal element phases:", np.round(np.angle(np.diag(spec.principal)), 6))
print("Coxeter number:", spec.coxeter_number)

print("\nthe apposition torus (DFT-conjugated diagonal) has a trace-orthogonal algebra:")
t_diag = 1j * np.diag([1.0, -1.0] + [0.0] * (n - 2))
t_app = liecore.apposition_algebra_element(np.array([1.0, -1.0] + [0.0] * (n - 2)), spec)
print("  pairing of the two torus directions:", f"{sf.pair(t_diag, t_app):.2e}")

print("\n=== the Coxeter commutator identity ===")
rng = np.random.default_rng(0)
h = rng.uniform(-2, 2, n); h -= h.mean()
print("target torus coordinates:", np.round(h, 4))
print("identity residual:", f"{probes.commutator_identity_residual(h, n):.2e}")
a, b = probes.commutator_solve(h, n)
resid = np.linalg.norm(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - np.diag(np.exp(1j * h)))
print("commutator solution residual:", f"{resid:.2e}")
print("(every torus element is a commutator: the witness behind momentum surjectivity)")
