"""Configuration-driven verification scenarios and deterministic reports.

A scenario names a phase space, a Hamiltonian family, a root seed and an
optional check list.  Each check draws its own generator seeded by a hash of
the root seed and the check name, so reports are reproducible bit-for-bit
for a fixed configuration.  Check tolerances are fixed here and scale only
through the explicit ``tol_scale`` knob.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import io
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import brackets, decomp, flows, harness as harness_mod, liecore, moduli, probes
from .errors import InvalidShape
from .liecore import adjoint, build_root_datum
from .observables import (AlcoveCoroot, AlcoveCoweight, AlgebraPower, BorelChamberCoroot,
                          BorelPower, ChamberCoroot, PowerTrace, entry_observable, substitute,
                          word_observable, word_product)
from .spaces import FusionPoint, embed_shift, moduli_space, stack

SCHEMA_VERSION = "1"

SPACES = ("cotangent", "heisenberg", "double", "sphere4", "moduli")

# the most points a check may stack.  At n = 8 the largest stacked array per configured point
# is the pairing temporary (points, probes, generators, n, n) of flow-bracket on the
# desk-sweep moduli space (2, 2): 12 x 24 x 64 complex entries, 288 KiB a point; with the
# other stacked tables a point holds about 1 MiB (tracemalloc), so 256 points keep a check
# under 256 MiB
MAX_POINTS = 256
# the most factors m + holes of a moduli space: at n = 8 the suite of the family {"single": [1]}
# takes 0.34 s at 2 factors, 1.7 s at 128 and 3.2 s at 256, against a 3 s budget per suite
MAX_MODULI_FACTORS = 128
# the most generators of a moduli family, n - 1 per block: at n = 8 and m = holes = 8 the suite
# of single blocks takes 2.4 s with 6 blocks (42 generators), 3.2 s with 7 and 4.7 s with 8
MAX_FAMILY_GENERATORS = 42
# the most times of the flow exports of a config, summed over its requests, one CSV row each:
# at n = 8 and m + holes = 128 a row costs 16 ms and 516 kB (0.2 ms on the cotangent bundle);
# 256 rows, flowed as one stack of 256 points, take 4.2 s and 346 MB
MAX_EXPORT_TIMES = 256
# the times of a flow request that names none
DEFAULT_TIMES = {"start": 0.0, "stop": 2 * np.pi, "num": 33}


def derived_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class ScenarioConfig:
    space: str = "double"
    n: int = 2
    family: object = "h"
    m: int = 0
    holes: int = 0
    seed: int = 42
    tol_scale: float = 1.0
    checks: list | None = None
    flow_exports: list = field(default_factory=list)
    points: int = 6

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise InvalidShape(f"clause config-root: {data!r} is not a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise InvalidShape(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))

    def validate(self) -> None:
        if self.space not in SPACES:
            raise InvalidShape(f"clause space: {self.space!r} not one of {SPACES}")
        for name in ("n", "m", "holes", "seed", "points"):
            value = getattr(self, name)
            if not _integer(value):
                raise InvalidShape(f"clause integer: {name}={value!r} is not an integer")
        if not _finite(self.tol_scale) or self.tol_scale <= 0:
            raise InvalidShape(f"clause tol-scale: {self.tol_scale!r} is not a finite "
                               "positive number")
        if self.checks is not None and not (
                isinstance(self.checks, list) and all(isinstance(c, str) for c in self.checks)):
            raise InvalidShape(f"clause checks: {self.checks!r} is not a list of check names")
        known = checks_for(self)
        unknown = [c for c in self.checks or [] if c not in known]
        if unknown:
            raise InvalidShape(f"clause checks: unknown checks {unknown}; known: {sorted(known)}")
        if self.checks and len(set(self.checks)) < len(self.checks):
            raise InvalidShape(f"clause checks: {self.checks!r} names a check twice")
        if not 2 <= self.n <= 8:
            raise InvalidShape(f"clause group-size: n={self.n} outside 2..8")
        if self.space == "double" and self.family not in ("h", "htilde"):
            raise InvalidShape(f"clause double-family: {self.family!r} not 'h' or 'htilde'")
        if self.space != "moduli":
            # the other spaces have a fixed shape, and only the double has a family choice
            ignored = {name: getattr(self, name) for name in ("m", "holes")
                       if getattr(self, name) != 0}
            if self.space != "double" and self.family != "h":
                ignored["family"] = self.family
            if ignored:
                raise InvalidShape(f"clause space-fields: space {self.space!r} takes no "
                                   f"{', '.join(ignored)}; got {ignored!r}")
        if self.space == "moduli":
            if min(self.m, self.holes) < 0 or not 0 < self.m + self.holes <= MAX_MODULI_FACTORS:
                raise InvalidShape(f"clause moduli-shape: need m, holes >= 0 and 0 < m + holes <= "
                                   f"{MAX_MODULI_FACTORS}; got m={self.m}, holes={self.holes}")
            space = moduli_space(self.m, self.holes, self.n)
            fam = harness_mod._family_from_config(space, self.family)
            moduli.validate_family(space, fam)
            generators = len(moduli.family_blocks(fam)) * (self.n - 1)
            if generators > MAX_FAMILY_GENERATORS:
                raise InvalidShape(f"clause moduli-family-size: {generators} generators, more "
                                   f"than {MAX_FAMILY_GENERATORS}")
        if not 2 <= self.points <= MAX_POINTS:
            raise InvalidShape(f"clause points: points={self.points} outside 2..{MAX_POINTS}")
        if not isinstance(self.flow_exports, list):
            raise InvalidShape(f"clause flow-exports: {self.flow_exports!r} is not a list "
                               "of flow requests")
        rows = sum(_check_flow_request(request) for request in self.flow_exports)
        if rows > MAX_EXPORT_TIMES:
            raise InvalidShape(f"clause flow-exports: {rows} times over all requests, more "
                               f"than {MAX_EXPORT_TIMES}")
        stems = export_stems(self.flow_exports)
        if len(set(stems)) < len(stems):
            raise InvalidShape(f"clause flow-exports: two flow requests share a file stem "
                               f"in {stems}")


@dataclass
class CheckResult:
    name: str
    claim: str
    residual: float
    tol: float
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    schema_version: str
    space: str
    n: int
    seed: int
    tol_scale: float
    checks: list
    timing_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def body_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "space": self.space,
            "n": self.n,
            "seed": self.seed,
            "tol_scale": self.tol_scale,
            "passed": self.passed,
            "checks": [asdict(c) for c in sorted(self.checks, key=lambda c: c.name)],
        }

    @classmethod
    def from_body_dict(cls, body: dict) -> "VerificationReport":
        """The report whose ``body_dict`` is ``body``, e.g. a stored report.json.

        Raises InvalidShape when ``body`` is not a report body.
        """
        try:
            checks = [CheckResult(**c) for c in body["checks"]]
            report = cls(schema_version=body["schema_version"], space=body["space"],
                         n=body["n"], seed=body["seed"], tol_scale=body["tol_scale"],
                         checks=checks)
        except (KeyError, TypeError) as exc:
            raise InvalidShape(f"not a report body: {type(exc).__name__}: {exc}") from None
        for c in checks:
            if not (isinstance(c.name, str) and isinstance(c.claim, str)
                    and isinstance(c.passed, bool)):
                raise InvalidShape(f"not a report body: check {c.name!r} needs a string name "
                                   "and claim and a boolean passed")
            if not all(isinstance(v, numbers.Real) for v in (c.residual, c.tol)):
                raise InvalidShape(f"not a report body: check {c.name!r} has a "
                                   "non-numeric residual or tol")
        return report


def emit_report(report: VerificationReport, fmt: str = "json",
                include_timing: bool = False) -> str:
    """Serialize a report; the body is deterministic, timing is opt-in."""
    if fmt == "json":
        body = report.body_dict()
        if include_timing:
            body["timing_s"] = report.timing_s
        return json.dumps(body, indent=2, sort_keys=True)
    if fmt == "text":
        out = io.StringIO()
        out.write(f"verification report (schema {report.schema_version})\n")
        out.write(f"space={report.space} n={report.n} seed={report.seed} "
                  f"tol_scale={report.tol_scale}\n")
        for c in sorted(report.checks, key=lambda c: c.name):
            status = "PASS" if c.passed else "FAIL"
            out.write(f"[{status}] {c.name}: residual={c.residual:.3e} tol={c.tol:.1e}"
                      f"  ({c.claim})\n")
        out.write(f"overall: {'PASS' if report.passed else 'FAIL'}\n")
        if include_timing:
            out.write(f"timing_s: {report.timing_s:.2f}\n")
        return out.getvalue()
    raise InvalidShape(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

@dataclass
class CheckContext:
    cfg: ScenarioConfig
    harness: harness_mod.Harness
    datum: object

    def rng(self, name: str) -> np.random.Generator:
        return derived_rng(self.cfg.seed, name)

    def tol(self, base: float) -> float:
        return base * self.cfg.tol_scale


def _above_diagonal(mat: np.ndarray) -> float:
    """The largest |entry| above the diagonal of a square matrix, or of every matrix of a stack."""
    rows, cols = np.triu_indices(mat.shape[-1], 1)
    return float(np.max(np.abs(mat[..., rows, cols]), initial=0.0))


def _worst(*values, pick=max):
    """``pick`` (max or min) of the values, NaN if one of them is NaN: Python's
    ``max(0.0, nan)`` is 0.0, which would drop a NaN defect from a residual."""
    for v in values:  # a loop, not any(): half the cost on the checks' inner loops
        if v != v:
            return math.nan
    return pick(values)


def check(name: str, claim: str, base_tol: float, spaces=SPACES, shared=None):
    """Declare a check, which returns its residual or (residual, detail): the decorated
    function returns the CheckResult against ``base_tol`` times tol_scale, and a non-finite
    residual fails and is named in the detail.  ``spaces`` run it.  ``shared`` marks a check
    that reads neither the space nor its harness: run_scenario keeps its result per (name,
    seed, tol_scale) and n ("space"), or without n for a check that reads no n ("all")."""
    def decorate(fn):
        @functools.wraps(fn)
        def run(ctx: CheckContext) -> CheckResult:
            out = fn(ctx)
            residual, detail = out if isinstance(out, tuple) else (out, {})
            tol, residual = ctx.tol(base_tol), float(residual)
            if not math.isfinite(residual):
                detail = {**detail, "non_finite_residual": str(residual)}
            return CheckResult(name, claim, residual, tol, bool(residual <= tol), detail)

        run.name, run.spaces, run.shared = name, spaces, shared
        return run
    return decorate


@check("root-datum-exact", "coweight expansion inverts the transposed Cartan matrix exactly",
       0.0, shared="all")
def check_root_datum(ctx: CheckContext):
    violations = 0
    for n in range(2, 9):
        datum = build_root_datum(n)
        r = datum.rank
        for j in range(r):
            for l in range(r):
                s = sum(datum.q_exact[j][k] * int(datum.cartan[k][l]) for k in range(r))
                if s != (1 if j == l else 0):
                    violations += 1
        for j in range(r):
            w = datum.coweights_exact[j]
            for k in range(r):
                if w[k] - w[k + 1] != (1 if k == j else 0):
                    violations += 1
            if sum(w) != 0:
                violations += 1
    return violations


@check("dual-basis", "dual bases satisfy the defining pairing identity", 1e-12, shared="space")
def check_dual_basis(ctx: CheckContext):
    """The cached dual bases that the finite-difference engine sums gradients against."""
    n = ctx.cfg.n
    rng = ctx.rng("dual-basis")
    basis, dual = brackets._basis("su", n)
    worst = float(np.max(np.abs([liecore.gram(b, dual) for b in basis] - np.eye(len(basis)))))
    rbasis, rdual = (stack[::3] for stack in brackets._basis("sl", n))
    worst = _worst(worst, float(np.max(np.abs(
        [liecore.gram(b, rdual, liecore.IM_FORM) for b in rbasis] - np.eye(len(rbasis))))))
    z = liecore.random_algebra_element(n, rng)
    recon = liecore.ordered_sum(liecore.gram(z, dual), basis)
    return _worst(worst, float(np.linalg.norm(recon - z)))


@check("apposition-torus", "second torus meets the diagonal torus only in the center, "
       "with trace-orthogonal algebras", 1e-12, shared="space")
def check_apposition(ctx: CheckContext):
    n = ctx.cfg.n
    rng = ctx.rng("apposition-torus")
    spec = liecore.special_elements(n)
    coroots = np.eye(n)[:-1] - np.eye(n)[1:]
    ortho = float(np.max(np.abs(liecore.gram(1j * liecore.diagonal_matrix(coroots),
                                             liecore.apposition_algebra_element(coroots, spec)))))
    # 200 pairs of diagonal and apposition phases, drawn in the order of a loop over pairs
    phases = rng.uniform(0, 2 * np.pi, (200, 2, n))
    t = liecore.diagonal_torus_element(phases[:, 0])
    tp = liecore.apposition_torus_element(phases[:, 1], spec)
    bad = sum(int(min(np.linalg.norm(t[k] - z) for z in spec.center) > 1e-8)
              for k in np.flatnonzero(liecore.norms(t - tp, 2) <= 1e-8))
    # the coxeter representative must normalize the diagonal torus
    d = np.diag(rng.uniform(-1, 1, n) + 0j)
    d -= np.trace(d) / n * np.eye(n)
    conj = spec.coxeter_rep @ (1j * d) @ spec.coxeter_rep.conj().T
    offdiag = float(np.linalg.norm(conj - np.diag(np.diag(conj))))
    return (_worst(ortho, offdiag / 1e4) + bad,
            {"orthogonality": ortho, "intersection_violations": bad})


@check("coxeter-commutator-identity",
       "the Coxeter conjugation commutator reproduces every torus element", 1e-10, shared="all")
def check_commutator_identity(ctx: CheckContext):
    worst = 0.0
    for n in range(2, 6):
        rng = ctx.rng(f"commutator-identity-{n}")
        h = rng.uniform(-2.5, 2.5, (50, n))
        h -= h.mean(axis=-1, keepdims=True)
        worst = _worst(worst, *probes.commutator_identity_residual(h, n))
    return worst


@check("commutator-solve", "torus commutator solutions hit their alcove targets", 1e-10,
       shared="all")
def check_commutator_solve(ctx: CheckContext):
    worst = 0.0
    for n in range(2, 6):
        xi = liecore.gapped_spectrum(n, ctx.rng(f"commutator-solve-{n}"), probes.ALCOVE_MARGIN,
                                     count=10)
        target = liecore.diagonal_matrix(np.exp(1j * xi))
        for a, b in (probes.commutator_solve(xi, n), probes.solve_commutator_in_torus(xi, n)):
            worst = _worst(worst, *liecore.norms(
                a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - target, 2))
    return worst


@check("iwasawa-roundtrip", "both unitary/triangular splittings reconstruct and are unique",
       1e-12, shared="space")
def check_iwasawa(ctx: CheckContext):
    n = ctx.cfg.n
    rng = ctx.rng("iwasawa")
    x = np.array([liecore.random_sl_element(n, rng) for _ in range(20)])
    f = decomp.iwasawa_decompose(x)
    f2 = decomp.iwasawa_decompose(f.u_left @ np.linalg.inv(f.b_right))
    worst = _worst(0.0, *liecore.norms(x - f.u_left @ np.linalg.inv(f.b_right), 2),
                   *liecore.norms(x - f.b_left @ adjoint(f.u_right), 2))
    unique = _worst(0.0, *liecore.norms(f2.u_left - f.u_left, 2),
                    *liecore.norms(f2.b_right - f.b_right, 2))
    return _worst(worst, unique / 10), {"uniqueness": unique}


@check("posdef-roundtrip",
       "the positive part map and its triangular inverse are mutually inverse", 1e-12,
       shared="space")
def check_posdef(ctx: CheckContext):
    n = ctx.cfg.n
    rng = ctx.rng("posdef")
    b = decomp.iwasawa_left(np.array([liecore.random_sl_element(n, rng) for _ in range(20)]))[1]
    return _worst(0.0, *liecore.norms(decomp.borel_of_posdef(decomp.posdef_of_borel(b)) - b, 2))


@check("dressing-equivariance", "the positive part intertwines dressing with conjugation",
       1e-10, shared="space")
def check_dressing(ctx: CheckContext):
    n = ctx.cfg.n
    rng = ctx.rng("dressing")
    b, eta = map(np.array, zip(*[(decomp.iwasawa_left(liecore.random_sl_element(n, rng))[1],
                                  liecore.random_group_element(n, rng)) for _ in range(20)]))
    lhs = decomp.posdef_of_borel(decomp.dress(eta, b))
    rhs = eta @ decomp.posdef_of_borel(b) @ adjoint(eta)
    return _worst(0.0, *liecore.norms(lhs - rhs, 2))


# wall and gap floor of the gradient-oracles spectra, at least twice the 0.05 margin that the
# normal forms assert: kept from the full FD tables, it leaves residuals <= 2.1e-9 at n = 2..8
ORACLE_FLOOR = 0.12


@check("gradient-oracles", "closed-form gradients match central differences along random "
       "directions", 1e-6, shared="space")
def check_gradient_oracles(ctx: CheckContext):
    """Closed-form gradients against central differences along two random unit directions at
    each of 30 points per kind, built regular (``liecore.conjugated_spectrum``): the normal
    forms that the exact gradients read assert the 0.05 margin on each kind's stack."""
    n, datum, rng = ctx.cfg.n, ctx.datum, ctx.rng("gradient-oracles")
    conjugate = lambda fn: liecore.conjugated_spectrum(n, rng, fn, ORACLE_FLOOR, count=30)
    gs = conjugate(lambda xi: np.exp(1j * xi))
    js = liecore.skew_traceless(conjugate(lambda xi: 1j * xi))
    bs = decomp.borel_of_posdef(conjugate(np.exp))
    basis = liecore.borel_basis(n).reshape(-1, n * n)
    su = liecore.random_algebra_element(n, rng, 60).reshape(60, -1)
    # the Borel directions take one product per point: one (60, dim) product goes to a
    # threaded zgemm at n = 8, 15 ms on a 2-core host against 0.2 ms
    su, borel = ((z / np.linalg.norm(z, axis=-1, keepdims=True)).reshape(30, 2, n, n)
                 for z in (su, rng.standard_normal((30, 2, len(basis))) @ basis))
    tz = lambda t, z: liecore.scaled(t[:, np.newaxis], z)  # (times, directions, n, n)
    # exp(0.3 t Z) by its degree-6 Taylor series, exact to roundoff at |0.3 t Z| <= 6e-4: the
    # factor 0.3 keeps the Borel step at 3e-4, for the log-composed chamber function
    taylor = lambda a: functools.reduce(lambda e, k: np.eye(n) + a @ e / k, range(6, 0, -1),
                                        np.eye(n))
    blocks = (([PowerTrace(1), PowerTrace(2), AlcoveCoroot(0, datum),
                AlcoveCoweight(datum.rank - 1, datum)], gs, decomp.alcove_diagonalize, su,
               liecore.TRACE_FORM, lambda g, z: lambda t: liecore.expm_normal(tz(t, z)) @ g, 1),
              ([AlgebraPower(2), ChamberCoroot(0, datum)], js, decomp.chamber_diagonalize, su,
               liecore.TRACE_FORM, lambda j, z: lambda t: j + tz(t, z), 1),
              ([BorelPower(1), BorelChamberCoroot(0, datum)], bs, decomp.borel_chamber_diagonalize,
               borel, liecore.IM_FORM, lambda b, z: lambda t: taylor(0.3 * tz(t, z)) @ b, 0.3))
    worst = 0.0
    for fns, ms, normal_form, zs, pairing, curve, scale in blocks:
        form = normal_form(ms, 0.05)
        exact = liecore.gram(np.stack([fn.at(form) if hasattr(fn, "at") else fn.grad(ms)
                                       for fn in fns], 1), zs, pairing)  # (points, fns, dirs)
        values = lambda m: np.swapaxes(brackets.stack_values(fns, m), 0, 1)
        for k, (m, z) in enumerate(zip(ms, zs)):  # a point at a time: stacks raise the peak RSS
            fd = brackets.directional_derivative(values, curve(m, z)) / scale
            worst = _worst(worst, float(np.max(np.abs(exact[k] - fd) / (1 + np.abs(exact[k])))))
    return worst


@check("shifting-trick", "brackets on the unit momentum level match the reduced model space",
       1e-6, shared="space")
def check_shifting_trick(ctx: CheckContext):
    n = ctx.cfg.n
    worst = 0.0
    for label, (m, holes), words in (
            ("four-holes", (0, 4), [("c1", "c2"), ("c1", "c3"), ("c2", "c3", "c1")]),
            ("one-handle", (1, 2), [("a1", "b1"), ("a1", "c1"), ("b1", "c1", "a1")])):
        rng = ctx.rng(f"shifting-{label}")
        small = moduli_space(m, holes - 1, n)
        u = stack([small.random_point(rng) for _ in range(3)])
        big_point = embed_shift(u)
        lifted = [word_observable(w) for w in words]
        worst = _worst(worst, _above_diagonal(brackets.bracket_matrix(lifted, lifted, u)
                                           - brackets.bracket_matrix(lifted, lifted, big_point)))
        if np.max(liecore.norms(big_point.momentum() - np.eye(n), 2)) > 1e-10:
            worst = _worst(worst, 1.0)
    return worst


# --- per-space dynamical checks ---------------------------------------------

def flow_derivatives(x, gens, obs) -> np.ndarray:
    """d/dt of each probe along each generator's flow at x, (probes, generators): one
    Richardson difference per generator, from one flow call on its 8 stencil times (a plain
    difference's h^4 error along cotangent flows at n >= 5 reaches the check's tolerance)."""
    values = lambda p: np.array([o(p) for o in obs]).T
    xs = stack([x] * 8)  # the 8 times of a Richardson stencil, one point for every generator
    return np.array([brackets.directional_derivative(
        values, lambda t, g=g: g.flow(xs, t), richardson=True) for g in gens]).T


def flow_bracket_worst(x, gens, obs, oracle: bool = True) -> float:
    """Largest relative defect at x, a point or a stack, between each generator's closed-form
    velocity and its Hamiltonian velocity (P-sharp of its table): as ambient tangent vectors
    and paired with the probes' stacked tables, and, with ``oracle`` (one point only), the
    brackets against the flows' finite-difference derivatives (``flow_derivatives``)."""
    rows = brackets.gradient_stack(obs, x)
    hamiltonian = brackets.sharp(brackets.gradient_stack([g.obs for g in gens], x), x)
    velocities = [g.velocity(x) for g in gens]
    mat = brackets.velocity_pairings(rows, hamiltonian, x)
    derivs = [brackets.velocity_pairings(rows, brackets.stack_tables(velocities), x)]
    if oracle:
        derivs.append(flow_derivatives(x, gens, obs))
    defects = [float(np.max(np.abs(d - mat) / (1.0 + np.abs(mat)))) for d in derivs]
    for j, v in enumerate(velocities):
        ref = x.tangent({key: s[..., j, :, :] for key, s in hamiltonian.items()})
        defects.append(float(np.max(liecore.norms(x.tangent(v) - ref)
                                    / (1.0 + liecore.norms(ref)))))
    return _worst(*defects)


def all_generators(h) -> list:
    return [g for fam in h.families().values() for g in fam] + h.extra_generators()


@check("flow-bracket", "exact flows differentiate to the bracket against the probe family",
       1e-6)
def check_flow_bracket(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("flow-bracket")
    obs = h.probes()
    gens = all_generators(h)
    first = h.sample(rng)
    rest = h.sample_stack(rng, ctx.cfg.points - 1)
    return (_worst(flow_bracket_worst(first, gens, obs),
                   flow_bracket_worst(rest, gens, obs, oracle=False)),
            {"points": ctx.cfg.points, "observables": len(obs), "generators": len(gens)})


@check("abelian-family", "family generators pairwise bracket-commute", 1e-6)
def check_abelian(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("abelian-family")
    worst = 0.0
    for fam_name, gens in h.families().items():
        obs = [g.obs for g in gens]
        x = h.sample_stack(rng, max(2, ctx.cfg.points // 3))
        worst = _worst(worst, _above_diagonal(brackets.bracket_matrix(obs, obs, x)))
    return worst


@check("flow-commutation", "family flows compose identically in either order", 1e-8)
def check_flow_commutation(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("flow-commutation")
    worst = 0.0
    for fam_name, gens in h.families().items():
        x = h.sample_stack(rng, 2)
        early, late = ([g.flow(x, t) for g in gens] for t in (0.3, 0.7))
        # one second step per generator, on the stack of its partners' first steps: j at 0.7
        # after each earlier i at 0.3, and i at 0.3 after each later j at 0.7
        after = [gens[j].flow(stack(early[:j]), 0.7).flat() for j in range(1, len(gens))]
        before = [gens[i].flow(stack(late[i + 1:]), 0.3).flat() for i in range(len(gens) - 1)]
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                worst = _worst(worst, *liecore.norms(after[j - 1][i] - before[i][j - i - 1]))
    return worst


@check("conservation",
       "momentum maps and companion invariants are constant along family flows", 1e-10)
def check_conservation(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("conservation")
    worst = 0.0
    fams = h.families()
    taus = np.array([0.35, 0.9, 1.8])[:, np.newaxis]
    detail = {}
    for spec in h.conserved():
        gens = fams.get(spec.family, [])
        local = 0.0
        x = h.sample_stack(rng, 3)
        base, xs = np.asarray(spec.fn(x)), stack([x] * len(taus))
        for gen in gens:
            moved = np.asarray(spec.fn(gen.flow(xs, taus)))
            local = _worst(local, float(np.max(np.abs(moved - base))))
        detail[f"{spec.name}({spec.family})"] = local
        worst = _worst(worst, local)
    return worst, detail


@check("unitary-conjugation-law",
       "the right unitary factor evolves by conjugation along class flows", 1e-9,
       spaces=("heisenberg",))
def check_heisenberg_conjugation_law(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("unitary-conjugation-law")
    worst = 0.0
    x = h.sample_stack(rng, 4)
    u0 = x.factor("u_right")
    taus, xs = np.array([0.3, 1.1])[:, np.newaxis], stack([x] * 2)
    for gen in h.families()["unitary-class"]:
        moved = gen.flow(xs, taus)
        gamma = flows.heisenberg_flow_unitary_part(xs, gen.obs.fn, taus)
        resid = liecore.norms(moved.factor("u_right") - gamma @ u0 @ adjoint(gamma), 2)
        worst = _worst(worst, *np.ravel(resid))
    return worst


@check("quasi-adjoint-law",
       "the symmetry action transforms the right factors by twist and dressing", 1e-9,
       spaces=("heisenberg",))
def check_quasi_adjoint_law(ctx: CheckContext):
    n = ctx.cfg.n
    rng = ctx.rng("quasi-adjoint-law")
    x, eta = ctx.harness.sample_stack(rng, 6, lambda r: liecore.random_group_element(n, r))
    moved = x.conjugate(eta)
    twist = adjoint(decomp.iwasawa_right(eta @ x.factor("b_left"))[1])
    u_defect = moved.factor("u_right") - twist @ x.factor("u_right") @ adjoint(twist)
    b_defect = moved.factor("b_right") - decomp.dress(twist, x.factor("b_right"))
    return _worst(0.0, *liecore.norms(u_defect, 2), *liecore.norms(b_defect, 2))


@check("torus-periodicity", "compact-direction flows close up after one full period", 1e-8)
def check_torus_periodicity(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("torus-periodicity")
    worst = 0.0
    detail = {}
    for spec in h.torus_specs():
        if not spec.periodic:
            continue
        x = h.sample_stack(rng, 3)
        local = _worst(0.0, *(d for tau in 2 * np.pi * np.eye(spec.dim)
                              for d in spec.act(x, tau).distance(x)))
        detail[spec.name] = local
        worst = _worst(worst, local)
    # negative control: a coweight translation flow must not close up
    if ctx.cfg.space == "double":
        x = h.sample(rng)
        ham = moduli.WordHamiltonian(("single", 1), AlcoveCoweight(0, ctx.datum))
        resid = moduli.moduli_flow(x, ham, 2 * np.pi).distance(x)
        detail["coweight-translation-control"] = resid
        if resid < 0.1:
            worst = _worst(worst, 1.0)
    return worst, detail


@check("torus-additivity", "torus action maps compose additively in the angles", 1e-9)
def check_torus_additivity(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("torus-additivity")
    worst = 0.0
    detail = {}
    # angles are capped; the noncompact directions are proper but unbounded,
    # so the conditioning of the positive factorization is reported alongside
    for spec in h.torus_specs():
        angles = lambda r, dim=spec.dim: r.uniform(-1.0, 1.0, dim)
        x, t1, t2 = h.sample_stack(rng, 3, angles, angles)
        worst = _worst(worst, *spec.act(spec.act(x, t1), t2).distance(spec.act(x, t1 + t2)))
        if ctx.cfg.space == "heisenberg" and spec.name == "borel-translation":
            x = h.sample(rng)
            tau = np.full(spec.dim, 1.0)
            alcove = decomp.alcove_diagonalize(x.factor("u_right"))
            beta = flows.positive_factorization(tau, alcove, ctx.datum)
            detail["translation-conditioning"] = float(np.linalg.cond(beta))
    return worst, detail


@check("torus-vs-flows", "the joint torus action equals composed generator flows", 1e-8)
def check_torus_vs_flows(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("torus-vs-flows")
    worst = 0.0
    for spec in h.torus_specs():
        x, tau = h.sample_stack(rng, 2, lambda r, dim=spec.dim: r.uniform(-0.8, 0.8, dim))
        b = x
        for gen, t in zip(spec.generators, tau.T):
            b = gen.flow(b, t)
        worst = _worst(worst, *spec.act(x, tau).distance(b))
    return worst


@check("flow-equivariance", "every family flow commutes with the symmetry action", 1e-9)
def check_flow_equivariance(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("flow-equivariance")
    worst = 0.0
    gens = [g for fam in h.families().values() for g in fam]
    x, eta = h.sample_stack(rng, 2, lambda r: liecore.random_group_element(ctx.cfg.n, r))
    both = stack([x.conjugate(eta), x])  # flowed in one call per generator
    for gen in gens:
        moved = gen.flow(both, 0.45)
        worst = _worst(worst, *liecore.norms(moved.flat()[0] - moved.conjugate(eta).flat()[1]))
    return worst


@check("bracket-invariance", "brackets of invariant observables are symmetry invariant", 1e-8)
def check_bracket_invariance(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("bracket-invariance")
    obs = [g.obs for fam in h.families().values() for g in fam][:3]
    x, eta = h.sample_stack(rng, 2, lambda r: liecore.random_group_element(ctx.cfg.n, r))
    return _worst(0.0, _above_diagonal(brackets.bracket_matrix(obs, obs, x)
                                      - brackets.bracket_matrix(obs, obs, x.conjugate(eta))))


@check("isotropy-crafted", "crafted points have trivial combined infinitesimal stabilizer "
       "and are fixed by the center", 0.0)
def check_isotropy(ctx: CheckContext):
    h = ctx.harness
    n = ctx.cfg.n
    worst = 0
    detail = {}
    for key in h.crafted_keys():
        rng = ctx.rng(f"isotropy-{key}")
        pp = probes.principal_test_point(key, n, ctx.datum, rng)
        rep = probes.stabilizer_dimension(pp.point, pp.action, n, key)
        detail[key] = {"dim": rep.infinitesimal_dim, "center": rep.center_fixes,
                       "min_sv": float(rep.singular_values.min())}
        if rep.infinitesimal_dim != 0 or not rep.center_fixes:
            worst += 1
    return worst, detail


@check("freeness-rank", "torus generators have full rank and nontrivial angles move points",
       0.0)
def check_freeness_rank(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("freeness-rank")
    specs = h.torus_specs()

    def angles(r, spec):
        if spec.periodic:
            return r.uniform(0.1, 2 * np.pi - 0.1, spec.dim)
        return r.uniform(0.1, 1.2, spec.dim) * r.choice([-1.0, 1.0], spec.dim)

    x, *taus = h.sample_stack(rng, 20, *(lambda r, s=s: angles(r, s) for s in specs))
    failures = 0
    min_disp = np.inf
    for spec, tau in zip(specs, taus):
        ranks, _ = probes.rank_of(probes.generator_matrix(x, [g.velocity for g in spec.generators]))
        failures += int(np.count_nonzero(ranks != spec.dim))
        min_disp = _worst(min_disp, *np.ravel(spec.act(x, tau).distance(x)), pick=min)
    return failures + _worst(0.0, 1e-4 - min_disp), {"min_displacement": float(min_disp)}


@check("differential-rank", "family differentials span at least the torus dimension", 0.0)
def check_differential_rank(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("differential-rank")
    fns = [g.obs for fam in h.families().values() for g in fam]
    expected_min = sum(spec.dim for spec in h.torus_specs())
    ranks, _ = probes.rank_of(probes.differential_matrix(h.sample_stack(rng, 3), fns))
    detail = {f"point-{k}": int(rank) for k, rank in enumerate(ranks)}
    detail["expected_min"] = expected_min
    return int(np.count_nonzero(ranks < expected_min)), detail


@check("momentum-condition",
       "the bivector and the product momentum map satisfy the defining relation", 1e-6,
       spaces=("double", "sphere4", "moduli"))
def check_momentum_condition(ctx: CheckContext):
    h = ctx.harness
    rng = ctx.rng("momentum-condition")
    # both sides vanish on the conjugation-invariant probes; a letter entry is not invariant
    entry = entry_observable(ctx.rng("momentum-entry").standard_normal((ctx.cfg.n,) * 2),
                             h.space.momentum_word(0)[0])
    obs = h.probes()[:3] + [entry]
    kfns = [PowerTrace(1), PowerTrace(2, part="im")]
    x = h.sample_stack(rng, 2)
    return _worst(0.0, float(np.max(brackets.momentum_condition_matrix(obs, kfns, x))))


@check("s-transform", "the exchange automorphism acts as stated and preserves brackets", 1e-6,
       spaces=("double",))
def check_s_transform(ctx: CheckContext):
    n = ctx.cfg.n
    rng = ctx.rng("s-transform")
    h = ctx.harness
    worst = 0.0
    a = liecore.random_group_element(n, rng)
    p1, p2 = flows.s_transform(a, np.eye(n, dtype=complex))
    worst = _worst(worst, float(np.linalg.norm(p1 - np.eye(n))), float(np.linalg.norm(p2 - a)))
    x = h.sample(rng)
    a, b = x.pair(1)
    s1, s2 = flows.s_transform(a, b)
    worst = _worst(worst, float(np.linalg.norm(s1 - b.conj().T)),
                   *(float(np.linalg.norm(word_product(x, flows.S_LETTERS[name]) - m))
                     for name, m in (("a1", s1), ("b1", s2))))
    # bracket preservation under the automorphism, on invariant observables pulled back
    # through its letter map
    f1 = word_observable(("a1", "b1"))
    f2 = word_observable(("a1", "a1", "b1"))
    pulled = [word_observable(substitute(f.letters, flows.S_LETTERS)) for f in (f1, f2)]
    v_target = brackets.bracket_matrix([f1], [f2], FusionPoint(x.space, ((s1, s2),)))[0, 0]
    v_source = brackets.bracket_matrix(pulled[:1], pulled[1:], x)[0, 0]
    return _worst(worst, abs(v_target - v_source))


@check("permutation-brackets",
       "factor transpositions preserve brackets and pulled-back families commute", 1e-6,
       spaces=("moduli",))
def check_permutations(ctx: CheckContext):
    n = ctx.cfg.n
    rng = ctx.rng("permutation-brackets")
    space = moduli_space(2, 2, n)
    datum = ctx.datum
    worst = 0.0
    # move the first conjugation factor ahead of the second double factor
    plan = [1]
    f_t = word_observable(("a2", "c1"))
    h_t = word_observable(("c1", "b2", "c2"))
    f_s = moduli.pullback_hamiltonian(f_t, plan)
    h_s = moduli.pullback_hamiltonian(h_t, plan)
    x = stack([space.random_point(rng) for _ in range(2)])
    v_target = brackets.bracket_matrix([f_t], [h_t], moduli.permutation_pushforward(x, plan))
    worst = _worst(worst, *np.abs(v_target - brackets.bracket_matrix([f_s], [h_s], x))[:, 0, 0])
    # the pulled-back two-block family stays Abelian on the source space
    def draw():
        cand = space.random_point(rng)
        return cand, moduli.permutation_pushforward(cand, plan)

    def regular(drawn):
        for p1, p2 in ((0, 1), (2, 3)):
            decomp.alcove_diagonalize(drawn[1].momentum(range(p1, p2 + 1)),
                                      harness_mod.SAMPLING_MARGIN)
    x, _ = harness_mod.sample_regular("permuted", 64, draw, regular)
    pulled = []
    for p1, p2 in ((0, 1), (2, 3)):
        for j in range(datum.rank):
            hblock = moduli.WordHamiltonian(("span", p1, p2), AlcoveCoweight(j, datum))
            pulled.append(moduli.pullback_hamiltonian(hblock, plan))
    worst = _worst(worst, _above_diagonal(brackets.bracket_matrix(pulled, pulled, x)))
    return worst, {"plan": plan}


CHECKS = {c.name: c for c in (
    check_root_datum, check_dual_basis, check_apposition, check_commutator_identity,
    check_commutator_solve, check_iwasawa, check_posdef, check_dressing, check_gradient_oracles,
    check_shifting_trick, check_flow_bracket, check_abelian, check_flow_commutation,
    check_conservation, check_torus_periodicity, check_torus_additivity, check_torus_vs_flows,
    check_flow_equivariance, check_bracket_invariance, check_isotropy, check_freeness_rank,
    check_differential_rank, check_momentum_condition, check_s_transform,
    check_heisenberg_conjugation_law, check_quasi_adjoint_law, check_permutations)}
# the results of the shared checks, for the life of the process; aborted checks are never
# kept, and every report gets its own deep copy of a kept result
SPACE_FREE_RESULTS: dict[tuple, CheckResult] = {}


def checks_for(cfg: ScenarioConfig) -> dict[str, object]:
    """The checks of cfg's space; permutation-brackets needs the moduli space (2, 2)."""
    return {name: c for name, c in CHECKS.items() if cfg.space in c.spaces
            and (name != "permutation-brackets" or (cfg.m, cfg.holes) == (2, 2))}


def run_scenario(cfg: ScenarioConfig) -> VerificationReport:
    cfg.validate()
    t0 = time.time()
    datum = build_root_datum(cfg.n)
    h = harness_mod.build_harness(cfg.space, cfg.n, datum, family=cfg.family,
                                  m=cfg.m, holes=cfg.holes)
    ctx = CheckContext(cfg, h, datum)
    table = checks_for(cfg)
    names = cfg.checks if cfg.checks else sorted(table)
    results = []
    for name in names:
        try:
            if shared := table[name].shared:
                key = (name, cfg.seed, cfg.tol_scale) + (() if shared == "all" else (cfg.n,))
                if key not in SPACE_FREE_RESULTS:
                    SPACE_FREE_RESULTS[key] = table[name](ctx)
                results.append(copy.deepcopy(SPACE_FREE_RESULTS[key]))
            else:
                results.append(table[name](ctx))
        except Exception as exc:  # a crashed check fails, the suite continues
            results.append(CheckResult(name, "check aborted", float("inf"), 0.0,
                                       False, {"error": f"{type(exc).__name__}: {exc}"}))
    return VerificationReport(
        schema_version=SCHEMA_VERSION,
        space=cfg.space,
        n=cfg.n,
        seed=cfg.seed,
        tol_scale=cfg.tol_scale,
        checks=results,
        timing_s=time.time() - t0,
    )


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------

def _check_flow_request(request) -> int:
    """Clause flow-exports: a dict whose name is a plain file stem, whose family
    is a name, whose generator is an integer and whose times are a
    {start, stop, num} dict or a list of numbers.  Returns the number of times."""
    name = request.get("name", "flow") if isinstance(request, dict) else None
    if (not isinstance(name, str) or name in ("", ".", "..") or "\0" in name
            or os.path.basename(name) != name):
        raise InvalidShape(f"clause flow-exports: {request!r} is not a flow request dict "
                           "whose name is a plain file stem")
    family, gen = request.get("family") or "", request.get("generator", 0)
    if not isinstance(family, str) or not _integer(gen):
        raise InvalidShape(f"clause flow-exports: {request!r} needs a family name and an "
                           "integer generator")
    times = request.get("times", DEFAULT_TIMES)
    if isinstance(times, dict):
        ok = (set(times) == {"start", "stop", "num"} and _finite(times["start"])
              and _finite(times["stop"]) and _integer(times["num"]))
    else:
        ok = isinstance(times, list) and all(_finite(t) for t in times)
    if not ok:
        raise InvalidShape(f"clause flow-exports: times {times!r} is neither a "
                           "{start, stop, num} dict nor a list of numbers")
    count = times["num"] if isinstance(times, dict) else len(times)
    if not 0 <= count <= MAX_EXPORT_TIMES:
        raise InvalidShape(f"clause flow-exports: {count} times outside 0..{MAX_EXPORT_TIMES}")
    return count


def export_stems(requests) -> list[str]:
    """The CSV file stem of each flow request: its name, else flow-<index>."""
    return [request.get("name", f"flow-{k}") for k, request in enumerate(requests)]


def export_trajectory(cfg: ScenarioConfig, request: dict) -> str:
    """CSV text for one flow request; conserved columns included per family."""
    cfg.validate()
    _check_flow_request(request)
    datum = build_root_datum(cfg.n)
    h = harness_mod.build_harness(cfg.space, cfg.n, datum, family=cfg.family,
                                  m=cfg.m, holes=cfg.holes)
    rng = derived_rng(cfg.seed, f"flow:{request.get('name', 'flow')}")
    fams = h.families()
    fam_name = request.get("family") or next(iter(fams))
    if fam_name not in fams:
        raise InvalidShape(f"clause flow-family: unknown family {fam_name!r}")
    gens = fams[fam_name]
    idx = request.get("generator", 0)
    if not 0 <= idx < len(gens):
        raise InvalidShape(f"clause flow-generator: index {idx} outside 0..{len(gens) - 1}")
    gen = gens[idx]
    times = request.get("times", DEFAULT_TIMES)
    if isinstance(times, dict):
        grid = np.linspace(times["start"], times["stop"], times["num"])
    else:
        grid = np.asarray(times, dtype=float)
    x0 = h.sample(rng)
    conserved = [s for s in h.conserved() if s.family == fam_name]
    out = io.StringIO()
    labels = [f"{name}_{i}{j}_{part}" for name, m in x0.matrices()
              for i in range(m.shape[0]) for j in range(m.shape[1]) for part in ("re", "im")]
    cons_labels = [f"conserved:{s.name}" for s in conserved]
    out.write("# trajectory export: columns are tau, flattened point components "
              "(row-major, re/im interleaved), then conserved-deviation columns\n")
    out.write(f"# space={cfg.space} n={cfg.n} family={fam_name} generator={gen.name} "
              f"seed={cfg.seed}\n")
    out.write(",".join(["tau"] + labels + cons_labels) + "\n")
    if len(grid):  # one flow call for the whole grid; a stack of no points cannot be built
        path = gen.flow(stack([x0] * len(grid)), grid)
        devs = [np.abs(s.fn(path) - s.fn(x0)).reshape(len(grid), -1).max(axis=1)
                for s in conserved]
        for k, t in enumerate(grid):
            row = [f"{t:.17g}"] + [f"{v:.17g}" for _, m in path.matrices()
                                   for z in m[k].ravel() for v in (z.real, z.imag)]
            out.write(",".join(row + [f"{dev[k]:.17g}" for dev in devs]) + "\n")
    return out.getvalue()
