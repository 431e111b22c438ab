"""Configuration-driven verification scenarios and deterministic reports.

A scenario names a phase space, a Hamiltonian family, a root seed and an
optional check list.  Each check draws its own generator seeded by a hash of
the root seed and the check name, so reports are reproducible bit-for-bit
for a fixed configuration.  Check tolerances are fixed here and scale only
through the explicit ``tol_scale`` knob.
"""

from __future__ import annotations

import copy
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
from .liecore import build_root_datum
from .observables import AlcoveCoweight, PowerTrace, word_observable
from .spaces import FusionPoint, embed_shift, moduli_space

SCHEMA_VERSION = "1"

SPACES = ("cotangent", "heisenberg", "double", "sphere4", "moduli")


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
            if self.m < 0 or self.holes < 0 or self.m == self.holes == 0:
                raise InvalidShape(f"clause moduli-shape: need m, holes >= 0 and not both "
                                   f"zero; got m={self.m}, holes={self.holes}")
            space = moduli_space(self.m, self.holes, self.n)
            fam = harness_mod._family_from_config(space, self.family)
            moduli.validate_family(space, fam)
        if self.points < 2:
            raise InvalidShape("clause points: need at least 2 sample points")
        if not isinstance(self.flow_exports, list):
            raise InvalidShape(f"clause flow-exports: {self.flow_exports!r} is not a list "
                               "of flow requests")
        for request in self.flow_exports:
            _check_flow_request(request)
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
    """The largest |entry| above the diagonal of a square matrix."""
    return float(np.max(np.abs(mat[np.triu_indices(len(mat), 1)]), initial=0.0))


def _worst(*values, pick=max):
    """``pick`` (max or min) of the values, NaN if one of them is NaN: Python's
    ``max(0.0, nan)`` is 0.0, which would drop a NaN defect from a residual."""
    for v in values:  # a loop, not any(): half the cost on the checks' inner loops
        if v != v:
            return math.nan
    return pick(values)


def _result(ctx, name, claim, residual, base_tol, detail=None) -> CheckResult:
    tol, residual = ctx.tol(base_tol), float(residual)
    detail = detail or {}
    if not math.isfinite(residual):
        detail = {**detail, "non_finite_residual": str(residual)}
    return CheckResult(name, claim, residual, tol, bool(residual <= tol), detail)


def check_root_datum(ctx: CheckContext) -> CheckResult:
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
    return _result(ctx, "root-datum-exact",
                   "coweight expansion inverts the transposed Cartan matrix exactly",
                   violations, 0.0)


def check_dual_basis(ctx: CheckContext) -> CheckResult:
    n = ctx.cfg.n
    rng = ctx.rng("dual-basis")
    worst = 0.0
    basis = liecore.su_basis(n)
    dual = liecore.dual_basis(basis, liecore.TRACE_FORM)
    for a in range(len(basis)):
        for b in range(len(basis)):
            worst = _worst(worst, abs(liecore.pair(basis[a], dual[b]) - (a == b)))
    rbasis = liecore.sl_real_basis(n)
    rdual = liecore.dual_basis(rbasis, liecore.IM_FORM)
    for a in range(0, len(rbasis), 3):
        for b in range(0, len(rbasis), 3):
            worst = _worst(worst,
                           abs(liecore.pair(rbasis[a], rdual[b], liecore.IM_FORM) - (a == b)))
    z = liecore.random_algebra_element(n, rng)
    recon = sum(liecore.pair(z, dual[a]) * basis[a] for a in range(len(basis)))
    worst = _worst(worst, float(np.linalg.norm(recon - z)))
    return _result(ctx, "dual-basis", "dual bases satisfy the defining pairing identity",
                   worst, 1e-12)


def check_apposition(ctx: CheckContext) -> CheckResult:
    n = ctx.cfg.n
    rng = ctx.rng("apposition-torus")
    spec = liecore.special_elements(n)
    ortho = 0.0
    for j in range(n - 1):
        d1 = np.zeros(n)
        d1[j], d1[j + 1] = 1.0, -1.0
        t1 = 1j * np.diag(d1)
        for k in range(n - 1):
            d2 = np.zeros(n)
            d2[k], d2[k + 1] = 1.0, -1.0
            t2 = liecore.apposition_algebra_element(d2, spec)
            ortho = _worst(ortho, abs(liecore.pair(t1, t2)))
    bad = 0
    for _ in range(200):
        t = liecore.diagonal_torus_element(rng.uniform(0, 2 * np.pi, n))
        tp = liecore.apposition_torus_element(rng.uniform(0, 2 * np.pi, n), spec)
        if np.linalg.norm(t - tp) <= 1e-8:
            if min(np.linalg.norm(t - z) for z in spec.center) > 1e-8:
                bad += 1
    # the coxeter representative must normalize the diagonal torus
    d = np.diag(rng.uniform(-1, 1, n) + 0j)
    d -= np.trace(d) / n * np.eye(n)
    conj = spec.coxeter_rep @ (1j * d) @ spec.coxeter_rep.conj().T
    offdiag = float(np.linalg.norm(conj - np.diag(np.diag(conj))))
    resid = _worst(ortho, offdiag / 1e4) + bad
    return _result(ctx, "apposition-torus",
                   "second torus meets the diagonal torus only in the center, "
                   "with trace-orthogonal algebras", resid, 1e-12,
                   {"orthogonality": ortho, "intersection_violations": bad})


def check_commutator_identity(ctx: CheckContext) -> CheckResult:
    worst = 0.0
    for n in range(2, 6):
        rng = ctx.rng(f"commutator-identity-{n}")
        for _ in range(50):
            h = rng.uniform(-2.5, 2.5, n)
            h -= h.mean()
            worst = _worst(worst, probes.commutator_identity_residual(h, n))
    return _result(ctx, "coxeter-commutator-identity",
                   "the Coxeter conjugation commutator reproduces every torus element",
                   worst, 1e-10)


def check_commutator_solve(ctx: CheckContext) -> CheckResult:
    worst = 0.0
    for n in range(2, 6):
        rng = ctx.rng(f"commutator-solve-{n}")
        for _ in range(10):
            xi = probes.alcove_interior(n, rng)
            a, b = probes.commutator_solve(xi, n)
            target = np.diag(np.exp(1j * xi))
            worst = _worst(worst, float(np.linalg.norm(
                a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - target)))
            a2, b2 = probes.solve_commutator_in_torus(xi, n)
            worst = _worst(worst, float(np.linalg.norm(
                a2 @ b2 @ np.linalg.inv(a2) @ np.linalg.inv(b2) - target)))
    return _result(ctx, "commutator-solve",
                   "torus commutator solutions hit their alcove targets", worst, 1e-10)


def check_iwasawa(ctx: CheckContext) -> CheckResult:
    n = ctx.cfg.n
    rng = ctx.rng("iwasawa")
    worst = unique = 0.0
    for _ in range(20):
        x = liecore.random_sl_element(n, rng)
        f = decomp.iwasawa_decompose(x)
        worst = _worst(worst, float(np.linalg.norm(x - f.u_left @ np.linalg.inv(f.b_right))))
        worst = _worst(worst, float(np.linalg.norm(x - f.b_left @ f.u_right.conj().T)))
        f2 = decomp.iwasawa_decompose(f.u_left @ np.linalg.inv(f.b_right))
        unique = _worst(unique, float(np.linalg.norm(f2.u_left - f.u_left)),
                     float(np.linalg.norm(f2.b_right - f.b_right)))
    return _result(ctx, "iwasawa-roundtrip",
                   "both unitary/triangular splittings reconstruct and are unique",
                   _worst(worst, unique / 10), 1e-12, {"uniqueness": unique})


def check_posdef(ctx: CheckContext) -> CheckResult:
    n = ctx.cfg.n
    rng = ctx.rng("posdef")
    worst = 0.0
    for _ in range(20):
        b = decomp.iwasawa_decompose(liecore.random_sl_element(n, rng)).b_right
        p = decomp.posdef_of_borel(b)
        worst = _worst(worst, float(np.linalg.norm(decomp.borel_of_posdef(p) - b)))
    return _result(ctx, "posdef-roundtrip",
                   "the positive part map and its triangular inverse are mutually inverse",
                   worst, 1e-12)


def check_dressing(ctx: CheckContext) -> CheckResult:
    n = ctx.cfg.n
    rng = ctx.rng("dressing")
    worst = 0.0
    for _ in range(20):
        b = decomp.iwasawa_decompose(liecore.random_sl_element(n, rng)).b_right
        eta = liecore.random_group_element(n, rng)
        lhs = decomp.posdef_of_borel(decomp.dress(eta, b))
        rhs = eta @ decomp.posdef_of_borel(b) @ eta.conj().T
        worst = _worst(worst, float(np.linalg.norm(lhs - rhs)))
    return _result(ctx, "dressing-equivariance",
                   "the positive part intertwines dressing with conjugation", worst, 1e-10)


# Borel draws per gradient-oracles point: about 0.3% are accepted at n = 6 and
# almost none at n >= 7, where the check then aborts with a SamplingFailure
BOREL_DRAWS = 4096


def check_gradient_oracles(ctx: CheckContext) -> CheckResult:
    n = ctx.cfg.n
    datum = ctx.datum
    rng = ctx.rng("gradient-oracles")
    worst = 0.0
    from .observables import (AlcoveCoroot, AlcoveCoweight, AlgebraPower,
                              BorelChamberCoroot, BorelPower, ChamberCoroot, PowerTrace)
    def regular_group():
        return harness_mod.sample_regular(
            "group", 64, lambda: liecore.random_group_element(n, rng),
            lambda g: decomp.alcove_diagonalize(g, 0.05))

    def regular_algebra():
        return harness_mod.sample_regular(
            "algebra", 64, lambda: liecore.random_algebra_element(n, rng),
            lambda j_alg: decomp.chamber_diagonalize(j_alg, 0.05))

    def regular_borel():
        return harness_mod.sample_regular(
            "Borel", BOREL_DRAWS,
            lambda: decomp.iwasawa_decompose(liecore.random_sl_element(n, rng)).b_right,
            lambda b: decomp.borel_chamber_diagonalize(b, 0.05))

    group_fns = [PowerTrace(1), PowerTrace(2), AlcoveCoroot(0, datum),
                 AlcoveCoweight(datum.rank - 1, datum)]
    algebra_fns = [AlgebraPower(2), ChamberCoroot(0, datum)]
    borel_fns = [BorelPower(1), BorelChamberCoroot(0, datum)]
    for _ in range(30):
        g = regular_group()
        j_alg = regular_algebra()
        b = regular_borel()
        exacts = ([fn.grad(g) for fn in group_fns] + [fn.grad(j_alg) for fn in algebra_fns]
                  + [fn.grad(b) for fn in borel_fns])
        fds = (brackets.group_gradient_fd(group_fns, g)
               + brackets.algebra_gradient_fd(algebra_fns, j_alg)
               + brackets.borel_gradient_fd(borel_fns, b))
        for exact, fd in zip(exacts, fds):
            worst = _worst(worst, float(np.linalg.norm(exact - fd) / (1 + np.linalg.norm(exact))))
    return _result(ctx, "gradient-oracles",
                   "closed-form gradients match fourth-order central differences",
                   worst, 1e-6)


def check_shifting_trick(ctx: CheckContext) -> CheckResult:
    n = ctx.cfg.n
    worst = 0.0
    for label, (m, holes) in (("four-holes", (0, 4)), ("one-handle", (1, 2))):
        rng = ctx.rng(f"shifting-{label}")
        small = moduli_space(m, holes - 1, n)
        for _ in range(3):
            u = small.random_point(rng)
            big_point = embed_shift(u)
            lifted = []
            if m == 1:
                words_small = [("a1", "b1"), ("a1", "c1"), ("b1", "c1", "a1")]
            else:
                words_small = [("c1", "c2"), ("c1", "c3"), ("c2", "c3", "c1")]
            for w in words_small:
                lifted.append(word_observable(w))
            m_small = brackets.bracket_matrix(lifted, lifted, u)
            m_big = brackets.bracket_matrix(lifted, lifted, big_point)
            worst = _worst(worst, _above_diagonal(m_small - m_big))
            level = float(np.linalg.norm(big_point.momentum() - np.eye(n)))
            if level > 1e-10:
                worst = _worst(worst, 1.0)
    return _result(ctx, "shifting-trick",
                   "brackets on the unit momentum level match the reduced model space",
                   worst, 1e-6)


# --- per-space dynamical checks ---------------------------------------------

def flow_derivatives(x, gens, obs) -> np.ndarray:
    """d/dt of each probe along each generator's flow at x, (probes, generators), by one
    Richardson-extrapolated central difference per generator (the plain h^4 truncation
    error along cotangent flows at n >= 5 reaches the check's tolerance)."""
    values = lambda p: np.array([o(p) for o in obs])
    return np.array([brackets.directional_derivative(values, lambda t, g=g: g.flow(x, t),
                                                     richardson=True) for g in gens]).T


def flow_bracket_worst(h, x, gens, obs, oracle: bool = True) -> float:
    """Largest relative defect between flow derivatives and brackets at x: the closed-form
    velocities paired with the probes' stacked tables and, with ``oracle``, the flows'
    finite-difference derivatives (``flow_derivatives``)."""
    rows = brackets.gradient_stack(obs, x)
    mat = brackets.bracket_from_stacks(rows, brackets.gradient_stack([g.obs for g in gens], x), x)
    derivs = [brackets.velocity_pairings(rows, [g.velocity(x) for g in gens], x)]
    if oracle:
        derivs.append(flow_derivatives(x, gens, obs))
    return _worst(*(float(np.max(np.abs(d - mat) / (1.0 + np.abs(mat)))) for d in derivs))


def all_generators(h) -> list:
    return [g for fam in h.families().values() for g in fam] + h.extra_generators()


def check_flow_bracket(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("flow-bracket")
    obs = h.probes()
    worst = 0.0
    gens = all_generators(h)
    for k in range(ctx.cfg.points):
        x = h.sample(rng)
        worst = _worst(worst, flow_bracket_worst(h, x, gens, obs, oracle=k == 0))
    return _result(ctx, "flow-bracket",
                   "exact flows differentiate to the bracket against the probe family",
                   worst, 1e-6, {"points": ctx.cfg.points, "observables": len(obs),
                                 "generators": len(gens)})


def check_abelian(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("abelian-family")
    worst = 0.0
    for fam_name, gens in h.families().items():
        obs = [g.obs for g in gens]
        for _ in range(max(2, ctx.cfg.points // 3)):
            x = h.sample(rng)
            worst = _worst(worst, _above_diagonal(brackets.bracket_matrix(obs, obs, x)))
    return _result(ctx, "abelian-family",
                   "family generators pairwise bracket-commute", worst, 1e-6)


def check_flow_commutation(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("flow-commutation")
    worst = 0.0
    for fam_name, gens in h.families().items():
        for _ in range(2):
            x = h.sample(rng)
            for i in range(len(gens)):
                for j in range(i + 1, len(gens)):
                    a = gens[j].flow(gens[i].flow(x, 0.3), 0.7)
                    b = gens[i].flow(gens[j].flow(x, 0.7), 0.3)
                    worst = _worst(worst, a.distance(b))
    return _result(ctx, "flow-commutation",
                   "family flows compose identically in either order", worst, 1e-8)


def check_conservation(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("conservation")
    worst = 0.0
    fams = h.families()
    taus = (0.35, 0.9, 1.8)
    detail = {}
    for spec in h.conserved():
        gens = fams.get(spec.family, [])
        local = 0.0
        for _ in range(3):
            x = h.sample(rng)
            base = np.asarray(spec.fn(x))
            for gen in gens:
                for t in taus:
                    moved = np.asarray(spec.fn(gen.flow(x, t)))
                    local = _worst(local, float(np.max(np.abs(moved - base))))
        detail[f"{spec.name}({spec.family})"] = local
        worst = _worst(worst, local)
    return _result(ctx, "conservation",
                   "momentum maps and companion invariants are constant along family flows",
                   worst, 1e-10, detail)


def check_heisenberg_conjugation_law(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("unitary-conjugation-law")
    worst = 0.0
    from .observables import AlcoveCoroot, PowerTrace
    for _ in range(4):
        x = h.sample(rng)
        u0 = x.factors().u_right
        for fn in [PowerTrace(2), AlcoveCoroot(0, ctx.datum)]:
            for t in (0.3, 1.1):
                moved = flows.heisenberg_flow(x, fn, t)
                gamma = flows.heisenberg_flow_unitary_part(x, fn, t)
                resid = np.linalg.norm(moved.factors().u_right - gamma @ u0 @ gamma.conj().T)
                worst = _worst(worst, float(resid))
    return _result(ctx, "unitary-conjugation-law",
                   "the right unitary factor evolves by conjugation along class flows",
                   worst, 1e-9)


def check_quasi_adjoint_law(ctx: CheckContext) -> CheckResult:
    n = ctx.cfg.n
    rng = ctx.rng("quasi-adjoint-law")
    worst = 0.0
    for _ in range(6):
        x = ctx.harness.sample(rng)
        eta = liecore.random_group_element(n, rng)
        f = x.factors()
        moved = x.conjugate(eta)
        twist = decomp.iwasawa_decompose(eta @ f.b_left).u_right.conj().T
        fm = moved.factors()
        worst = _worst(worst, float(np.linalg.norm(
            fm.u_right - twist @ f.u_right @ twist.conj().T)))
        worst = _worst(worst, float(np.linalg.norm(fm.b_right - decomp.dress(twist, f.b_right))))
    return _result(ctx, "quasi-adjoint-law",
                   "the symmetry action transforms the right factors by twist and dressing",
                   worst, 1e-9)


def check_torus_periodicity(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("torus-periodicity")
    worst = 0.0
    detail = {}
    for spec in h.torus_specs():
        if not spec.periodic:
            continue
        local = 0.0
        for _ in range(3):
            x = h.sample(rng)
            for j in range(spec.dim):
                tau = np.zeros(spec.dim)
                tau[j] = 2 * np.pi
                local = _worst(local, spec.act(x, tau).distance(x))
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
    return _result(ctx, "torus-periodicity",
                   "compact-direction flows close up after one full period", worst,
                   1e-8, detail)


def check_torus_additivity(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("torus-additivity")
    worst = 0.0
    detail = {}
    # angles are capped; the noncompact directions are proper but unbounded,
    # so the conditioning of the positive factorization is reported alongside
    for spec in h.torus_specs():
        for _ in range(3):
            x = h.sample(rng)
            t1 = rng.uniform(-1.0, 1.0, spec.dim)
            t2 = rng.uniform(-1.0, 1.0, spec.dim)
            a = spec.act(spec.act(x, t1), t2)
            b = spec.act(x, t1 + t2)
            worst = _worst(worst, a.distance(b))
        if ctx.cfg.space == "heisenberg" and spec.name == "borel-translation":
            x = h.sample(rng)
            tau = np.full(spec.dim, 1.0)
            beta = flows.positive_factorization(tau, x.factors().u_right, ctx.datum)
            detail["translation-conditioning"] = float(np.linalg.cond(beta))
    return _result(ctx, "torus-additivity",
                   "torus action maps compose additively in the angles", worst, 1e-9,
                   detail)


def check_torus_vs_flows(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("torus-vs-flows")
    worst = 0.0
    for spec in h.torus_specs():
        for _ in range(2):
            x = h.sample(rng)
            tau = rng.uniform(-0.8, 0.8, spec.dim)
            a = spec.act(x, tau)
            b = x
            for flow, t in zip(spec.flows, tau):
                b = flow(b, t)
            worst = _worst(worst, a.distance(b))
    return _result(ctx, "torus-vs-flows",
                   "the joint torus action equals composed generator flows", worst, 1e-8)


def check_flow_equivariance(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("flow-equivariance")
    worst = 0.0
    gens = [g for fam in h.families().values() for g in fam]
    for _ in range(2):
        x = h.sample(rng)
        eta = liecore.random_group_element(ctx.cfg.n, rng)
        for gen in gens:
            for t in (0.45,):
                a = gen.flow(x.conjugate(eta), t)
                b = gen.flow(x, t).conjugate(eta)
                worst = _worst(worst, a.distance(b))
    return _result(ctx, "flow-equivariance",
                   "every family flow commutes with the symmetry action", worst, 1e-9)


def check_bracket_invariance(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("bracket-invariance")
    worst = 0.0
    obs = [g.obs for fam in h.families().values() for g in fam][:3]
    for _ in range(2):
        x = h.sample(rng)
        eta = liecore.random_group_element(ctx.cfg.n, rng)
        y = x.conjugate(eta)
        worst = _worst(worst, _above_diagonal(brackets.bracket_matrix(obs, obs, x)
                                           - brackets.bracket_matrix(obs, obs, y)))
    return _result(ctx, "bracket-invariance",
                   "brackets of invariant observables are symmetry invariant",
                   worst, 1e-8)


def check_isotropy(ctx: CheckContext) -> CheckResult:
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
    return _result(ctx, "isotropy-crafted",
                   "crafted points have trivial combined infinitesimal stabilizer "
                   "and are fixed by the center", worst, 0.0, detail)


def check_freeness_rank(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("freeness-rank")
    failures = 0
    min_disp = np.inf
    for _ in range(20):
        x = h.sample(rng)
        for spec in h.torus_specs():
            action = probes.ActionSpec(spec.name, spec.curves(), spec.dim)
            rank, _ = probes.rank_of(probes.generator_matrix(x, action))
            if rank != spec.dim:
                failures += 1
            if spec.periodic:
                tau = rng.uniform(0.1, 2 * np.pi - 0.1, spec.dim)
            else:
                tau = rng.uniform(0.1, 1.2, spec.dim) * rng.choice([-1.0, 1.0], spec.dim)
            disp = spec.act(x, tau).distance(x)
            min_disp = _worst(min_disp, disp, pick=min)
    shortfall = _worst(0.0, 1e-4 - min_disp)
    return _result(ctx, "freeness-rank",
                   "torus generators have full rank and nontrivial angles move points",
                   failures + shortfall, 0.0, {"min_displacement": float(min_disp)})


def check_differential_rank(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("differential-rank")
    failures = 0
    detail = {}
    gens = [g for fam in h.families().values() for g in fam]
    fns = [g.obs for g in gens]
    expected_min = sum(spec.dim for spec in h.torus_specs())
    for k in range(3):
        x = h.sample(rng)
        rank, sv = probes.rank_of(probes.differential_matrix(x, fns))
        detail[f"point-{k}"] = rank
        if rank < expected_min:
            failures += 1
    detail["expected_min"] = expected_min
    return _result(ctx, "differential-rank",
                   "family differentials span at least the torus dimension", failures,
                   0.0, detail)


def check_momentum_condition(ctx: CheckContext) -> CheckResult:
    h = ctx.harness
    rng = ctx.rng("momentum-condition")
    worst = 0.0
    obs = h.probes()[:3]
    kfns = [lambda g: float(np.trace(g).real),
            lambda g: float(np.trace(g @ g).imag)]
    for _ in range(2):
        x = h.sample(rng)
        worst = _worst(worst, float(np.max(brackets.momentum_condition_matrix(obs, kfns, x))))
    return _result(ctx, "momentum-condition",
                   "the bivector and the product momentum map satisfy the defining relation",
                   worst, 1e-6)


def check_s_transform(ctx: CheckContext) -> CheckResult:
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
    worst = _worst(worst, float(np.linalg.norm(s1 - b.conj().T)))
    # bracket preservation under the automorphism, on invariant observables
    def smap(p):
        aa, bb = p.pair(1)
        m1, m2 = flows.s_transform(aa, bb)
        return FusionPoint(p.space, ((m1, m2),))
    from .observables import pullback
    f1 = word_observable(("a1", "b1"))
    f2 = word_observable(("a1", "a1", "b1"))
    v_target = brackets.bracket_matrix([f1], [f2], smap(x))[0, 0]
    v_source = brackets.bracket_matrix([pullback(f1, smap)], [pullback(f2, smap)], x)[0, 0]
    worst = _worst(worst, abs(v_target - v_source))
    return _result(ctx, "s-transform",
                   "the exchange automorphism acts as stated and preserves brackets",
                   worst, 1e-6)


def check_permutations(ctx: CheckContext) -> CheckResult:
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
    for _ in range(2):
        x = space.random_point(rng)
        y = moduli.permutation_pushforward(x, plan)
        v_target = brackets.bracket_matrix([f_t], [h_t], y)[0, 0]
        v_source = brackets.bracket_matrix([f_s], [h_s], x)[0, 0]
        worst = _worst(worst, abs(v_target - v_source))
    # the pulled-back two-block family stays Abelian on the source space
    def draw():
        cand = space.random_point(rng)
        return cand, moduli.permutation_pushforward(cand, plan)

    def check(drawn):
        for p1, p2 in ((0, 1), (2, 3)):
            val = np.eye(n, dtype=complex)
            for f in range(p1, p2 + 1):
                val = val @ drawn[1].factor_momentum(f)
            decomp.alcove_diagonalize(val, harness_mod.SAMPLING_MARGIN)
    x, _ = harness_mod.sample_regular("permuted", 64, draw, check)
    pulled = []
    for p1, p2 in ((0, 1), (2, 3)):
        for j in range(datum.rank):
            hblock = moduli.WordHamiltonian(("span", p1, p2), AlcoveCoweight(j, datum))
            pulled.append(moduli.pullback_hamiltonian(hblock, plan))
    worst = _worst(worst, _above_diagonal(brackets.bracket_matrix(pulled, pulled, x)))
    return _result(ctx, "permutation-brackets",
                   "factor transpositions preserve brackets and pulled-back families commute",
                   worst, 1e-6, {"plan": plan})


BASE_CHECKS = {
    "root-datum-exact": check_root_datum,
    "dual-basis": check_dual_basis,
    "apposition-torus": check_apposition,
    "coxeter-commutator-identity": check_commutator_identity,
    "commutator-solve": check_commutator_solve,
    "iwasawa-roundtrip": check_iwasawa,
    "posdef-roundtrip": check_posdef,
    "dressing-equivariance": check_dressing,
    "gradient-oracles": check_gradient_oracles,
    "shifting-trick": check_shifting_trick,
    "flow-bracket": check_flow_bracket,
    "abelian-family": check_abelian,
    "flow-commutation": check_flow_commutation,
    "conservation": check_conservation,
    "torus-periodicity": check_torus_periodicity,
    "torus-additivity": check_torus_additivity,
    "torus-vs-flows": check_torus_vs_flows,
    "flow-equivariance": check_flow_equivariance,
    "bracket-invariance": check_bracket_invariance,
    "isotropy-crafted": check_isotropy,
    "freeness-rank": check_freeness_rank,
    "differential-rank": check_differential_rank,
}

# Checks that read neither the space nor its harness.  run_scenario keeps their results
# for the life of the process in SPACE_FREE_RESULTS, keyed on (name, seed, tol_scale) and
# n; the N_FREE_CHECKS loop over fixed ranges of n and are keyed without it.  Aborted
# checks are never kept, and every report gets its own deep copy of a kept result.
SPACE_FREE_CHECKS = frozenset({
    "root-datum-exact", "dual-basis", "apposition-torus", "coxeter-commutator-identity",
    "commutator-solve", "iwasawa-roundtrip", "posdef-roundtrip", "dressing-equivariance",
    "gradient-oracles", "shifting-trick"})
N_FREE_CHECKS = frozenset({"root-datum-exact", "coxeter-commutator-identity",
                           "commutator-solve"})
SPACE_FREE_RESULTS: dict[tuple, CheckResult] = {}


def checks_for(cfg: ScenarioConfig) -> dict[str, object]:
    table = dict(BASE_CHECKS)
    if cfg.space in ("double", "sphere4", "moduli"):
        table["momentum-condition"] = check_momentum_condition
    if cfg.space == "double":
        table["s-transform"] = check_s_transform
    if cfg.space == "heisenberg":
        table["unitary-conjugation-law"] = check_heisenberg_conjugation_law
        table["quasi-adjoint-law"] = check_quasi_adjoint_law
    if cfg.space == "moduli" and (cfg.m, cfg.holes) == (2, 2):
        table["permutation-brackets"] = check_permutations
    return table


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
            if name in SPACE_FREE_CHECKS:
                key = (name, cfg.seed, cfg.tol_scale) + (() if name in N_FREE_CHECKS
                                                         else (cfg.n,))
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

def _check_flow_request(request) -> None:
    """Clause flow-exports: a dict whose name is a plain file stem, whose family
    is a name, whose generator is an integer and whose times are a
    {start, stop, num} dict or a list of numbers."""
    name = request.get("name", "flow") if isinstance(request, dict) else None
    if (not isinstance(name, str) or name in ("", ".", "..") or "\0" in name
            or os.path.basename(name) != name):
        raise InvalidShape(f"clause flow-exports: {request!r} is not a flow request dict "
                           "whose name is a plain file stem")
    family, gen = request.get("family") or "", request.get("generator", 0)
    if not isinstance(family, str) or not _integer(gen):
        raise InvalidShape(f"clause flow-exports: {request!r} needs a family name and an "
                           "integer generator")
    times = request.get("times", [])
    if isinstance(times, dict):
        ok = (set(times) == {"start", "stop", "num"} and _finite(times["start"])
              and _finite(times["stop"]) and _integer(times["num"]) and times["num"] >= 0)
    else:
        ok = isinstance(times, list) and all(_finite(t) for t in times)
    if not ok:
        raise InvalidShape(f"clause flow-exports: times {times!r} is neither a "
                           "{start, stop, num} dict nor a list of numbers")


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
    times = request.get("times", {"start": 0.0, "stop": 2 * np.pi, "num": 33})
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
    base = [np.asarray(s.fn(x0)) for s in conserved]
    for t in grid:
        pt = gen.flow(x0, float(t))
        row = [f"{t:.17g}"] + [f"{v:.17g}" for _, m in pt.matrices()
                               for z in m.ravel() for v in (z.real, z.imag)]
        for s, b in zip(conserved, base):
            dev = float(np.max(np.abs(np.asarray(s.fn(pt)) - b)))
            row.append(f"{dev:.17g}")
        out.write(",".join(row) + "\n")
    return out.getvalue()
