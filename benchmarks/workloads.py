"""Workload definitions: the scenario configs each benchmark workload runs.

A workload is a list of scenario configs (the JSON a `sunflows verify` user
writes) run one after another in one process.  The seed comes from the
command line and is written into every config, so the same seed always gives
the same report bodies.
"""

from __future__ import annotations

DEFAULT_SEED = 42

# Family used by the moduli scenario of the desk sweep: one single block, one
# commutator block and one interval, i.e. every block kind the validator knows.
MODULI_FAMILY = {"single": [1], "commutators": [2], "intervals": [[1, 2]]}

WORKLOADS = {
    "heisenberg-n3": {
        "why": "one Heisenberg n=3 suite: the Iwasawa-heavy path "
               "(logm, qr and solve_triangular on 3x3 matrices)",
        "scenarios": [{"space": "heisenberg", "n": 3}],
    },
    "desk-sweep": {
        "why": "cotangent, double and sphere4 at n=3 plus moduli n=2 in one "
               "process: fusion brackets dominate and the space-independent "
               "checks repeat four times",
        "scenarios": [
            {"space": "cotangent", "n": 3},
            {"space": "double", "n": 3},
            {"space": "sphere4", "n": 3},
            {"space": "moduli", "n": 2, "m": 2, "holes": 2, "family": MODULI_FAMILY},
        ],
    },
    "cotangent-n5": {
        "why": "one cotangent n=5 suite: the top of desk scale, the largest "
               "finite-difference tables and the thinnest flow-bracket margin",
        "scenarios": [{"space": "cotangent", "n": 5}],
    },
}

# Not part of BENCHMARK.json: a few-second workload for the benchmark's own test.
TEST_WORKLOADS = {
    "tiny": {
        "why": "double n=2 with two cheap checks, for the benchmark's own test",
        "scenarios": [{"space": "double", "n": 2,
                       "checks": ["dual-basis", "flow-bracket"]}],
    },
}


def scenario_configs(workload: str, seed: int) -> list[dict]:
    """The workload's configs with the seed filled in."""
    spec = WORKLOADS.get(workload) or TEST_WORKLOADS.get(workload)
    if spec is None:
        known = sorted(WORKLOADS) + sorted(TEST_WORKLOADS)
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(known)}")
    return [dict(cfg, seed=seed) for cfg in spec["scenarios"]]
