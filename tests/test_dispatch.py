"""Flows, velocities and torus actions find each geometry's function at the time of the call.

A generator holds only its observable and a torus spec only its generators, so a function
set on ``flows`` or ``moduli`` after a harness's generators and torus specs are built (a
benchmark tracer's span, a mutation row's defect) is the one that their runs and torus
actions call.
"""

from collections import Counter

import numpy as np

from sunflows import flows, harness, liecore, moduli
from sunflows.scenario import all_generators

FAMILY = {"single": [1], "commutators": [2], "intervals": [[1, 2]]}
# each harness kind, with the prefix of the geometry functions it reaches
SPACES = {"cotangent": ({}, "cotangent"), "heisenberg": ({}, "heisenberg"),
          "double": ({}, "moduli"), "double-htilde": ({"family": "htilde"}, "moduli"),
          "sphere4": ({}, "moduli"), "moduli": ({"m": 2, "holes": 2, "family": FAMILY}, "moduli")}
KERNELS = [(flows, f"{prefix}_{what}") for prefix in ("cotangent", "heisenberg")
           for what in ("flow", "velocity", "torus_action")]
KERNELS += [(moduli, f"moduli_{what}") for what in ("flow", "velocity", "torus_action")]


def test_runs_and_torus_actions_reach_functions_set_after_the_build(monkeypatch):
    built = {}
    for label, (fields, _) in SPACES.items():
        h = harness.build_harness(label.split("-")[0], 2, liecore.build_root_datum(2), **fields)
        built[label] = h, harness.runs(all_generators(h)), h.torus_specs()
    calls = Counter()
    for module, name in KERNELS:
        def counting(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counting)
    for label, (h, runs, specs) in built.items():
        prefix = SPACES[label][1]
        rng = np.random.default_rng(6)
        x = h.sample_stack(rng, 2)
        for what, call, count in (
                ("flow", lambda: [run.flow(x, 0.3) for run in runs], len(runs)),
                ("velocity", lambda: [run.velocity(x) for run in runs], len(runs)),
                ("torus_action",
                 lambda: [spec.act(x, rng.uniform(-1, 1, (2, spec.dim))) for spec in specs],
                 len(specs))):
            calls.clear()
            call()
            assert calls == Counter({f"{prefix}_{what}": count}), (label, what)
