"""Report bodies and trajectory exports keep their bytes.

Each digest is the sha256 of ``emit_report(run_scenario(cfg), "json")`` or of an
``export_trajectory`` CSV as the code produced it when the pin was taken: the six
scenarios of the benchmark workloads at seed 42, the second-slot double, a one-handle
moduli space with holes, and one trajectory per fusion family.  A change that moves a
body updates its digest here and names the change in CHANGES.md.
"""

import hashlib
import json

import pytest

from sunflows.scenario import ScenarioConfig, emit_report, export_trajectory, run_scenario

DESK_FAMILY = {"single": [1], "commutators": [2], "intervals": [[1, 2]]}

BODIES = [
    (dict(space="heisenberg", n=3),
     "fcfea516c968efb3986fc34dacf51f3522f86d58d8a24e63fc847306507edd4d"),
    (dict(space="cotangent", n=3),
     "5765ea88bd9e99d6a009bcf50b8b789a399693bee0a9a586e537db8e4cd3a2fc"),
    (dict(space="double", n=3),
     "55bce4a38e7667661fbc435757d5910f4acbae456278fce6aed2693ad333be82"),
    (dict(space="sphere4", n=3),
     "79bd757f42e23c0fa9e831b1f2ce89b7cce37baaad3c348a03d3fdea4bc7ba62"),
    (dict(space="moduli", n=2, m=2, holes=2, family=DESK_FAMILY),
     "6f025a0b57496bc31cef98c02c7d7daf13aa30fb1ac0d782bc573b52836879f8"),
    (dict(space="cotangent", n=5),
     "f9e4ffa257b407a007e3837de9408a9c56f1bcafa59e3db92b3c8d0facfd6ce2"),
    (dict(space="double", n=3, family="htilde"),
     "9f0febe7cca36fe0a079c3578e5035cf5d0d279d1cf3ca362d16d4b2af2db9a3"),
    (dict(space="moduli", n=3, m=1, holes=3, family={"single": [1], "intervals": [[1, 2]]}),
     "991ae223453a3439473497d26d57d58fc0139bc11c4b05abd17ba8b0469f767d"),
]

# the first generator of each fusion family at n = 3
TRAJECTORIES = [
    (dict(space="double", n=3, family="h"),
     "140741080028534ab1f1fac1693f675674f5d991e530ba9b30796fe2854ef17c"),
    (dict(space="double", n=3, family="htilde"),
     "89b881a18a3edec80b98c7e2b56b294a1548c3448f910526a312f4a6065f75d4"),
    (dict(space="sphere4", n=3),
     "2632ecdf0ff94c85dcf04ef2a6f84b0673504705fd4de80efe31598f2db4c338"),
    (dict(space="moduli", n=3, m=2, holes=2, family=DESK_FAMILY),
     "c65c3b96109426b78a182e4e89b8ac9d1023fc59e2b764fce2555b443c197479"),
]


def _id(fields):
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fields,digest", BODIES, ids=[_id(f) for f, _ in BODIES])
def test_report_body_keeps_its_bytes(fields, digest):
    body = emit_report(run_scenario(ScenarioConfig(**fields, seed=42)), "json")
    assert _sha(body) == digest


@pytest.mark.parametrize("fields,digest", TRAJECTORIES, ids=[_id(f) for f, _ in TRAJECTORIES])
def test_trajectory_export_keeps_its_bytes(fields, digest):
    csv = export_trajectory(ScenarioConfig(**fields, seed=42), {"name": "pin", "generator": 0})
    assert _sha(csv) == digest
