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
     "bd979c0fd68bafc79fc47e63eda9fee9eb85ea6f0719771a83d7b97f9dd05cef"),
    (dict(space="sphere4", n=3),
     "47cd7994915e7ca301f89d935a4c93e54ca0119e7fd2884aeec3a9df59289536"),
    (dict(space="moduli", n=2, m=2, holes=2, family=DESK_FAMILY),
     "fbffac26b546196afc6bff76ee635486f054ff9889d0883eb14e413e8d739b53"),
    (dict(space="cotangent", n=5),
     "f9e4ffa257b407a007e3837de9408a9c56f1bcafa59e3db92b3c8d0facfd6ce2"),
    (dict(space="double", n=3, family="htilde"),
     "2c6eeff473bd638dc6aa12507d23adf76704c831744e8ad1af281c90f0a62b3a"),
    (dict(space="moduli", n=3, m=1, holes=3, family={"single": [1], "intervals": [[1, 2]]}),
     "044e8c08392595d787924ce38f7fb776bafa426301806d96919d4fa311100718"),
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
