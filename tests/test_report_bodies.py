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
     "cb710d25147f72343175d364e8794dd9342a357c4463070d4f3e42d83f728dc1"),
    (dict(space="cotangent", n=3),
     "342a410f4f0f0e97b3d0c46ea18823bbb0efe3d5d1c3c7c0d68215abab6d588b"),
    (dict(space="double", n=3),
     "e805e849e5536f2ac807f202350f69a52469dcb7bfc5c55dab028258d82cafed"),
    (dict(space="sphere4", n=3),
     "a9308c206d032f3c37dbfba688dfd15391ae37b596294a98b09487d69ffc7221"),
    (dict(space="moduli", n=2, m=2, holes=2, family=DESK_FAMILY),
     "06b4f681a7767c31ff8670e41584b72ce00fe1f6bf7e47e90dfa2fd06ee948ee"),
    (dict(space="cotangent", n=5),
     "1a07b04bae223d5de449d5468c060b704c6a56f75d1cfadad73800bed043e8d6"),
    (dict(space="double", n=3, family="htilde"),
     "65f6a4f6598bf854c10937496139c3ee1fe12b3675ece060a561247b40d7228e"),
    (dict(space="moduli", n=3, m=1, holes=3, family={"single": [1], "intervals": [[1, 2]]}),
     "7f1b25a2bf7a4d1e80098fdd65c972f26eda0deaf0ebb83c4d1b9020f0213fe7"),
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
