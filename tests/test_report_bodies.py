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
     "b249b9405f456e63c8c50ed0da7fe5fdcaabe7dbca5e37c2436139e52571b83f"),
    (dict(space="cotangent", n=3),
     "1c7a5414b3fbaa79c18ba944a4b7c8d69bb432d7c94af456f50ef478d25a84b5"),
    (dict(space="double", n=3),
     "96d4dc6db3aec2d1af2258e2ef793eb5aae06ab447a428e1e1f0a8f5d1cfbdc1"),
    (dict(space="sphere4", n=3),
     "e1626b188e0bc33f3c79c6bd51bbcd9d6a86e209be3fb8a47543f24d4a2e3c26"),
    (dict(space="moduli", n=2, m=2, holes=2, family=DESK_FAMILY),
     "ca39343c758642a81db27bbca305ad18c987f7255ec1294ff78f259152737c54"),
    (dict(space="cotangent", n=5),
     "7c763b3ccdaebed56c6bbc8636bb4468a8844bcaeb52204fad0712636686e4db"),
    (dict(space="double", n=3, family="htilde"),
     "6f8dec13e05575f1032b640de4f76791426db3fadd24a500a8dca6e826f5411d"),
    (dict(space="moduli", n=3, m=1, holes=3, family={"single": [1], "intervals": [[1, 2]]}),
     "8b66ad62263e7b5ff91a271787ddbf44a736797e27d4996c1ffaf804cba5c9ac"),
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
