"""Report bodies and trajectory exports keep their bytes.

Each digest is the sha256 of ``emit_report(run_scenario(cfg), "json")`` or of an
``export_trajectory`` CSV as the code produced it when the pin was taken: the six
scenarios of the benchmark workloads at seed 42, the second-slot double, a one-handle
moduli space with holes, one trajectory per fusion family and one per family of the
cotangent bundle and the Heisenberg double.  A change that moves a
body updates its digest here and names the change in CHANGES.md.
"""

import hashlib
import json

import pytest

from sunflows.scenario import ScenarioConfig, emit_report, export_trajectory, run_scenario

DESK_FAMILY = {"single": [1], "commutators": [2], "intervals": [[1, 2]]}

BODIES = [
    (dict(space="heisenberg", n=3),
     "9b3e2fa57e9f9a5e3c49aa0be38fe3d97af7406fd65d694a1a010f5005a44c92"),
    (dict(space="cotangent", n=3),
     "3f142f5712d6215876f5e783496e18abe6f5d9c9d66e03859db0522a4f40ff41"),
    (dict(space="double", n=3),
     "13c119ff55012faabcc6b045d6d23d1d68b7e8a6ee08f6582b409824f5f671dc"),
    (dict(space="sphere4", n=3),
     "ad88d855103fd2a8a8a668ea7d6fd9e286bd0c61018cd9682407dff865617962"),
    (dict(space="moduli", n=2, m=2, holes=2, family=DESK_FAMILY),
     "563121f15a1a391bebe9e3d8e4ce990882da707f3d3aec1282b670e028d9db3b"),
    (dict(space="cotangent", n=5),
     "7477c062d7cadd8dc3bb05a49bbe39c4a647c255848cf8706a6057cb2746cbd5"),
    (dict(space="double", n=3, family="htilde"),
     "9da07f6683b72c5bdbda843fa9556b5f14aa6196ff6b071e29e2058864a0ae52"),
    (dict(space="moduli", n=3, m=1, holes=3, family={"single": [1], "intervals": [[1, 2]]}),
     "d8fbfbff3b794f6fdd589df7b227ada016483df594ffe8b3cd1b11a7f844c7f8"),
]

# generator 0 of each fusion family (the config's first family) and of each named family of the
# cotangent bundle and the Heisenberg double, at n = 3
TRAJECTORIES = [
    (dict(space="double", n=3, family="h"), None,
     "140741080028534ab1f1fac1693f675674f5d991e530ba9b30796fe2854ef17c"),
    (dict(space="double", n=3, family="htilde"), None,
     "89b881a18a3edec80b98c7e2b56b294a1548c3448f910526a312f4a6065f75d4"),
    (dict(space="sphere4", n=3), None,
     "2632ecdf0ff94c85dcf04ef2a6f84b0673504705fd4de80efe31598f2db4c338"),
    (dict(space="moduli", n=3, m=2, holes=2, family=DESK_FAMILY), None,
     "c65c3b96109426b78a182e4e89b8ac9d1023fc59e2b764fce2555b443c197479"),
    (dict(space="cotangent", n=3), "fiber-invariants",
     "5068f9f0b900e062e292a55b1861c7f112ba0b1dd723fec3e783704ca58ef622"),
    (dict(space="cotangent", n=3), "base-class",
     "5d5c2d06f3e760d1c0b85bffb28883c23a54c80c8ee4869f6010b248bcf74022"),
    (dict(space="heisenberg", n=3), "borel-invariants",
     "593c1ee3ec01de8f7825bedecc0cb27bc01f7fd3cd070e6ee1888e838bb26606"),
    (dict(space="heisenberg", n=3), "unitary-class",
     "6fbe0cc29651fbebcd5ef0f5f03754c8a3f8bab5945acea1d146ece32cafac4f"),
]


def _id(fields):
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fields,digest", BODIES, ids=[_id(f) for f, _ in BODIES])
def test_report_body_keeps_its_bytes(fields, digest):
    body = emit_report(run_scenario(ScenarioConfig(**fields, seed=42)), "json")
    assert _sha(body) == digest


@pytest.mark.parametrize("fields,family,digest", TRAJECTORIES,
                         ids=[_id(f) + (f"@{fam}" if fam else "") for f, fam, _ in TRAJECTORIES])
def test_trajectory_export_keeps_its_bytes(fields, family, digest):
    request = {"name": "pin", "generator": 0} | ({"family": family} if family else {})
    csv = export_trajectory(ScenarioConfig(**fields, seed=42), request)
    assert _sha(csv) == digest
