import functools
import json

import numpy as np
import pytest

from sunflows import cli, harness, liecore
from sunflows.errors import InvalidShape
from sunflows.scenario import (
    DEFAULT_TIMES,
    MAX_EXPORT_TIMES,
    MAX_FAMILY_GENERATORS,
    MAX_MODULI_FACTORS,
    MAX_POINTS,
    ScenarioConfig,
    derived_rng,
    emit_report,
    export_trajectory,
    run_scenario,
)


def small_config(**kw):
    base = dict(space="double", n=2, family="h", seed=42, points=3)
    base.update(kw)
    return ScenarioConfig(**base)


def test_minimal_double_scenario_passes():
    rep = run_scenario(small_config())
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "flow-bracket" in names and "isotropy-crafted" in names


def test_reports_are_deterministic():
    r1 = run_scenario(small_config())
    r2 = run_scenario(small_config())
    assert emit_report(r1, "json") == emit_report(r2, "json")
    assert emit_report(r1, "text") == emit_report(r2, "text")
    r3 = run_scenario(small_config(seed=7))
    assert emit_report(r1, "json") != emit_report(r3, "json")


def test_json_roundtrip_preserves_residuals():
    rep = run_scenario(small_config(checks=["iwasawa-roundtrip", "posdef-roundtrip"]))
    data = json.loads(emit_report(rep, "json"))
    assert data["schema_version"] == "1"
    by_name = {c["name"]: c for c in data["checks"]}
    for c in rep.checks:
        assert by_name[c.name]["residual"] == c.residual


def test_text_format_one_line_per_check():
    rep = run_scenario(small_config(checks=["root-datum-exact", "dual-basis"]))
    text = emit_report(rep, "text")
    lines = [l for l in text.splitlines() if l.startswith("[")]
    assert len(lines) == 2
    assert all(l.startswith("[PASS]") or l.startswith("[FAIL]") for l in lines)


def test_unknown_check_rejected():
    with pytest.raises(InvalidShape):
        run_scenario(small_config(checks=["no-such-check"]))


def test_config_validation_clauses():
    with pytest.raises(InvalidShape) as err:
        ScenarioConfig(space="torus").validate()
    assert "clause space" in str(err.value)
    with pytest.raises(InvalidShape) as err:
        ScenarioConfig(space="double", n=1).validate()
    assert "clause group-size" in str(err.value)
    with pytest.raises(InvalidShape) as err:
        ScenarioConfig(space="double", family="q").validate()
    assert "clause double-family" in str(err.value)
    from sunflows.errors import AssumptionViolation
    with pytest.raises(AssumptionViolation) as err:
        ScenarioConfig(space="moduli", n=2, m=0, holes=3,
                       family={"intervals": [[1, 3]]}).validate()
    assert "m0-proper" in str(err.value)
    with pytest.raises(InvalidShape) as err:
        ScenarioConfig.from_dict({"space": "double", "bogus": 1})
    assert "unknown config fields" in str(err.value)


def _rejected_clause(fields: dict) -> str:
    cfg = ScenarioConfig.from_json(json.dumps({"space": "double", "n": 3, **fields}))
    with pytest.raises(InvalidShape) as err:
        cfg.validate()
    return str(err.value)


@pytest.mark.parametrize("fields", [{"n": "3"}, {"n": 3.0}, {"m": "0"}, {"holes": 0.5},
                                    {"seed": "42"}, {"points": 2.5}, {"points": True}])
def test_config_validation_integer_clause(fields):
    assert "clause integer" in _rejected_clause(fields)


@pytest.mark.parametrize("points", [-1, 0, 1, MAX_POINTS + 1, 10**7])
def test_config_validation_points_clause(points):
    assert "clause points" in _rejected_clause({"points": points})


@pytest.mark.parametrize("points", [2, MAX_POINTS])
def test_config_validation_admits_points_up_to_the_bound(points):
    ScenarioConfig(space="double", n=3, points=points).validate()


@pytest.mark.parametrize("tol_scale", [-1, 0, "1", float("nan"), float("inf")])
def test_config_validation_tol_scale_clause(tol_scale):
    assert "clause tol-scale" in _rejected_clause({"tol_scale": tol_scale})


@pytest.mark.parametrize("checks", ["flow-bracket", ["flow-bracket", 3], {"flow-bracket": 1}])
def test_config_validation_checks_clause(checks):
    assert "clause checks" in _rejected_clause({"checks": checks})


@pytest.mark.parametrize("root", [[], 3, "double", None])
def test_cli_rejects_a_config_root_that_is_not_an_object(tmp_path, capsys, root):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(root))
    assert cli.main(["verify", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: clause config-root")


@pytest.mark.parametrize("family", [
    {"single": [1], "interval": [[1, 2]]},
    {"single": [1.5]},
    {"single": [True]},
    {"intervals": [[1, 2, 3]]},
    {"nested": [[1, 2]]},
], ids=["misspelled-key", "float-index", "bool-index", "interval-triple", "nested-level-of-ints"])
def test_cli_rejects_malformed_family_specs(tmp_path, capsys, family):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"space": "moduli", "n": 2, "m": 2, "holes": 2,
                                    "family": family, "checks": ["root-datum-exact"]}))
    out = tmp_path / "out"
    assert cli.main(["verify", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: clause family")
    assert not out.exists()


@pytest.mark.parametrize("family", [None, "h", [1]], ids=["omitted", "default", "list"])
def test_cli_asks_a_moduli_config_for_a_family_object(tmp_path, capsys, family):
    """Without a family object the error names what a moduli config needs, not the double's
    default family that the config never wrote."""
    fields = {"space": "moduli", "n": 2, "m": 2, "holes": 2, "checks": ["root-datum-exact"]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(fields if family is None else {**fields, "family": family}))
    out = tmp_path / "out"
    assert cli.main(["verify", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: clause family: a moduli config needs a family object")
    assert all(key in err for key in harness._FAMILY_SHAPES)
    assert "'h'" not in err and not out.exists()
    with pytest.raises(InvalidShape, match="needs a family object"):
        ScenarioConfig(space="moduli", m=2, holes=2, n=2).validate()


@pytest.mark.parametrize("checks", [["dual-basis", "dual-basis"],
                                    ["dual-basis", "no-such-check"]],
                         ids=["repeated", "unknown-after-a-known-one"])
def test_cli_rejects_check_lists_before_any_check_runs(tmp_path, capsys, monkeypatch, checks):
    from sunflows import scenario
    ran = []
    check = scenario.CHECKS["dual-basis"]
    monkeypatch.setitem(scenario.CHECKS, "dual-basis",
                        functools.wraps(check)(lambda ctx: ran.append(ctx)))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"space": "double", "n": 2, "checks": checks}))
    out = tmp_path / "out"
    assert cli.main(["verify", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: clause checks")
    assert ran == [] and not out.exists()


def test_derived_rngs_differ_by_name():
    a = derived_rng(1, "x").standard_normal(4)
    b = derived_rng(1, "y").standard_normal(4)
    c = derived_rng(1, "x").standard_normal(4)
    assert np.allclose(a, c)
    assert not np.allclose(a, b)


def test_trajectory_export_periodicity_and_header():
    cfg = small_config()
    text = export_trajectory(cfg, {
        "name": "loop",
        "family": "h",
        "generator": 2,  # the coroot alcove generator closes after 2*pi
        "times": {"start": 0.0, "stop": 2 * np.pi, "num": 9},
    })
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    header = lines[2].split(",")
    assert header[0] == "tau"
    assert any(h.startswith("conserved:") for h in header)
    first = np.array([float(v) for v in lines[3].split(",")[1:]])
    last = np.array([float(v) for v in lines[-1].split(",")[1:]])
    n_components = sum(1 for h in header if not h.startswith(("tau", "conserved:")))
    assert np.max(np.abs(first[:n_components] - last[:n_components])) <= 1e-8
    # conserved columns report deviation from the initial value
    cons = np.array([float(v) for v in lines[-1].split(",")[1 + n_components:]])
    assert np.max(cons) <= 1e-10


def test_trajectory_export_empty_grid_is_header_only():
    cfg = small_config()
    for times in ([], {"start": 0.0, "stop": 1.0, "num": 0}):
        text = export_trajectory(cfg, {"name": "empty", "times": times})
        lines = text.strip().splitlines()
        assert len(lines) == 3  # two comment lines plus the column header
        assert lines[2].startswith("tau")


@pytest.mark.parametrize("fields", [
    dict(space="cotangent"), dict(space="heisenberg"), dict(space="double", family="htilde"),
    dict(space="sphere4"),
    dict(space="moduli", m=2, holes=2, family={"single": [1], "intervals": [[1, 2]]})],
    ids=lambda fields: fields["space"])
def test_trajectory_export_rows_equal_one_flow_call_per_time(fields):
    """The export flows its whole grid in one call on a stack; its rows are, byte for byte,
    those of one flow call per time at the export's starting point."""
    cfg = ScenarioConfig(n=3, **fields)
    h = harness.build_harness(cfg.space, 3, liecore.build_root_datum(3), family=cfg.family,
                              m=cfg.m, holes=cfg.holes)
    fam, gens = list(h.families().items())[-1]
    times = [0.0, 0.4, -1.3, 2 * np.pi, 1e-3]
    x0 = h.sample(derived_rng(cfg.seed, "flow:ref"))
    rows = []
    for t in times:
        pt = gens[-1].flow(x0, t)
        row = [f"{t:.17g}"] + [f"{v:.17g}" for _, m in pt.matrices()
                               for z in m.ravel() for v in (z.real, z.imag)]
        row += [f"{float(np.max(np.abs(s.fn(pt) - s.fn(x0)))):.17g}"
                for s in h.conserved() if s.family == fam]
        rows.append(",".join(row))
    request = {"name": "ref", "family": fam, "generator": len(gens) - 1, "times": times}
    assert export_trajectory(cfg, request).splitlines()[3:] == rows


def test_trajectory_rejects_bad_requests():
    cfg = small_config()
    with pytest.raises(InvalidShape):
        export_trajectory(cfg, {"family": "nope"})
    with pytest.raises(InvalidShape):
        export_trajectory(cfg, {"family": "h", "generator": 99})


def test_cli_verify_flow_report(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "space": "double", "n": 2, "family": "h", "seed": 42, "points": 2,
        "checks": ["iwasawa-roundtrip", "torus-periodicity", "conservation"],
        "flow_exports": [{"name": "demo", "family": "h", "generator": 2,
                          "times": {"start": 0.0, "stop": 6.283185307179586, "num": 5}}],
    }))
    out = tmp_path / "out"
    code = cli.main(["verify", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists() and (out / "report.txt").exists()
    capsys.readouterr()

    code = cli.main(["flow", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "demo.csv").exists()
    capsys.readouterr()

    code = cli.main(["report", str(out / "report.json"), "--format", "text"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "overall: PASS" in captured

    code = cli.main(["report", str(out / "report.json"), "--format", "json"])
    assert code == 0


@pytest.mark.parametrize("flow_exports", [
    [{"name": "partial-times", "times": {"start": 0}}],
    [{"name": "named-generator", "generator": "x"}],
    "abc",
    [{"name": "../../escape"}],
    [{"name": "a", "generator": 0}, {"name": "a", "generator": 2}],
    [{"name": "flow-1"}, {}],
    [{"name": "x", "tims": [0, 1], "generatr": 3}],
], ids=["times-missing-keys", "generator-not-integer", "not-a-list", "name-escapes-out",
        "repeated-name", "name-repeats-a-default-stem", "unknown-key"])
def test_cli_flow_rejects_malformed_flow_exports(tmp_path, capsys, flow_exports):
    """Malformed requests end in the flow-exports clause and exit 2, before any file is written."""
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps({"space": "double", "n": 2, "family": "h", "seed": 42,
                                    "flow_exports": flow_exports}))
    out = work / "out"
    before = set(tmp_path.rglob("*"))
    assert cli.main(["flow", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: clause flow-exports")
    assert set(tmp_path.rglob("*")) - before <= {out}


@pytest.mark.parametrize("request_", [
    {"name": "loop", "generator": 1, "times": [0.0, 0.5]},
    {"name": "grid", "family": "h", "times": {"start": 0.0, "stop": 1.0, "num": 2}},
])
def test_config_validation_accepts_well_formed_flow_exports(request_):
    small_config(flow_exports=[request_]).validate()


@pytest.mark.parametrize("form", ["grid", "list"])
def test_flow_exports_hold_at_most_the_bounded_number_of_times(form):
    """A {start, stop, num} grid or a list of times is admitted up to MAX_EXPORT_TIMES
    times and refused one past it, before any flow runs."""
    def request(count):
        if form == "grid":
            return {"name": "f", "times": {"start": 0.0, "stop": 1.0, "num": count}}
        return {"name": "f", "times": [0.0] * count}

    small_config(flow_exports=[request(MAX_EXPORT_TIMES)]).validate()
    with pytest.raises(InvalidShape, match="^clause flow-exports"):
        small_config(flow_exports=[request(MAX_EXPORT_TIMES + 1)]).validate()
    with pytest.raises(InvalidShape, match="^clause flow-exports"):
        export_trajectory(small_config(), request(MAX_EXPORT_TIMES + 1))


def test_flow_exports_hold_at_most_the_bounded_number_of_times_in_all():
    """The bound holds for the times summed over the requests, a request without times
    counting its default grid: at the bound the config is admitted, one past it refused."""
    def requests(*counts):
        return [{"name": f"f{k}", "times": [0.0] * c} for k, c in enumerate(counts)]

    half, refused = MAX_EXPORT_TIMES // 2, f"^clause flow-exports: {MAX_EXPORT_TIMES + 1} times"
    small_config(flow_exports=requests(half, MAX_EXPORT_TIMES - half)).validate()
    with pytest.raises(InvalidShape, match=refused):
        small_config(flow_exports=requests(half, MAX_EXPORT_TIMES - half + 1)).validate()
    default = DEFAULT_TIMES["num"]
    defaults = [{"name": f"d{k}"} for k in range(MAX_EXPORT_TIMES // default)]
    small_config(flow_exports=defaults + requests(MAX_EXPORT_TIMES % default)).validate()
    with pytest.raises(InvalidShape, match=refused):
        small_config(flow_exports=defaults + requests(MAX_EXPORT_TIMES % default + 1)).validate()


def test_cli_report_prints_the_files_verify_wrote(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "space": "double", "n": 2, "family": "h", "seed": 42, "points": 2,
        "checks": ["iwasawa-roundtrip", "posdef-roundtrip", "root-datum-exact"],
    }))
    out = tmp_path / "out"
    assert cli.main(["verify", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    for fmt, name in (("text", "report.txt"), ("json", "report.json")):
        assert cli.main(["report", str(out / "report.json"), "--format", fmt]) == 0
        assert capsys.readouterr().out == (out / name).read_text()


@pytest.mark.parametrize("body", [{"schema_version": "1"},
                                  {"schema_version": "1", "space": "double", "n": 2, "seed": 1,
                                   "tol_scale": 1.0, "checks": [{"name": "dual-basis"}]},
                                  {"schema_version": "1", "space": "double", "n": 2, "seed": 1,
                                   "tol_scale": 1.0,
                                   "checks": [{"name": "dual-basis", "claim": "", "residual": "0",
                                               "tol": 1e-9, "passed": True, "detail": {}}]},
                                  {"schema_version": "1", "space": "double", "n": 2, "seed": 1,
                                   "tol_scale": 1.0,
                                   "checks": [{"name": 1, "claim": "", "residual": 0.0,
                                               "tol": 1e-9, "passed": True, "detail": {}},
                                              {"name": "b", "claim": "", "residual": 0.0,
                                               "tol": 1e-9, "passed": True, "detail": {}}]},
                                  {"schema_version": "1", "space": "double", "n": 2, "seed": 1,
                                   "tol_scale": 1.0,
                                   "checks": [{"name": "dual-basis", "claim": "", "residual": 1.0,
                                               "tol": 1e-9, "passed": "yes", "detail": {}}]},
                                  [1, 2]],
                         ids=["no-checks", "missing-fields", "string-residual", "integer-name",
                              "string-passed", "not-a-dict"])
def test_cli_report_rejects_malformed_reports(tmp_path, capsys, body):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(body))
    for fmt in ("text", "json"):
        assert cli.main(["report", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: not a report body")
        assert captured.out == ""


def test_cli_rejects_invalid_family(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "space": "moduli", "n": 2, "m": 0, "holes": 3,
        "family": {"intervals": [[1, 3]]}, "seed": 1,
    }))
    code = cli.main(["verify", str(cfg_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "m0-proper" in err


@pytest.mark.parametrize("holes, intervals, message", [
    (2, [[1, 2]], "clause m0-size: with no double factors (m = 0), need holes >= 3, "
                  "got holes = 2"),
    (3, [[1, 3]], "clause m0-proper: the interval union [1, 2, 3] must be a proper subset of "
                  "the holes 1..3"),
], ids=["m0-size", "m0-proper"])
def test_cli_moduli_clauses_name_the_holes(tmp_path, capsys, holes, intervals, message):
    """The clauses on the holes count name it ``holes`` and show the values that broke them,
    whatever the config's n."""
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"space": "moduli", "n": 3, "m": 0, "holes": holes,
                                    "family": {"intervals": intervals}}))
    assert cli.main(["verify", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_seed_override_changes_report(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "space": "double", "n": 2, "family": "h", "seed": 42, "points": 2,
        "checks": ["conservation"],
    }))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["verify", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["verify", str(cfg_path), "--out", str(out2), "--seed", "43"]) == 0
    capsys.readouterr()
    j1 = json.loads((out1 / "report.json").read_text())
    j2 = json.loads((out2 / "report.json").read_text())
    assert j1["seed"] == 42 and j2["seed"] == 43


def test_cli_env_output_dir(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "space": "double", "n": 2, "family": "h", "seed": 42, "points": 2,
        "checks": ["posdef-roundtrip"],
    }))
    outdir = tmp_path / "envout"
    monkeypatch.setenv("SUNFLOWS_OUTPUT_DIR", str(outdir))
    assert cli.main(["verify", str(cfg_path)]) == 0
    capsys.readouterr()
    assert (outdir / "report.json").exists()


def test_cli_exit_code_reflects_failures(tmp_path, capsys):
    # an absurd tolerance scale turns tiny nonzero residuals into failures
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "space": "double", "n": 2, "family": "h", "seed": 42, "points": 2,
        "checks": ["iwasawa-roundtrip"],
    }))
    code = cli.main(["verify", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--tol-scale", "1e-30"])
    assert code == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out


@pytest.mark.parametrize("fields", [
    {"space": "sphere4", "family": {"bogus": [1.5]}},
    {"space": "cotangent", "m": 3, "holes": 1},
    {"space": "heisenberg", "family": "htilde"},
    {"space": "double", "holes": 2},
], ids=["sphere4-family", "cotangent-m-holes", "heisenberg-family", "double-holes"])
def test_cli_rejects_fields_a_fixed_space_does_not_read(tmp_path, capsys, fields):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"n": 2, "checks": ["root-datum-exact"], **fields}))
    out = tmp_path / "out"
    assert cli.main(["verify", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: clause space-fields")
    assert not out.exists()


@pytest.mark.parametrize("space", ["cotangent", "heisenberg", "sphere4", "double"])
def test_fixed_spaces_accept_the_default_family_m_and_holes(space):
    ScenarioConfig(space=space, n=2, family="h", m=0, holes=0).validate()


@pytest.mark.parametrize("shape", [(-1, 2), (2, -1), (0, 0)], ids=["m<0", "holes<0", "empty"])
def test_cli_rejects_a_moduli_shape_under_a_named_clause(tmp_path, capsys, shape):
    m, holes = shape
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"space": "moduli", "n": 2, "m": m, "holes": holes,
                                    "family": {"single": [1]}}))
    out = tmp_path / "out"
    assert cli.main(["verify", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: clause moduli-shape")
    assert not out.exists()


@pytest.mark.parametrize("m", [0, 1, MAX_MODULI_FACTORS // 2, MAX_MODULI_FACTORS - 1])
def test_moduli_shape_admits_at_most_the_bounded_number_of_factors(m):
    """m + holes up to MAX_MODULI_FACTORS is admitted, one more factor is refused."""
    family = {"single": [1]} if m else {"intervals": [[1, 2]]}
    ScenarioConfig(space="moduli", n=2, m=m, holes=MAX_MODULI_FACTORS - m,
                   family=family).validate()
    with pytest.raises(InvalidShape, match="^clause moduli-shape"):
        ScenarioConfig(space="moduli", n=2, m=m, holes=MAX_MODULI_FACTORS + 1 - m,
                       family=family).validate()


@pytest.mark.parametrize("n", [2, 3, 8])
def test_moduli_family_has_at_most_the_bounded_number_of_generators(n):
    """n - 1 generators per block: up to MAX_FAMILY_GENERATORS is admitted, one more block
    is refused."""
    blocks = MAX_FAMILY_GENERATORS // (n - 1)

    def config(k):
        return ScenarioConfig(space="moduli", n=n, m=blocks + 1, holes=blocks + 1,
                              family={"single": list(range(1, k + 1))})

    config(blocks).validate()
    with pytest.raises(InvalidShape, match="^clause moduli-family-size"):
        config(blocks + 1).validate()
