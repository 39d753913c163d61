import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from equiloc.cli import Certificate, Report, main
from equiloc.models import MODELS


def run(args, tmp):
    return main(args + ["--out", str(tmp)])


def _non_json_constant(token):
    # json.dumps writes nan and inf as the bare tokens NaN and Infinity,
    # which strict JSON parsers reject
    raise ValueError(f"report.json holds the non-JSON constant {token}")


def latest_report(tmp):
    runs = sorted(Path(tmp).glob("run-*/report.json"))
    assert runs
    return json.loads(runs[-1].read_text(),
                      parse_constant=_non_json_constant)


def test_dh_command(tmp_path):
    assert run(["dh", "--model", "sphere"], tmp_path) == 0
    rep = latest_report(tmp_path)
    assert rep["passed"]
    assert rep["results"]["mass"] == pytest.approx(4 * 3.141592653589793)
    run_dir = next(Path(tmp_path).glob("run-*"))
    assert (run_dir / "density.csv").exists()
    assert (run_dir / "timings.json").exists()


@pytest.mark.parametrize("argv,name", [
    (["dh", "--model", "sphere"], "density.csv"),
    (["localize", "--model", "sphere"], "localize.csv"),
    (["spexpand", "--model", "fresnel"], "spexpand.csv"),
    (["singular", "--model", "cotangent-circle"], "singular.csv"),
    (["convergence"], "convergence.csv"),
])
def test_csv_cells_are_bare_numbers(argv, name, tmp_path):
    # NumPy scalars would write np.float64(x) cells under NumPy 2
    assert run(argv, tmp_path) == 0
    header, *lines = (next(Path(tmp_path).glob(f"run-*/{name}"))
                      .read_text().splitlines())
    assert lines
    for line in lines:
        cells = line.split(",")
        assert len(cells) == len(header.split(","))
        for cell in cells:
            float(cell)


def test_localize_command_and_reproducibility(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["localize", "--model", "sphere"], a) == 0
    assert run(["localize", "--model", "sphere"], b) == 0
    ra = next(Path(a).glob("run-*/report.json")).read_bytes()
    rb = next(Path(b).glob("run-*/report.json")).read_bytes()
    assert ra == rb


# report.json of the three sphere commands of the exact layer at seed 1,
# pinned byte for byte by its sha256
@pytest.mark.parametrize("command,sha", [
    ("dh",
     "b9c166450c853cee840b548d8210142deec91ce90256b5e6675ddeffbb020583"),
    ("localize",
     "34f16080f0d904ff1a6cb68870c55e78596c47fc8268814d2429612ffe9b7751"),
    ("residue",
     "af67756470787b131b223ab55a7d3b123aa3930c3bc03c7656919fce2a7bff67"),
])
def test_report_pin_sphere_seed_1(command, sha, tmp_path):
    assert run([command, "--model", "sphere", "--seed", "1"], tmp_path) == 0
    report = next(Path(tmp_path).glob("run-*/report.json")).read_bytes()
    assert hashlib.sha256(report).hexdigest() == sha


def test_invalid_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "linear-cotangent", "n": 2,
                  "generators": [[[0, 1], [1, 0]]]}}))
    code = main(["singular", "--config", str(cfg), "--out",
                 str(tmp_path)])
    assert code == 4


def test_unknown_model_kind(tmp_path):
    cfg = tmp_path / "bad2.json"
    cfg.write_text(json.dumps({"model": {"kind": "donut"}}))
    assert main(["dh", "--config", str(cfg), "--out",
                 str(tmp_path)]) == 4


def test_budget_exceeded_exit_code(tmp_path):
    # the 2-D saddle at tiny mu overruns the tensor-grid budget
    code = main(["spexpand", "--model", "saddle", "--mu-sweep",
                 "1e-4:1e-5:2", "--out", str(tmp_path)])
    assert code == 3


def test_resolve_verify_command(tmp_path):
    assert run(["resolve-verify", "--model", "linrot2"], tmp_path) == 0
    rep = latest_report(tmp_path)
    assert rep["results"]["factorization_max_err"] <= 1e-12
    assert rep["results"]["crit_mismatches"] == 0
    assert rep["results"]["rel_gap"] <= 0.01


def test_singular_command_report_schema(tmp_path):
    assert run(["singular", "--model", "cotangent-circle", "--mu-sweep",
                "1e-2:1e-4:5"], tmp_path) == 0
    rep = latest_report(tmp_path)
    assert {"rows", "leading", "kappa", "lambda", "fit",
            "fit_scaled"} <= set(rep["results"].keys())
    run_dir = next(Path(tmp_path).glob("run-*"))
    header = (run_dir / "singular.csv").read_text().splitlines()[0]
    assert header == "mu,oracle,scaled,leading,remainder"


def test_spexpand_cotangent_route(tmp_path):
    assert run(["spexpand", "--model", "cotangent-circle", "--mu-sweep",
                "1e-2:1e-4:5"], tmp_path) == 0
    rep = latest_report(tmp_path)
    assert rep["results"]["fit"]["exponent"] == pytest.approx(2.0,
                                                              abs=0.15)


@pytest.mark.parametrize("argv", [
    ["spexpand", "--model", "fresnel", "--mu-sweep", "1e-1:1e-2:0"],
    ["spexpand", "--model", "fresnel", "--mu-sweep", "1e-1:1e-2:-1"],
    ["spexpand", "--model", "fresnel", "--mu-sweep", "0:1e-2:5"],
    ["convergence", "--mu-sweep", "1e-1:1e-2:3"],
    ["singular", "--model", "cotangent-circle", "--mu-sweep",
     "1e-2:1e-3:4"],
])
def test_malformed_or_unfittable_mu_sweep_exits_4(argv, tmp_path, capsys):
    # these once ran a default sweep, raised from np.geomspace or raised
    # from order_fit
    assert run(argv, tmp_path) == 4
    err = capsys.readouterr().err
    assert "invalid config" in err and "Traceback" not in err
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("command,fields", [
    ("convergence", {"mu": []}),
    ("convergence", {"mu": ["a"]}),
    ("convergence", {"mu": 0.01}),
    ("convergence", {"seed": "1"}),
    ("dh", {"model": {"kind": "sphere"}, "mc_samples": "x"}),
    ("residue", {"model": {"kind": "sphere"}, "eps": []}),
    ("dh", {"model": {"kind": "sphere"}, "bins": 0}),
    ("localize", {"model": {"kind": "sphere"}, "y_values": []}),
    ("localize", {"model": {"kind": "sphere"}, "y_values": [0]}),
    # the Richardson steps need a ladder that halves: these once passed
    # 175x worse than the default ladder, or failed the gate
    ("residue", {"model": {"kind": "cotangent-circle"},
                 "eps": [0.3, 0.2, 0.1, 0.05]}),
    ("residue", {"model": {"kind": "cotangent-circle"},
                 "eps": [0.025, 0.05, 0.1, 0.2]}),
    ("residue", {"model": {"kind": "cotangent-circle"}, "eps": [0.8]}),
])
def test_config_fields_off_the_schema_exit_4(command, fields, tmp_path,
                                             capsys):
    # these once ran the default sweep, raised a TypeError, IndexError or
    # ValueError, or passed with no certificate
    cfg = tmp_path / "fields.json"
    cfg.write_text(json.dumps(fields))
    assert run([command, "--config", str(cfg)], tmp_path) == 4
    err = capsys.readouterr().err
    assert "invalid config" in err and "Traceback" not in err
    assert not list(tmp_path.glob("run-*"))


def test_eps_ladder_that_does_not_halve_writes_no_calibration(tmp_path):
    cfg = tmp_path / "eps.json"
    cfg.write_text(json.dumps({"model": {"kind": "sphere"},
                               "eps": [0.3, 0.2, 0.1, 0.05]}))
    assert run(["residue", "--config", str(cfg), "--calibrate"],
               tmp_path) == 4
    assert not (tmp_path / "calibration.json").exists()


@pytest.mark.parametrize("argv", [
    ["--model", "fresnel", "--mu-sweep", "1e-1:1e-2:5"],
    ["--model", "cubic", "--mu-sweep", "1e-3:1e-4:3"],
    ["--model", "cotangent-circle", "--mu-sweep", "1e-2:1e-4:3"],
])
def test_run_that_certifies_nothing_exits_4(argv, tmp_path, capsys):
    # each sweep is too short for the order fit, the only gate of its
    # model, so the report would pass with no certificate
    assert run(["spexpand"] + argv, tmp_path) == 4
    assert "no certificate" in capsys.readouterr().err
    assert not list(tmp_path.glob("run-*"))


def test_spexpand_and_singular_sweep_the_same_level(tmp_path):
    # both commands build the amplitude at the swept level --sigma
    reports = []
    for command in ("spexpand", "singular"):
        out = tmp_path / command
        assert run([command, "--model", "cotangent-circle", "--sigma",
                    "0.5"], out) == 0
        reports.append(latest_report(out)["results"])
    spexpand, singular = reports
    assert spexpand["leading"] == singular["leading"]
    assert [r["oracle"] for r in spexpand["rows"]] == \
        [r["oracle"] for r in singular["rows"]]


def _linear_cotangent(tmp_path, speed):
    cfg = tmp_path / f"speed{speed}.json"
    cfg.write_text(json.dumps({"model": {
        "kind": "linear-cotangent", "n": 2,
        "generators": [[[0, -speed], [speed, 0]]]}}))
    return str(cfg)


@pytest.mark.parametrize("command", ["singular", "resolve-verify"])
def test_planar_rotation_speed_other_than_one_exits_4(command, tmp_path,
                                                      capsys):
    # the oracle and the direct leading coefficient assume speed +-1
    cfg = _linear_cotangent(tmp_path, 2)
    assert run([command, "--config", cfg], tmp_path) == 4
    err = capsys.readouterr().err
    assert "speed" in err and "Traceback" not in err
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("command", ["singular", "resolve-verify"])
def test_planar_rotation_speed_minus_one_passes(command, tmp_path):
    assert run([command, "--config", _linear_cotangent(tmp_path, -1)],
               tmp_path) == 0


def test_zero_order_and_tolerance_are_not_replaced_by_defaults(tmp_path):
    # an explicit 0 is invalid input, not a request for the default
    assert run(["spexpand", "--model", "cubic", "--order", "0"],
               tmp_path) == 4
    assert run(["localize", "--model", "sphere", "--tolerance", "0"],
               tmp_path) == 4
    assert not list(Path(tmp_path).glob("run-*"))


# every (command, kind) pair the model registry does not declare
_MODEL_COMMANDS = sorted({c for _, cmds in MODELS.values() for c in cmds})
_UNDECLARED = [(c, k) for k, (_, cmds) in MODELS.items()
               for c in _MODEL_COMMANDS if c not in cmds]
_PARAMS = {"linear-cotangent": {"n": 2, "generators": [[[0, -1], [1, 0]]]}}


def test_undeclared_pairs_include_known_crashes():
    # the first three once ran to NaN certificates, a ValueError and an
    # IndexError instead of being rejected as input; the fourth passed
    # with no certificate (T*S^1 has no fixed points)
    assert {("localize", "linrot2"), ("localize", "linrot4"),
            ("resolve-verify", "cotangent-circle"),
            ("localize", "cotangent-circle")} <= set(_UNDECLARED)


@pytest.mark.parametrize("command,kind", _UNDECLARED)
def test_undeclared_command_model_pair_exits_4(command, kind, tmp_path,
                                               capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": {"kind": kind,
                                         **_PARAMS.get(kind, {})}}))
    assert run([command, "--config", str(cfg)], tmp_path) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "supports the commands " + ", ".join(MODELS[kind][1]) in err
    assert not list(tmp_path.glob("run-*"))


# one run of every command on every model it supports, at its defaults
# (cubic has no order-1 gate at its default sweep)
_EVERY_RUN = [(c, k) for k, (_, cmds) in MODELS.items() for c in cmds] + [
    ("spexpand", "fresnel"), ("spexpand", "saddle"), ("spexpand", "cubic"),
    ("spexpand", "cotangent-circle"), ("convergence", None)]


@pytest.mark.parametrize("command,kind", _EVERY_RUN)
def test_every_report_is_strict_json(command, kind, tmp_path):
    # resolve-verify --model linrot4 once wrote "L_direct": NaN
    fields = {"order": 2} if kind == "cubic" else {}
    if kind is not None:
        fields["model"] = {"kind": kind, **_PARAMS.get(kind, {})}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(fields))
    assert run([command, "--config", str(cfg)], tmp_path) == 0
    for c in latest_report(tmp_path)["certificates"]:
        # passed tests the gate the report shows
        assert c["kind"] in _RULES
        assert (c["target"] is None) == (c["kind"] != "about")
        assert c["passed"] == _RULES[c["kind"]](c["value"], c["tolerance"],
                                                c["target"])


# certificate kind -> its gate on (value, tolerance, target), as
# docs/formats.md states it
_RULES = {"upper": lambda v, tol, t: v <= tol,
          "about": lambda v, tol, t: abs(v - t) <= tol,
          "above": lambda v, tol, t: v > tol}


@pytest.mark.parametrize("kind,value,target,passed", [
    ("upper", 0.5, None, True), ("above", 0.5, None, False),
    ("upper", 0.5 + 1e-12, None, False), ("above", 0.5 + 1e-12, None, True),
    ("about", 1.5, 2.0, True), ("about", 2.5, 2.0, True),
    ("about", 1.5 - 1e-12, 2.0, False), ("about", 2.5 + 1e-12, 2.0, False),
    ("upper", math.nan, None, False), ("above", math.nan, None, False),
    ("about", math.nan, 2.0, False),
    ("upper", math.inf, None, False), ("above", math.inf, None, False),
    ("about", math.inf, 2.0, False), ("upper", -math.inf, None, False),
    ("above", -math.inf, None, False), ("about", -math.inf, 2.0, False)])
def test_certificate_gate_at_its_boundary(kind, value, target, passed):
    cert = Certificate("gate", value, 0.5, "rule", kind, target)
    assert cert.passed is passed
    assert cert.to_dict()["passed"] is passed


def test_depth_2_report_has_null_leading_coefficients(tmp_path):
    # no leading-coefficient comparison runs at depth 2
    assert run(["resolve-verify", "--model", "linrot4"], tmp_path) == 0
    rep = latest_report(tmp_path)
    assert all(rep["results"][k] is None
               for k in ("L_direct", "L_resolved", "rel_gap"))
    assert "resolved_vs_direct" not in [c["name"]
                                        for c in rep["certificates"]]


def test_report_refuses_non_finite_values():
    report = Report(command="dh", inputs_hash="0" * 12, seed=0,
                    results={"mass": float("nan")}, certificates=[],
                    calibration=None, config_echo={})
    with pytest.raises(ValueError):
        report.to_json()


def test_non_finite_certificate_fails_into_a_null(tmp_path, monkeypatch,
                                                   capsys):
    # a NaN log power once ended the run on a JSON ValueError, exit 1,
    # leaving an empty run directory
    import dataclasses
    from equiloc import resolution
    order_fit = resolution.order_fit

    def nan_log_power(samples):
        return dataclasses.replace(order_fit(samples), log_power=math.nan)

    monkeypatch.setattr(resolution, "order_fit", nan_log_power)
    assert run(["singular", "--model", "linrot2"], tmp_path) == 2
    assert "Traceback" not in capsys.readouterr().err
    rep = latest_report(tmp_path)
    cert, = [c for c in rep["certificates"]
             if c["name"] == "remainder_log_power"]
    assert cert["value"] is None and cert["passed"] is False
    assert rep["results"]["fit_scaled"]["log_power"] is None
    assert rep["passed"] is False


@pytest.mark.parametrize("model,field", [
    ({"kind": "sphere", "radius": "x"}, "model.radius"),  # once ValueError
    ({"kind": "sphere", "radius": True}, "model.radius"),  # once ran as 1
    ({"kind": "sphere", "radius": 0}, "model.radius"),
    ({"kind": "linear-cotangent", "n": "x",
      "generators": [[[0, -1], [1, 0]]]}, "model.n"),      # once ValueError
    ({"kind": "linear-cotangent", "n": 2, "generators": 5},
     "model.generators"),                                  # once TypeError
    ({"kind": "linear-cotangent", "n": 2, "generators": ["a"]},
     "model.generators"),                                  # once ValueError
    ({"kind": "linear-cotangent", "n": 2, "generators": []},
     "model.generators"),                                  # once IndexError
    ({"kind": "linear-cotangent", "n": 2,
      "generators": [[[0, -1, 0], [1, 0, 0]]]}, "model.generators"),
])
def test_model_parameter_off_the_schema_exits_4(model, field, tmp_path,
                                                capsys):
    command = MODELS[model["kind"]][1][0]
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": model}))
    assert run([command, "--config", str(cfg)], tmp_path) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line.split(":")[0] for line in err.splitlines()
            if line.startswith("  - ")] == [f"  - {field}"]
    assert not list(tmp_path.glob("run-*"))


def test_linrot2_singular_refuses_a_nonzero_sigma(tmp_path, capsys):
    # the planar rotation's leading coefficient is at sigma = 0; this once
    # ran sigma = 0 under a report that echoed 0.5
    assert run(["singular", "--model", "linrot2", "--sigma", "0.5"],
               tmp_path) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("  - ")] \
        == ["  - singular leading coefficient is at sigma = 0"]
    assert not list(tmp_path.glob("run-*"))


def test_linrot2_singular_refuses_a_bump_below_order_6(tmp_path, capsys):
    # the oracle's bhat table stops at U = 400 / R, which leaves 1.2e-11
    # of G for an order-4 bump, against the 1e-13 it promises
    cfg = tmp_path / "bump.json"
    cfg.write_text(json.dumps({"model": {"kind": "linrot2",
                                         "bump": {"R": 1, "order": 4}}}))
    assert run(["singular", "--config", str(cfg)], tmp_path) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and "order 6 or more" in err
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("command,kind", [
    ("singular", "cotangent-circle"), ("resolve-verify", "linrot2")])
@pytest.mark.parametrize("bump,field", [
    ({"R": 0}, "model.bump.R"),          # once a traceback, NaN in the report
    ({"R": -1}, "model.bump.R"),         # once ran, exit 2
    ({"R": "x"}, "model.bump.R"),        # once a traceback
    ({"R": True}, "model.bump.R"),
    ({"R": float("inf")}, "model.bump.R"),
    ({"order": 0}, "model.bump.order"),  # once ran, exit 2
    ({"order": 2.5}, "model.bump.order"),  # once ran silently as order 2
    ({"order": True}, "model.bump.order"),
    (3, "model.bump"),
    ({"radius": 2}, "model.bump.radius"),  # once ran silently with R = 1
    ({"R": 2, "Order": 4}, "model.bump.Order"),
])
def test_bump_off_the_schema_exits_4(command, kind, bump, field, tmp_path,
                                     capsys):
    cfg = tmp_path / "bump.json"
    cfg.write_text(json.dumps({"model": {"kind": kind, "bump": bump}}))
    assert run([command, "--config", str(cfg)], tmp_path) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line.split(":")[0] for line in err.splitlines()
            if line.startswith("  - ")] == [f"  - {field}"]
    assert not list(tmp_path.glob("run-*"))


def test_linrot2_oracle_refuses_the_bump_before_direct_leading(
        tmp_path, monkeypatch):
    from equiloc import resolution

    def never(*args, **kwargs):
        raise AssertionError("direct_leading ran before the oracle")

    monkeypatch.setattr(resolution, "direct_leading", never)
    cfg = tmp_path / "bump.json"
    cfg.write_text(json.dumps({"model": {"kind": "linrot2",
                                         "bump": {"R": 1, "order": 4}}}))
    assert run(["singular", "--config", str(cfg)], tmp_path) == 4


@pytest.mark.parametrize("model,limits", [
    ({"kind": "sphere"}, 1),
    ({"kind": "sphere", "radius": 2}, 2),
])
def test_residue_calibrate_computes_the_unit_sphere_limit_once(
        model, limits, tmp_path, monkeypatch):
    from equiloc import localization
    calls = []
    smeared_limit = localization.smeared_limit

    def counted(*args, **kwargs):
        calls.append(args)
        return smeared_limit(*args, **kwargs)

    monkeypatch.setattr(localization, "smeared_limit", counted)
    localization.calibration_limit.cache_clear()
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": model}))
    assert run(["residue", "--config", str(cfg), "--calibrate"],
               tmp_path) == 0
    assert len(calls) == limits
    stamp = json.loads((tmp_path / "calibration.json").read_text())
    smeared = latest_report(tmp_path)["results"]["smeared"]
    assert (smeared == stamp["measured"]) == (limits == 1)


@pytest.mark.parametrize("log_power", [None, 1.1, 1.3])
def test_remainder_log_power_reports_the_bound_it_gates(
        log_power, tmp_path, monkeypatch):
    # the gate is one-sided, log power <= Lambda - 1 + 0.2; the report once
    # gave Lambda - 1 as the tolerance, so 1.1 passed above its tolerance
    import dataclasses

    from equiloc import resolution
    fit = resolution.order_fit
    if log_power is not None:
        monkeypatch.setattr(resolution, "order_fit", lambda pts: (
            dataclasses.replace(fit(pts), log_power=log_power)))
    code = run(["singular", "--model", "linrot2"], tmp_path)
    cert, = [c for c in latest_report(tmp_path)["certificates"]
             if c["name"] == "remainder_log_power"]
    assert cert["tolerance"] == 1.2
    assert cert["kind"] == "upper"
    assert cert["passed"] == (cert["value"] <= cert["tolerance"])
    assert code == (0 if cert["passed"] else 2)


@pytest.mark.parametrize("command", ["singular", "spexpand"])
def test_cotangent_config_bump_reaches_the_oracle(command, tmp_path):
    # the T*S^1 sweep once kept the R = 1, order 6 g-profile whatever the
    # config's "bump" said
    import dataclasses

    from equiloc.bumps import Bump
    from equiloc.models import CotangentCircle
    from equiloc.resolution import singular_sweep
    cfg = tmp_path / "bump.json"
    cfg.write_text(json.dumps({"model": {"kind": "cotangent-circle",
                                         "bump": {"R": 2, "order": 4}}}))
    assert run([command, "--config", str(cfg)], tmp_path) == 0
    rows = [r["oracle"] for r in latest_report(tmp_path)["results"]["rows"]]

    def sweep(g_profile):
        # the catalog amplitude, its declared factors included, with only
        # the g-profile swapped
        amp = dataclasses.replace(CotangentCircle().amplitude(None, 0.7),
                                  g_profile=g_profile)
        rep = singular_sweep(CotangentCircle(), amp,
                             list(np.geomspace(1e-2, 1e-4, 5)), sigma=0.7)
        return [r.oracle for r in rep.rows]

    assert rows == sweep(Bump(radius=2, order=4, kind="poly"))
    assert rows != sweep(Bump(radius=1.0, order=6, kind="poly"))


def test_localize_past_the_sphere_oracle_rule_exits_4(tmp_path, capsys):
    # the height-quadrature oracle once capped its rule here and certified
    # against a value off by 22.7
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({"model": {"kind": "sphere", "radius": 10},
                               "y_values": [1024]}))
    assert run(["localize", "--config", str(cfg)], tmp_path) == 4
    err = capsys.readouterr().err
    assert "4096" in err and "Traceback" not in err
    assert not list(tmp_path.glob("run-*"))


def test_localize_at_a_tiny_y(tmp_path):
    # a float Y was once rounded to a fraction of denominator at most
    # 1e12, so 1e-13 landed on the weight hyperplane: a traceback, exit 1.
    # At 1e-300 the two fixed-point terms, about 6e300 each, still cancel
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"model": {"kind": "sphere"},
                               "y_values": [1e-13, 1e-300]}))
    assert run(["localize", "--config", str(cfg)], tmp_path) == 0
    certs = latest_report(tmp_path)["certificates"]
    assert [c["name"] for c in certs] == ["bv_vs_oracle_y_1e-13",
                                          "bv_vs_oracle_y_1e-300"]
    assert all(c["passed"] for c in certs)


@pytest.mark.parametrize("y", [1e-308, 3e-309, 1e-320])
def test_localize_where_the_fixed_point_terms_overflow_exits_4(
        y, tmp_path, capsys):
    # the terms +-e^{+-iY}/Y overflowed, so the certificate read nan
    # (1e-308, a normal float) or inf, and the run exited 2
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({"model": {"kind": "sphere"},
                               "y_values": [0.5, y]}))
    assert run(["localize", "--config", str(cfg)], tmp_path) == 4
    err = capsys.readouterr().err
    assert "y_values" in err and "not finite" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("run-*"))


def test_localize_on_a_weight_hyperplane_exits_4(tmp_path, capsys):
    # 5e-324 / 3 underflows to 0, so this Y lies on a weight hyperplane
    cfg = tmp_path / "wall.json"
    cfg.write_text(json.dumps({"model": {"kind": "sphere", "radius": 3},
                               "y_values": [5e-324]}))
    assert run(["localize", "--config", str(cfg)], tmp_path) == 4
    err = capsys.readouterr().err
    assert "weight hyperplane" in err and "Traceback" not in err
    assert not list(tmp_path.glob("run-*"))


def _t2_config(tmp_path, name, planes):
    """A linear-cotangent T^2 on R^4; planes[g] maps an axis pair to the
    speed at which generator g rotates it."""
    gens = []
    for rotations in planes:
        g = [[0] * 4 for _ in range(4)]
        for (i, j), speed in rotations.items():
            g[i][j], g[j][i] = -speed, speed
        gens.append(g)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"model": {"kind": "linear-cotangent", "n": 4,
                                         "generators": gens}}))
    return str(cfg)


@pytest.mark.parametrize("name,planes", [
    ("speed_minus_one", [{(0, 1): 1}, {(2, 3): -1}]),
    ("axes_permuted", [{(0, 2): 1}, {(1, 3): 1}]),
    ("linrot4", [{(0, 1): 1}, {(2, 3): 1}])])
def test_depth_2_charts_take_each_plane_speed(name, planes, tmp_path):
    # the charts once rotated every plane at speed +1: a speed -1 plane
    # failed the factorization check at 1.99
    assert run(["resolve-verify", "--config",
                _t2_config(tmp_path, name, planes)], tmp_path) == 0
    results = latest_report(tmp_path)["results"]
    assert results["factorization_max_err"] <= 1e-12
    if name == "linrot4":
        assert run(["resolve-verify", "--model", "linrot4"],
                   tmp_path / "catalog") == 0
        assert latest_report(tmp_path / "catalog")["results"] == results


@pytest.mark.parametrize("name,planes", [
    ("speeds_2_and_1", [{(0, 1): 2}, {(2, 3): 1}]),
    ("mixed_generators", [{(0, 1): 1, (2, 3): 1}, {(0, 1): 1, (2, 3): -1}]),
    ("generators_swapped", [{(2, 3): 1}, {(0, 1): 1}])])
def test_depth_2_charts_refuse_other_t2_actions(name, planes, tmp_path,
                                                 capsys):
    # these once ran to exit 2 with a factorization error of 1.25 to 2.0
    assert run(["resolve-verify", "--config",
                _t2_config(tmp_path, name, planes)], tmp_path) == 4
    err = capsys.readouterr().err
    assert "plane i alone" in err and "Traceback" not in err
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("model", [
    {"kind": "cotangent-circle", "bump": {"R": 2, "order": 4}},
    {"bump": {"R": 2, "order": 4}},
])
def test_model_flag_keeps_the_config_model_fields(model, tmp_path):
    # --model once replaced the config's whole model with {"kind": ...},
    # so its bump was dropped without a word
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": model}))
    assert run(["singular", "--model", "cotangent-circle", "--config",
                str(cfg)], tmp_path / "flag") == 0
    flagged = latest_report(tmp_path / "flag")
    assert flagged["config"]["model"] == {"kind": "cotangent-circle",
                                          "bump": {"R": 2, "order": 4}}
    cfg.write_text(json.dumps({"model": {"kind": "cotangent-circle",
                                         "bump": {"R": 2, "order": 4}}}))
    assert run(["singular", "--config", str(cfg)], tmp_path / "file") == 0
    assert latest_report(tmp_path / "file")["results"] == \
        flagged["results"]


def test_model_flag_keeps_the_sphere_radius(tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": {"kind": "sphere", "radius": 2}}))
    assert run(["localize", "--model", "sphere", "--config", str(cfg)],
               tmp_path) == 0
    assert latest_report(tmp_path)["config"]["model"] == {
        "kind": "sphere", "radius": 2}


def test_model_flag_keeps_a_bump_off_the_schema_in_view(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": {"kind": "cotangent-circle",
                                         "bump": {"R": 0}}}))
    assert run(["singular", "--model", "cotangent-circle", "--config",
                str(cfg)], tmp_path) == 4
    assert "model.bump.R" in capsys.readouterr().err
    assert not list(tmp_path.glob("run-*"))


def test_model_flag_against_another_config_kind_exits_4(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": {"kind": "linrot2",
                                         "bump": {"R": 2, "order": 6}}}))
    assert run(["singular", "--model", "cotangent-circle", "--config",
                str(cfg)], tmp_path) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line.split(":")[0] for line in err.splitlines()
            if line.startswith("  - ")] == ["  - model.kind"]
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("sweep,name,mu", [
    # a rising sweep once gated the largest mu, 0.1
    ("2e-2:1e-1:2", "scaled_vs_leading_at_min_mu", 2e-2),
    # a sweep that repeats mu = 1e-3 once gated it twice
    ("1e-3:1e-3:2", "scaled_vs_leading_at_mu_1e-3", 1e-3)])
def test_singular_gates_scaled_vs_leading_on_one_row(sweep, name, mu,
                                                     tmp_path):
    code = run(["singular", "--model", "linrot2", "--mu-sweep", sweep],
               tmp_path)
    rep = latest_report(tmp_path)
    cert, = [c for c in rep["certificates"]
             if c["name"].startswith("scaled_vs_leading")]
    assert cert["name"] == name
    row = min(rep["results"]["rows"], key=lambda r: r["mu"])
    leading = rep["results"]["leading"]
    assert row["mu"] == mu
    assert cert["value"] == abs(row["scaled"] - leading) / abs(leading)
    assert code == (0 if rep["passed"] else 2)
