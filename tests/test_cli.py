import json
from pathlib import Path

import pytest

from equiloc.cli import main
from equiloc.models import MODELS


def run(args, tmp):
    return main(args + ["--out", str(tmp)])


def latest_report(tmp):
    runs = sorted(Path(tmp).glob("run-*/report.json"))
    assert runs
    return json.loads(runs[-1].read_text())


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
