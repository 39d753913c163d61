"""Batch front end: config ingestion, command dispatch, reports.

One binary with subcommands; every run lands in a directory named by the
hash of (config, seed, calibration stamp) and writes a deterministic
report.json (wall times go to a timings.json sidecar so reports stay
byte-identical), CSV side files, and a certificate block that re-runs the
invariants touched by the command.  Exit codes: 0 pass, 2 certificate
failure, 3 budget exceeded, 4 invalid config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .bumps import Bump
from .models import MODELS, Amplitude, ModelError, default_amplitude, \
    make_model
from .oscillatory import fit_problem
from .quadrature import BudgetExceeded

EXIT_OK = 0
EXIT_CERT = 2
EXIT_BUDGET = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = problems if isinstance(problems, list) else [
            problems]
        super().__init__("; ".join(self.problems))


def _number(v, kind=(int, float)) -> bool:
    return isinstance(v, kind) and not isinstance(v, bool)


def _numbers(v) -> bool:
    return isinstance(v, list) and all(map(_number, v))


# RunConfig field -> (test, what the field must be), the schema of
# docs/formats.md; each test checks the type before it compares
_SCHEMA = {
    "seed": (lambda v: _number(v, int) and v >= 0, "a nonnegative integer"),
    "tolerance": (lambda v: _number(v) and v > 0, "a positive number"),
    "mu_sweep": (lambda v: _numbers(v) and all(m > 0 for m in v),
                 "a list of positive numbers"),
    "order": (lambda v: _number(v, int) and v >= 1, "an integer >= 1"),
    "sigma": (_number, "a number"),
    "y_values": (lambda v: _numbers(v) and len(v) > 0 and 0 not in v,
                 "a nonempty list of nonzero numbers"),
    "mc_samples": (lambda v: _number(v, int) and v > 0, "a positive integer"),
    "bins": (lambda v: _number(v, int) and v > 0, "a positive integer"),
    "eps_list": (lambda v: _numbers(v) and len(v) > 0 and
                 all(e > 0 for e in v), "a nonempty list of positive numbers"),
    "calibration": (lambda v: v is None or isinstance(v, dict),
                    "an object or null"),
}


@dataclass
class RunConfig:
    command: str
    model: Dict
    seed: int = 1
    tolerance: float = 1e-8
    mu_sweep: List[float] = field(default_factory=list)
    order: int = 1
    sigma: float = 0.0
    y_values: List[float] = field(default_factory=lambda: [0.5, 1.0, 2.0,
                                                           5.0])
    mc_samples: int = 1_000_000
    bins: int = 10
    eps_list: List[float] = field(default_factory=lambda: [0.2, 0.1, 0.05,
                                                           0.025])
    calibration: Optional[Dict] = None

    def validate(self):
        problems = []
        if self.command not in COMMANDS:
            problems.append(f"command: unknown {self.command!r}")
        if not isinstance(self.model, dict) or "kind" not in self.model:
            problems.append("model: must be an object with a 'kind'")
        for name, (ok, what) in _SCHEMA.items():
            if not ok(getattr(self, name)):
                problems.append(f"{name}: must be {what}")
        if problems:
            raise ConfigError(problems)
        return self

    def canonical(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def run_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]


@dataclass
class Certificate:
    name: str
    value: float
    tolerance: float
    passed: bool
    oracle: str

    def to_dict(self):
        return {"name": self.name, "value": self.value,
                "tolerance": self.tolerance, "passed": bool(self.passed),
                "oracle": self.oracle}


@dataclass
class Report:
    command: str
    inputs_hash: str
    seed: int
    results: Dict
    certificates: List[Certificate]
    calibration: Optional[Dict]
    config_echo: Dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "inputs_hash": self.inputs_hash,
            "seed": self.seed,
            "calibration": self.calibration,
            "results": self.results,
            "certificates": [c.to_dict() for c in self.certificates],
            "config": self.config_echo,
            "passed": self.passed,
        }, indent=2, sort_keys=True)


def _mu_sweep_from_string(s: str) -> List[float]:
    try:
        a, b, steps = s.split(":")
        a, b, steps = float(a), float(b), int(steps)
    except Exception:
        raise ConfigError([f"mu-sweep: cannot parse {s!r} as a:b:steps"])
    if not (0 < a < math.inf and 0 < b < math.inf and steps >= 1):
        raise ConfigError([f"mu-sweep: {s!r} needs a, b > 0 and steps >= 1"])
    return list(np.geomspace(a, b, steps))


def _sweep(cfg: RunConfig, default: List[float], fit_from: int = 4):
    """cfg's mu sweep, or default; invalid config if the order fit, which
    takes every sweep of fit_from points or more, cannot use it."""
    mus = cfg.mu_sweep or default
    if len(mus) >= fit_from and fit_problem(mus):
        raise ConfigError([f"mu_sweep: {fit_problem(mus)} for the order fit"])
    return mus


def _csv(header: str, rows: List[Dict]) -> str:
    """A CSV side file: the header line, then one line per row dict whose
    cells, in key order, are repr of a Python float (shortest
    round-trip)."""
    return header + "\n" + "".join(
        ",".join(repr(float(v)) for v in row.values()) + "\n"
        for row in rows)


def _fit_payload(fit) -> Optional[Dict]:
    """The report entry of an OrderFit, or None."""
    return None if fit is None else {"exponent": fit.exponent,
                                     "log_power": fit.log_power}


def _sweep_rows(rep) -> List[Dict]:
    """The report rows of a singular_sweep."""
    return [{"mu": r.mu, "oracle": r.oracle, "scaled": r.scaled,
             "leading": r.leading, "remainder": r.remainder}
            for r in rep.rows]


# ---------------------------------------------------------------------------
# command implementations (each returns (results, certificates, files))


def _cmd_dh(model, cfg: RunConfig):
    from .localization import EquivariantForm, dh_measure
    from .oracles import mc_pushforward_sphere
    rho = EquivariantForm()
    U = dh_measure(model, rho)
    radius = float(model.radius)
    masses, edges = mc_pushforward_sphere(radius, cfg.mc_samples, cfg.seed,
                                          cfg.bins)
    exact_mass = float(U.mass())
    area = 4 * math.pi * radius ** 2
    certs = [Certificate("dh_total_mass_vs_area",
                         abs(exact_mass - area) / area, 0.01,
                         abs(exact_mass - area) / area <= 0.01,
                         "geometric area")]
    worst = 0.0
    for i in range(cfg.bins):
        mid = 0.5 * (edges[i] + edges[i + 1])
        width = edges[i + 1] - edges[i]
        dens = U.value_float((Fraction(mid).limit_denominator(10 ** 6),))
        rel = abs(dens * width - masses[i]) / (area / cfg.bins)
        worst = max(worst, rel)
    certs.append(Certificate("dh_bins_vs_monte_carlo", worst, 0.01,
                             worst <= 0.01,
                             f"MC pushforward ({cfg.mc_samples} samples)"))
    results = {"piecewise": U.to_json_dict(), "mass": exact_mass,
               "area": area, "mc_bin_worst_rel": worst}
    files = {"density.csv": _csv("xi,density", U.samples(
        -1.5 * radius, 1.5 * radius, 201))}
    return results, certs, files


def _cmd_localize(model, cfg: RunConfig):
    from .localization import EquivariantForm, bv_sum
    from .oracles import sphere_bv_oracle
    rho = EquivariantForm()
    rows = []
    certs = []
    for y in cfg.y_values:
        val = bv_sum(model, rho, y)
        orc = sphere_bv_oracle(float(model.radius), y)
        err = abs(val - orc)
        rows.append({"y": y, "bv_re": val.real, "bv_im": val.imag,
                     "oracle_re": orc.real, "oracle_im": orc.imag,
                     "abs_err": err})
        certs.append(Certificate(f"bv_vs_oracle_y_{y:g}", err,
                                 cfg.tolerance, err <= cfg.tolerance,
                                 "1-d height quadrature"))
    csv = _csv("y,bv_re,bv_im,oracle_re,oracle_im,abs_err", rows)
    return {"rows": rows}, certs, {"localize.csv": csv}


def _cmd_residue(model, cfg: RunConfig):
    from .localization import (EquivariantForm, NoFixedPointsError,
                               jk_residue, kirwan_integral,
                               pairing_constant, smeared_limit)
    results = {}
    certs = []
    if cfg.model["kind"] == "cotangent-circle":
        pb = Bump(radius=1.0, order=6, kind="poly")
        rho = EquivariantForm(
            density=lambda pts: (np.cos(pts[0]) ** 2) * pb(pts[1]))
    else:
        rho = EquivariantForm()
    try:
        plus = float(jk_residue(model, rho, (1,)))
        minus = float(jk_residue(model, rho, (-1,)))
        results["residue_plus"] = plus
        results["residue_minus"] = minus
        certs.append(Certificate("residue_direction_independence",
                                 abs(plus - minus), 0.0,
                                 plus == minus, "exact chamber equality"))
        route = "fixed-point"
    except NoFixedPointsError as exc:
        results["note"] = str(exc)
        route = "smeared_limit"
    results["route"] = route
    sm = smeared_limit(model, rho, eps_list=cfg.eps_list)
    kw = kirwan_integral(model, rho)
    results["smeared"] = sm.extrapolated
    results["kirwan"] = kw
    rel = abs(sm.extrapolated - kw) / abs(kw)
    certs.append(Certificate("smeared_vs_kirwan", rel, 0.01, rel <= 0.01,
                             "two independent quadratures"))
    if route == "fixed-point":
        paired = float(results["residue_plus"]) * pairing_constant(model)
        rel2 = abs(paired - sm.extrapolated) / abs(sm.extrapolated)
        certs.append(Certificate("residue_pairing_vs_smeared", rel2, 0.01,
                                 rel2 <= 0.01, "calibrated pairing"))
    return results, certs, {}


_SPEXPAND_PHASES = ("fresnel", "saddle", "cubic", "cotangent-circle")


def _cmd_spexpand(model, cfg: RunConfig):
    from .mpoly import MPoly
    from .oscillatory import (BaseNode, CleanPhase, oscillatory_integral,
                              order_fit, sp_coefficients)
    kind = cfg.model.get("kind", "fresnel")
    if kind not in _SPEXPAND_PHASES:
        raise ConfigError([f"model.kind: spexpand supports "
                           f"{_SPEXPAND_PHASES}"])
    mus = cfg.mu_sweep or list(np.geomspace(1e-1, 1e-3, 5))
    bump = Bump(radius=20.0, order=4, kind="poly")
    if kind == "fresnel":
        psi = MPoly(1, {(2,): Fraction(1, 2)})
        domain = [(-20.0, 20.0)]
        phase_f = lambda s: 0.5 * np.asarray(s) ** 2
        amp_f = lambda s: bump(s)
        amp_poly = MPoly.constant(1, Fraction(1))
        rank = 1
    elif kind == "saddle":
        psi = MPoly(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)})
        domain = [(-2.5, 2.5), (-2.5, 2.5)]
        b2 = Bump(radius=2.5, order=6, kind="plateau", flat=0.5)
        phase_f = lambda s: 0.5 * (np.asarray(s)[0] ** 2 -
                                   np.asarray(s)[1] ** 2)
        amp_f = lambda s: b2(np.sqrt(np.asarray(s)[0] ** 2 +
                                     np.asarray(s)[1] ** 2))
        amp_poly = MPoly.constant(2, Fraction(1))
        rank = 2
        mus = cfg.mu_sweep or [0.1, 0.05, 0.02]
    elif kind == "cubic":
        psi = MPoly(1, {(2,): Fraction(1, 2), (3,): Fraction(1)})
        b1 = Bump(radius=0.25, order=8, kind="plateau", flat=0.5)
        domain = [(-0.25, 0.25)]
        phase_f = lambda s: 0.5 * np.asarray(s) ** 2 + np.asarray(s) ** 3
        amp_f = lambda s: b1(s)
        amp_poly = MPoly.constant(1, Fraction(1))
        rank = 1
        mus = cfg.mu_sweep or list(np.geomspace(10 ** -3.5, 10 ** -5, 4))
    else:
        return _spexpand_cotangent(cfg)
    phase = CleanPhase(rank=rank, psi0=0.0, nodes=[BaseNode(
        weight=1.0, psi_poly=psi, amp_poly=amp_poly)]).validate()
    exp = sp_coefficients(phase, cfg.order)
    rows = []
    for mu in mus:
        res = oscillatory_integral(phase_f, amp_f, mu, domain)
        pred = exp.evaluate(mu)
        rows.append({"mu": mu, "oracle_re": res.value.real,
                     "oracle_im": res.value.imag, "exp_re": pred.real,
                     "exp_im": pred.imag,
                     "error": abs(res.value - pred)})
    fit = order_fit([(r["mu"], max(r["error"], 1e-300)) for r in rows]) \
        if fit_problem(mus) is None else None
    target = rank / 2 + cfg.order
    certs = []
    if fit is not None:
        certs.append(Certificate(
            "remainder_exponent", fit.exponent, 0.25,
            abs(fit.exponent - target) <= 0.25 or fit.exact,
            f"order fit vs l/2+N = {target}"))
    if kind == "saddle":
        r = rows[-1]
        pred = complex(r["exp_re"], r["exp_im"])
        rel = r["error"] / abs(pred)
        certs.append(Certificate("expansion_matches_oracle", rel, 0.1,
                                 rel <= 0.1, "tensor quadrature"))
    if kind == "cubic" and cfg.order >= 2:
        # oracle fit of (I - leading)/mu^{3/2} extrapolated to mu = 0
        lead0 = exp.coefficients[0]
        scaled = []
        for r in rows:
            lead = (2 * math.pi * r["mu"]) ** 0.5 * complex(
                math.cos(math.pi / 4), math.sin(math.pi / 4)) * lead0
            val = complex(r["oracle_re"], r["oracle_im"]) - lead
            scaled.append(val / r["mu"] ** 1.5)
        a = np.stack([np.ones(len(mus)), np.asarray(mus)], axis=1)
        sol, *_ = np.linalg.lstsq(a, np.asarray(scaled), rcond=None)
        expected = math.sqrt(2 * math.pi) * complex(
            math.cos(math.pi / 4), math.sin(math.pi / 4)) * \
            exp.coefficients[1]
        rel = abs(sol[0] - expected) / abs(expected)
        certs.append(Certificate("q1_vs_oracle_fit", rel, 0.05,
                                 rel <= 0.05, "quadrature oracle fit"))
    results = {"coefficients": [[c.real, c.imag]
                                for c in exp.coefficients],
               "signature": exp.signature, "rank": exp.rank,
               "rows": rows, "fit": _fit_payload(fit)}
    csv = _csv("mu,oracle_re,oracle_im,expansion_re,expansion_im,error",
               rows)
    return results, certs, {"spexpand.csv": csv}


def _spexpand_cotangent(cfg: RunConfig):
    rep = _cot_sweep(cfg, _sweep(cfg, list(np.geomspace(1e-2, 1e-4, 5))))
    certs = []
    if rep.fit_scaled:
        certs.append(Certificate(
            "remainder_exponent", rep.fit_scaled.exponent, 0.15,
            abs(rep.fit_scaled.exponent - 2.0) <= 0.15,
            "order fit of the scaled remainder"))
    results = {"rows": _sweep_rows(rep), "leading": rep.leading,
               "fit": _fit_payload(rep.fit_scaled)}
    return results, certs, {}


def _cot_sweep(cfg: RunConfig, mus):
    """The T*S^1 singular_sweep at the level cfg.sigma, or 0.7 when that
    is 0."""
    from .models import CotangentCircle
    from .resolution import singular_sweep
    sigma = cfg.sigma or 0.7
    return singular_sweep(CotangentCircle(), _cot_amp(sigma), mus,
                          sigma=sigma)


def _cot_amp(sigma: float) -> Amplitude:
    """(1 + cos^2 theta) times a momentum profile curved at the level:
    the remainder of the regular-value expansion is then genuinely of
    second order."""
    p_bump = Bump(radius=1.6, order=6, kind="poly")
    return Amplitude(
        g_profile=Bump(radius=1.0, order=6, kind="poly"),
        density=lambda coords: (1.0 + np.cos(coords[0]) ** 2) *
        p_bump(coords[1] - sigma) * np.exp(-(coords[1] - sigma) ** 2))


def _cmd_singular(model, cfg: RunConfig):
    from .resolution import singular_sweep
    mus = _sweep(cfg, list(np.geomspace(1e-2, 1e-4, 5)))
    if cfg.model["kind"] == "cotangent-circle":
        rep = _cot_sweep(cfg, mus)
    else:
        rep = singular_sweep(model, default_amplitude(
            model, cfg.model.get("bump")), mus)
    kappa = rep.kappa
    certs = []
    for r in rep.rows:
        if abs(r.mu - 1e-3) < 1e-12:
            rel = abs(r.scaled - rep.leading) / abs(rep.leading)
            certs.append(Certificate("scaled_vs_leading_at_mu_1e-3", rel,
                                     0.01, rel <= 0.01,
                                     "independent quadratures"))
    if not certs:
        last = rep.rows[-1]
        rel = abs(last.scaled - rep.leading) / abs(rep.leading)
        certs.append(Certificate("scaled_vs_leading_at_min_mu", rel, 0.01,
                                 rel <= 0.01, "independent quadratures"))
    if rep.lam == 1 and rep.fit_scaled:
        # one isotropy type, so a regular value: the normalized remainder
        # is second order, no log
        certs.append(Certificate(
            "remainder_exponent", rep.fit_scaled.exponent, 0.15,
            abs(rep.fit_scaled.exponent - 2.0) <= 0.15, "order fit"))
        certs.append(Certificate(
            "remainder_log_power", rep.fit_scaled.log_power, 0.2,
            abs(rep.fit_scaled.log_power) <= 0.2, "order fit"))
    elif rep.fit:
        certs.append(Certificate(
            "remainder_exponent", rep.fit.exponent, 0.2,
            abs(rep.fit.exponent - (kappa + 1)) <= 0.2, "order fit"))
        certs.append(Certificate(
            "remainder_log_power", rep.fit.log_power, float(rep.lam - 1),
            rep.fit.log_power <= (rep.lam - 1) + 0.2, "order fit"))
    rows = _sweep_rows(rep)
    csv = _csv("mu,oracle,scaled,leading,remainder", rows)
    results = {"rows": rows, "leading": rep.leading, "kappa": kappa,
               "lambda": rep.lam, "fit": _fit_payload(rep.fit),
               "fit_scaled": _fit_payload(rep.fit_scaled)}
    return results, certs, {"singular.csv": csv}


def _cmd_resolve_verify(model, cfg: RunConfig):
    from .resolution import resolution_certificate
    amp = default_amplitude(model, cfg.model.get("bump"))
    cert = resolution_certificate(model, amp, seed=cfg.seed)
    d = cert.to_dict()
    certs = [
        Certificate("factorization_max_err", cert.factorization_max_err,
                    1e-12, cert.factorization_max_err <= 1e-12,
                    "momentum map vs chart factorization"),
        Certificate("crit_condition_mismatches",
                    float(cert.crit_mismatches), 0.0,
                    cert.crit_mismatches == 0, "gradient scan"),
        Certificate("min_transversal_eigenvalue",
                    cert.min_transversal_eig, 0.0,
                    cert.min_transversal_eig > 0.0, "adapted-frame FD"),
    ]
    if not math.isnan(cert.l_resolved):
        certs.append(Certificate("resolved_vs_direct", cert.rel_gap, 0.01,
                                 cert.rel_gap <= 0.01,
                                 "independent quadratures"))
    return d, certs, {}


def _cmd_convergence(model, cfg: RunConfig):
    from .oracles import fresnel_leading
    from .oscillatory import order_fit, oscillatory_integral
    bump = Bump(radius=20.0, order=4, kind="poly")
    mus = _sweep(cfg, [1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3], 0)
    rows = []
    worst = 0.0
    for mu in mus:
        res = oscillatory_integral(lambda s: 0.5 * np.asarray(s) ** 2,
                                   lambda s: bump(s), mu, [(-20.0, 20.0)])
        err = abs(res.value - fresnel_leading(mu))
        rows.append({"mu": mu, "error": err,
                     "bound": 0.05 * mu ** 1.5})
        worst = max(worst, err / (0.05 * mu ** 1.5))
    fit = order_fit([(r["mu"], r["error"]) for r in rows])
    certs = [
        Certificate("fresnel_error_within_bound", worst, 1.0,
                    worst <= 1.0, "closed form"),
        Certificate("fresnel_remainder_exponent", fit.exponent, 0.1,
                    abs(fit.exponent - 1.5) <= 0.1, "order fit"),
    ]
    return ({"rows": rows, "fit": _fit_payload(fit)}, certs,
            {"convergence.csv": _csv("mu,error,bound", rows)})


# ---------------------------------------------------------------------------

# command -> handler(model, cfg); spexpand and convergence get no model
_HANDLERS = {
    "dh": _cmd_dh,
    "localize": _cmd_localize,
    "residue": _cmd_residue,
    "spexpand": _cmd_spexpand,
    "singular": _cmd_singular,
    "resolve-verify": _cmd_resolve_verify,
    "convergence": _cmd_convergence,
}
COMMANDS = tuple(_HANDLERS)


def _invalid_config(exc) -> int:
    """Print the problems of a ConfigError or ModelError; exit 4."""
    problems = exc.problems if isinstance(exc, ConfigError) else [str(exc)]
    print("invalid config:", file=sys.stderr)
    for p in problems:
        print(f"  - {p}", file=sys.stderr)
    return EXIT_CONFIG


def run(cfg: RunConfig, out_dir: Path,
        calibrate_first: bool = False) -> int:
    try:
        cfg.validate()
        model = None
        if cfg.command not in ("spexpand", "convergence"):
            kind = cfg.model["kind"]
            model = make_model(**cfg.model)
            _, commands = MODELS[kind]
            if cfg.command not in commands:
                raise ConfigError([
                    f"model.kind: {kind!r} supports the commands "
                    f"{', '.join(commands)}, not {cfg.command}"])
    except (ConfigError, ModelError) as exc:
        return _invalid_config(exc)

    if calibrate_first:
        from .localization import calibrate
        stamp = calibrate().to_dict()
        cfg.calibration = stamp
        (out_dir / "calibration.json").parent.mkdir(parents=True,
                                                    exist_ok=True)
        (out_dir / "calibration.json").write_text(
            json.dumps(stamp, indent=2, sort_keys=True))
    elif cfg.calibration is None and (out_dir / "calibration.json"
                                      ).exists():
        cfg.calibration = json.loads(
            (out_dir / "calibration.json").read_text())

    t0 = time.time()
    try:
        results, certs, files = _HANDLERS[cfg.command](model, cfg)
    except BudgetExceeded as exc:
        run_dir = out_dir / f"run-{cfg.run_hash()}"
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "report.json").write_text(json.dumps(
            {"command": cfg.command, "status": "budget exceeded",
             "detail": str(exc)}, indent=2, sort_keys=True))
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, ModelError) as exc:
        return _invalid_config(exc)
    elapsed = time.time() - t0
    if not certs:
        # a report with no certificate could only pass vacuously
        return _invalid_config(ConfigError([
            f"{cfg.command}: this configuration leaves no certificate to "
            f"evaluate"]))

    report = Report(command=cfg.command, inputs_hash=cfg.run_hash(),
                    seed=cfg.seed, results=results, certificates=certs,
                    calibration=cfg.calibration,
                    config_echo=json.loads(cfg.canonical()))
    run_dir = out_dir / f"run-{cfg.run_hash()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "report.json").write_text(report.to_json())
    (run_dir / "timings.json").write_text(json.dumps(
        {"elapsed_seconds": elapsed}))
    for name, content in files.items():
        (run_dir / name).write_text(content)
    for c in certs:
        status = "pass" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: value={c.value:.6g} "
              f"tol={c.tolerance:g} ({c.oracle})")
    print(f"report: {run_dir / 'report.json'}")
    return EXIT_OK if report.passed else EXIT_CERT


# config-file key -> RunConfig field
_CONFIG_KEYS = {"seed": "seed", "tolerance": "tolerance", "mu": "mu_sweep",
                "order": "order", "sigma": "sigma", "y_values": "y_values",
                "mc_samples": "mc_samples", "bins": "bins", "eps": "eps_list",
                "calibration": "calibration"}


def build_config(args) -> RunConfig:
    base: Dict = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError([f"config: file not found {args.config}"])
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config: invalid JSON ({exc})"])
        if not isinstance(base, dict):
            raise ConfigError(["config: must be a JSON object"])
        if base.get("mu") == []:
            # an empty list would stand for the command's default sweep
            raise ConfigError(["mu: must not be empty"])
    model = base.get("model", {})
    if args.model:
        model = {"kind": args.model}
    if not model and args.command in ("spexpand", "convergence"):
        model = {"kind": "fresnel"}
    # the RunConfig defaults stand for whatever neither source gives
    values = {name: base[key] for key, name in _CONFIG_KEYS.items()
              if key in base}
    for name in ("seed", "tolerance", "order", "sigma"):
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    if args.mu_sweep:
        values["mu_sweep"] = _mu_sweep_from_string(args.mu_sweep)
    return RunConfig(command=args.command, model=model, **values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equiloc",
        description="equivariant localization and singular "
                    "stationary-phase verification runs")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config document")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--calibrate", action="store_true",
                        help="recompute the Fourier-constant calibration "
                             "stamp before running")
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--model", help="model kind shorthand")
    parser.add_argument("--order", type=int, default=None)
    parser.add_argument("--mu-sweep", help="a:b:steps geometric sweep")
    parser.add_argument("--sigma", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        return _invalid_config(exc)
    return run(cfg, Path(args.out), calibrate_first=args.calibrate)


if __name__ == "__main__":
    sys.exit(main())
