"""Every certificate can fail: inject one error into the formula it
guards and the certificate goes red, and the run exits 2.

Each case patches one function of the package with a wrong version and
runs one CLI command.  The same command without the patch passes, so the
patch alone turns the named certificates red.
"""

import json
import math
from pathlib import Path

import pytest

from equiloc import localization
from equiloc.cli import EXIT_CERT, EXIT_OK, main
from equiloc.piecewise import Piece, PiecewisePoly
from equiloc.ratexp import RatExp


def _scaled(f, factor):
    return lambda *args, **kwargs: f(*args, **kwargs) * factor


def _negated(f):
    return lambda *args, **kwargs: -f(*args, **kwargs)


def _coefficient_negated(f):
    def mutant(*args, **kwargs):
        c, k = f(*args, **kwargs)
        return -c, k
    return mutant


def _densities_negated(f):
    def mutant(*args, **kwargs):
        U = f(*args, **kwargs)
        return PiecewisePoly([Piece(p.cut, p.side, -p.density)
                              for p in U.pieces], U.two_pi_power)
    return mutant


def _two_pi_power_raised(f):
    def mutant(*args, **kwargs):
        u = f(*args, **kwargs)
        return RatExp(u.dim, u.terms, u.two_pi_power + 1)
    return mutant


# id -> (argv, function of localization, its wrong version, the
# certificates that must go red: a name, or a prefix ending in *)
MUTATIONS = {
    "pairing_constant_times_1.02": (
        ["residue", "--model", "sphere"], "pairing_constant",
        lambda f: _scaled(f, 1.02), ["residue_pairing_vs_smeared"]),
    # residue_direction_independence alone cannot see this: both
    # directions flip
    "jk_residue_negated": (
        ["residue", "--model", "sphere"], "jk_residue",
        _coefficient_negated, ["residue_pairing_vs_smeared"]),
    # the transform of the fixed-point terms; a flipped cone side would
    # pass, as both sides give the sphere the same measure
    "ft_shifted_densities_negated_dh": (
        ["dh", "--model", "sphere"], "ft_shifted", _densities_negated,
        ["dh_total_mass_vs_area", "dh_bins_vs_monte_carlo"]),
    "ft_shifted_densities_negated_residue": (
        ["residue", "--model", "sphere"], "ft_shifted", _densities_negated,
        ["residue_pairing_vs_smeared"]),
    # the one power of 2 pi of the fixed-point sum, off by one
    "u_f_symbolic_two_pi_power_plus_one_dh": (
        ["dh", "--model", "sphere"], "u_f_symbolic", _two_pi_power_raised,
        ["dh_total_mass_vs_area", "dh_bins_vs_monte_carlo"]),
    "u_f_symbolic_two_pi_power_plus_one_residue": (
        ["residue", "--model", "sphere"], "u_f_symbolic",
        _two_pi_power_raised, ["residue_pairing_vs_smeared"]),
    "bv_constant_two_pi_power_plus_one": (
        ["localize", "--model", "sphere"], "_bv_constant",
        lambda f: _scaled(f, 2 * math.pi), ["bv_vs_oracle_y_*"]),
    # a conjugated term would pass: the sphere's sum is real
    "bv_term_negated": (
        ["localize", "--model", "sphere"], "bv_term", _negated,
        ["bv_vs_oracle_y_*"]),
}


def _certificates(out: Path):
    (report,) = out.glob("run-*/report.json")
    return json.loads(report.read_text())["certificates"]


def _named(certs, pattern):
    if pattern.endswith("*"):
        return [c for c in certs if c["name"].startswith(pattern[:-1])]
    return [c for c in certs if c["name"] == pattern]


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_mutation_turns_its_certificate_red(case, tmp_path, monkeypatch):
    argv, name, mutate, patterns = MUTATIONS[case]
    assert main(argv + ["--out", str(tmp_path / "clean")]) == EXIT_OK
    clean = _certificates(tmp_path / "clean")
    monkeypatch.setattr(localization, name,
                        mutate(getattr(localization, name)))
    assert main(argv + ["--out", str(tmp_path / "mutant")]) == EXIT_CERT
    mutant = _certificates(tmp_path / "mutant")
    for pattern in patterns:
        assert _named(clean, pattern) and \
            all(c["passed"] for c in _named(clean, pattern))
        assert _named(mutant, pattern) and \
            not any(c["passed"] for c in _named(mutant, pattern))
