"""The shared cross-check helper, and every cross-check site made to fire.

Each site case perturbs one route of one check and asserts that the
resulting InternalCheckError names that check; the NaN cases feed a NaN
route through checks whose old ``gap > tol`` form let NaN pass.
"""

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import bellcheck
from bellcheck.errors import InternalCheckError, check
from bellcheck.polarization import AngleConfig, basis_matrix

born = importlib.import_module("bellcheck.born")
chsh_mod = importlib.import_module("bellcheck.chsh_operator")
cli = importlib.import_module("bellcheck.cli")
closed_form = importlib.import_module("bellcheck.closed_form")
counterfactual = importlib.import_module("bellcheck.counterfactual")
quasiprob = importlib.import_module("bellcheck.quasiprob")
realworld = importlib.import_module("bellcheck.realworld")

OPTIMAL = AngleConfig.from_degrees(0.0, 45.0, 22.5, -22.5)
LOCAL = AngleConfig.from_degrees(0.0, 45.0, 22.5, 112.5)  # Fine-feasible, with a witness


def test_check_passes_at_tol_and_fails_one_ulp_above():
    check("edge", 1e-9, 1e-9)
    check("edge", np.array([0.0, 1e-9]), 1e-9)
    with pytest.raises(InternalCheckError):
        check("edge", np.nextafter(1e-9, math.inf), 1e-9)


def test_check_fails_on_nan():
    with pytest.raises(InternalCheckError, match="nan"):
        check("nan gap", math.nan, 1.0)
    with pytest.raises(InternalCheckError, match="nan"):
        check("nan entry", np.array([0.0, math.nan, 0.5]), 1.0)
    with pytest.raises(InternalCheckError, match="nan"):
        check("nan entry", np.array([[math.nan, 0.0], [0.5, 0.0]]), 1.0)


def test_check_passes_an_empty_array():
    check("empty", np.array([]), 0.0)
    check("empty", np.empty((0, 4)), 0.0)


def test_check_message_prints_gap_and_tol_in_full():
    with pytest.raises(InternalCheckError) as info:
        check("some route", 1.0 + 1e-15, 1.0)
    assert str(info.value) == "some route: gap 1.000000000000001 exceeds tol 1.0"
    with pytest.raises(InternalCheckError, match=r"^stack: gap 0\.5 exceeds tol 0\.25$"):
        check("stack", np.array([[0.1, 0.5], [0.2, 0.0]]), 0.25)


def test_tensor_joint_pmf_rejects_a_nan_route(monkeypatch):
    monkeypatch.setattr(realworld, "tensor_state", lambda: np.full(256, np.nan, dtype=np.complex128))
    with pytest.raises(InternalCheckError, match="full Born route vs factored route"):
        realworld.tensor_joint_pmf(OPTIMAL)


# chsh_spectrum builds and solves one configuration's operator on Python floats
# (_chsh_rows, _eig_lone), and chsh_spectra a stack on real arrays (_chsh_planes,
# the shared array route _eig_array); both take Z's entries from _z_entries.
# Each spectrum check must fire on both.  A perturbation of a solver wraps both
# seams, of which each route calls one.  The stack holds OPTIMAL, where the
# perturbations below show, among two other configs.
SPECTRUM_ROUTES = {
    "chsh_spectrum": lambda: chsh_mod.chsh_spectrum(OPTIMAL),
    "chsh_spectra": lambda: chsh_mod.chsh_spectra(
        *np.radians([[0.0, 45.0, 22.5, -22.5], [0.0, 45.0, 20.0, -22.5], [10.5, 50.25, 20.125, 30.0]]).T
    ),
}


@pytest.mark.parametrize("route", list(SPECTRUM_ROUTES))
def test_chsh_spectrum_rejects_nan_eigenvectors(monkeypatch, route):
    _wrap(monkeypatch, chsh_mod, "_eig_lone", lambda res: (res[0], [[math.nan] * 4] * 4))
    _wrap(monkeypatch, chsh_mod, "_eig_array", lambda res: (res[0], np.full_like(res[1], np.nan)))
    with pytest.raises(InternalCheckError):
        SPECTRUM_ROUTES[route]()


def _wrap(monkeypatch, module, name, change):
    """Replace ``module.name`` by a function that passes its result through ``change``."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: change(real(*args, **kwargs)))


def _non_hermitian_factors(mp):
    # Both routes are real and cannot take the anti-Hermitian i*I, so their
    # factors get one off-diagonal entry raised by 1e-6 instead.
    _wrap(mp, chsh_mod, "_z_entries", lambda z: (z[0], z[1] + 1e-6, *z[2:]))


def _shifted_t0(mp):
    _wrap(mp, closed_form, "atom_magnitudes", lambda t0: t0 * (1.0 + 1e-6))


def _basis_eigenvectors(mp):
    _wrap(mp, chsh_mod, "_eig_array", lambda res: (res[0], np.broadcast_to(np.eye(4), res[1].shape)))
    _wrap(mp, chsh_mod, "_eig_lone", lambda res: (res[0], np.eye(4).tolist()))


def _expectation_above_t0(mp):
    _wrap(mp, closed_form, "expectations", lambda e: e * 1.001)


def _expectation_below_t0(mp):
    _wrap(mp, closed_form, "expectations", lambda e: e * 0.999)


def _shifted_t1(mp):
    # Additive: t1 = 0 at OPTIMAL.
    _wrap(mp, closed_form, "dark_magnitudes", lambda t1: t1 + 1e-6)


SPECTRUM_SITES = {
    "CHSH operator hermiticity": _non_hermitian_factors,
    "numeric t0 vs closed form": _shifted_t0,
    "singlet weight outside the outcome atoms": _basis_eigenvectors,
    "|E| above t0": _expectation_above_t0,
    "projector weight vs closed form": _expectation_below_t0,
    "numeric t1 vs closed form": _shifted_t1,
}

# sample_outcomes makes no eigensolve: it checks the closed-form t0
# through Landau's identity and E through the singlet expectation of the
# operator it builds.
SAMPLER_SITES = {
    "CHSH operator hermiticity": _non_hermitian_factors,
    "C^2 psi vs t0^2 psi": _shifted_t0,
    "<psi|C|psi> vs closed form": _expectation_below_t0,
}


def _on_route(perturb, call):
    def site(mp):
        perturb(mp)
        return call

    return site


def _scaled_pair_probabilities(mp):
    _wrap(mp, born, "_pair_probabilities", lambda p: p * 1.001)
    return lambda: counterfactual.quantum_pair_marginals(OPTIMAL)


def _rolled_tensor_state(mp):
    _wrap(mp, realworld, "tensor_state", lambda state: np.roll(state, 1))
    return lambda: realworld.tensor_joint_pmf(OPTIMAL)


def _chsh_variant_says_infeasible(mp):
    mp.setattr(counterfactual, "chsh_all_variants", lambda *c: 3.0)
    return lambda: counterfactual.fine_feasibility(counterfactual.quantum_pair_marginals(LOCAL))


def _chsh_variant_says_feasible(mp):
    mp.setattr(counterfactual, "chsh_all_variants", lambda *c: 1.0)
    return lambda: counterfactual.fine_feasibility(counterfactual.quantum_pair_marginals(OPTIMAL))


def _negative_triangle_cell(mp):
    def dent(cells):
        cells = list(cells)
        cells[cells.index(min(cells))] = -1e-6
        return cells

    _wrap(mp, counterfactual, "_triangle", dent)
    return lambda: counterfactual.fine_feasibility(counterfactual.quantum_pair_marginals(LOCAL))


def _rolled_witness(mp):
    _wrap(mp, counterfactual, "_glue", lambda cells: cells[1:] + cells[:1])
    return lambda: counterfactual.fine_feasibility(counterfactual.quantum_pair_marginals(LOCAL))


def _complex_overlaps(mp):
    _wrap(mp, quasiprob, "_overlaps", lambda overlap: overlap * np.exp(0.1j))
    return lambda: quasiprob.f_jkl(0.2, 0.9, 1.3)


def _stretched_q_value_bases(mp):
    # q_value's table route builds its bases on Python floats, not through _pair_probabilities.
    _wrap(mp, quasiprob, "_basis_rows", lambda rows: tuple(tuple(1.001 * x for x in row) for row in rows))
    return lambda: quasiprob.q_value(0.2, 0.9, 1.3)


def _turned_bob_operator(mp):
    # The operator route builds its three Z's in one call, Bob's last.
    real = quasiprob.z_operator
    mp.setattr(quasiprob, "z_operator", lambda angles: real(angles + np.array([0.0, 0.0, 0.1])))
    return lambda: quasiprob.q_value(0.2, 0.9, 1.3)


def _bob_basis_differs_between_brackets(mp):
    real = quasiprob._pair_amplitudes
    # basis_matrix(a) @ basis_matrix(b) == basis_matrix(a + b), so every
    # second bracket sees Bob's probe angles scaled by 1.3.
    turn = basis_matrix(0.3 * quasiprob._BETA_PROBES)
    calls = []

    def skewed(psi, alice, bob):
        calls.append(alice)
        return real(psi, alice, turn @ bob if len(calls) % 2 == 0 else bob)

    mp.setattr(quasiprob, "_pair_amplitudes", skewed)
    return lambda: quasiprob.f_jk(0.2, 0.9)


SITES = {
    **{f"{name} ({route})": _on_route(perturb, call) for name, perturb in SPECTRUM_SITES.items() for route, call in SPECTRUM_ROUTES.items()},
    **{f"{name} (sample_outcomes)": _on_route(perturb, lambda: chsh_mod.sample_outcomes(OPTIMAL, 10, 0)) for name, perturb in SAMPLER_SITES.items()},
    "singlet pair table total": _scaled_pair_probabilities,
    "singlet pair table total (q_value)": _stretched_q_value_bases,
    "full Born route vs factored route": _rolled_tensor_state,
    "q interval verdict vs CHSH criterion (feasible)": _chsh_variant_says_infeasible,
    "q interval verdict vs CHSH criterion (infeasible)": _chsh_variant_says_feasible,
    "witness negativity": _negative_triangle_cell,
    "witness marginal residual": _rolled_witness,
    "imaginary residue of quasi-probability cells": _complex_overlaps,
    "q_value operator route vs pair-table route": _turned_bob_operator,
    "f_jk spread over Bob's angle": _bob_basis_differs_between_brackets,
}


@pytest.mark.parametrize("site", list(SITES))
def test_each_cross_check_fires_and_names_itself(monkeypatch, site):
    call = SITES[site](monkeypatch)
    name = site.split(" (")[0]
    with pytest.raises(InternalCheckError, match="^" + re.escape(name) + ": gap "):
        call()


# The smallest fault "projector weight vs closed form" is meant to catch: a
# closed-form E off by 3e-12, three times the tolerance.  It fires at the
# optimum, at two settings near t0 = 0 and at a generic one, on both
# spectrum routes; the stack holds the configuration twice, since a
# one-point stack is solved on the lone route.
EDGE_DEGREES = [(0.0, 45.0, 22.5, -22.5), (0.0, 45.0, 0.0, 45.0000001), (0.0, 45.0, 20.0, 30.0), (0.0, 45.0, 22.5, 67.5000001)]


@pytest.mark.parametrize("route", ["chsh_spectrum", "chsh_spectra"])
@pytest.mark.parametrize("degrees", EDGE_DEGREES)
def test_projector_check_fires_on_an_expectation_off_by_3e_12(monkeypatch, degrees, route):
    cfg = AngleConfig.from_degrees(*degrees)
    _wrap(monkeypatch, closed_form, "expectations", lambda e: e + 3e-12)
    angles = (cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2)
    with pytest.raises(InternalCheckError, match="^projector weight vs closed form: gap "):
        chsh_mod.chsh_spectrum(cfg) if route == "chsh_spectrum" else chsh_mod.chsh_spectra(*([angle] * 2 for angle in angles))


# The CLI compares each printed Born number with its closed form; a Born
# route scaled by 1 + 1e-6 makes the check fire, and main exits 3 naming it.
# correlate's route is the pmf table it prints, whose signed sum is the
# printed correlation, so a scaled cell fires the correlation check first;
# at 0 45 that sum is about 0, and only the cells' own check fires.  fine
# checks its four pair tables before Fine's verdict reads them, and the
# largest CHSH variant it prints after.
CLI_SITES = {
    "correlation vs closed form": (born, "_clamp_probabilities", ["correlate", "0", "22.5"]),
    "pmf vs closed form": (born, "_clamp_probabilities", ["correlate", "0", "45"]),
    "e_qm vs closed form": (cli, "chsh_expectations", ["chsh", "0", "45", "22.5", "-22.5", "--sweep", "30"]),
    "pair tables vs closed form": (counterfactual, "_singlet_tables", ["fine", "0", "45", "22.5", "112.5"]),
    "chsh_variants vs closed form": (counterfactual, "chsh_all_variants", ["fine", "0", "45", "22.5", "-22.5"]),
}


@pytest.mark.parametrize("site", list(CLI_SITES))
def test_each_cli_cross_check_fires_and_names_itself(monkeypatch, capsys, site):
    module, route, argv = CLI_SITES[site]
    _wrap(monkeypatch, module, route, lambda value: value * (1.0 + 1e-6))
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"internal check failed: {site}: gap ")


def test_spectrum_checks_are_written_once():
    # chsh_spectrum and chsh_spectra run each configuration through one
    # shared block of spectrum checks, not a copy per route.
    package = Path(bellcheck.__file__).parent
    source = "".join(path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py")))
    for name in (
        "numeric t0 vs closed form",
        "singlet weight outside the outcome atoms",
        "projector weight vs closed form",
        "numeric t1 vs closed form",
    ):
        assert len(re.findall(r'\bcheck\(\s*"' + re.escape(name) + '"', source)) == 1, name


def test_each_closed_form_is_written_once():
    # closed_form.py writes t0, t1, the correlation and the t0 floor; every
    # other module reads them there.
    package = Path(bellcheck.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "closed_form.py":
            source = path.read_text(encoding="utf-8")
            for formula in ("np.hypot(", "cos(2.0 * (", "T0_FLOOR ="):
                assert formula not in source, f"{path.name} writes {formula}"


def test_cross_checks_raise_only_through_check():
    # Every route-agreement check goes through errors.check.
    package = Path(bellcheck.__file__).parent
    raises = [
        f"{path.name}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
        for line in path.read_text(encoding="utf-8").splitlines()
        if "raise InternalCheckError" in line
    ]
    assert raises == []
