import importlib
import itertools
import math
import random

import numpy as np
import pytest

from bellcheck.born import chsh_expectation, chsh_expectations
from bellcheck.chsh_operator import (
    _chsh_planes,
    atom_magnitude,
    chsh_operator,
    chsh_spectra,
    chsh_spectrum,
    closed_form_expectation,
    sample_outcomes,
)
from bellcheck.errors import InternalCheckError
from bellcheck.linalg import _ROUNDS_4, _eig_array, _eig_lone, eig_hermitian, hermiticity_defect
from bellcheck.polarization import AngleConfig, singlet_state, x_operator, y_operator

chsh_mod = importlib.import_module("bellcheck.chsh_operator")
closed_form = importlib.import_module("bellcheck.closed_form")
OPTIMAL = AngleConfig.from_degrees(0.0, 45.0, 22.5, -22.5)


def random_configs(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        try:
            out.append(AngleConfig(*rng.uniform(0.0, math.pi, 4)))
        except ValueError:
            continue
    return out


def test_operator_is_traceless_hermitian():
    for cfg in random_configs(1, 100):
        op = chsh_operator(cfg)
        assert abs(np.trace(op)) < 1e-12
        assert hermiticity_defect(op) <= 1e-13


def test_operator_sandwich_equals_chsh_expectation():
    psi = singlet_state()
    for cfg in random_configs(2, 50):
        sandwich = float(np.real(psi.conj() @ chsh_operator(cfg) @ psi))
        assert abs(sandwich - chsh_expectation(cfg)) < 1e-12


def test_spectrum_at_optimal_angles():
    s = chsh_spectrum(OPTIMAL)
    root8 = 2 * math.sqrt(2)
    assert s.t0 == pytest.approx(root8, abs=1e-12)
    assert s.t1 == pytest.approx(0.0, abs=1e-9)
    assert s.w_plus == pytest.approx(0.0, abs=1e-12)
    assert s.w_minus == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.sort(s.eigenvalues), [-root8, 0.0, 0.0, root8], atol=1e-9)


def test_spectrum_degenerate_when_one_side_is_orthogonal():
    # alpha1 - alpha2 = 90 deg kills the sine product, so t0 = t1 = 2
    cfg = AngleConfig.from_degrees(0.0, 90.0, 22.5, -22.5)
    s = chsh_spectrum(cfg)
    assert s.t0 == pytest.approx(2.0, abs=1e-12)
    assert s.t1 == pytest.approx(2.0, abs=1e-9)
    assert s.w_plus + s.w_minus == pytest.approx(1.0)


def test_spectrum_symmetric_and_matches_closed_forms():
    for cfg in random_configs(3, 100):
        s = chsh_spectrum(cfg)
        evals = np.sort(s.eigenvalues)
        assert np.max(np.abs(evals + evals[::-1])) < 1e-9  # symmetric about 0
        product = math.sin(2 * (cfg.alpha1 - cfg.alpha2)) * math.sin(2 * (cfg.beta1 - cfg.beta2))
        assert s.t0 == pytest.approx(2 * math.sqrt(1 - product), abs=1e-9)
        # regression fact, established against the eigensolver: the dark
        # pair sits at 2 sqrt(1 + product)
        assert s.t1 == pytest.approx(2 * math.sqrt(1 + product), abs=1e-9)
        want = np.sort([s.t0, -s.t0, s.t1, -s.t1])
        assert np.max(np.abs(evals - want)) < 1e-9
        assert s.t0 <= 2 * math.sqrt(2) + 1e-12


def test_singlet_weight_avoids_dark_eigenspace():
    psi = singlet_state()
    for cfg in random_configs(4, 50):
        s = chsh_spectrum(cfg)
        if abs(s.t0 - s.t1) <= 1e-6:
            continue
        evals, evecs = eig_hermitian(chsh_operator(cfg), tol=1e-10)
        dark = np.abs(np.abs(evals) - s.t1) < 1e-8
        weight = float(np.sum(np.abs(evecs[:, dark].conj().T @ psi) ** 2))
        assert weight <= 1e-12


def test_closed_form_expectation_properties():
    assert closed_form_expectation(OPTIMAL) == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    for a1 in np.deg2rad(np.arange(0.0, 180.0, 5.0)):
        for b1 in np.deg2rad(np.arange(0.0, 180.0, 5.0)):
            try:
                cfg = AngleConfig(a1, a1 + math.pi / 3, b1, b1 + math.pi / 3)
            except ValueError:
                continue
            e = closed_form_expectation(cfg)
            assert abs(e - chsh_expectation(cfg)) < 1e-12
            assert abs(e) <= chsh_spectrum(cfg).t0 + 1e-9


def test_atom_magnitude_vanishes_only_at_full_sine_product():
    cfg = AngleConfig.from_degrees(0.0, -45.0, 45.0, 0.0)
    assert atom_magnitude(cfg) == pytest.approx(0.0, abs=1e-12)
    s = chsh_spectrum(cfg)
    assert s.w_plus == pytest.approx(0.5)
    est = sample_outcomes(cfg, 100, seed=3)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_sampling_deterministic_case():
    est = sample_outcomes(OPTIMAL, 2_000, seed=42)
    assert est.mean == pytest.approx(-2 * math.sqrt(2), abs=0.0)
    assert est.stderr == 0.0


def test_sampling_statistical_case():
    cfg = AngleConfig.from_degrees(0.0, 30.0, 15.0, 75.0)
    est = sample_outcomes(cfg, 100_000, seed=9)
    assert est.stderr > 0.0
    assert abs(est.mean - closed_form_expectation(cfg)) < 5 * est.stderr
    again = sample_outcomes(cfg, 100_000, seed=9)
    assert est == again


def test_sampling_rejects_zero_draws():
    with pytest.raises(ValueError):
        sample_outcomes(OPTIMAL, 0, seed=1)


def test_sampling_makes_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sample_outcomes must not diagonalize")

    monkeypatch.setattr(chsh_mod, "_eig_array", refuse)
    monkeypatch.setattr(chsh_mod, "_eig_lone", refuse)
    monkeypatch.setattr(chsh_mod, "chsh_spectrum", refuse)
    cfg = AngleConfig.from_degrees(0.0, 30.0, 15.0, 75.0)
    assert sample_outcomes(cfg, 1_000, seed=9).stderr > 0.0


# Near t0 = 0 the sampler checks t0 through Landau's identity and E through
# <psi|C|psi>, with no eigenvector; chsh_spectrum checks E there through its
# signed spectral sum, which no eigenvector's conditioning moves.
@pytest.mark.parametrize("beta2", ["45.003", "45.001", "45.0001", "45.00001", "45.000001", "45.0000001"])
def test_sampling_near_t0_zero_stays_within_t0(beta2):
    cfg = AngleConfig.from_degrees(0.0, 45.0, 0.0, float(beta2))
    est = sample_outcomes(cfg, 1_000, seed=17)
    assert abs(est.mean) <= atom_magnitude(cfg)


@pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
def test_atom_magnitude_near_zero_matches_high_precision(delta):
    # t0 = 2 sqrt(1 - sin 2(a1 - a2) sin 2(b1 - b2)) at 50 digits, from the same float angles.
    mpmath = pytest.importorskip("mpmath")
    cfg = AngleConfig.from_degrees(0.0, 45.0, 0.0, 45.0 + delta)
    with mpmath.workdps(50):
        a1, a2, b1, b2 = map(mpmath.mpf, (cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2))
        exact = 2 * mpmath.sqrt(1 - mpmath.sin(2 * (a1 - a2)) * mpmath.sin(2 * (b1 - b2)))
        assert abs(atom_magnitude(cfg) - exact) <= 1e-15


def angle_columns(configs):
    return [np.array([getattr(cfg, name) for cfg in configs]) for name in ("alpha1", "alpha2", "beta1", "beta2")]


# The rotation-count degrees of tests/test_linalg.py, with t0 = t1 at
# 0 90 22.5 -22.5, then E = +-t0 (w_plus 0 and 1), a w_plus that the clip
# raises from -1.1e-16 to 0, and t0 = 0 (w_plus 0.5).
PINNED_DEGREES = [
    (0, 45, 22.5, -22.5),
    (0, 45, 20, -22.5),
    (10.5, 50.25, 20.125, 30),
    (105.528, 109.043, 92.049, 177.716),
    (0, 90, 22.5, -22.5),
    (0, 45, 22.5, 112.5),
    (0, 135, 67.5, -67.5),
    (0, 22.5, 22.5, 112.5),
    (0, 45, 22.5, 67.5),
]


def shift_expectations_at(monkeypatch, configs, shift=1e-6):
    """Shift the closed-form E of each of ``configs``, alone or in a stack, by ``shift``."""
    real = closed_form.expectations

    def shifted(alpha1, alpha2, beta1, beta2):
        e = real(alpha1, alpha2, beta1, beta2)
        for cfg in configs:
            at = (alpha1 == cfg.alpha1) & (alpha2 == cfg.alpha2) & (beta1 == cfg.beta1) & (beta2 == cfg.beta2)
            e = e + shift * at
        return e

    monkeypatch.setattr(closed_form, "expectations", shifted)


# Settings where sines and cosines are exact, tie or vanish, signed zero and
# subnormals among them.
SPECIAL_RADIANS = [
    0.0, -0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2, math.pi,
    math.radians(22.5), math.radians(67.5), -math.pi / 8, 1e-300, 5e-324,
]


def bit_identity_configs():
    rng = random.Random("chsh rows")
    drawn = ([rng.uniform(-4.0, 4.0) for _ in range(4)] for _ in range(20_000))
    configs = []
    for angles in itertools.chain(drawn, itertools.product(SPECIAL_RADIANS, repeat=4)):
        try:
            configs.append(AngleConfig(*angles))
        except ValueError:
            continue
    return configs


def test_closed_form_expectation_equals_the_four_cosine_form_bitwise():
    # closed_form.expectations sums four closed-form correlations; it must give
    # the bits of the four-cosine form it replaced, signed zeros included, on
    # arrays and on Python floats.
    def four_cosines(alpha1, alpha2, beta1, beta2):
        return (
            -np.cos(2.0 * (alpha1 - beta1))
            - np.cos(2.0 * (alpha1 - beta2))
            - np.cos(2.0 * (alpha2 - beta1))
            + np.cos(2.0 * (alpha2 - beta2))
        )

    configs = bit_identity_configs()
    columns = angle_columns(configs)
    assert closed_form.expectations(*columns).tobytes() == four_cosines(*columns).tobytes()
    for cfg in configs:
        angles = (cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2)
        assert closed_form.expectations(*angles).tobytes() == four_cosines(*angles).tobytes()


def test_python_float_operator_and_solve_equal_the_array_route_bitwise():
    # chsh_spectrum and sample_outcomes build one configuration's operator as
    # rows of Python floats and chsh_spectrum solves it with _eig_lone;
    # chsh_spectra builds real planes and solves them on the shared array
    # route.  Both must give the same bits, signed zeros included (tobytes
    # tells -0.0 from 0.0), and equal the operator summed from the products
    # X(a) Y(b) of the public observables.
    configs = bit_identity_configs()
    assert len(configs) > 30_000
    a1, a2, b1, b2 = angle_columns(configs)
    planes = _chsh_planes(a1, a2, b1, b2)
    rows = [chsh_mod._chsh_rows(cfg) for cfg in configs]
    assert planes.dtype == np.float64 and np.array(rows).tobytes() == planes.tobytes()
    x1, x2, y1, y2 = x_operator(a1), x_operator(a2), y_operator(b1), y_operator(b2)
    reference = ((x1 @ y1 + x1 @ y2) + x2 @ y1) - x2 @ y2
    assert not reference.imag.any() and reference.real.tobytes() == planes.tobytes()
    evals, evecs = _eig_array(planes, 1e-10)
    solved = [_eig_lone(r, 1e-10, _ROUNDS_4) for r in rows]
    assert np.array([vals for vals, _ in solved]).tobytes() == evals.tobytes()
    assert np.array([vecs for _, vecs in solved]).tobytes() == evecs.tobytes()


def test_stacked_spectra_equal_single_spectra_bitwise(monkeypatch):
    # chsh_spectrum builds and solves one configuration on Python floats, and
    # chsh_spectra a stack on real arrays; the two must give the same bits, hand
    # _check_spectrum the same eigenvalues and singlet weights (summed in _dot's
    # order), so every check reads the same gap, and fail the same check.
    near_zero = [AngleConfig.from_degrees(0, 45, 0, 45.003), AngleConfig.from_degrees(0, 45, 0, 45.0000001)]
    configs = random_configs(41, 2000) + near_zero + [AngleConfig.from_degrees(*degrees) for degrees in PINNED_DEGREES]
    columns = angle_columns(configs)
    checked = []
    check_spectrum = chsh_mod._check_spectrum
    monkeypatch.setattr(chsh_mod, "_check_spectrum", lambda *args: checked.append(args[:2]) or check_spectrum(*args))
    stacked = chsh_spectra(*columns)
    expectations = chsh_expectations(*columns)
    for i, cfg in enumerate(configs):
        single = chsh_spectrum(cfg)
        for name in ("t0", "t1", "w_plus", "w_minus"):
            assert getattr(stacked, name)[i] == getattr(single, name), name
            assert type(getattr(single, name)) is float, name
        assert np.array_equal(stacked.eigenvalues[i], single.eigenvalues)
        assert expectations[i] == chsh_expectation(cfg)
    assert stacked.w_plus[-3:].tolist() == [1.0, 0.0, 0.5]
    assert len(checked) == 2 * len(configs)
    assert np.array(checked[: len(configs)]).tobytes() == np.array(checked[len(configs) :]).tobytes()

    # A closed-form E shifted by 1e-6: both routes fail on the same check,
    # with the same gap to the last bit.
    failing = OPTIMAL
    shift_expectations_at(monkeypatch, [failing])
    messages = []
    for call in (lambda: chsh_spectrum(failing), lambda: chsh_spectra(*angle_columns([failing]))):
        with pytest.raises(InternalCheckError, match="^projector weight vs closed form: gap ") as info:
            call()
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_failing_stack_reports_its_first_failing_configuration(monkeypatch):
    # Two configurations with a closed-form E shifted by 1e-6, the near-t0
    # one last in the stack: the stack fails with the message the first of
    # them gives alone.
    first = AngleConfig.from_degrees(*PINNED_DEGREES[2])
    near_zero = AngleConfig.from_degrees(0, 45, 0, 45.0000001)
    configs = [AngleConfig.from_degrees(*degrees) for degrees in PINNED_DEGREES] + [near_zero]
    shift_expectations_at(monkeypatch, [first, near_zero])
    with pytest.raises(InternalCheckError) as alone:
        chsh_spectrum(first)
    with pytest.raises(InternalCheckError) as stacked:
        chsh_spectra(*angle_columns(configs))
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(InternalCheckError, match="^[|]E[|] above t0: ") as last:
        chsh_spectrum(near_zero)
    assert str(last.value) != str(alone.value)


def test_stacked_operators_equal_single_operators():
    configs = random_configs(43, 10)
    stack = _chsh_planes(*angle_columns(configs))
    for op, cfg in zip(stack, configs):
        assert chsh_operator(cfg).tobytes() == op.astype(np.complex128).tobytes()


def test_spectra_validate_every_point():
    beta2 = np.radians([10.0, 30.0, 190.0])  # 190 coincides with beta1 = 10 mod 180
    with pytest.raises(ValueError, match="coincide"):
        chsh_spectra(0.0, math.radians(45.0), math.radians(10.0), beta2)
    with pytest.raises(ValueError, match="finite"):
        chsh_spectra(0.0, math.radians(45.0), math.radians(10.0), np.array([0.3, np.nan]))
    empty = chsh_spectra(0.0, 1.0, 0.5, np.array([]))
    assert empty.t0.shape == (0,) and empty.eigenvalues.shape == (0, 4)
