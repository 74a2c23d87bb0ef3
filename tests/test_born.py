import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcheck.born import (
    JointPmf2x2,
    Pmf2,
    _experiment_bases,
    chsh_expectation,
    chsh_expectations,
    correlation,
    joint_pmf,
    pmf_single,
)
from bellcheck.counterfactual import CfPmf
from bellcheck.polarization import AngleConfig, basis_matrix, singlet_state, x_operator, y_operator
from bellcheck.quasiprob import QuasiPmf2, QuasiPmf3

M_MATRIX = np.ones((2, 2))
N_MATRIX = np.array([[1.0, -1.0], [-1.0, 1.0]])

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def closed_form_table(alpha, beta):
    return (M_MATRIX - math.cos(2 * (alpha - beta)) * N_MATRIX) / 4.0


def test_pmf_single_on_singlet_is_uniform():
    psi = singlet_state()
    for alpha in np.linspace(0, math.pi, 13):
        pmf = pmf_single(psi, x_operator(alpha))
        assert pmf.p_plus == pytest.approx(0.5, abs=1e-12)
        assert pmf.expectation == pytest.approx(0.0, abs=1e-12)


def test_pmf_single_on_eigenstate():
    e1e2 = np.array([0, 1, 0, 0], dtype=complex)
    pmf = pmf_single(e1e2, x_operator(0.0))
    assert pmf.p_plus == pytest.approx(1.0)
    assert pmf.p_minus == pytest.approx(0.0)


def test_pmf_single_validation():
    psi = singlet_state()
    with pytest.raises(ValueError, match="unit"):
        pmf_single(2 * psi, x_operator(0.0))
    with pytest.raises(ValueError, match="involutory"):
        pmf_single(psi, np.diag([2.0, 1.0, -1.0, -1.0]).astype(complex))
    with pytest.raises(ValueError, match="Hermitian"):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        pmf_single(psi, bad)


def test_pmf_single_rejects_non_finite_and_misshapen_observables():
    psi = singlet_state()
    for bad in (np.nan, np.inf):
        obs = x_operator(0.0)
        obs[0, 0] = bad
        with pytest.raises(ValueError, match="matrix contains NaN or infinite entries"):
            pmf_single(psi, obs)
    with pytest.raises(ValueError, match=r"observable shape \(4,\) does not match state dimension 4"):
        pmf_single(psi, np.ones(4))


def test_joint_pmf_against_explicit_kron_born_rule():
    # independent route: project onto explicit product basis vectors
    psi = singlet_state()
    rng = np.random.default_rng(4)
    for _ in range(100):
        alpha, beta = rng.uniform(-math.pi, math.pi, 2)
        table = joint_pmf(psi, alpha, beta).p
        ba, bb = basis_matrix(alpha), basis_matrix(beta)
        for k in range(2):
            for l in range(2):
                amp = np.vdot(np.kron(ba[k], bb[l]), psi)
                assert abs(table[k, l] - abs(amp) ** 2) < 1e-14


def test_joint_pmf_closed_form_examples():
    psi = singlet_state()
    equal = joint_pmf(psi, 0.3, 0.3).p
    assert np.max(np.abs(equal - np.array([[0.0, 0.5], [0.5, 0.0]]))) < 1e-12
    flat = joint_pmf(psi, 0.0, math.pi / 4).p
    assert np.max(np.abs(flat - 0.25)) < 1e-12
    table = joint_pmf(psi, 0.0, math.radians(22.5)).p
    diag = (1 - math.sqrt(2) / 2) / 4
    off = (1 + math.sqrt(2) / 2) / 4
    assert table[0, 0] == pytest.approx(diag, abs=1e-12)
    assert table[1, 1] == pytest.approx(diag, abs=1e-12)
    assert table[0, 1] == pytest.approx(off, abs=1e-12)
    assert table[1, 0] == pytest.approx(off, abs=1e-12)


def test_joint_pmf_marginals_are_uniform():
    psi = singlet_state()
    rng = np.random.default_rng(9)
    for _ in range(50):
        table = joint_pmf(psi, *rng.uniform(0, math.pi, 2))
        assert table.x_marginal().p_plus == pytest.approx(0.5, abs=1e-12)
        assert table.y_marginal().p_plus == pytest.approx(0.5, abs=1e-12)


def test_correlation_values():
    assert correlation(0.7, 0.7) == pytest.approx(-1.0, abs=1e-12)
    assert correlation(0.0, math.pi / 4) == pytest.approx(0.0, abs=1e-12)
    assert correlation(0.0, math.radians(22.5)) == pytest.approx(-math.sqrt(2) / 2, abs=1e-12)


@pytest.mark.parametrize(
    "alpha, beta",
    [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0), (np.array([0.1, math.nan]), 0.3), (0.2, np.array([[0.0], [math.inf]]))],
)
def test_correlation_and_chsh_reject_non_finite_angles(alpha, beta):
    with pytest.raises(ValueError, match="angle must be finite"):
        correlation(alpha, beta)
    with pytest.raises(ValueError, match="angle must be finite"):
        chsh_expectations(alpha, 0.5, beta, 1.0)


@pytest.mark.parametrize("state", [np.full(4, math.nan), np.array([math.inf, 0, 0, 0]), np.zeros(4), 2 * singlet_state()])
def test_joint_pmf_rejects_non_unit_and_nan_states(state):
    with pytest.raises(ValueError, match="not unit norm"):
        joint_pmf(state, 0.0, 0.0)


def test_correlation_matches_operator_sandwich():
    psi = singlet_state()
    rng = np.random.default_rng(14)
    for _ in range(1000):
        alpha, beta = rng.uniform(-math.pi, math.pi, 2)
        sandwich = np.real(psi.conj() @ x_operator(alpha) @ y_operator(beta) @ psi)
        assert abs(correlation(alpha, beta) - sandwich) < 1e-12


@given(angles, angles, angles)
@settings(max_examples=200, deadline=None)
def test_correlation_depends_only_on_angle_difference(alpha, beta, delta):
    assert abs(correlation(alpha, beta) - correlation(alpha + delta, beta + delta)) < 1e-12


def test_chsh_expectation_examples():
    optimal = AngleConfig.from_degrees(0.0, 45.0, 22.5, -22.5)
    assert chsh_expectation(optimal) == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    spread = AngleConfig.from_degrees(0.0, 60.0, 30.0, 90.0)
    assert chsh_expectation(spread) == pytest.approx(0.5, abs=1e-12)
    null = AngleConfig.from_degrees(0.0, 45.0, 22.5, 67.5)
    assert chsh_expectation(null) == pytest.approx(0.0, abs=1e-12)


def test_joint_pmf_shift_invariance():
    # the singlet table depends on the settings only through alpha - beta
    psi = singlet_state()
    rng = np.random.default_rng(27)
    for _ in range(100):
        alpha, beta, delta = rng.uniform(-math.pi, math.pi, 3)
        base = joint_pmf(psi, alpha, beta).p
        shifted = joint_pmf(psi, alpha + delta, beta + delta).p
        assert np.max(np.abs(base - shifted)) < 1e-12


def test_joint_pmf_marginals_match_single_observable_pmfs():
    rng = np.random.default_rng(33)
    for _ in range(20):
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = raw / np.linalg.norm(raw)
        alpha, beta = rng.uniform(0, math.pi, 2)
        table = joint_pmf(state, alpha, beta)
        assert table.x_marginal().p_plus == pytest.approx(
            pmf_single(state, x_operator(alpha)).p_plus, abs=1e-12
        )
        assert table.y_marginal().p_plus == pytest.approx(
            pmf_single(state, y_operator(beta)).p_plus, abs=1e-12
        )


def test_pmf2_and_joint_validation():
    with pytest.raises(ValueError):
        Pmf2(0.7, 0.7)
    with pytest.raises(ValueError):
        Pmf2(-0.1, 1.1)
    # tiny negative rounding noise is clamped and renormalized
    noisy = np.array([[0.5, 0.5 - 1e-13], [-5e-13, 0.0]])
    table = JointPmf2x2(noisy)
    assert table.p.min() == 0.0
    assert table.p.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="not representable"):
        JointPmf2x2(np.array([[0.5, 0.5], [1e-9, -1e-9]]))
    with pytest.raises(ValueError, match="sums"):
        JointPmf2x2(np.full((2, 2), 0.3))


def test_noisy_tables_clamp_as_the_per_table_stack_rule():
    # reference: the clamp written once for a whole stack, each table with
    # a negative cell renormalized alone and every other table kept as is
    rng = np.random.default_rng(2718)
    tables = rng.random((20_000, 2, 2))
    tables[rng.random(tables.shape) < 0.4] = 0.0
    tables[tables.sum(axis=(1, 2)) == 0.0, 0, 0] = 1.0
    tables /= tables.sum(axis=(1, 2), keepdims=True)
    tables += rng.uniform(-2.5e-13, 2.5e-13, tables.shape)
    negative = (tables < 0.0).any(axis=(1, 2), keepdims=True)
    clamped = np.maximum(tables, 0.0)
    want = np.where(negative, clamped / clamped.sum(axis=(1, 2), keepdims=True), tables)
    assert negative.sum() > 10_000
    assert np.array_equal(np.array([JointPmf2x2(t).p for t in tables]), want)


def test_experiment_bases_equal_per_angle_matrices():
    rng = np.random.default_rng(12)
    for _ in range(200):
        cfg = AngleConfig(*(float(angle) for angle in rng.uniform(-10.0, 10.0, 4)))
        alice, bob = _experiment_bases(cfg)
        for (alpha, beta), a, b in zip(cfg.experiment_angles(), alice, bob):
            assert np.array_equal(a, basis_matrix(alpha)) and np.array_equal(b, basis_matrix(beta))


def test_pmf2_admits_a_certain_outcome_rounded_above_one():
    # the two cells of the first row sum to 1 + 2^-52 in floating point
    marginal = JointPmf2x2([[0.40789537088361, 0.5921046291163902], [0, 0]]).x_marginal()
    assert marginal.p_plus == 1.0000000000000002 and marginal.p_minus == 0.0
    with pytest.raises(ValueError, match="outside"):
        Pmf2(1.0 + 1e-9, 0.0)




@pytest.mark.parametrize(
    "make, shape",
    [
        (JointPmf2x2, (2, 2)),
        (CfPmf, (2, 2, 2, 2)),
        (lambda v: QuasiPmf3(v, 0.0, 0.5, 1.0), (2, 2, 2)),
        (lambda v: QuasiPmf2(v, 0.0, 0.5), (2, 2)),
    ],
    ids=["JointPmf2x2", "CfPmf", "QuasiPmf3", "QuasiPmf2"],
)
def test_every_probability_table_checks_shape_finiteness_and_sum(make, shape):
    uniform = np.full(shape, 1.0 / math.prod(shape))
    make(uniform.tolist())
    with pytest.raises(ValueError, match="expected shape"):
        make(uniform.reshape(-1))
    one_nan = uniform.copy()
    one_nan.flat[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        make(one_nan)
    with pytest.raises(ValueError, match="sums"):
        make(uniform * (1.0 + 1e-9))


def test_table_sign_policies():
    # JointPmf2x2 clamps rounding noise (test_pmf2_and_joint_validation);
    # CfPmf rejects any negative cell, the quasi-probability tables keep them.
    p = np.full(16, 1.0 / 16.0)
    p[:2] = (-1e-13, 2.0 / 16.0 + 1e-13)
    with pytest.raises(ValueError, match="negative"):
        CfPmf(p.reshape(2, 2, 2, 2))
    assert QuasiPmf3([[[0.5, -0.25], [0.25, 0.0]], [[0.0, 0.25], [0.0, 0.25]]], 0.0, 0.5, 1.0).values.min() == -0.25
    with pytest.raises(ValueError, match="marginals"):
        QuasiPmf2([[0.6, 0.0], [0.0, 0.4]], 0.0, 0.5)
