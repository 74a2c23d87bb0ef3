import math

import numpy as np
import pytest

from bellcheck.born import joint_pmf
from bellcheck.polarization import basis_matrix, singlet_state
from bellcheck.quasiprob import f_jk, f_jkl, find_negativity, q_reconstruct, q_value

DEG = math.radians


def test_q_value_examples():
    assert q_value(DEG(0), DEG(60), DEG(30)) == pytest.approx(-1.0, abs=1e-12)
    assert q_value(0.7, 0.7, 0.7) == pytest.approx(-2.0, abs=1e-12)
    assert q_value(DEG(0), DEG(90), DEG(45)) == pytest.approx(0.0, abs=1e-12)


def test_f_jkl_frozen_negative_cell():
    table = f_jkl(DEG(0), DEG(60), DEG(30))
    assert table.values[0, 0, 0] == pytest.approx(-0.0625, abs=1e-12)
    assert table.values.sum() == pytest.approx(1.0, abs=1e-12)


def test_f_jkl_collapses_to_pair_table_at_equal_settings():
    psi = singlet_state()
    for alpha, beta in ((0.3, 1.1), (0.0, 0.5), (1.4, 1.4)):
        table = f_jkl(alpha, alpha, beta).values
        pair = joint_pmf(psi, alpha, beta).p
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want = pair[j, l] if j == k else 0.0
                    assert abs(table[j, k, l] - want) < 1e-12


def test_f_jkl_marginal_identities():
    psi = singlet_state()
    rng = np.random.default_rng(12)
    for _ in range(200):
        alpha, alpha_prime, beta = rng.uniform(0.0, math.pi, 3)
        table = f_jkl(alpha, alpha_prime, beta).values
        assert abs(table.sum() - 1.0) < 1e-12
        over_j = table.sum(axis=0)
        assert np.max(np.abs(over_j - joint_pmf(psi, alpha_prime, beta).p)) < 1e-12
        over_k = table.sum(axis=1)
        assert np.max(np.abs(over_k - joint_pmf(psi, alpha, beta).p)) < 1e-12


def test_q_reconstruct_agrees_with_q_value():
    assert q_reconstruct(DEG(0), DEG(60), DEG(30)) == pytest.approx(-1.0, abs=1e-12)
    for alpha in np.linspace(0.0, math.pi, 8):
        assert q_reconstruct(alpha, alpha, 0.0) == pytest.approx(-2 * math.cos(2 * alpha), abs=1e-12)
    rng = np.random.default_rng(23)
    for _ in range(300):
        angles = rng.uniform(0.0, math.pi, 3)
        assert abs(q_reconstruct(*angles) - q_value(*angles)) < 1e-12


def test_f_jk_examples_and_marginals():
    table = f_jk(0.9, 0.9)
    assert np.max(np.abs(table.values - np.diag([0.5, 0.5]))) < 1e-12
    table = f_jk(DEG(0), DEG(45))
    assert np.max(np.abs(table.values - 0.25)) < 1e-12
    rng = np.random.default_rng(31)
    for _ in range(100):
        alpha, alpha_prime = rng.uniform(0.0, math.pi, 2)
        values = f_jk(alpha, alpha_prime).values
        assert np.max(np.abs(values.sum(axis=0) - 0.5)) < 1e-12
        assert np.max(np.abs(values.sum(axis=1) - 0.5)) < 1e-12
        # observed behavior with real rotated bases: the setting-overlap
        # table never goes negative (it is half a squared overlap)
        assert values.min() > -1e-12


@pytest.mark.parametrize("alpha_prime", [0.3, 0.3 + math.pi / 2])
def test_f_jk_cells_are_never_negative(alpha_prime):
    # The cell that is 0 in exact arithmetic rounds to -4.8e-35 before the clamp.
    values = f_jk(0.3, alpha_prime).values
    assert not np.signbit(values).any()


def test_find_negativity_scan():
    witnesses = find_negativity(DEG(15.0))
    assert len(witnesses) > 0
    hits = [
        w for w in witnesses
        if (w.alpha, w.j, w.k, w.l) == (0.0, 1, 1, 1)
        and w.alpha_prime == pytest.approx(DEG(60))
        and w.beta == pytest.approx(DEG(30))
    ]
    assert len(hits) == 1
    assert hits[0].value == pytest.approx(-0.0625, abs=1e-12)
    values = [w.value for w in witnesses]
    assert values == sorted(values)
    assert min(values) <= -0.06
    # equal-settings slices are genuine probabilities, never negative
    assert all(not math.isclose(w.alpha, w.alpha_prime) for w in witnesses)


def test_find_negativity_includes_22_5_case():
    witnesses = find_negativity(DEG(22.5))
    assert any(
        w.alpha == 0.0 and w.alpha_prime == pytest.approx(DEG(45)) and w.beta == pytest.approx(DEG(22.5))
        for w in witnesses
    )


# The scan grid is np.arange(0, pi, step), which can end on a point equal
# to pi, the same setting as 0: a step of pi/61 gives 62 points, the last
# exactly pi (ROADMAP item 3).
@pytest.mark.xfail(strict=True, reason="the scan grid reaches pi")
def test_find_negativity_grid_stays_below_pi():
    witnesses = find_negativity(math.pi / 61)
    for field in ("alpha", "alpha_prime", "beta"):
        assert not np.any(np.abs(witnesses[field] - math.pi) <= 1e-12), field


def test_find_negativity_rejects_bad_step():
    with pytest.raises(ValueError):
        find_negativity(0.0)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, -0.1])
def test_find_negativity_rejects_non_finite_step(step):
    with pytest.raises(ValueError, match="positive and finite"):
        find_negativity(step)


def test_find_negativity_rejects_nan_threshold():
    # No cell compares below NaN, so a NaN threshold would quietly find nothing.
    with pytest.raises(ValueError, match="threshold must not be NaN"):
        find_negativity(DEG(30.0), threshold=math.nan)
    assert len(find_negativity(DEG(30.0), threshold=-math.inf)) == 0
    assert len(find_negativity(DEG(30.0), threshold=math.inf)) == 6**3 * 8


def test_f_jk_matches_summed_f_jkl_at_every_probe():
    alpha, alpha_prime = 0.4, 1.9
    summed = f_jk(alpha, alpha_prime).values
    for beta in np.linspace(0.0, math.pi, 7):
        assert np.max(np.abs(f_jkl(alpha, alpha_prime, beta).values.sum(axis=2) - summed)) < 1e-12


def test_beta_probes_are_the_seeded_draws():
    from bellcheck.quasiprob import _BETA_PROBE_BASES, _BETA_PROBES

    assert np.array_equal(_BETA_PROBES, np.random.default_rng(1278).uniform(0.0, np.pi, 10))
    assert not _BETA_PROBE_BASES.flags.writeable
    for beta, basis in zip(_BETA_PROBES, _BETA_PROBE_BASES, strict=True):
        assert np.array_equal(basis, basis_matrix(float(beta)))


def test_q_reconstruct_weights_are_the_outcome_sums():
    from bellcheck.quasiprob import _Q_WEIGHTS

    assert _Q_WEIGHTS.shape == (2, 2, 2) and not _Q_WEIGHTS.flags.writeable
    x = (1, -1)
    for j, k, l in np.ndindex(2, 2, 2):
        assert _Q_WEIGHTS[j, k, l] == (x[j] + x[k]) * x[l]
