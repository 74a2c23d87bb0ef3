import math
import tracemalloc

import numpy as np
import pytest

from bellcheck import realworld
from bellcheck.born import _singlet_tables, chsh_expectation, joint_pmf
from bellcheck.chsh_operator import chsh_spectrum, sample_outcomes
from bellcheck.errors import InternalCheckError
from bellcheck.polarization import AngleConfig, basis_matrix, singlet_state
from bellcheck.realworld import (
    BLOCK_SIZE,
    CELL_VALUES,
    EstimatorResult,
    ExperimentOutcome,
    RunRecord,
    enumerate_total_sample_space,
    run_experiments,
    run_statistic,
    statistic_histogram,
    tensor_chsh_expectation,
    tensor_joint_pmf,
    tensor_state,
)
from bellcheck.realworld import _two_point_estimate, _uniform_blocks  # the counting path under test

OPTIMAL = AngleConfig.from_degrees(0.0, 45.0, 22.5, -22.5)


def _cdf(alpha, beta):
    """The cell cdf of one angle pair in CELL_VALUES order, from the pair table the samplers read."""
    return np.cumsum(_singlet_tables(basis_matrix(alpha), basis_matrix(beta)).reshape(4))


def _stream_uniforms(seed, stream, n):
    """Reference stream: block b of the first n uniforms, drawn straight from its own seeded generator."""
    return np.concatenate([
        np.random.default_rng(np.random.SeedSequence([seed, stream, block])).random(min(BLOCK_SIZE, n - lo))
        for block, lo in enumerate(range(0, n, BLOCK_SIZE))
    ])


def test_uniform_blocks_block_invariance():
    # the value of draw i must not depend on how many draws are requested;
    # every block shares one buffer, so each is copied before the next
    full = [u.copy() for u in _uniform_blocks(99, 3, BLOCK_SIZE + 500)]
    assert [len(u) for u in full] == [BLOCK_SIZE, 500]
    assert np.array_equal(np.concatenate(full), _stream_uniforms(99, 3, BLOCK_SIZE + 500))
    (prefix,) = _uniform_blocks(99, 3, 700)
    assert np.array_equal(full[0][:700], prefix)
    assert not np.array_equal(_stream_uniforms(99, 1, 100), _stream_uniforms(99, 2, 100))


@pytest.mark.parametrize("n", [1, 700, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 3])
def test_uniform_blocks_match_the_reference_stream(n):
    blocks = [u.copy() for u in _uniform_blocks(7, 2, n)]
    assert [len(u) for u in blocks] == [min(BLOCK_SIZE, n - lo) for lo in range(0, n, BLOCK_SIZE)]
    assert np.array_equal(np.concatenate(blocks), _stream_uniforms(7, 2, n))


def test_run_experiments_matches_closed_form():
    n = 100_000
    per_exp, combined = run_experiments(OPTIMAL, n, seed=2024)
    for est, (a, b) in zip(per_exp, OPTIMAL.experiment_angles()):
        assert est.n == n
        assert abs(est.mean - (-math.cos(2 * (a - b)))) < 5 * est.stderr
    assert abs(combined.mean - chsh_expectation(OPTIMAL)) < 5 * combined.stderr


def test_run_experiments_deterministic():
    a = run_experiments(OPTIMAL, 5_000, seed=7)
    b = run_experiments(OPTIMAL, 5_000, seed=7)
    assert a == b or (a[0] == b[0] and a[1] == b[1])
    c = run_experiments(OPTIMAL, 5_000, seed=8)
    assert c[1].mean != a[1].mean


def test_run_experiments_rejects_zero_draws():
    with pytest.raises(ValueError):
        run_experiments(OPTIMAL, 0, seed=1)


def _cell_rule(u, cdf):
    return (u[:, None] >= cdf[:3]).sum(axis=1)


def test_cross_experiment_independence():
    # joint frequency across two experiments factorizes into the product
    cfg = AngleConfig.from_degrees(0.0, 30.0, 10.0, 70.0)
    n = 40_000
    cells_1 = _cell_rule(_stream_uniforms(5, 1, n), _cdf(*cfg.experiment_angles()[0]))
    cells_2 = _cell_rule(_stream_uniforms(5, 2, n), _cdf(*cfg.experiment_angles()[1]))
    p1 = np.mean(cells_1 == 0)
    p2 = np.mean(cells_2 == 0)
    p12 = np.mean((cells_1 == 0) & (cells_2 == 0))
    se = math.sqrt(p12 * (1 - p12) / n) + math.sqrt(p1 * p2 / n)
    assert abs(p12 - p1 * p2) < 5 * se


def _stream_cells(seed, stream, n, alpha, beta):
    """Cells of the first n draws (n <= BLOCK_SIZE) of a stream at one angle pair."""
    (u,) = _uniform_blocks(seed, stream, n)
    return _cell_rule(u, _cdf(alpha, beta))


def test_stream_cells_are_uniform_at_45_degrees():
    n = 40_000
    freq = np.bincount(_stream_cells(1, 1, n, 0.0, math.pi / 4), minlength=4) / n
    assert np.all(np.abs(freq - 0.25) < 3 * math.sqrt(0.25 * 0.75 / n))


@pytest.mark.parametrize("alpha, beta", [(0.2, 0.9), (0.4, 0.4), (0.0, 2.5)])
def test_stream_marginals_are_unbiased(alpha, beta):
    # each photon alone is +1 or -1 with probability 1/2, whatever the settings
    n = 40_000
    xy = np.array(CELL_VALUES)[_stream_cells(2, 1, n, alpha, beta)]
    assert np.all(np.abs(xy.mean(axis=0)) < 3 / math.sqrt(n))


def _searchsorted_cell(u, cdf):
    return np.minimum(np.searchsorted(cdf, u, side="right"), 3)


@pytest.mark.parametrize("cdf", [
    _cdf(0.2, 0.9),
    _cdf(0.0, math.pi / 4),
    _cdf(0.4, 0.4),  # equal settings: two zero cells
    np.array([0.0, 0.5, 1.0, 1.0]),
    np.array([0.5, 0.5, 0.5, 1.0]),
    np.array([0.0, 0.0, 0.0, 1.0]),
    np.array([0.25, 0.25, 1.0, 1.0]),
])
def test_cell_rule_equals_capped_searchsorted(monkeypatch, cdf):
    random_u = np.random.default_rng(17).random(2_000)
    edges = np.concatenate((cdf, [0.0], np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)))
    # the vectorised rule the stream tests use is the capped searchsorted rule
    for u in (random_u, edges):
        assert np.array_equal(_cell_rule(u, cdf), _searchsorted_cell(u, cdf))
    # and so is the x*y band the estimator counts, fed the same draws as two blocks
    monkeypatch.setattr(realworld, "_uniform_blocks", lambda seed, stream, n: iter((random_u, edges)))
    cells = _searchsorted_cell(np.concatenate((random_u, edges)), cdf)
    n, minus = len(cells), int(np.count_nonzero((cells == 1) | (cells == 2)))
    assert _two_point_estimate(1.0, cdf[0], cdf[2], 0, 0, n).mean == (n - 2 * minus) / n


def _moment_estimate(vals):
    """Reference estimator: sample mean and standard error from the per-draw values."""
    n = len(vals)
    mean = float(vals.sum()) / n
    if n < 2:
        return EstimatorResult(mean, 0.0, n)
    var = max(float((vals**2).sum()) / n - mean * mean, 0.0) * n / (n - 1)
    return EstimatorResult(mean, math.sqrt(var / n), n)


@pytest.mark.parametrize("n", [1, 2, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 7])
def test_block_counts_match_the_per_draw_samplers(n):
    # references: the per-draw arrays the counting samplers replace
    cfg = AngleConfig.from_degrees(0.0, 30.0, 15.0, 75.0)
    per_exp, _ = run_experiments(cfg, n, seed=31)
    for idx, ((a, b), est) in enumerate(zip(cfg.experiment_angles(), per_exp), start=1):
        cells = _searchsorted_cell(_stream_uniforms(31, idx, n), _cdf(a, b))
        assert est == _moment_estimate(np.array([1.0, -1.0, -1.0, 1.0])[cells])
    spectrum = chsh_spectrum(cfg)
    k_plus = int(np.count_nonzero(_stream_uniforms(31, 0, n) < spectrum.w_plus))
    assert sample_outcomes(cfg, n, seed=31).mean == spectrum.t0 * ((2 * k_plus - n) / n)


@pytest.mark.parametrize("n", [1, 2, BLOCK_SIZE - 1, BLOCK_SIZE + 1])
def test_sample_outcomes_matches_a_per_draw_reference(n):
    # the per-draw outcomes are +-t0 with t0 = 2.30 and w_plus = 0.37 here,
    # so the second moment t0**2 is far from t0
    cfg = AngleConfig.from_degrees(0.0, 75.0, 20.0, 130.0)
    spectrum = chsh_spectrum(cfg)
    vals = np.where(_stream_uniforms(31, 0, n) < spectrum.w_plus, spectrum.t0, -spectrum.t0)
    est, ref = sample_outcomes(cfg, n, seed=31), _moment_estimate(vals)
    assert est.n == n
    assert est.mean == pytest.approx(ref.mean, rel=1e-12, abs=1e-12)
    assert est.stderr == pytest.approx(ref.stderr, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, BLOCK_SIZE - 1, BLOCK_SIZE + 1])
def test_sample_outcomes_is_deterministic_at_the_optimal_angles(n):
    spectrum = chsh_spectrum(OPTIMAL)
    assert spectrum.w_plus == 0.0
    assert sample_outcomes(OPTIMAL, n, seed=5) == EstimatorResult(-spectrum.t0, 0.0, n)


@pytest.mark.parametrize("n", [1, 2, BLOCK_SIZE - 1, BLOCK_SIZE + 1])
def test_equal_settings_give_perfect_anticorrelation_on_every_draw(n):
    cfg = AngleConfig(0.4, 1.0, 0.4, 1.3)  # E1 measures both photons at 0.4
    assert run_experiments(cfg, n, seed=3)[0][0] == EstimatorResult(-1.0, 0.0, n)


def test_sampler_memory_does_not_grow_with_n():
    for sampler in (run_experiments, sample_outcomes):
        sampler(OPTIMAL, 10, seed=1)  # warm up one-time allocations
        tracemalloc.start()
        try:
            sampler(OPTIMAL, 2_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (sampler.__name__, peak)


def test_samplers_reject_counts_beyond_exact_float_sums(monkeypatch):
    def no_draws(seed, stream, n):
        raise AssertionError("the count must be rejected before any draw")

    monkeypatch.setattr(realworld, "_uniform_blocks", no_draws)
    for sampler in (run_experiments, sample_outcomes):
        with pytest.raises(ValueError, match="at most 2"):
            sampler(OPTIMAL, 2**53 + 1, seed=1)


def test_enumeration_size_and_range():
    records = enumerate_total_sample_space()
    assert len(records) == 256
    stats = [r.statistic for r in records]
    assert max(stats) == 4 and min(stats) == -4
    assert set(stats) == {-4, -2, 0, 2, 4}
    assert all(r.statistic == run_statistic(r.outcomes) for r in records)


def test_enumeration_histogram_matches_combinatorial_oracle():
    # statistic = product sum of four fair +-1 signs, each sign realized by
    # 2 of the 4 per-experiment outcomes: counts are 16 * C(4, j)
    oracle = {2 * j - 4: 16 * math.comb(4, j) for j in range(5)}
    assert statistic_histogram() == oracle
    assert statistic_histogram() == {-4: 16, -2: 64, 0: 96, 2: 64, 4: 16}


def test_record_validation():
    with pytest.raises(ValueError, match="one outcome per experiment"):
        RunRecord((ExperimentOutcome(1, 1),) * 3)
    with pytest.raises(ValueError, match="one outcome per experiment"):
        RunRecord((1, 1, 1, 1))
    with pytest.raises(ValueError):
        ExperimentOutcome(2, 1)


def test_estimator_result_validation():
    with pytest.raises(ValueError):
        EstimatorResult(0.0, 0.1, 0)
    with pytest.raises(ValueError):
        EstimatorResult(0.0, -0.1, 5)


def test_tensor_state_structure():
    state = tensor_state()
    assert state.shape == (256,)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-14
    nonzero = np.abs(state) > 1e-15
    assert nonzero.sum() == 16
    assert np.allclose(np.abs(state[nonzero]), 0.25)
    # no support on any |e1 e1> component of the first pair
    assert np.max(np.abs(state.reshape(4, 64)[0])) == 0.0


def test_tensor_joint_pmf_normalization_and_marginals():
    table = tensor_joint_pmf(OPTIMAL)
    assert table.shape == (2,) * 8
    assert abs(table.sum() - 1.0) < 1e-12
    first_pair = table.sum(axis=(2, 3, 4, 5, 6, 7))
    want = joint_pmf(singlet_state(), OPTIMAL.alpha1, OPTIMAL.beta1).p
    assert np.max(np.abs(first_pair - want)) < 1e-12
    last_pair = table.sum(axis=(0, 1, 2, 3, 4, 5))
    want = joint_pmf(singlet_state(), OPTIMAL.alpha2, OPTIMAL.beta2).p
    assert np.max(np.abs(last_pair - want)) < 1e-12


def test_tensor_expectation_equals_pair_route():
    rng = np.random.default_rng(21)
    for _ in range(10):
        angles = rng.uniform(0.0, math.pi, 4)
        try:
            cfg = AngleConfig(*angles)
        except ValueError:
            continue
        assert abs(tensor_chsh_expectation(cfg) - chsh_expectation(cfg)) < 1e-12
    assert tensor_chsh_expectation(OPTIMAL) == pytest.approx(-2 * math.sqrt(2), abs=1e-12)


def test_run_statistic_table_matches_the_enumeration():
    table = realworld._RUN_STATISTIC
    assert table.shape == (2,) * 8 and not table.flags.writeable
    for record in enumerate_total_sample_space():
        index = tuple(int(v == -1) for o in record.outcomes for v in (o.x, o.y))
        assert table[index] == record.statistic


def test_full_born_route_reads_the_256_dimensional_state(monkeypatch):
    # |e1 e2> in the first pair: if the full route were rebuilt from the
    # pair tables, it would not see this state and the check would pass.
    wrong = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    for _ in range(3):
        wrong = np.kron(wrong, singlet_state())
    monkeypatch.setattr(realworld, "tensor_state", lambda: wrong)
    with pytest.raises(InternalCheckError, match="full Born route vs factored route"):
        tensor_joint_pmf(OPTIMAL)
