import importlib
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from bellcheck import realworld
from bellcheck.born import chsh_expectation, joint_pmf
from bellcheck.chsh_operator import chsh_spectrum, sample_outcomes
from bellcheck.errors import InternalCheckError
from bellcheck.polarization import AngleConfig, singlet_state
from bellcheck.realworld import (
    BLOCK_SIZE,
    CELL_VALUES,
    EstimatorResult,
    ExperimentOutcome,
    RunRecord,
    enumerate_total_sample_space,
    run_experiments,
    run_statistic,
    sample_pair,
    statistic_histogram,
    stream_uniforms,
    tensor_chsh_expectation,
    tensor_joint_pmf,
    tensor_state,
)
from bellcheck.realworld import _cell_counts, _estimate, _pair_cdf  # the counting path under test

OPTIMAL = AngleConfig.from_degrees(0.0, 45.0, 22.5, -22.5)


def test_sample_pair_perfect_anticorrelation_at_equal_angles():
    rng = np.random.default_rng(0)
    for _ in range(500):
        x, y = sample_pair(0.4, 0.4, rng)
        assert x * y == -1


def test_sample_pair_uniform_at_45_degrees():
    rng = np.random.default_rng(1)
    n = 40_000
    counts = {}
    for _ in range(n):
        xy = sample_pair(0.0, math.pi / 4, rng)
        counts[xy] = counts.get(xy, 0) + 1
    stderr = math.sqrt(0.25 * 0.75 / n)
    for cell in product((1, -1), repeat=2):
        assert abs(counts[cell] / n - 0.25) < 3 * stderr


def test_sample_pair_mean_x_is_zero():
    rng = np.random.default_rng(2)
    n = 40_000
    total = sum(sample_pair(0.2, 0.9, rng)[0] for _ in range(n))
    assert abs(total / n) < 3 / math.sqrt(n)


def test_stream_uniforms_block_invariance():
    # the value of draw i must not depend on how many draws are requested
    full = stream_uniforms(99, 3, BLOCK_SIZE + 500)
    prefix = stream_uniforms(99, 3, 700)
    assert np.array_equal(full[:700], prefix)
    assert not np.array_equal(
        stream_uniforms(99, 1, 100), stream_uniforms(99, 2, 100)
    )


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
    # test taps the streams directly
    cells_1 = _cell_rule(stream_uniforms(5, 1, n), _pair_cdf(*cfg.experiment_angles()[0]))
    cells_2 = _cell_rule(stream_uniforms(5, 2, n), _pair_cdf(*cfg.experiment_angles()[1]))
    p1 = np.mean(cells_1 == 0)
    p2 = np.mean(cells_2 == 0)
    p12 = np.mean((cells_1 == 0) & (cells_2 == 0))
    se = math.sqrt(p12 * (1 - p12) / n) + math.sqrt(p1 * p2 / n)
    assert abs(p12 - p1 * p2) < 5 * se


def _searchsorted_cell(u, cdf):
    return np.minimum(np.searchsorted(cdf, u, side="right"), 3)


class _FixedDraw:
    """Stands in for a Generator whose next uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("cdf", [
    _pair_cdf(0.2, 0.9),
    _pair_cdf(0.0, math.pi / 4),
    _pair_cdf(0.4, 0.4),  # equal settings: two zero cells
    np.array([0.0, 0.5, 1.0, 1.0]),
    np.array([0.5, 0.5, 0.5, 1.0]),
    np.array([0.0, 0.0, 0.0, 1.0]),
    np.array([0.25, 0.25, 1.0, 1.0]),
])
def test_cell_rule_equals_capped_searchsorted(monkeypatch, cdf):
    monkeypatch.setattr(realworld, "_pair_cdf", lambda alpha, beta: cdf)
    random_u = np.random.default_rng(17).random(2_000)
    edges = np.concatenate((cdf, [0.0], np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)))
    for u in np.concatenate((random_u, edges)).tolist():
        assert sample_pair(0.0, 0.0, _FixedDraw(u)) == CELL_VALUES[int(_searchsorted_cell(u, cdf))]
    # the vectorised rule the stream tests use is the same rule
    for u in (random_u, edges):
        assert np.array_equal(_cell_rule(u, cdf), _searchsorted_cell(u, cdf))
    # and so are the block counts, fed the same draws as two blocks
    monkeypatch.setattr(realworld, "_uniform_blocks", lambda seed, stream, n: iter((random_u, edges)))
    want = np.bincount(_searchsorted_cell(np.concatenate((random_u, edges)), cdf), minlength=4)
    assert np.array_equal(_cell_counts(cdf, 0, 0, len(random_u) + len(edges)), want)


@pytest.mark.parametrize("n", [1, 2, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 7])
def test_block_counts_match_the_per_draw_samplers(n):
    # references: the per-draw arrays the counting samplers replace
    cfg = AngleConfig.from_degrees(0.0, 30.0, 15.0, 75.0)
    per_exp, _ = run_experiments(cfg, n, seed=31)
    for idx, ((a, b), est) in enumerate(zip(cfg.experiment_angles(), per_exp), start=1):
        cells = _searchsorted_cell(stream_uniforms(31, idx, n), _pair_cdf(a, b))
        assert np.array_equal(_cell_counts(_pair_cdf(a, b), 31, idx, n), np.bincount(cells, minlength=4))
        vals = np.array([1.0, -1.0, -1.0, 1.0])[cells]
        assert est == _estimate(float(vals.sum()), float((vals**2).sum()), n)
    spectrum = chsh_spectrum(cfg)
    k_plus = int(np.count_nonzero(stream_uniforms(31, 0, n) < spectrum.w_plus))
    assert sample_outcomes(cfg, n, seed=31).mean == spectrum.t0 * ((2 * k_plus - n) / n)


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
    # the package attribute chsh_operator is the function of that name
    monkeypatch.setattr(importlib.import_module("bellcheck.chsh_operator"), "_uniform_blocks", no_draws)
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
    outcomes = tuple(ExperimentOutcome(i, 1, 1) for i in range(1, 5))
    with pytest.raises(ValueError, match="statistic"):
        RunRecord(outcomes, statistic=0)
    with pytest.raises(ValueError):
        ExperimentOutcome(5, 1, 1)
    with pytest.raises(ValueError):
        ExperimentOutcome(1, 2, 1)


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


def test_full_born_route_reads_the_256_dimensional_state(monkeypatch):
    # |e1 e2> in the first pair: if the full route were rebuilt from the
    # pair tables, it would not see this state and the check would pass.
    wrong = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    for _ in range(3):
        wrong = np.kron(wrong, singlet_state())
    monkeypatch.setattr(realworld, "tensor_state", lambda: wrong)
    with pytest.raises(InternalCheckError, match="full Born route vs factored route"):
        tensor_joint_pmf(OPTIMAL)
