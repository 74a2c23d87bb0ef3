import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellcheck.born import JointPmf2x2, OUTCOME_VALUES
from bellcheck.counterfactual import (
    CfOutcome,
    CfPmf,
    PairMarginals,
    chsh_all_variants,
    chsh_expectation,
    fine_feasibility,
    identify_run,
    outcome_statistic,
    outcome_values,
    pair_marginals,
    quantum_pair_marginals,
    sample_space,
)
from bellcheck.polarization import AngleConfig
from bellcheck.realworld import ExperimentOutcome, RunRecord, enumerate_total_sample_space

OPTIMAL = AngleConfig.from_degrees(0.0, 45.0, 22.5, -22.5)


def correlation_box(c11, c12, c21, c22):
    """Pair tables with uniform singles and the given correlations."""
    signs = np.outer(OUTCOME_VALUES, OUTCOME_VALUES)
    tables = [JointPmf2x2((1.0 + signs * c) / 4.0) for c in (c11, c12, c21, c22)]
    return PairMarginals(*tables)


def test_sample_space_is_exactly_the_16_corners():
    space = sample_space()
    assert len(space) == 16
    assert len(set(space)) == 16
    assert CfOutcome(1, 1, 1, 1) in space
    assert CfOutcome(2, 2, 2, 2) in space


def test_outcome_values_and_statistic():
    assert outcome_values(CfOutcome(1, 1, 1, 1)) == (1, 1, 1, 1)
    assert outcome_values(CfOutcome(2, 2, 2, 2)) == (-1, -1, -1, -1)
    # the (a1, b1, a2, b2) = (-1, +1, +1, -1) case
    assert outcome_values(CfOutcome(2, 1, 1, 2)) == (-1, 1, 1, -1)
    assert outcome_statistic(CfOutcome(2, 1, 1, 2)) == 2
    assert outcome_statistic(CfOutcome(1, 1, 1, 1)) == 2
    assert {outcome_statistic(w) for w in sample_space()} == {-2, 2}


def test_chsh_expectation_point_mass_and_uniform():
    assert chsh_expectation(CfPmf.point_mass(CfOutcome(1, 1, 1, 1))) == pytest.approx(2.0)
    assert chsh_expectation(CfPmf.uniform()) == pytest.approx(0.0)


def test_chsh_expectation_bound_on_random_and_vertex_pmfs():
    rng = np.random.default_rng(6)
    for _ in range(10_000):
        w = rng.random(16)
        pmf = CfPmf((w / w.sum()).reshape(2, 2, 2, 2))
        assert abs(chsh_expectation(pmf)) <= 2.0 + 1e-12
    for omega in sample_space():
        assert abs(chsh_expectation(CfPmf.point_mass(omega))) == pytest.approx(2.0)


def test_cfpmf_validation():
    with pytest.raises(ValueError):
        CfPmf(np.full((2, 2, 2, 2), 0.1))
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 0, 0, 0] = 1.5
    bad[1, 1, 1, 1] = -0.5
    with pytest.raises(ValueError):
        CfPmf(bad)


def _run(x, y):
    return RunRecord(tuple(ExperimentOutcome(i + 1, x[i], y[i]) for i in range(4)))


def test_identify_run():
    assert identify_run(_run((1, 1, 1, 1), (1, 1, 1, 1))) == (1, 1, 1, 1)
    # a statistic-4 run is never identifiable
    run = _run((1, 1, 1, -1), (1, 1, 1, 1))
    assert run.statistic == 4
    assert identify_run(run) is None


def test_identify_fraction_and_bijection():
    images = []
    for record in enumerate_total_sample_space():
        values = identify_run(record)
        if values is not None:
            images.append(values)
    assert len(images) == 16  # 16 / 256 of all runs
    assert len(set(images)) == 16
    assert set(images) == {outcome_values(w) for w in sample_space()}
    # identified runs carry the counterfactual +-2 statistic
    for record in enumerate_total_sample_space():
        if identify_run(record) is not None:
            assert record.statistic in (-2, 2)


def test_chsh_all_variants_values():
    assert chsh_all_variants(-1.0, -1.0, -1.0, 1.0) == pytest.approx(4.0)
    assert chsh_all_variants(0.0, 0.0, 0.0, 0.0) == 0.0
    r = math.sqrt(2) / 2
    assert chsh_all_variants(-r, -r, -r, r) == pytest.approx(2 * math.sqrt(2))
    with pytest.raises(ValueError):
        chsh_all_variants(1.5, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_chsh_all_variants_rejects_non_finite_correlations(position, bad):
    c = [0.0] * 4
    c[position] = bad
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        chsh_all_variants(*c)


def test_pair_marginals_consistency_check():
    good = pair_marginals(CfPmf.uniform())
    assert all(abs(c) < 1e-12 for c in good.correlations())
    lopsided = JointPmf2x2(np.array([[0.7, 0.1], [0.1, 0.1]]))
    uniform = JointPmf2x2(np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="inconsistent"):
        PairMarginals(lopsided, uniform, uniform, uniform)


def test_fine_quantum_optimal_angles_infeasible():
    result = fine_feasibility(quantum_pair_marginals(OPTIMAL))
    assert not result.feasible
    assert result.witness is None
    assert result.chsh_value == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_fine_quantum_small_angle_spread_is_also_infeasible():
    # nearly aligned settings still break a relabeled CHSH bound:
    # three correlations sit near -1 while the fourth stays away
    marginals = quantum_pair_marginals(AngleConfig.from_degrees(0.0, 10.0, 5.0, 15.0))
    result = fine_feasibility(marginals)
    assert result.chsh_value == pytest.approx(3 * math.cos(math.radians(10)) - math.cos(math.radians(30)), abs=1e-12)
    assert result.chsh_value > 2.0
    assert not result.feasible


def test_fine_quantum_feasible_configuration():
    # beta2 = beta1 + 90 deg makes Bob's observables negatives of each other
    marginals = quantum_pair_marginals(AngleConfig.from_degrees(0.0, 45.0, 22.5, 112.5))
    result = fine_feasibility(marginals)
    assert result.feasible
    assert result.chsh_value == pytest.approx(math.sqrt(2), abs=1e-12)
    assert result.marginal_residual <= 1e-9


def test_fine_pushforward_marginals_are_feasible_with_valid_witness():
    rng = np.random.default_rng(13)
    for _ in range(50):
        w = rng.random(16)
        source = CfPmf((w / w.sum()).reshape(2, 2, 2, 2))
        marginals = pair_marginals(source)
        result = fine_feasibility(marginals)
        assert result.feasible
        assert result.marginal_residual <= 1e-9
        rebuilt = pair_marginals(result.witness)
        for got, want in zip(rebuilt.tables(), marginals.tables()):
            assert np.max(np.abs(got.p - want.p)) <= 1e-9


def test_fine_verdict_agrees_with_variant_criterion():
    rng = np.random.default_rng(17)
    verdicts = {True: 0, False: 0}
    for trial in range(200):
        if trial % 2 == 0:
            w = rng.random(16)
            marginals = pair_marginals(CfPmf((w / w.sum()).reshape(2, 2, 2, 2)))
        else:
            marginals = correlation_box(*rng.uniform(-1.0, 1.0, 4))
        result = fine_feasibility(marginals)
        assert result.feasible == (result.chsh_value <= 2.0 + 1e-9)
        verdicts[result.feasible] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_fine_vertex_pushforwards_sit_on_the_boundary():
    for omega in sample_space():
        marginals = pair_marginals(CfPmf.point_mass(omega))
        result = fine_feasibility(marginals)
        assert result.feasible
        assert result.chsh_value == pytest.approx(2.0)


def test_fine_deterministic_correlation_boxes():
    # exact +-1 correlations stress the zero-probability cells
    pr_box = fine_feasibility(correlation_box(1.0, 1.0, 1.0, -1.0))
    assert not pr_box.feasible
    assert pr_box.chsh_value == pytest.approx(4.0)
    aligned = fine_feasibility(correlation_box(1.0, 1.0, 1.0, 1.0))
    assert aligned.feasible and aligned.marginal_residual <= 1e-9
    boundary = fine_feasibility(correlation_box(1.0, 1.0, 0.0, 0.0))
    assert boundary.feasible
    assert boundary.chsh_value == pytest.approx(2.0)


def _pair_cells(marginals):
    return np.concatenate([t.p.reshape(-1) for t in marginals.tables()])


# Fine's 16 marginal equations, one column per outcome pushed through the pair sums.
MARGINAL_SYSTEM = np.column_stack([_pair_cells(pair_marginals(CfPmf.point_mass(omega))) for omega in sample_space()])
KEPT_ROWS = [0, 1, 2, 3, 4, 6, 8, 9, 12]


def test_fine_system_has_rank_nine_on_the_kept_rows():
    assert np.linalg.matrix_rank(MARGINAL_SYSTEM) == 9
    assert np.linalg.matrix_rank(MARGINAL_SYSTEM[KEPT_ROWS]) == 9


def test_fine_sparse_pushforward_with_rounded_certain_marginal():
    p = np.zeros(16)
    p[[9, 12, 13]] = [0.40273377526777426, 0.17794043512222393, 0.4193257896100018]
    result = fine_feasibility(pair_marginals(CfPmf(p.reshape(2, 2, 2, 2))))
    assert result.feasible and result.marginal_residual <= 1e-9


def _consistent_tables(rng):
    """Pair tables with random one-party marginals shared across pairs."""
    a1, a2, b1, b2 = rng.uniform(0.0, 1.0, 4)

    def table(pa, pb):
        p00 = rng.uniform(max(0.0, pa + pb - 1.0), min(pa, pb))
        return JointPmf2x2(np.array([[p00, pa - p00], [pb - p00, 1.0 - pa - pb + p00]]))

    return PairMarginals(table(a1, b1), table(a1, b2), table(a2, b1), table(a2, b2))


def test_fine_verdict_matches_linprog_oracle():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(29)
    cases = [pair_marginals(CfPmf.point_mass(omega)) for omega in sample_space()]
    for _ in range(40):
        cases.append(pair_marginals(CfPmf(rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2))))
        p = np.zeros(16)
        k = int(rng.integers(1, 5))
        p[rng.choice(16, k, replace=False)] = rng.dirichlet(np.ones(k))
        cases.append(pair_marginals(CfPmf(p.reshape(2, 2, 2, 2))))
        cases.append(_consistent_tables(rng))
        cases.append(correlation_box(*rng.uniform(-1.0, 1.0, 4)))
    verdicts = {True: 0, False: 0}
    for marginals in cases:
        oracle = optimize.linprog(
            np.zeros(16), A_eq=MARGINAL_SYSTEM, b_eq=_pair_cells(marginals), bounds=(0, None), method="highs"
        )
        assert oracle.status in (0, 2)  # 0 solved, 2 infeasible
        result = fine_feasibility(marginals)
        assert result.feasible == (oracle.status == 0)
        verdicts[result.feasible] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6])
def test_fine_boundary_behaviour_near_chsh_two(eps):
    # every eight-variant box above 2 is infeasible, down to 1e-12 above
    for odd, sign in product(range(4), (1.0, -1.0)):
        c = np.full(4, sign * (2.0 + eps) / 4.0)
        c[odd] = -c[odd]
        above = fine_feasibility(correlation_box(*c))
        assert not above.feasible
        below = fine_feasibility(correlation_box(*(c * (2.0 - eps) / (2.0 + eps))))
        assert below.feasible and below.marginal_residual <= 1e-9


@st.composite
def _marginals(draw):
    """Pushforwards of joints with some zero cells, correlation boxes, and boxes with one variant near 2."""
    kind = draw(st.sampled_from(["joint", "box", "near two"]))
    if kind == "joint":
        w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=16, max_size=16)))
        assume(w.sum() > 0.0)
        return pair_marginals(CfPmf((w / w.sum()).reshape(2, 2, 2, 2)))
    c = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    if kind == "near two":
        # the variant c11 + c12 + c21 - c22 at 2 +- 10^-k
        eps = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.integers(1, 16))
        c[3] = c[0] + c[1] + c[2] - 2.0 - eps
        assume(abs(c[3]) <= 1.0)
    return correlation_box(*c)


@given(_marginals())
@settings(max_examples=400, deadline=None)
def test_fine_verdict_is_the_variant_criterion_and_the_witness_returns_the_tables(marginals):
    result = fine_feasibility(marginals)
    chsh = chsh_all_variants(*marginals.correlations())
    assert result.chsh_value == chsh
    # Outside the verdict check's tolerance, below 1e-13 for tables consistent to rounding
    if abs(chsh - 2.0) > 1e-13:
        assert result.feasible == (chsh <= 2.0)
    if result.feasible:
        for got, want in zip(pair_marginals(result.witness).tables(), marginals.tables()):
            assert np.max(np.abs(got.p - want.p)) <= 1e-15
