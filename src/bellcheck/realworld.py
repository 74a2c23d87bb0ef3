"""Four independent pair experiments: sampling, enumeration, tensor model.

A real CHSH run consists of four separate experiments E1..E4, one per
angle pair of an :class:`~bellcheck.polarization.AngleConfig`, each on
its own photon pair.  This module provides

* seeded Monte Carlo estimates of the four pair correlations,
* exhaustive enumeration of the 4^4 = 256 joint elementary outcomes,
  each a run of four (x, y) draws ordered E1..E4, and the statistic
  x1 y1 + x2 y2 + x3 y3 - x4 y4 (always in [-4, 4]),
* the 256-dimensional four-pair product state and its full Born-rule
  outcome table, cross-checked against the factored per-pair tables.

Random streams are numbered: stream 0 feeds
:func:`~bellcheck.chsh_operator.sample_outcomes`, and streams 1..4 feed
the experiments E1..E4.  They are counter-indexed: draw ``i`` of stream
``n`` lives in block ``i // BLOCK_SIZE`` whose generator is seeded from
``SeedSequence([seed, n, block])``, so a draw's value depends only on
(seed, stream, index).  Both seeded samplers,
:func:`run_experiments` and :func:`~bellcheck.chsh_operator.sample_outcomes`,
estimate the mean of a two-valued outcome with one estimator.  It counts
the draws in one band of [0, 1) block by block instead of keeping them,
so memory does not grow with the number of draws, and the sample moments
follow exactly from that count.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .born import _PRODUCT_SIGNS, OUTCOMES, SINGLET, _experiment_bases, _singlet_tables
from .errors import check
from .linalg import _kron
from .polarization import AngleConfig

BLOCK_SIZE = 1 << 16

# Stream id of sample_outcomes; run_experiments draws experiment Ei from stream i = 1..4.
_SAMPLER_STREAM = 0

# Per-experiment elementary outcomes in fixed order: the cell (k, l) of the
# pair table, flattened row-major, so cell index 0 -> (+1, +1), 1 -> (+1, -1),
# 2 -> (-1, +1), 3 -> (-1, -1).
CELL_VALUES = tuple(itertools.product(OUTCOMES, OUTCOMES))

# The run statistic x1 y1 + x2 y2 + x3 y3 - x4 y4 on each cell of the
# eight-axis outcome table of tensor_joint_pmf.
_RUN_STATISTIC = np.add.outer(
    np.add.outer(np.add.outer(_PRODUCT_SIGNS, _PRODUCT_SIGNS), _PRODUCT_SIGNS), -_PRODUCT_SIGNS
)
_RUN_STATISTIC.flags.writeable = False


@dataclass(frozen=True)
class ExperimentOutcome:
    """One draw (x, y) of one experiment; its place in a run names the experiment."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x not in (-1, 1) or self.y not in (-1, 1):
            raise ValueError("outcomes must be +-1")


@dataclass(frozen=True)
class RunRecord:
    """Outcomes of E1..E4, in that order, of one joint run; ``statistic`` is derived from them."""

    outcomes: tuple[ExperimentOutcome, ...]

    def __post_init__(self) -> None:
        if len(self.outcomes) != 4 or not all(isinstance(o, ExperimentOutcome) for o in self.outcomes):
            raise ValueError("need one outcome per experiment, ordered E1..E4")

    @property
    def statistic(self) -> int:
        return run_statistic(self.outcomes)


def run_statistic(outcomes: tuple[ExperimentOutcome, ...]) -> int:
    o = outcomes
    return o[0].x * o[0].y + o[1].x * o[1].y + o[2].x * o[2].y - o[3].x * o[3].y


@dataclass(frozen=True)
class EstimatorResult:
    """Sample mean with its standard error; both finite."""

    mean: float
    stderr: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        # Both comparisons below are False for NaN, so a NaN field fails them.
        if not abs(self.mean) < math.inf:
            raise ValueError("mean must be finite")
        if not 0.0 <= self.stderr < math.inf:
            raise ValueError("stderr must be non-negative and finite")


def _uniform_blocks(seed: int, stream: int, n: int) -> Iterator[np.ndarray]:
    """The first ``n`` uniforms of a counter-indexed stream, one block at a time.

    Every block is written into the same buffer, so a caller must be done
    with one block before it asks for the next.
    """
    buf = np.empty(min(n, BLOCK_SIZE))
    for block, lo in enumerate(range(0, n, BLOCK_SIZE)):
        u = buf[: min(BLOCK_SIZE, n - lo)]
        np.random.default_rng(np.random.SeedSequence([seed, stream, block])).random(out=u)
        yield u


def _check_draw_count(n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 2**53:
        raise ValueError("n must be at most 2**53 = 9007199254740992: larger counts are not exact in float64")


def _two_point_estimate(magnitude: float, lo: float, hi: float, seed: int, stream: int, n: int) -> EstimatorResult:
    """Mean and standard error of ``n`` outcomes +-magnitude drawn from a counter-indexed stream.

    Draw u gives -magnitude when lo <= u < hi and +magnitude otherwise.
    Callers check 1 <= n <= 2**53, so the -magnitude count is exact, and
    every squared outcome is magnitude**2: both sample moments are exact.
    """
    minus = 0
    for u in _uniform_blocks(seed, stream, n):
        minus += int(np.count_nonzero(u >= lo)) - int(np.count_nonzero(u >= hi))
    mean = magnitude * ((n - 2 * minus) / n)
    if n < 2:
        return EstimatorResult(mean, 0.0, n)
    var = max(magnitude**2 - mean * mean, 0.0) * n / (n - 1)
    return EstimatorResult(mean, math.sqrt(var / n), n)


def run_experiments(cfg: AngleConfig, n: int, seed: int) -> tuple[tuple[EstimatorResult, ...], EstimatorResult]:
    """Estimate the four pair correlations and their CHSH combination.

    Each experiment draws ``n`` pairs (1 <= n <= 2**53) from its own
    independent stream (stream id = experiment index), counted block by
    block, so memory does not grow with ``n``.  Draw u gives x*y = -1 in
    the band p00 <= u < p00 + p01 + p10 of its pair table.  Returns the
    per-experiment product estimates C1..C4 and the combination
    C1 + C2 + C3 - C4 with standard errors combined in quadrature.
    """
    _check_draw_count(n)
    c1, c2, c3, c4 = (
        _two_point_estimate(1.0, p00, p00 + p01 + p10, seed, stream, n)
        for stream, ((p00, p01), (p10, _)) in enumerate(_singlet_tables(*_experiment_bases(cfg)).tolist(), start=1)
    )
    mean = c1.mean + c2.mean + c3.mean - c4.mean
    stderr = math.sqrt(c1.stderr**2 + c2.stderr**2 + c3.stderr**2 + c4.stderr**2)
    return (c1, c2, c3, c4), EstimatorResult(mean, stderr, n)


def enumerate_total_sample_space() -> list[RunRecord]:
    """All 256 joint elementary outcomes of the four experiments."""
    return [
        RunRecord(tuple(ExperimentOutcome(x, y) for x, y in cells))
        for cells in itertools.product(CELL_VALUES, repeat=4)
    ]


def statistic_histogram(records: list[RunRecord] | None = None) -> dict[int, int]:
    """Counts of each statistic value over the enumerated sample space."""
    if records is None:
        records = enumerate_total_sample_space()
    hist: dict[int, int] = {}
    for r in records:
        hist[r.statistic] = hist.get(r.statistic, 0) + 1
    return dict(sorted(hist.items()))


# The four-pair product state ((psi (x) psi) (x) psi) (x) psi, built once.
_TENSOR_STATE = functools.reduce(_kron, [SINGLET.reshape(4, 1)] * 4).reshape(-1)
_TENSOR_STATE.flags.writeable = False


def tensor_state() -> np.ndarray:
    """Product state of the four identically prepared singlet pairs (dim 256), read-only."""
    return _TENSOR_STATE


def tensor_joint_pmf(cfg: AngleConfig) -> np.ndarray:
    """Joint outcome table of all eight variables, shape (2,)*8.

    Axes are ordered (k1, l1, k2, l2, k3, l3, k4, l4) following the
    package outcome convention (index 0 -> value +1).  The table is
    computed twice -- once through the full 256-dimensional Born rule
    and once as the product of the four per-pair tables -- and the two
    routes must agree to 1e-12, else the basis ordering is broken.

    The full route reads the 256 amplitudes of :func:`tensor_state` and
    applies the 256x256 measurement basis as the Kronecker product it
    is: each pair axis of the state, viewed as shape (4, 4, 4, 4), is
    contracted with its own conjugated 4x4 pair basis.  That is the
    Born rule on the whole state without forming the 256x256 matrix.
    """
    alice, bob = _experiment_bases(cfg)
    amps = tensor_state().reshape(4, 64)
    for pair_basis in _kron(alice, bob).conj():
        # Contract the leading pair axis and move it last; after all four
        # pairs the axes are back in pair order.
        amps = (pair_basis @ amps).T.reshape(4, 64)
    born_route = (np.abs(amps) ** 2).reshape((2,) * 8)

    factored = np.einsum("ab,cd,ef,gh->abcdefgh", *_singlet_tables(alice, bob))
    check("full Born route vs factored route", np.abs(born_route - factored), 1e-12)
    return born_route


def tensor_chsh_expectation(cfg: AngleConfig) -> float:
    """Expectation of the run statistic under the eight-variable table."""
    return float(np.sum(tensor_joint_pmf(cfg) * _RUN_STATISTIC))
