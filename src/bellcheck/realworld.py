"""Four independent pair experiments: sampling, enumeration, tensor model.

A real CHSH run consists of four separate experiments E1..E4, one per
angle pair of an :class:`~bellcheck.polarization.AngleConfig`, each on
its own photon pair.  This module provides

* seeded Monte Carlo draws from the singlet pair distribution,
* exhaustive enumeration of the 4^4 = 256 joint elementary outcomes and
  the statistic x1 y1 + x2 y2 + x3 y3 - x4 y4 (always in [-4, 4]),
* the 256-dimensional four-pair product state and its full Born-rule
  outcome table, cross-checked against the factored per-pair tables.

Random streams are counter-indexed: draw ``i`` of experiment ``n`` lives
in block ``i // BLOCK_SIZE`` whose generator is seeded from
``SeedSequence([seed, n, block])``.  Results are therefore bit-identical
no matter how draws are sharded across workers.  Samplers count outcomes
block by block instead of keeping the draws, so their memory does not
grow with the number of draws.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .born import OUTCOME_VALUES, joint_pmf
from .errors import check
from .linalg import kron
from .polarization import AngleConfig, basis_matrix, singlet_state

BLOCK_SIZE = 1 << 16

# Per-experiment elementary outcomes in fixed order: the cell (k, l) of the
# pair table, flattened row-major, so cell index 0 -> (+1, +1), 1 -> (+1, -1),
# 2 -> (-1, +1), 3 -> (-1, -1).
CELL_VALUES = tuple(itertools.product((1, -1), (1, -1)))


@dataclass(frozen=True)
class ExperimentOutcome:
    """One draw (x, y) of experiment E1..E4."""

    experiment_index: int
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.experiment_index not in (1, 2, 3, 4):
            raise ValueError("experiment_index must be in 1..4")
        if self.x not in (-1, 1) or self.y not in (-1, 1):
            raise ValueError("outcomes must be +-1")


@dataclass(frozen=True)
class RunRecord:
    """Outcomes of one joint run of all four experiments."""

    outcomes: tuple[ExperimentOutcome, ...]
    statistic: int

    def __post_init__(self) -> None:
        if len(self.outcomes) != 4 or [o.experiment_index for o in self.outcomes] != [1, 2, 3, 4]:
            raise ValueError("need one outcome per experiment, ordered E1..E4")
        if self.statistic != run_statistic(self.outcomes):
            raise ValueError("statistic does not match the outcomes")


def run_statistic(outcomes: tuple[ExperimentOutcome, ...]) -> int:
    o = outcomes
    return o[0].x * o[0].y + o[1].x * o[1].y + o[2].x * o[2].y - o[3].x * o[3].y


@dataclass(frozen=True)
class EstimatorResult:
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.stderr >= 0.0:
            raise ValueError("stderr must be non-negative")


def _estimate(total: float, total_sq: float, n: int) -> EstimatorResult:
    mean = total / n
    if n < 2:
        return EstimatorResult(mean, 0.0, n)
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    return EstimatorResult(mean, math.sqrt(var / n), n)


def _pair_cdf(alpha: float, beta: float) -> np.ndarray:
    """Cumulative cell probabilities in the fixed CELL_VALUES order."""
    p = joint_pmf(singlet_state(), alpha, beta).p
    return np.cumsum(p.reshape(-1))


def sample_pair(alpha: float, beta: float, rng: np.random.Generator) -> tuple[int, int]:
    """Draw one (x, y) outcome from the singlet pair distribution.

    Inverse-CDF over the four cells using a single uniform, so exactly
    one draw of ``rng`` is consumed per call.  A draw u lands in cell
    #{j < 3 : cdf[j] <= u}, which is min(searchsorted(cdf, u, "right"), 3);
    the block samplers count the same rule.
    """
    cdf = _pair_cdf(alpha, beta)
    return CELL_VALUES[int((rng.random() >= cdf[:3]).sum())]


def _block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, block]))


def _uniform_blocks(seed: int, stream: int, n: int) -> Iterator[np.ndarray]:
    """The first ``n`` uniforms of a counter-indexed stream, one block at a time.

    Every block is written into the same buffer, so a caller must be done
    with one block before it asks for the next.
    """
    buf = np.empty(min(n, BLOCK_SIZE))
    for block, lo in enumerate(range(0, n, BLOCK_SIZE)):
        u = buf[: min(BLOCK_SIZE, n - lo)]
        _block_rng(seed, stream, block).random(out=u)
        yield u


def stream_uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """The first ``n`` uniforms of a counter-indexed stream, as one array.

    The same draws the samplers count block by block; the block layout
    makes the value of draw ``i`` independent of how [0, n) is split over
    workers.
    """
    out = np.empty(n)
    for lo, u in zip(range(0, n, BLOCK_SIZE), _uniform_blocks(seed, stream, n)):
        out[lo : lo + len(u)] = u
    return out


def _check_draw_count(n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 2**53:
        raise ValueError("n must be at most 2**53 = 9007199254740992: larger counts are not exact in float64")


def _cell_counts(cdf: np.ndarray, seed: int, stream: int, n: int) -> np.ndarray:
    """How many of the first ``n`` draws of a stream land in each cell (rule of ``sample_pair``)."""
    at_least = np.zeros(3, dtype=np.int64)  # draws with u >= cdf[j]
    for u in _uniform_blocks(seed, stream, n):
        at_least += [np.count_nonzero(u >= t) for t in cdf[:3]]
    return -np.diff(np.concatenate(([n], at_least, [0])))


def run_experiments(
    cfg: AngleConfig, n: int, seed: int
) -> tuple[tuple[EstimatorResult, ...], EstimatorResult]:
    """Estimate the four pair correlations and their CHSH combination.

    Each experiment draws ``n`` pairs (1 <= n <= 2**53) from its own
    independent stream (stream id = experiment index), counted block by
    block, so memory does not grow with ``n``.  Returns the
    per-experiment product estimates C1..C4 and the combination
    C1 + C2 + C3 - C4 with standard errors combined in quadrature.
    """
    _check_draw_count(n)
    estimates = []
    for idx, (a, b) in enumerate(cfg.experiment_angles(), start=1):
        counts = _cell_counts(_pair_cdf(a, b), seed, idx, n)
        # x*y is +1 on cells 0 and 3 and -1 on cells 1 and 2, and (x*y)^2 = 1:
        # both sums are integers of magnitude <= n <= 2**53, hence exact.
        total = int(counts[0] - counts[1] - counts[2] + counts[3])
        estimates.append(_estimate(float(total), float(n), n))
    signs = (1.0, 1.0, 1.0, -1.0)
    mean = sum(s * e.mean for s, e in zip(signs, estimates))
    stderr = math.sqrt(sum(e.stderr**2 for e in estimates))
    return tuple(estimates), EstimatorResult(mean, stderr, n)


def enumerate_total_sample_space() -> list[RunRecord]:
    """All 256 joint elementary outcomes of the four experiments."""
    records = []
    for cells in itertools.product(range(4), repeat=4):
        outcomes = tuple(
            ExperimentOutcome(idx, *CELL_VALUES[cell]) for idx, cell in enumerate(cells, start=1)
        )
        records.append(RunRecord(outcomes, run_statistic(outcomes)))
    return records


def statistic_histogram(records: list[RunRecord] | None = None) -> dict[int, int]:
    """Counts of each statistic value over the enumerated sample space."""
    if records is None:
        records = enumerate_total_sample_space()
    hist: dict[int, int] = {}
    for r in records:
        hist[r.statistic] = hist.get(r.statistic, 0) + 1
    return dict(sorted(hist.items()))


def tensor_state() -> np.ndarray:
    """Product state of the four identically prepared singlet pairs (dim 256)."""
    psi = singlet_state().reshape(4, 1)
    state = psi
    for _ in range(3):
        state = kron(state, psi)
    return state.reshape(-1)


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
    pair_tables = [joint_pmf(singlet_state(), a, b).p for a, b in cfg.experiment_angles()]

    alphas, betas = np.array(cfg.experiment_angles()).T
    amps = tensor_state().reshape(4, 64)
    for pair_basis in kron(basis_matrix(alphas), basis_matrix(betas)).conj():
        # Contract the leading pair axis and move it last; after all four
        # pairs the axes are back in pair order.
        amps = (pair_basis @ amps).T.reshape(4, 64)
    born_route = (np.abs(amps) ** 2).reshape((2,) * 8)

    factored = np.einsum("ab,cd,ef,gh->abcdefgh", *pair_tables)
    check("full Born route vs factored route", np.abs(born_route - factored), 1e-12)
    return born_route


def tensor_chsh_expectation(cfg: AngleConfig) -> float:
    """Expectation of the run statistic under the eight-variable table."""
    table = tensor_joint_pmf(cfg)
    v = OUTCOME_VALUES
    stat = (
        np.einsum("a,b->ab", v, v).reshape(2, 2, 1, 1, 1, 1, 1, 1)
        + np.einsum("c,d->cd", v, v).reshape(1, 1, 2, 2, 1, 1, 1, 1)
        + np.einsum("e,f->ef", v, v).reshape(1, 1, 1, 1, 2, 2, 1, 1)
        - np.einsum("g,h->gh", v, v).reshape(1, 1, 1, 1, 1, 1, 2, 2)
    )
    return float(np.sum(table * stat))
