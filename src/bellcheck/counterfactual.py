"""The counterfactual single-pair device and Fine's feasibility criterion.

A counterfactual CHSH device would release all four dichotomic values
a1, a2, b1, b2 on every photon pair.  Its sample space has only 16
elementary outcomes, the algebraic identity
(a1 + a2) b1 + (a1 - a2) b2 = +-2 holds pointwise, and hence every
distribution over the space obeys the CHSH bound |E| <= 2.

Fine's criterion connects this to real data: a local deterministic
model for four measured pair distributions exists exactly when one
joint distribution over the 16 outcomes returns all four as marginals.
``fine_feasibility`` decides that by a small phase-1 simplex and
cross-checks the verdict against the eight CHSH sign variants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .born import JointPmf2x2, _checked_table, _experiment_bases, _singlet_tables
from .errors import InternalCheckError, check
from .polarization import AngleConfig
from .realworld import RunRecord

_VALUES = (1, -1)  # index 0 -> +1, index 1 -> -1


@dataclass(frozen=True)
class CfOutcome:
    """Elementary outcome (k, l, m, n), one port index in {1, 2} per variable."""

    k: int
    l: int
    m: int
    n: int

    def __post_init__(self) -> None:
        for idx in (self.k, self.l, self.m, self.n):
            if idx not in (1, 2):
                raise ValueError("port indices must be 1 or 2")


def sample_space() -> list[CfOutcome]:
    """All 16 elementary outcomes, lexicographic in (k, l, m, n)."""
    return [CfOutcome(*idx) for idx in itertools.product((1, 2), repeat=4)]


def outcome_values(omega: CfOutcome) -> tuple[int, int, int, int]:
    """(a1, a2, b1, b2) carried by an elementary outcome; port 1 -> +1."""
    return (
        _VALUES[omega.k - 1],
        _VALUES[omega.l - 1],
        _VALUES[omega.m - 1],
        _VALUES[omega.n - 1],
    )


def outcome_statistic(omega: CfOutcome) -> int:
    """(a1 + a2) b1 + (a1 - a2) b2; equals +2 or -2 for every outcome."""
    a1, a2, b1, b2 = outcome_values(omega)
    return (a1 + a2) * b1 + (a1 - a2) * b2


@dataclass(frozen=True, eq=False)
class CfPmf:
    """Distribution over the 16 outcomes, stored as a (2, 2, 2, 2) array."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = _checked_table(self.probabilities, (2, 2, 2, 2))
        if p.min() < 0.0:
            raise ValueError(f"negative probability {p.min()}")
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def point_mass(cls, omega: CfOutcome) -> "CfPmf":
        p = np.zeros((2, 2, 2, 2))
        p[omega.k - 1, omega.l - 1, omega.m - 1, omega.n - 1] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls) -> "CfPmf":
        return cls(np.full((2, 2, 2, 2), 1.0 / 16.0))


_STATISTIC_TABLE = np.array([outcome_statistic(omega) for omega in sample_space()], dtype=float).reshape(2, 2, 2, 2)


def chsh_expectation(pmf: CfPmf) -> float:
    """Expectation of the +-2 statistic; always within [-2, 2]."""
    return float(np.sum(pmf.probabilities * _STATISTIC_TABLE))


def identify_run(run: RunRecord) -> tuple[int, int, int, int] | None:
    """Collapse a four-experiment run onto the counterfactual variables.

    The identification shares one variable per polarizer setting: a1
    across the two alpha1 experiments (E1, E2), a2 across E3 and E4, b1
    across the beta1 experiments (E1, E3), b2 across E2 and E4.  Returns
    (a1, a2, b1, b2) when the run is consistent with that sharing, else
    None.  Exactly 16 of the 256 elementary runs are identifiable.
    """
    e1, e2, e3, e4 = run.outcomes
    if e1.x != e2.x or e3.x != e4.x or e1.y != e3.y or e2.y != e4.y:
        return None
    return e1.x, e3.x, e1.y, e2.y


def chsh_all_variants(c11: float, c12: float, c21: float, c22: float) -> float:
    """Largest |CHSH combination| over the eight odd-sign variants.

    Arguments are the four pair correlations E[A_i B_j] in [-1, 1].  The
    eight sign patterns with an odd number of minuses collapse to four
    absolute values; a joint distribution with these correlations exists
    only when the maximum stays at or below 2.
    """
    c = np.array([c11, c12, c21, c22], dtype=float)
    if not np.all(np.abs(c) <= 1.0 + 1e-12):
        raise ValueError("correlations must lie in [-1, 1]")
    total = c.sum()
    return float(np.max(np.abs(total - 2.0 * c)))


@dataclass(frozen=True, eq=False)
class PairMarginals:
    """The four measured pair tables (A1B1), (A1B2), (A2B1), (A2B2).

    Single-variable marginals must agree across the tables that share a
    variable (to 1e-10); otherwise no joint can exist for trivial
    bookkeeping reasons and the feasibility question is malformed.
    """

    a1b1: JointPmf2x2
    a1b2: JointPmf2x2
    a2b1: JointPmf2x2
    a2b2: JointPmf2x2

    def __post_init__(self) -> None:
        # P(x = +1) is a table's first row sum and P(y = +1) its first column sum.
        x_plus = [t.p[0].sum() for t in self.tables()]
        y_plus = [t.p[:, 0].sum() for t in self.tables()]
        for name, plus, i, j in (("A1", x_plus, 0, 1), ("A2", x_plus, 2, 3), ("B1", y_plus, 0, 2), ("B2", y_plus, 1, 3)):
            if abs(plus[i] - plus[j]) > 1e-10:
                raise ValueError(f"inconsistent one-party marginal for {name}")

    def tables(self) -> tuple[JointPmf2x2, ...]:
        return (self.a1b1, self.a1b2, self.a2b1, self.a2b2)

    def correlations(self) -> tuple[float, float, float, float]:
        return tuple(t.product_expectation() for t in self.tables())


# Axes of the (a1, a2, b1, b2) joint array summed away to read each pair
# table, in the order (A1B1), (A1B2), (A2B1), (A2B2).
_PAIR_AXES = ((1, 3), (1, 2), (0, 3), (0, 2))


def pair_marginals(pmf: CfPmf) -> PairMarginals:
    """Push a joint distribution forward to its four measured pair tables."""
    return PairMarginals(*(JointPmf2x2(pmf.probabilities.sum(axis=axes)) for axes in _PAIR_AXES))


def quantum_pair_marginals(cfg: AngleConfig) -> PairMarginals:
    """The four singlet pair tables at the configured angles."""
    return PairMarginals(*JointPmf2x2._from_checked(_singlet_tables(*_experiment_bases(cfg))))


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Fine's verdict, its witness and residual when feasible, and the largest CHSH variant; all finite."""

    feasible: bool
    witness: CfPmf | None
    chsh_value: float
    marginal_residual: float | None

    def __post_init__(self) -> None:
        if self.feasible and self.witness is None:
            raise ValueError("feasible verdict requires a witness")
        # Both comparisons below are False for NaN, so a NaN field fails them.
        if not abs(self.chsh_value) < math.inf:
            raise ValueError("chsh_value must be finite")
        if self.marginal_residual is not None and not 0.0 <= self.marginal_residual < math.inf:
            raise ValueError("marginal_residual must be non-negative and finite")


# Fine's linear system: row (pair, cell) of the 16 marginal equations,
# pairs as in _PAIR_AXES and cells row-major, marks the outcomes that land
# in that cell; it is every point mass pushed through the pair sums.  The
# system has rank 9 whatever the marginals: all of A1B1 (which carries the
# normalisation), two cells each of A1B2 and A2B1 (their other two follow
# from the shared A1 and B1 marginals) and one cell of A2B2.  PairMarginals
# already holds the shared marginals to 1e-10, so the other 7 equations
# add nothing, and the witness check re-reads all 16 cells.
_INDEPENDENT_ROWS = [0, 1, 2, 3, 4, 6, 8, 9, 12]
_FINE_MATRIX = np.concatenate(
    [np.eye(16).reshape(16, 2, 2, 2, 2).sum(axis=(1 + i, 1 + j)).reshape(16, 4) for i, j in _PAIR_AXES], axis=1
).T[_INDEPENDENT_ROWS]


def _phase1_simplex(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> tuple[float, np.ndarray]:
    """Minimize the artificial-variable total for a x = b, x >= 0, with b >= 0.

    Bland's smallest-index rule on both the entering and leaving choices
    guarantees termination despite the degenerate bases these marginal
    systems produce.  Returns (optimal objective, x part of the basic
    solution); the system is solvable iff the objective is ~0.

    The tableau rows are lists of Python floats, which on a tableau this
    small cost far less per pivot than numpy rows.  Each row operation is
    the one a numpy row would do, element by element: the pivot row is
    divided by the pivot, and every other row loses f times it, with the
    product rounded before the difference.
    """
    m, n = a.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -a.sum(axis=0)
    tableau[m, -1] = -b.sum()
    tableau = tableau.tolist()
    basis = list(range(n, n + m))

    while True:
        entering = next((j for j, v in enumerate(tableau[m][:-1]) if v < -tol), None)
        if entering is None:
            break
        leaving = -1
        best = math.inf
        for i in range(m):
            coef = tableau[i][entering]
            if coef > tol:
                ratio = tableau[i][-1] / coef
                if ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12 and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise InternalCheckError("phase-1 simplex became unbounded; constraint matrix is malformed")
        pivot = tableau[leaving][entering]
        lead = tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for i in range(m + 1):
            f = tableau[i][entering]
            if i != leaving and f != 0.0:
                tableau[i] = [v - f * w for v, w in zip(tableau[i], lead)]
        basis[leaving] = entering

    objective = -tableau[m][-1]
    x = np.zeros(n + m)
    for i, var in enumerate(basis):
        x[var] = tableau[i][-1]
    return objective, x[:n]


def fine_feasibility(marginals: PairMarginals) -> FeasibilityResult:
    """Decide whether one joint distribution reproduces all four pair tables.

    Solves the 16-unknown nonnegative linear system by phase-1 simplex and
    returns a witness distribution when one exists.  The verdict is
    cross-checked against the analytic criterion (max CHSH variant <= 2);
    a clear disagreement raises :class:`InternalCheckError`.
    """
    cells = np.concatenate([table.p.reshape(-1) for table in marginals.tables()])
    objective, x = _phase1_simplex(_FINE_MATRIX, cells[_INDEPENDENT_ROWS])
    feasible = objective <= 1e-9

    chsh = chsh_all_variants(*marginals.correlations())
    check("simplex verdict vs CHSH criterion", chsh - 2.0 if feasible else 2.0 - chsh, 1e-7)

    if not feasible:
        return FeasibilityResult(False, None, chsh, None)

    check("witness negativity", -x.min(), 1e-12)
    x = np.maximum(x, 0.0)
    witness = CfPmf((x / x.sum()).reshape(2, 2, 2, 2))
    residual = max(
        float(np.max(np.abs(witness.probabilities.sum(axis=axes) - table.p)))
        for axes, table in zip(_PAIR_AXES, marginals.tables())
    )
    check("witness marginal residual", residual, 1e-9)
    return FeasibilityResult(True, witness, chsh, residual)
