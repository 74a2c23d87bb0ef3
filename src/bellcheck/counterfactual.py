"""The counterfactual single-pair device and Fine's feasibility criterion.

A counterfactual CHSH device would release all four dichotomic values
a1, a2, b1, b2 on every photon pair.  Its sample space has only 16
elementary outcomes, the algebraic identity
(a1 + a2) b1 + (a1 - a2) b2 = +-2 holds pointwise, and hence every
distribution over the space obeys the CHSH bound |E| <= 2.

Fine's criterion connects this to real data: a local deterministic
model for four measured pair distributions exists exactly when one
joint distribution over the 16 outcomes returns all four as marginals
(A. Fine, J. Math. Phys. 23, 1306 (1982)).  ``fine_feasibility`` decides
that on Python floats, by asking whether the triangles (a1, a2, b1) and
(a1, a2, b2) admit one common table p(a1, a2), and glues the two into a
witness when they do.  It cross-checks the verdict against the eight
CHSH sign variants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .born import JointPmf2x2, _checked_table, _experiment_bases, _singlet_tables
from .errors import check
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
    c = (c11, c12, c21, c22)
    # A NaN or infinite correlation fails this comparison too.
    if not all(abs(x) <= 1.0 + 1e-12 for x in c):
        raise ValueError("correlations must lie in [-1, 1]")
    total = c11 + c12 + c21 + c22
    return float(max(abs(total - 2.0 * x) for x in c))


def _marginal_gaps(tables: list) -> tuple[float, float, float, float]:
    """How far the two tables sharing A1, A2, B1 and B2 disagree on P(+1) of that variable.

    ``tables`` are the four pair tables as nested lists, in PairMarginals
    order.  P(x = +1) is a table's first row sum and P(y = +1) its first
    column sum.
    """
    x = [top[0] + top[1] for top, _ in tables]
    y = [top[0] + bottom[0] for top, bottom in tables]
    return abs(x[0] - x[1]), abs(x[2] - x[3]), abs(y[0] - y[2]), abs(y[1] - y[3])


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
        for name, gap in zip(("A1", "A2", "B1", "B2"), _marginal_gaps([t.p.tolist() for t in self.tables()])):
            if gap > 1e-10:
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
    """Fine's witness and its marginal residual (both None when infeasible), and the largest CHSH variant.

    The verdict ``feasible`` is derived: a witness exists.  Every float is finite.
    """

    witness: CfPmf | None
    chsh_value: float
    marginal_residual: float | None

    def __post_init__(self) -> None:
        # Both comparisons below are False for NaN, so a NaN field fails them.
        if not abs(self.chsh_value) < math.inf:
            raise ValueError("chsh_value must be finite")
        if self.marginal_residual is not None and not 0.0 <= self.marginal_residual < math.inf:
            raise ValueError("marginal_residual must be non-negative and finite")

    @property
    def feasible(self) -> bool:
        return self.witness is not None


# Fine's verdict and witness glue two triangles (a1, a2, b1) and (a1, a2, b2)
# along their shared table p(a1, a2) (Vorob'ev, Theory Probab. Appl. 7, 147
# (1962)).  That table has one free number q = p(a1+, a2+); given q, each
# triangle has one free cell s = t(+, +, +), and every cell is +-s plus an
# affine function of q and the pair cells.  Each of its 16 pairs "lower bound
# on s <= upper bound on s" is a bound on q or a test that consistent tables
# pass, so a joint exists exactly when the q intervals of the two triangles
# meet.  CHANGES.md derives the slack on that test and the verdict check's
# tolerance, in units of the unit roundoff 2**-53, and the multiples of the
# input's drift from consistency that widen both.
_SLACK = 16 * 2.0**-53
_VERDICT_TOL = 4 * _SLACK + 49 * 2.0**-53


def _q_interval(x: list, y: list) -> tuple[float, float]:
    """Bounds on q that leave the triangle with (a1, b) table ``x`` and (a2, b) table ``y`` feasible."""
    (x00, x01), (x10, x11) = x
    (y00, y01), _ = y
    return max(0.0, y01 - x11, y00 - x10, y00 + y01 - x10 - x11), min(x00 + x01, y00 + y01, x01 + y00, x00 + y01)


def _triangle(q: float, x: list, y: list) -> list[float]:
    """Cells t(a1, a2, b) of that triangle, flat, with s at the middle of its interval."""
    (x00, x01), (x10, x11) = x
    (y00, y01), _ = y
    s = (max(0.0, q - x01, q - y01, y00 - x10) + min(q, x00, y00, q + x11 - y01)) / 2.0
    return [s, q - s, x00 - s, x01 - q + s, y00 - s, y01 - q + s, x10 - y00 + s, x11 - y01 + q - s]


def _glue(t1: list[float], t2: list[float]) -> list[float]:
    """p(a1, a2, b1, b2) = t1 t2 / p(a1, a2), flat, and 0 where p(a1, a2) = 0.

    Rounding-noise cells are clamped to zero first, and p(a1, a2) is read
    from t2, so summing over b2 returns t1 and summing over b1 returns t2
    scaled by the ratio of the two triangles' p(a1, a2).  The cells are
    then scaled to total 1, which tables that drift from consistency need.
    """
    cells = []
    for u0, u1, v0, v1 in zip(t1[::2], t1[1::2], t2[::2], t2[1::2]):
        u0, u1, v0, v1 = max(u0, 0.0), max(u1, 0.0), max(v0, 0.0), max(v1, 0.0)
        m = v0 + v1
        cells += (u0 * v0 / m, u0 * v1 / m, u1 * v0 / m, u1 * v1 / m) if m else (0.0, 0.0, 0.0, 0.0)
    total = sum(cells)
    return [v / total for v in cells]


def _pair_sums(t: list[float]) -> list[float]:
    """The (a1, b) and (a2, b) tables of a triangle t(a1, a2, b), flat, one after the other."""
    return [t[0] + t[2], t[1] + t[3], t[4] + t[6], t[5] + t[7], t[0] + t[4], t[1] + t[5], t[2] + t[6], t[3] + t[7]]


def fine_feasibility(marginals: PairMarginals) -> FeasibilityResult:
    """Decide whether one joint distribution reproduces all four pair tables.

    Returns a witness distribution when one exists, glued from the two
    triangles at the middle of the common q interval.  The verdict is
    cross-checked against the analytic criterion (max CHSH variant <= 2),
    and the witness against negativity and the four tables; a
    disagreement raises :class:`InternalCheckError`.
    """
    tables = [t.p.tolist() for t in marginals.tables()]
    a1b1, a1b2, a2b1, a2b2 = tables
    chsh = chsh_all_variants(*(p00 - p01 - p10 + p11 for (p00, p01), (p10, p11) in tables))
    # How far the tables miss consistency; a few 2**-53 when they are consistent to rounding.
    drift = max(*_marginal_gaps(tables), *(abs(p00 + p01 + p10 + p11 - 1.0) for (p00, p01), (p10, p11) in tables))
    (lo1, hi1), (lo2, hi2) = _q_interval(a1b1, a2b1), _q_interval(a1b2, a2b2)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    feasible = lo - hi <= _SLACK + 5.0 * drift
    check("q interval verdict vs CHSH criterion", chsh - 2.0 if feasible else 2.0 - chsh, _VERDICT_TOL + 34.0 * drift)

    if not feasible:
        return FeasibilityResult(None, chsh, None)

    q = (lo + hi) / 2.0
    t1, t2 = _triangle(q, a1b1, a2b1), _triangle(q, a1b2, a2b2)
    check("witness negativity", -min(*t1, *t2) - 5.0 * drift, 1e-12)
    cells = _glue(t1, t2)
    # Sum the witness over b2 and over b1, then each triangle over a2 and a1.
    got = _pair_sums([u + v for u, v in zip(cells[::2], cells[1::2])]) + _pair_sums(
        [cells[i] + cells[i + 2] for i in (0, 1, 4, 5, 8, 9, 12, 13)]
    )
    want = [cell for table in (a1b1, a2b1, a1b2, a2b2) for row in table for cell in row]
    residual = max(abs(u - v) for u, v in zip(got, want))
    check("witness marginal residual", residual, 1e-9)
    return FeasibilityResult(CfPmf(np.array(cells).reshape(2, 2, 2, 2)), chsh, residual)
