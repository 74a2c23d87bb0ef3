"""Born-rule probability tables and correlation functions.

Outcome indexing convention, used by every module in the package and
stated once, as :data:`OUTCOMES`: index 0 of a probability table is the
+1 outcome, index 1 is the -1 outcome.  For a pair table ``p``,
``p[k, l]`` is the probability that Alice sees value OUTCOMES[k] and
Bob sees value OUTCOMES[l].

Each public entry turns its angles into basis matrices once, and the
kernels take those.  A record validates the table a caller hands it; a
builder checks only the totals of the tables it makes itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check
from .linalg import as_operator, hermiticity_defect
from .polarization import AngleConfig, basis_matrix, singlet_state

# The value of each outcome index, the order of every outcome table and sample space.
OUTCOMES = (1, -1)
OUTCOME_VALUES = np.array(OUTCOMES, dtype=float)
OUTCOME_VALUES.flags.writeable = False
# The value x*y of each cell of a pair table.
_PRODUCT_SIGNS = np.outer(OUTCOME_VALUES, OUTCOME_VALUES)
_PRODUCT_SIGNS.flags.writeable = False

# The polarization singlet every singlet table is computed from, shared
# read-only.
SINGLET = singlet_state()
SINGLET.flags.writeable = False
_SINGLET_FLOATS = tuple(SINGLET.real.tolist())  # its amplitudes, all real, for one-configuration routes

# Entries in [-CLAMP_TOL, 0) are rounding noise and get clamped to zero;
# anything below -CLAMP_TOL is a genuine bug in the caller.
CLAMP_TOL = 1e-12


def _checked_table(values, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` as a float array of ``shape``, finite, summing to 1 within 1e-12.

    Every record validates the table it is handed here; the sign policy
    (clamp, reject or allow negative cells) stays with each table type.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != shape:
        raise ValueError(f"expected shape {shape}, got {v.shape}")
    total = v.sum()
    # A NaN or infinite cell makes the total NaN or infinite, which fails
    # this comparison, so finite tables need no pass of their own.
    if not abs(total - 1.0) <= 1e-12:
        if not np.isfinite(v).all():
            raise ValueError("probabilities must be finite")
        raise ValueError(f"table sums to {total}, not 1")
    return v


def _clamp_probabilities(p: np.ndarray) -> np.ndarray:
    """``p`` with rounding-noise cells clamped to zero and the table renormalized."""
    low = p.min()
    if low < -CLAMP_TOL:
        raise ValueError(f"probability {low} below -{CLAMP_TOL}; not representable as rounding noise")
    if low < 0.0:
        clamped = np.maximum(p, 0.0)
        p = clamped / clamped.sum()
    return p


@dataclass(frozen=True)
class Pmf2:
    """Probability mass function of a +-1 valued variable."""

    p_plus: float
    p_minus: float

    def __post_init__(self) -> None:
        # Sums of table cells may round a certain outcome to 1 + 2^-52.
        for v in (self.p_plus, self.p_minus):
            if not -CLAMP_TOL <= v <= 1.0 + CLAMP_TOL:
                raise ValueError(f"probability {v} outside [0, 1]")
        if abs(self.p_plus + self.p_minus - 1.0) > CLAMP_TOL:
            raise ValueError("probabilities do not sum to 1")

    @property
    def expectation(self) -> float:
        return self.p_plus - self.p_minus


@dataclass(frozen=True, eq=False)
class JointPmf2x2:
    """2x2 outcome table for one pair experiment; p[k, l] as in the module note."""

    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _clamp_probabilities(_checked_table(self.p, (2, 2))))

    @classmethod
    def _from_checked(cls, tables: np.ndarray) -> tuple["JointPmf2x2", ...]:
        """One record per table of a stack that :func:`_singlet_tables` built and checked."""
        records = []
        for p in tables:
            record = object.__new__(cls)
            object.__setattr__(record, "p", p)
            records.append(record)
        return tuple(records)

    def x_marginal(self) -> Pmf2:
        row = self.p.sum(axis=1)
        return Pmf2(float(row[0]), float(row[1]))

    def y_marginal(self) -> Pmf2:
        col = self.p.sum(axis=0)
        return Pmf2(float(col[0]), float(col[1]))

    def product_expectation(self) -> float:
        """E[xy] under this table."""
        return float(np.sum(_PRODUCT_SIGNS * self.p))


def _require_unit(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=np.complex128)
    if not abs(np.linalg.norm(state) - 1.0) <= 1e-10:
        raise ValueError("state vector is not unit norm")
    return state


def pmf_single(state: np.ndarray, observable: np.ndarray) -> Pmf2:
    """Outcome distribution of a +-1 valued observable in a pure state.

    The observable must be Hermitian and involutory (square = identity),
    so that (I + O)/2 and (I - O)/2 are the spectral projectors.
    """
    state = _require_unit(state)
    dim = state.shape[0]
    if np.shape(observable) != (dim, dim):
        raise ValueError(f"observable shape {np.shape(observable)} does not match state dimension {dim}")
    obs = as_operator(observable)
    if hermiticity_defect(obs) > 1e-10:
        raise ValueError("observable is not Hermitian")
    if np.max(np.abs(obs @ obs - np.eye(dim))) > 1e-10:
        raise ValueError("observable is not involutory; spectrum must be {+1, -1}")
    plus_proj = (np.eye(dim) + obs) / 2.0
    p_plus = float(np.real(state.conj() @ plus_proj @ state))
    p = _clamp_probabilities(_checked_table([p_plus, 1.0 - p_plus], (2,)))
    return Pmf2(float(p[0]), float(p[1]))


def _pair_amplitudes(state: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """amps[..., k, l] = <x_k, alpha; y_l, beta | state> from the two parties' basis matrices; stacks broadcast."""
    return alice.conj() @ state.reshape(2, 2) @ bob.conj().swapaxes(-1, -2)


def _pair_probabilities(state: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Raw 2x2 Born-rule tables |<x_k, alpha; y_l, beta | state>|^2 from basis matrices; stacks broadcast."""
    return np.abs(_pair_amplitudes(state, alice, bob)) ** 2


def joint_pmf(state: np.ndarray, alpha: float, beta: float) -> JointPmf2x2:
    """Joint distribution of Alice's and Bob's polarizer outcomes."""
    state = _require_unit(state)
    return JointPmf2x2(_pair_probabilities(state, *basis_matrix(np.array((alpha, beta)))))


def _singlet_tables(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Singlet pair tables from broadcast stacks of basis matrices, shape (..., 2, 2).

    The cells are squared moduli, never negative, so only each total is checked.
    """
    p = _pair_probabilities(SINGLET, alice, bob)
    check("singlet pair table total", np.abs(p.sum(axis=(-2, -1)) - 1.0), 1e-12)
    return p


def _experiment_bases(cfg: AngleConfig) -> np.ndarray:
    """Alice's and Bob's basis matrices of the experiments E1..E4, shape (2, 4, 2, 2)."""
    return basis_matrix(np.array(cfg.experiment_angles()).T)


def correlation(alpha: float | np.ndarray, beta: float | np.ndarray) -> float | np.ndarray:
    """Singlet pair correlation E[xy]; analytically -cos 2(alpha - beta).

    Angle arrays broadcast and give an array of correlations, one stacked
    pair table each; two plain angles give a float.  Non-finite angles
    raise ValueError.
    """
    p = _pair_probabilities(SINGLET, basis_matrix(alpha), basis_matrix(beta))
    if p.ndim == 2:
        (p00, p01), (p10, p11) = p.tolist()
        return p00 - p01 - p10 + p11
    return p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]


def chsh_expectations(
    alpha1: float | np.ndarray, alpha2: float | np.ndarray, beta1: float | np.ndarray, beta2: float | np.ndarray
) -> float | np.ndarray:
    """CHSH combination of four singlet correlations over broadcast angle arrays.

    C(a1,b1) + C(a1,b2) + C(a2,b1) - C(a2,b2), a float when all four
    angles are plain numbers; bounded by 2*sqrt(2) in magnitude.
    Non-finite angles raise ValueError.
    """
    return (
        correlation(alpha1, beta1)
        + correlation(alpha1, beta2)
        + correlation(alpha2, beta1)
        - correlation(alpha2, beta2)
    )


def chsh_expectation(cfg: AngleConfig) -> float:
    """CHSH combination of the four singlet correlations at one configuration.

    C(a1,b1) + C(a1,b2) + C(a2,b1) - C(a2,b2); bounded by 2*sqrt(2) in
    magnitude over all configurations.
    """
    return chsh_expectations(cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2)
