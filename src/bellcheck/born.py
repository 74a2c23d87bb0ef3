"""Born-rule probability tables and correlation functions.

Outcome indexing convention, used by every module in the package:
index 0 of a probability table is the +1 outcome, index 1 is the -1
outcome.  For a pair table ``p``, ``p[k, l]`` is the probability that
Alice sees value (+1, -1)[k] and Bob sees value (+1, -1)[l].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermiticity_defect
from .polarization import AngleConfig, basis_matrix, singlet_state

OUTCOME_VALUES = np.array([1.0, -1.0])

# Entries in [-CLAMP_TOL, 0) are rounding noise and get clamped to zero;
# anything below -CLAMP_TOL is a genuine bug in the caller.
CLAMP_TOL = 1e-12


def _checked_table(values, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` as a float array of ``shape``, finite and summing to 1 within 1e-12.

    Every probability table passes through here; the sign policy (clamp,
    reject or allow negative cells) stays with each table type.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != shape:
        raise ValueError(f"expected shape {shape}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("probabilities must be finite")
    total = v.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"table sums to {total}, not 1")
    return v


def _clamp_probabilities(p: np.ndarray) -> np.ndarray:
    if p.min() < -CLAMP_TOL:
        raise ValueError(f"probability {p.min()} below -{CLAMP_TOL}; not representable as rounding noise")
    if p.min() < 0.0:
        p = np.maximum(p, 0.0)
        p = p / p.sum()
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

    def x_marginal(self) -> Pmf2:
        row = self.p.sum(axis=1)
        return Pmf2(float(row[0]), float(row[1]))

    def y_marginal(self) -> Pmf2:
        col = self.p.sum(axis=0)
        return Pmf2(float(col[0]), float(col[1]))

    def product_expectation(self) -> float:
        """E[xy] under this table."""
        signs = np.outer(OUTCOME_VALUES, OUTCOME_VALUES)
        return float(np.sum(signs * self.p))


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
    obs = np.asarray(observable, dtype=np.complex128)
    dim = state.shape[0]
    if obs.shape != (dim, dim):
        raise ValueError(f"observable shape {obs.shape} does not match state dimension {dim}")
    if hermiticity_defect(obs) > 1e-10:
        raise ValueError("observable is not Hermitian")
    if np.max(np.abs(obs @ obs - np.eye(dim))) > 1e-10:
        raise ValueError("observable is not involutory; spectrum must be {+1, -1}")
    plus_proj = (np.eye(dim) + obs) / 2.0
    p_plus = float(np.real(state.conj() @ plus_proj @ state))
    p = _clamp_probabilities(_checked_table([p_plus, 1.0 - p_plus], (2,)))
    return Pmf2(float(p[0]), float(p[1]))


def _pair_amplitudes(state: np.ndarray, alpha, beta) -> np.ndarray:
    """amps[..., k, l] = <x_k, alpha; y_l, beta | state>; angles broadcast."""
    return basis_matrix(alpha).conj() @ state.reshape(2, 2) @ basis_matrix(beta).conj().swapaxes(-1, -2)


def _pair_probabilities(state: np.ndarray, alpha, beta) -> np.ndarray:
    """Raw 2x2 Born-rule tables |<x_k, alpha; y_l, beta | state>|^2; angles broadcast."""
    return np.abs(_pair_amplitudes(state, alpha, beta)) ** 2


def joint_pmf(state: np.ndarray, alpha: float, beta: float) -> JointPmf2x2:
    """Joint distribution of Alice's and Bob's polarizer outcomes."""
    state = _require_unit(state)
    return JointPmf2x2(_pair_probabilities(state, alpha, beta))


def correlation(alpha: float | np.ndarray, beta: float | np.ndarray) -> float | np.ndarray:
    """Singlet pair correlation E[xy]; analytically -cos 2(alpha - beta).

    Angle arrays broadcast and give an array of correlations, one stacked
    pair table each; two plain angles give a float.  Non-finite angles
    raise ValueError.
    """
    p = _pair_probabilities(singlet_state(), alpha, beta)
    c = p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]
    return float(c) if c.ndim == 0 else c


def chsh_expectations(alpha1, alpha2, beta1, beta2) -> float | np.ndarray:
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
