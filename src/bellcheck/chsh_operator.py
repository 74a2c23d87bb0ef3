"""The single-pair CHSH operator, its spectrum and outcome statistics.

The Hermitian combination

    X(a1) Y(b1) + X(a1) Y(b2) + X(a2) Y(b1) - X(a2) Y(b2)

is a legitimate single-pair observable even though its four summands are
not jointly measurable.  Its spectrum is {+t0, -t0, +t1, -t1} with

    t0 = 2 sqrt(1 - sin 2(a1 - a2) * sin 2(b1 - b2)),

and in the singlet state all outcome weight sits on the +-t0 atoms:
the measured value is +t0 with probability (1 + E/t0)/2 and -t0
otherwise, where E is the CHSH expectation.  At the optimal angles
t0 = 2 sqrt(2) and the outcome is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check
from .linalg import eig_hermitian, hermiticity_defect, kron
from .polarization import AngleConfig, same_setting, singlet_state, z_operator
from .realworld import EstimatorResult, _check_draw_count, _uniform_blocks

# Stream id for outcome sampling; experiment streams use ids 1..4.
_SAMPLER_STREAM = 0

# Below this, t0 is treated as exactly zero: both atoms collapse onto the
# origin and the outcome is deterministically 0.
_T0_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class ChshSpectrum:
    """Spectral data of the CHSH operator at one configuration.

    ``t0`` is the magnitude of the two outcome atoms (closed form),
    ``t1`` the magnitude of the remaining eigenvalue pair, which carries
    no weight in the singlet.  ``w_plus``/``w_minus`` are the outcome
    probabilities of +t0 and -t0.  ``eigenvalues`` holds the numeric
    spectrum in descending order.  :func:`chsh_spectra` returns the same
    record for a stack of configurations, each field an array along it.
    """

    t0: float | np.ndarray
    t1: float | np.ndarray
    w_plus: float | np.ndarray
    w_minus: float | np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.abs(self.w_plus + self.w_minus - 1.0) > 1e-12):
            raise ValueError("outcome weights must sum to 1")
        if np.any((self.w_plus < -1e-12) | (self.w_plus > 1.0 + 1e-12)):
            raise ValueError(f"w_plus = {self.w_plus} outside [0, 1]")


def _chsh_operators(alpha1, alpha2, beta1, beta2) -> np.ndarray:
    """CHSH operators over broadcast angle arrays, shape (..., 4, 4).

    Each product X(a) Y(b) equals the Kronecker product Z(a) (x) Z(b).
    """
    za1, za2, zb1, zb2 = (z_operator(angle) for angle in (alpha1, alpha2, beta1, beta2))
    op = kron(za1, zb1) + kron(za1, zb2) + kron(za2, zb1) - kron(za2, zb2)
    check("CHSH operator hermiticity", hermiticity_defect(op), 1e-13)
    return op


def chsh_operator(cfg: AngleConfig) -> np.ndarray:
    """The 4x4 CHSH operator at the given angles."""
    return _chsh_operators(cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2)


def _atom_magnitudes(alpha1, alpha2, beta1, beta2) -> np.ndarray:
    product = np.sin(2.0 * (alpha1 - alpha2)) * np.sin(2.0 * (beta1 - beta2))
    return 2.0 * np.sqrt(np.maximum(1.0 - product, 0.0))


def _closed_form_expectations(alpha1, alpha2, beta1, beta2) -> np.ndarray:
    return (
        -np.cos(2.0 * (alpha1 - beta1))
        - np.cos(2.0 * (alpha1 - beta2))
        - np.cos(2.0 * (alpha2 - beta1))
        + np.cos(2.0 * (alpha2 - beta2))
    )


def atom_magnitude(cfg: AngleConfig) -> float:
    """Closed form t0 = 2 sqrt(1 - sin 2(a1-a2) sin 2(b1-b2))."""
    return float(_atom_magnitudes(cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2))


def closed_form_expectation(cfg: AngleConfig) -> float:
    """Four-cosine closed form of the CHSH expectation in the singlet."""
    return float(_closed_form_expectations(cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2))


def chsh_spectra(alpha1, alpha2, beta1, beta2) -> ChshSpectrum:
    """Spectrum and singlet outcome weights of the CHSH operator over a stack.

    The four angles (radians) broadcast against each other, and every
    field of the result has their broadcast shape, plus a trailing axis
    of four for ``eigenvalues``.  Each configuration obeys the rules of
    :class:`~bellcheck.polarization.AngleConfig`.  All operators are
    diagonalized by one stacked Jacobi call, and every check of
    :func:`chsh_spectrum` runs on the whole stack.
    """
    a1, a2, b1, b2 = np.broadcast_arrays(alpha1, alpha2, beta1, beta2)
    if np.any(same_setting(a1, a2)) or np.any(same_setting(b1, b2)):
        raise ValueError("the two settings on one side coincide mod pi")

    evals, evecs = eig_hermitian(_chsh_operators(a1, a2, b1, b2), tol=1e-10)
    t0 = _atom_magnitudes(a1, a2, b1, b2)
    expectation = _closed_form_expectations(a1, a2, b1, b2)

    # Group eigenvalues into the +-t0 pair and the +-t1 pair by magnitude.
    distance = np.abs(np.abs(evals) - t0[..., None])
    order = np.argsort(distance, axis=-1, kind="stable")
    atom_idx, dark_idx = order[..., :2], order[..., 2:]
    check("numeric t0 vs closed form", np.take_along_axis(distance, atom_idx, axis=-1), 1e-9)
    t1 = np.mean(np.abs(np.take_along_axis(evals, dark_idx, axis=-1)), axis=-1)

    overlaps = np.abs(evecs.conj().swapaxes(-1, -2) @ singlet_state()) ** 2
    degenerate = np.abs(t0 - t1) <= 1e-9
    dark_weight = np.where(degenerate, 0.0, np.take_along_axis(overlaps, dark_idx, axis=-1).sum(axis=-1))
    check("singlet weight outside the outcome atoms", dark_weight, 1e-12)
    check("|E| above t0", np.abs(expectation) - t0, 1e-9)
    live = t0 >= _T0_FLOOR
    ratio = expectation / np.where(live, t0, 1.0)
    w_plus = np.where(live, np.clip((1.0 + ratio) / 2.0, 0.0, 1.0), 0.5)
    # Independent check of the weight through the +t0 eigenspace
    # projector, which stays well-defined even when t0 = t1.
    plus_space = np.abs(evals - t0[..., None]) <= 1e-8
    gap = np.where(live, np.abs(np.sum(overlaps * plus_space, axis=-1) - w_plus), 0.0)
    check("projector weight vs closed form", gap, 1e-9)
    return ChshSpectrum(t0, t1, w_plus, 1.0 - w_plus, evals)


def chsh_spectrum(cfg: AngleConfig) -> ChshSpectrum:
    """Spectrum and singlet outcome weights of the CHSH operator.

    The closed-form t0 is cross-checked against the Jacobi eigensolver
    (to 1e-9), and the singlet's Born weight is verified to sit entirely
    on the +-t0 eigenspaces.  Disagreement raises InternalCheckError.
    """
    s = chsh_spectra(cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2)
    return ChshSpectrum(float(s.t0), float(s.t1), float(s.w_plus), float(s.w_minus), s.eigenvalues)


def sample_outcomes(cfg: AngleConfig, n: int, seed: int) -> EstimatorResult:
    """Draw n single-shot CHSH outcomes (+-t0) and estimate their mean.

    Uses the same counter-indexed stream layout as the experiment
    samplers, so results are reproducible for a fixed seed regardless of
    sharding.  Draws are counted block by block, so memory does not grow
    with ``n`` (1 <= n <= 2**53).  The mean converges on the CHSH
    expectation.
    """
    _check_draw_count(n)
    spectrum = chsh_spectrum(cfg)
    if spectrum.t0 < _T0_FLOOR:
        return EstimatorResult(0.0, 0.0, n)
    # Outcomes take only the two values +-t0, so counts give the exact
    # sample moments: v^2 = t0^2 identically.
    blocks = _uniform_blocks(seed, _SAMPLER_STREAM, n)
    k_plus = sum(int(np.count_nonzero(u < spectrum.w_plus)) for u in blocks)
    mean = spectrum.t0 * ((2 * k_plus - n) / n)
    if n < 2:
        return EstimatorResult(mean, 0.0, n)
    var = max(spectrum.t0**2 - mean * mean, 0.0) * n / (n - 1)
    return EstimatorResult(mean, math.sqrt(var / n), n)
