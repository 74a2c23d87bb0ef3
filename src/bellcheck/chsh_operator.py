"""The single-pair CHSH operator, its spectrum and outcome statistics.

The Hermitian combination

    X(a1) Y(b1) + X(a1) Y(b2) + X(a2) Y(b1) - X(a2) Y(b2)

is a legitimate single-pair observable even though its four summands are
not jointly measurable.  Its spectrum is {+t0, -t0, +t1, -t1} with

    t0 = 2 sqrt(1 - sin 2(a1 - a2) * sin 2(b1 - b2)),

and t1 = 2 sqrt(1 + sin 2(a1 - a2) * sin 2(b1 - b2)), both computed as a
sum of two squares, which does not cancel near 0.  In the singlet all
outcome weight sits on the +-t0 atoms: the value is +t0 with probability
(1 + E/t0)/2 and -t0 otherwise, where E is the CHSH expectation.  At the
optimal angles t0 = 2 sqrt(2) and the outcome is deterministic.

Landau's identity, C^2 = 4 I - [A1, A2] (x) [B1, B2] for the CHSH
operator C with Alice's observables A1, A2 and Bob's B1, B2 (L. J.
Landau, Phys. Lett. A 120, 54 (1987)), makes the singlet an eigenvector
of C^2 with eigenvalue t0^2.  The outcome sampler checks t0 through it,
with no eigensolve.  ``chsh_spectrum`` and ``chsh_spectra`` run one
block of checks of t0, t1 and E against the Jacobi eigensystem.  One
configuration is built and solved on Python floats, a stack on numpy
arrays, with the same bits, which tests/test_chsh_operator.py checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .born import _SINGLET_FLOATS, SINGLET
from .errors import check
from .linalg import _ROUNDS_4, _eig_lone, _kron, eig_hermitian, hermiticity_defect
from .polarization import AngleConfig, _basis_rows, same_setting, z_operator
from .realworld import _SAMPLER_STREAM, EstimatorResult, _check_draw_count, _two_point_estimate

# Below this, t0 is treated as exactly zero: the sampler returns the outcome 0
# without drawing, and w_plus is 0.5 by convention.  No check reads it.
_T0_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class ChshSpectrum:
    """Spectral data of the CHSH operator at one configuration.

    ``t0`` and ``t1`` are the magnitudes of the two outcome atoms and of
    the other eigenvalue pair, which carries no weight in the singlet:
    closed forms, which the eigensolver only checks.  ``w_plus`` is the
    outcome probability of +t0, and the derived ``w_minus = 1 - w_plus``
    that of -t0.  ``eigenvalues`` holds the numeric spectrum in descending
    order.
    :func:`chsh_spectra` returns the same record for a stack of
    configurations, each field an array along it.  Every field must be
    finite, and ``w_plus`` within [0, 1].
    """

    t0: float | np.ndarray
    t1: float | np.ndarray
    w_plus: float | np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        # Every comparison here is False for NaN, so a NaN field fails it.
        if isinstance(self.t0, float) and isinstance(self.t1, float) and isinstance(self.w_plus, float):
            in_range = -1e-12 <= self.w_plus <= 1.0 + 1e-12
            finite = abs(self.t0) < math.inf and abs(self.t1) < math.inf
        else:
            in_range = np.all((self.w_plus >= -1e-12) & (self.w_plus <= 1.0 + 1e-12))
            finite = np.all((np.abs(self.t0) < math.inf) & (np.abs(self.t1) < math.inf))
        if not in_range:
            raise ValueError(f"outcome weight w_plus = {self.w_plus} must lie in [0, 1]")
        if not (finite and np.all(np.abs(self.eigenvalues) < math.inf)):
            raise ValueError("t0, t1 and the eigenvalues must be finite")

    @property
    def w_minus(self) -> float | np.ndarray:
        return 1.0 - self.w_plus


def _chsh_operators(alpha1, alpha2, beta1, beta2) -> np.ndarray:
    """CHSH operators over four angles or angle arrays of one shape, shape (..., 4, 4).

    Each product X(a) Y(b) equals the Kronecker product Z(a) (x) Z(b).
    One z_operator call builds all four factors, whose entries are
    finite by construction, and one broadcast _kron forms the four
    products.  Each Z is real and exactly symmetric, so the hermiticity
    check reads exactly 0: it guards code changes, not rounding.
    """
    z = z_operator(np.array((alpha1, alpha2, beta1, beta2)))
    (p11, p12), (p21, p22) = _kron(z[:2, None], z[None, 2:])
    op = p11 + p12 + p21 - p22
    check("CHSH operator hermiticity", hermiticity_defect(op), 1e-13)
    return op


def _z_entries(phi: float) -> tuple:
    """z_operator(phi)'s entries, row-major, as Python floats from the same products (math.cos and math.sin
    must round as numpy's do, which tests/test_chsh_operator.py checks)."""
    (c, s), (m, _) = _basis_rows(phi)
    return c * c - m * m, c * s - m * c, s * c - c * m, s * s - c * c


def _chsh_rows(cfg: AngleConfig) -> list:
    """The rows of chsh_operator(cfg) as Python floats, bit for bit, with its hermiticity check: entry
    (2i + k, 2j + l) is ((p11 + p12) + p21) - p22, as the array builder sums it, at c[4(2i + j) + 2k + l]."""
    za1, za2, zb1, zb2 = map(_z_entries, (cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2))
    c = [((u1 * v1 + u1 * v2) + u2 * v1) - u2 * v2 for u1, u2 in zip(za1, za2) for v1, v2 in zip(zb1, zb2)]
    rows = [c[0:2] + c[4:6], c[2:4] + c[6:8], c[8:10] + c[12:14], c[10:12] + c[14:16]]
    check("CHSH operator hermiticity", max(abs(rows[i][j] - rows[j][i]) for i in range(4) for j in range(i)), 1e-13)
    return rows


def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def chsh_operator(cfg: AngleConfig) -> np.ndarray:
    """The 4x4 CHSH operator at the given angles."""
    return _chsh_operators(cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2)


# t0, t1 = 2 sqrt(1 -+ sin x sin y), x = 2(a1 - a2) and y = 2(b1 - b2), written
# as 2 sqrt(sin^2((x -+ y)/2) + cos^2((x +- y)/2)), which does not cancel.
def _atom_magnitudes(alpha1, alpha2, beta1, beta2) -> np.ndarray:
    half_x, half_y = alpha1 - alpha2, beta1 - beta2
    return 2.0 * np.hypot(np.sin(half_x - half_y), np.cos(half_x + half_y))


def _dark_magnitudes(alpha1, alpha2, beta1, beta2) -> np.ndarray:
    half_x, half_y = alpha1 - alpha2, beta1 - beta2
    return 2.0 * np.hypot(np.cos(half_x - half_y), np.sin(half_x + half_y))


def _closed_form_expectations(alpha1, alpha2, beta1, beta2) -> np.ndarray:
    return (
        -np.cos(2.0 * (alpha1 - beta1))
        - np.cos(2.0 * (alpha1 - beta2))
        - np.cos(2.0 * (alpha2 - beta1))
        + np.cos(2.0 * (alpha2 - beta2))
    )


def _floats(x) -> list:
    """A closed form's value or values as a list of Python floats; a scalar converts with ``float``."""
    return [float(x)] if isinstance(x, float) else np.ravel(x).tolist()


def _outcome_atoms(alpha1, alpha2, beta1, beta2) -> tuple[list, list, list]:
    """Closed-form t0, E and w_plus = (1 + E/t0)/2 (clipped; 0.5 below the t0 floor), as lists of floats.

    Every spectrum and every draw reads them here, so they see the same bits.
    """
    t0s = _floats(_atom_magnitudes(alpha1, alpha2, beta1, beta2))
    expectations = _floats(_closed_form_expectations(alpha1, alpha2, beta1, beta2))
    w_plus = [min(max((1.0 + e / t) / 2.0, 0.0), 1.0) if t >= _T0_FLOOR else 0.5 for t, e in zip(t0s, expectations)]
    return t0s, expectations, w_plus


def _check_spectrum(ev: list, overlaps: list, t0: float, expectation: float, dark: float) -> None:
    """The five spectrum checks of one configuration, on four eigenvalues ``ev`` and the singlet's weight on each eigenvector.

    t0, E and ``dark`` (t1) are the closed forms the spectrum reports; E,
    and with it w_plus = (1 + E/t0)/2, is checked against the signed
    spectral sum <psi|C|psi> = sum_i w_i (+-t_i).  :func:`chsh_spectrum` and
    :func:`chsh_spectra` check each configuration here, on Python floats.
    """
    # The two eigenvalues nearest +-t0 in magnitude are the atoms, and the second
    # of them, the farther, is judged; the stable sort keeps ties in index order.
    distance = [abs(abs(e) - t0) for e in ev]
    _, atom, d0, d1 = sorted(range(4), key=distance.__getitem__)
    check("numeric t0 vs closed form", distance[atom], 1e-9)
    t1 = (abs(ev[d0]) + abs(ev[d1])) / 2
    dark_weight = 0.0 if abs(t0 - t1) <= 1e-9 else overlaps[d0] + overlaps[d1]
    check("singlet weight outside the outcome atoms", dark_weight, 1e-12)
    check("|E| above t0", abs(expectation) - t0, 1e-9)
    # Closed-form magnitudes, numeric signs: however a near-degenerate pair's eigenvectors
    # split, even as t0 -> 0, the sum is off only by the Jacobi residual and rounding.
    signed = [w * math.copysign(dark if i in (d0, d1) else t0, e) for i, (w, e) in enumerate(zip(overlaps, ev))]
    check("projector weight vs closed form", abs(signed[0] + signed[1] + signed[2] + signed[3] - expectation), 1e-12)
    check("numeric t1 vs closed form", abs(t1 - dark), 1e-9)


def atom_magnitude(cfg: AngleConfig) -> float:
    """Closed form t0 = 2 sqrt(1 - sin 2(a1-a2) sin 2(b1-b2))."""
    return float(_atom_magnitudes(cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2))


def closed_form_expectation(cfg: AngleConfig) -> float:
    """Four-cosine closed form of the CHSH expectation in the singlet."""
    return float(_closed_form_expectations(cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2))


def chsh_spectra(
    alpha1: float | np.ndarray, alpha2: float | np.ndarray, beta1: float | np.ndarray, beta2: float | np.ndarray
) -> ChshSpectrum:
    """Spectrum and singlet outcome weights of the CHSH operator over a stack.

    The four angles (radians) broadcast against each other, and every
    field of the result has their broadcast shape, plus a trailing axis
    of four for ``eigenvalues``.  Each configuration obeys the rules of
    :class:`~bellcheck.polarization.AngleConfig`, which is checked here.
    One Jacobi call diagonalizes every operator, and each configuration
    runs :func:`_check_spectrum`; each result is bit for bit the one
    :func:`chsh_spectrum` gives alone (numpy scalars on all-scalar input).
    A failing stack reports its first failing configuration's gap.
    """
    a1, a2, b1, b2 = np.broadcast_arrays(alpha1, alpha2, beta1, beta2)
    if np.any(same_setting(a1, a2)) or np.any(same_setting(b1, b2)):
        raise ValueError("the two settings on one side coincide mod pi")
    evals, evecs = eig_hermitian(_chsh_operators(a1, a2, b1, b2), tol=1e-10)
    t0s, expectations, w_plus = _outcome_atoms(a1, a2, b1, b2)
    t1s = _floats(_dark_magnitudes(a1, a2, b1, b2))
    overlaps = (np.abs(evecs.conj().swapaxes(-1, -2) @ SINGLET) ** 2).reshape(-1, 4).tolist()
    for c in zip(evals.reshape(-1, 4).tolist(), overlaps, t0s, expectations, t1s):
        _check_spectrum(*c)
    return ChshSpectrum(*(np.reshape(f, a1.shape)[()] for f in (t0s, t1s, w_plus)), evals)


def chsh_spectrum(cfg: AngleConfig) -> ChshSpectrum:
    """Spectrum and singlet outcome weights of the CHSH operator.

    The closed-form t0 and t1 it reports are checked against the Jacobi
    eigenvalues (to 1e-9), the singlet's weight off the +-t0 eigenspaces
    against 0, and E against its signed spectral sum (to 1e-12); any
    disagreement raises InternalCheckError.  AngleConfig has checked the
    settings.  The operator's rows, Python floats, go to the eigensolver's
    lone route, ``linalg._eig_lone``, and the fields are bit for bit those of
    :func:`chsh_spectra`; all but ``eigenvalues`` are floats.
    """
    a1, a2, b1, b2 = cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2
    evals, evecs = _eig_lone(_chsh_rows(cfg), 1e-10, _ROUNDS_4)
    (t0,), (expectation,), (w_plus,) = _outcome_atoms(a1, a2, b1, b2)
    t1 = float(_dark_magnitudes(a1, a2, b1, b2))
    _check_spectrum(evals, [_dot(v, _SINGLET_FLOATS) ** 2 for v in zip(*evecs)], t0, expectation, t1)
    return ChshSpectrum(t0, t1, w_plus, np.array(evals))


def sample_outcomes(cfg: AngleConfig, n: int, seed: int) -> EstimatorResult:
    """Draw n single-shot CHSH outcomes (+-t0) and estimate their mean.

    t0 and w_plus are the closed forms :func:`chsh_spectrum` reports, read
    from the same helper, but no eigensolve runs: on the rows of Python
    floats of the CHSH operator C, Landau's identity (C^2 psi = t0^2 psi
    in the singlet psi) checks t0 and <psi|C|psi> checks E, both to 1e-12,
    as the spectrum's signed spectral sum does, with |E| <= t0 as there.

    Draw u of stream 0 gives +t0 when u < w_plus and -t0 otherwise.  The
    stream has the counter-indexed layout of the experiment streams, and
    the draws go through the same block-counting estimator as
    :func:`~bellcheck.realworld.run_experiments`, so each draw depends
    only on (seed, stream, index), and memory does not grow with ``n``
    (1 <= n <= 2**53).  Below t0 = 1e-9 the outcome is exactly 0 and
    nothing is drawn.  The mean converges on the CHSH expectation.
    """
    _check_draw_count(n)
    rows = _chsh_rows(cfg)
    (t0,), (expectation,), (w_plus,) = _outcome_atoms(cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2)
    c_psi = [_dot(row, _SINGLET_FLOATS) for row in rows]
    check("C^2 psi vs t0^2 psi", max(abs(_dot(row, c_psi) - t0 * t0 * p) for row, p in zip(rows, _SINGLET_FLOATS)), 1e-12)
    check("<psi|C|psi> vs closed form", abs(_dot(_SINGLET_FLOATS, c_psi) - expectation), 1e-12)
    check("|E| above t0", abs(expectation) - t0, 1e-9)
    if t0 < _T0_FLOOR:
        return EstimatorResult(0.0, 0.0, n)
    # -t0 on the band w_plus <= u < 1, which holds every draw u >= w_plus.
    return _two_point_estimate(t0, w_plus, 1.0, seed, _SAMPLER_STREAM, n)
