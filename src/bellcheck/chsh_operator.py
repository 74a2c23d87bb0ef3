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
block of checks of t0, t1 and E against the Jacobi eigensystem.  Every
CHSH operator is real: one configuration is built and solved on Python
floats, a stack on float64 arrays with no complex step, with the same
bits, which tests/test_chsh_operator.py checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .born import _SINGLET_FLOATS
from .errors import check
from .linalg import _ROUNDS_4, _eig_array, _eig_lone, hermiticity_defect
from .polarization import AngleConfig, _basis_rows, same_setting
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
        # Every comparison here, and math.isfinite, is False for NaN, so a NaN field fails it.
        if isinstance(self.t0, float) and isinstance(self.t1, float) and isinstance(self.w_plus, float):
            in_range = -1e-12 <= self.w_plus <= 1.0 + 1e-12
            finite = all(map(math.isfinite, (self.t0, self.t1, *self.eigenvalues.ravel().tolist())))
        else:
            in_range = np.all((self.w_plus >= -1e-12) & (self.w_plus <= 1.0 + 1e-12))
            finite = np.all((np.abs(self.t0) < math.inf) & (np.abs(self.t1) < math.inf))
            finite = finite and np.all(np.abs(self.eigenvalues) < math.inf)
        if not in_range:
            raise ValueError(f"outcome weight w_plus = {self.w_plus} must lie in [0, 1]")
        if not finite:
            raise ValueError("t0, t1 and the eigenvalues must be finite")

    @property
    def w_minus(self) -> float | np.ndarray:
        return 1.0 - self.w_plus


def _z_entries(basis_rows) -> tuple:
    """z_operator's entries, row-major, from the rows ((c, s), (m, c)) of its basis, m = -s: Python floats
    or arrays alike (math.cos and math.sin must round as numpy's do, which tests/test_chsh_operator.py checks)."""
    (c, s), (m, _) = basis_rows
    return c * c - m * m, c * s - m * c, s * c - c * m, s * s - c * c


def _chsh_sum(u1, u2, v1, v2):
    """An entry of X(a1) Y(b1) + X(a1) Y(b2) + X(a2) Y(b1) - X(a2) Y(b2) from entries u of Z(a1), Z(a2) and v
    of Z(b1), Z(b2), each product Z(a) (x) Z(b), summed in this fixed order: Python floats or arrays alike."""
    return ((u1 * v1 + u1 * v2) + u2 * v1) - u2 * v2


def _chsh_rows(cfg: AngleConfig) -> list:
    """The rows of the CHSH operator at ``cfg`` as Python floats, with its hermiticity check: entry
    (2i + k, 2j + l) is _chsh_sum of the Z entries (i, j) and (k, l), at c[4(2i + j) + 2k + l]."""
    za1, za2, zb1, zb2 = (_z_entries(_basis_rows(phi)) for phi in (cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2))
    c = [_chsh_sum(u1, u2, v1, v2) for u1, u2 in zip(za1, za2) for v1, v2 in zip(zb1, zb2)]
    rows = [c[0:2] + c[4:6], c[2:4] + c[6:8], c[8:10] + c[12:14], c[10:12] + c[14:16]]
    check("CHSH operator hermiticity", max(abs(rows[i][j] - rows[j][i]) for i in range(4) for j in range(i)), 1e-13)
    return rows


def _chsh_planes(alpha1, alpha2, beta1, beta2) -> np.ndarray:
    """The CHSH operators over four angles or angle arrays of one shape, real float64, shape (..., 4, 4).

    :func:`_chsh_rows` on arrays, op for op, so every entry has the same
    bits.  Each Z is real and exactly symmetric, so the hermiticity check
    reads exactly 0: it guards code changes, not rounding.
    """
    angles = np.array((alpha1, alpha2, beta1, beta2))
    c, s = np.cos(angles), np.sin(angles)
    # Axes (angle, ..., i, j).  u holds Alice's entries (i, j) and v Bob's (k, l),
    # so the products have axes (..., i, k, j, l): row 2i + k, column 2j + l.
    z = np.stack(_z_entries(((c, s), (-s, c))), axis=-1).reshape(angles.shape + (2, 2))
    u1, u2 = (z[a, ..., :, None, :, None] for a in (0, 1))
    v1, v2 = (z[b, ..., None, :, None, :] for b in (2, 3))
    op = _chsh_sum(u1, u2, v1, v2).reshape(angles.shape[1:] + (4, 4))
    check("CHSH operator hermiticity", hermiticity_defect(op), 1e-13)
    return op


def _dot(x, y) -> float:
    """x0*y0 + x1*y1 + x2*y2 + x3*y3, left to right: Python floats or arrays alike."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]


def chsh_operator(cfg: AngleConfig) -> np.ndarray:
    """The 4x4 CHSH operator at the given angles, as complex128.

    Every entry is real: this is :func:`_chsh_planes` at one
    configuration, with every imaginary part +0.0.
    """
    return _chsh_planes(cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2).astype(np.complex128)


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
    :class:`~bellcheck.polarization.AngleConfig`, which is checked here,
    once per input, before broadcasting; the inputs may be floats,
    arrays or lists.  The operators are built as real float64 planes
    (:func:`_chsh_planes`) and one call of the eigensolver's array route,
    ``linalg._eig_array``, diagonalizes them all in real arithmetic (a
    one-point stack on the lone route, as ``eig_hermitian`` would).
    The singlet's weight on each eigenvector is summed in the order
    :func:`chsh_spectrum` uses, and each configuration runs
    :func:`_check_spectrum`, so each check reads the gap it reads alone,
    and each result is bit for bit the one :func:`chsh_spectrum` gives
    alone (numpy scalars on all-scalar input).  A failing stack reports
    its first failing configuration's gap.
    """
    # Each input is checked once, before broadcasting: a float on same_setting's
    # float path, anything else (a list too) as an array.
    inputs = [x if isinstance(x, float) else np.asarray(x) for x in (alpha1, alpha2, beta1, beta2)]
    if same_setting(*inputs[:2]).any() or same_setting(*inputs[2:]).any():
        raise ValueError("the two settings on one side coincide mod pi")
    angles = np.empty((4,) + np.broadcast(*inputs).shape)
    for i, x in enumerate(inputs):
        angles[i] = x
    a1, a2, b1, b2 = angles
    evals, evecs = _eig_array(_chsh_planes(a1, a2, b1, b2), 1e-10)
    t0s, expectations, w_plus = _outcome_atoms(a1, a2, b1, b2)
    t1s = _floats(_dark_magnitudes(a1, a2, b1, b2))
    # The singlet's amplitude on each eigenvector, in _dot's order as chsh_spectrum takes it.
    amplitudes = _dot(evecs.reshape(-1, 4, 4).transpose(1, 0, 2), _SINGLET_FLOATS)
    for c in zip(evals.reshape(-1, 4).tolist(), (amplitudes * amplitudes).tolist(), t0s, expectations, t1s):
        _check_spectrum(*c)
    return ChshSpectrum(*np.array((t0s, t1s, w_plus)).reshape((3,) + a1.shape), evals)


def chsh_spectrum(cfg: AngleConfig) -> ChshSpectrum:
    """Spectrum and singlet outcome weights of the CHSH operator.

    The closed-form t0 and t1 it reports are checked against the Jacobi
    eigenvalues (to 1e-9), the singlet's weight off the +-t0 eigenspaces
    against 0, and E against its signed spectral sum (to 1e-12); any
    disagreement raises InternalCheckError.  AngleConfig has checked the
    settings.  The operator's rows, Python floats, go to the eigensolver's
    lone route, ``linalg._eig_lone``; the singlet's weight on each
    eigenvector is the square of a :func:`_dot` in fixed order, as on
    :func:`chsh_spectra`'s real arrays, and the fields are bit for bit
    those of :func:`chsh_spectra`; all but ``eigenvalues`` are floats,
    and the record checks them as floats.
    """
    a1, a2, b1, b2 = cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2
    evals, evecs = _eig_lone(_chsh_rows(cfg), 1e-10, _ROUNDS_4)
    (t0,), (expectation,), (w_plus,) = _outcome_atoms(a1, a2, b1, b2)
    t1 = float(_dark_magnitudes(a1, a2, b1, b2))
    amplitudes = [_dot(v, _SINGLET_FLOATS) for v in zip(*evecs)]
    _check_spectrum(evals, [x * x for x in amplitudes], t0, expectation, t1)
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
