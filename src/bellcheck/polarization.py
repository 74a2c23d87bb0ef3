"""Polarizer bases, dichotomic observables and the two-photon singlet.

Angles are plain floats in radians throughout the library; a linear
polarizer setting has period pi.  The four-dimensional pair space uses
the ordered product basis {|e1 e1>, |e1 e2>, |e2 e1>, |e2 e2>} with
Alice's index varying slowest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _kron

ANGLE_EQUALITY_TOL = 1e-12

# The other party's factor of a one-party observable in the pair space.
_IDENTITY = np.eye(2, dtype=np.complex128)
_IDENTITY.flags.writeable = False


def reduce_mod_pi(angle: float | np.ndarray) -> float | np.ndarray:
    """Canonical representative of a polarizer setting in [0, pi), elementwise for arrays.

    A NaN or infinite angle raises ValueError; a float takes the
    ``math.isfinite`` fast path, as in :func:`basis_matrix`.
    """
    if not (math.isfinite(angle) if isinstance(angle, float) else np.all(np.isfinite(angle))):
        raise ValueError("angle must be finite")
    return angle % math.pi


def _setting_radians(degrees: float) -> float:
    """A setting typed in degrees as radians, reduced mod 180 exactly by ``math.fmod``; NaN and +-inf pass through."""
    return math.radians(math.fmod(degrees, 180.0) if math.isfinite(degrees) else degrees)


def same_setting(a: float | np.ndarray, b: float | np.ndarray) -> bool | np.ndarray:
    """True when two angles are the same polarizer setting mod pi (to ANGLE_EQUALITY_TOL), elementwise."""
    d = abs(reduce_mod_pi(a) - reduce_mod_pi(b))
    return np.minimum(d, math.pi - d) <= ANGLE_EQUALITY_TOL


def _setting_grid(step: float, period: float) -> np.ndarray:
    """``np.arange(0.0, period, step)`` (period pi, or 180 in degrees) less a last point that same_setting puts at 0."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("grid step must be a positive finite number")
    grid = np.arange(0.0, period, step)
    return grid[:-1] if grid.size > 1 and same_setting(grid[-1] * (math.pi / period), 0.0) else grid


@dataclass(frozen=True)
class AngleConfig:
    """The four polarizer settings (alpha1, alpha2, beta1, beta2), radians.

    Every angle must be finite.  Alice's two settings must differ mod pi,
    and likewise Bob's; a CHSH combination with coincident settings on
    one side is degenerate.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        # same_setting rejects a non-finite angle through reduce_mod_pi.
        if same_setting(self.alpha1, self.alpha2):
            raise ValueError("alpha1 and alpha2 coincide mod pi")
        if same_setting(self.beta1, self.beta2):
            raise ValueError("beta1 and beta2 coincide mod pi")

    @classmethod
    def from_degrees(cls, alpha1: float, alpha2: float, beta1: float, beta2: float) -> "AngleConfig":
        """The settings given in degrees, each converted by :func:`_setting_radians`.

        Reducing mod 180 keeps the closed forms' angle differences exact at
        any magnitude and leaves every angle below 180 degrees as it is; a
        NaN or infinite angle passes through, for ``__post_init__`` to reject.
        """
        return cls(*map(_setting_radians, (alpha1, alpha2, beta1, beta2)))

    def experiment_angles(self) -> tuple[tuple[float, float], ...]:
        """Angle pair (Alice, Bob) for each of the four experiments E1..E4."""
        return (
            (self.alpha1, self.beta1),
            (self.alpha1, self.beta2),
            (self.alpha2, self.beta1),
            (self.alpha2, self.beta2),
        )


def singlet_state() -> np.ndarray:
    """The polarization singlet (|e1 e2> - |e2 e1>) / sqrt(2)."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / np.sqrt(2.0)


def basis_matrix(phi: float | np.ndarray) -> np.ndarray:
    """2x2 matrix whose rows are the rotated polarizer eigenvectors.

    Row 0 is the +1 port direction (cos phi, sin phi), row 1 the
    orthogonal -1 port direction (-sin phi, cos phi).  An array of angles
    gives a stack of shape ``phi.shape + (2, 2)``.  Every angle enters
    the Hilbert space here, so this is where a NaN or infinite angle
    raises ValueError; a float takes the ``math.isfinite`` fast path.
    """
    if not (math.isfinite(phi) if isinstance(phi, float) else np.isfinite(phi).all()):
        raise ValueError("angle must be finite")
    c, s = np.cos(phi), np.sin(phi)
    b = np.empty(c.shape + (2, 2), dtype=np.complex128)
    b[..., 0, 0] = c
    b[..., 0, 1] = s
    b[..., 1, 0] = -s
    b[..., 1, 1] = c
    return b


def z_operator(phi: float | np.ndarray) -> np.ndarray:
    """Dichotomic polarizer observable at angle phi, built spectrally.

    Returns sum_k z_k |z_k><z_k| with z_1 = +1 on the transmitted port
    and z_2 = -1 on the orthogonal port; Hermitian and involutory.  Like
    the observables below, it stacks over an array of angles.
    """
    b = basis_matrix(phi)
    plus, minus = b[..., 0, :], b[..., 1, :]
    return plus[..., :, None] * plus[..., None, :].conj() - minus[..., :, None] * minus[..., None, :].conj()


def x_operator(alpha: float | np.ndarray) -> np.ndarray:
    """Alice's polarizer observable embedded in the pair space."""
    return _kron(z_operator(alpha), _IDENTITY)


def y_operator(beta: float | np.ndarray) -> np.ndarray:
    """Bob's polarizer observable embedded in the pair space."""
    return _kron(_IDENTITY, z_operator(beta))
