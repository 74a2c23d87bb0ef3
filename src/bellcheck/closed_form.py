"""The closed forms of the singlet's statistics, each written once.

Every route that prints or checks a closed form reads it here, as an
attribute of this module (``closed_form.<name>``), so one change to a
formula, or one monkeypatch, reaches every route.  Angles are radians,
Python floats or arrays alike, and every function but :func:`floats`,
:func:`outcome_atoms` and :func:`chsh_variants` returns numpy values of
their broadcast shape (a pair table adds two axes):

- the pair correlation C(a, b) = -cos 2(a - b), and the pair table
  [[1 + C, 1 - C], [1 - C, 1 + C]] / 4 it fixes;
- the CHSH expectation E = C(a1, b1) + C(a1, b2) + C(a2, b1) - C(a2, b2),
  and the largest |E| over the settings' role swaps;
- the CHSH operator's eigenvalue magnitudes t0 (the two outcome atoms)
  and t1, and the outcome weight w_plus = (1 + E/t0)/2 of +t0.
"""

from __future__ import annotations

import numpy as np

from .born import _PRODUCT_SIGNS

# Below this, t0 is treated as exactly zero: the sampler returns the outcome 0
# without drawing, and w_plus is 0.5 by convention.  No check reads it.
T0_FLOOR = 1e-9


def correlations(alpha, beta) -> np.ndarray:
    """C(a, b) = -cos 2(a - b)."""
    return -np.cos(2.0 * (alpha - beta))


def pair_tables(alpha, beta) -> np.ndarray:
    """The pair tables p[k, l] = (1 + x y C) / 4, x y the product of the outcome values, shape (..., 2, 2)."""
    return (1.0 + np.multiply.outer(correlations(alpha, beta), _PRODUCT_SIGNS)) / 4.0


def expectations(alpha1, alpha2, beta1, beta2) -> np.ndarray:
    """E = C(a1, b1) + C(a1, b2) + C(a2, b1) - C(a2, b2), summed in that order."""
    return correlations(alpha1, beta1) + correlations(alpha1, beta2) + correlations(alpha2, beta1) - correlations(alpha2, beta2)


def chsh_variants(a1, a2, b1, b2) -> float:
    """The largest |E| over four role swaps of one configuration's settings, a float.

    The four values are the odd-sign CHSH combinations of its four
    correlations, whose largest magnitude ``counterfactual.chsh_all_variants``
    computes from the pair tables.
    """
    swaps = ((a1, a2, b1, b2), (a2, a1, b2, b1), (a1, a2, b2, b1), (a2, a1, b1, b2))
    return max(abs(float(expectations(*angles))) for angles in swaps)


# t0, t1 = 2 sqrt(1 -+ sin x sin y), x = 2(a1 - a2) and y = 2(b1 - b2), written
# as 2 sqrt(sin^2((x -+ y)/2) + cos^2((x +- y)/2)), which does not cancel.
def atom_magnitudes(alpha1, alpha2, beta1, beta2) -> np.ndarray:
    half_x, half_y = alpha1 - alpha2, beta1 - beta2
    return 2.0 * np.hypot(np.sin(half_x - half_y), np.cos(half_x + half_y))


def dark_magnitudes(alpha1, alpha2, beta1, beta2) -> np.ndarray:
    half_x, half_y = alpha1 - alpha2, beta1 - beta2
    return 2.0 * np.hypot(np.cos(half_x - half_y), np.sin(half_x + half_y))


def floats(x) -> list:
    """A closed form's value or values as a list of Python floats; a scalar converts with ``float``."""
    return [float(x)] if isinstance(x, float) else np.ravel(x).tolist()


def outcome_atoms(alpha1, alpha2, beta1, beta2) -> tuple[list, list, list]:
    """Closed-form t0, E and w_plus = (1 + E/t0)/2 (clipped; 0.5 below the t0 floor), as lists of floats.

    Every spectrum and every draw reads them here, so they see the same bits.
    """
    t0s = floats(atom_magnitudes(alpha1, alpha2, beta1, beta2))
    expected = floats(expectations(alpha1, alpha2, beta1, beta2))
    w_plus = [min(max((1.0 + e / t) / 2.0, 0.0), 1.0) if t >= T0_FLOOR else 0.5 for t, e in zip(t0s, expected)]
    return t0s, expected, w_plus
