"""Quasi-probability analysis of three jointly unmeasurable observables.

For two Alice settings alpha, alpha' and one Bob setting beta, the
three-index quantity

    F[j, k, l] = <psi | x_j, a; y_l, b> <x_j, a | x_k, a'> <x_k, a'; y_l, b | psi>

sums to one and returns both measured pair tables as marginals, exactly
as a joint distribution of (X, X', Y) would -- but some of its cells go
negative, which is how quantum mechanics vetoes the joint distribution.
This module computes F, its marginal identities, the two-index setting
overlap table, and scans angle grids for negative cells.  Each public
entry turns its angles into basis matrices with one ``basis_matrix``
call, one broadcast kernel builds every table from them, and the records
validate the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .born import _PRODUCT_SIGNS, OUTCOME_VALUES, SINGLET, _checked_table, _pair_amplitudes, _singlet_tables
from .errors import check
from .polarization import _setting_grid, basis_matrix, x_operator, y_operator

_IMAG_TOL = 1e-12

# Fixed probe angles for the "beta drops out" consistency check: the
# draws of np.random.default_rng(1278).uniform(0.0, np.pi, 10), written
# out so that importing the package does not load numpy.random.
_BETA_PROBES = np.array([
    1.7879718653234664, 0.04791899826746086, 1.036081980405563, 3.131370531974885, 0.2807469198186977,
    2.507374700762346, 2.168853884759242, 2.7306447923580985, 2.1556043352100724, 0.5463770822692816,
])
_BETA_PROBES.flags.writeable = False
_BETA_PROBE_BASES = basis_matrix(_BETA_PROBES)
_BETA_PROBE_BASES.flags.writeable = False

# The weight (x_j + x_k) y_l of cell (j, k, l) in q_reconstruct.
_Q_WEIGHTS = (OUTCOME_VALUES[:, None] + OUTCOME_VALUES[None, :])[:, :, None] * OUTCOME_VALUES[None, None, :]
_Q_WEIGHTS.flags.writeable = False

# A negativity scan builds its tables one block of alpha values at a
# time, sized to about this many cells (16 MB per complex array).  A
# block holds at least one alpha value, 8 n^2 cells on an n-point grid.
_CHUNK_CELLS = 1 << 20


@dataclass(frozen=True, eq=False)
class QuasiPmf3:
    """Quasi-probability table over (j, k, l); cells may be negative."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _checked_table(self.values, (2, 2, 2)))


@dataclass(frozen=True, eq=False)
class QuasiPmf2:
    """Setting-overlap table over (j, k); both marginals are uniform."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = _checked_table(self.values, (2, 2))
        for sums in (v.sum(axis=0), v.sum(axis=1)):
            if np.max(np.abs(sums - 0.5)) > 1e-12:
                raise ValueError("marginals must each equal 1/2")
        object.__setattr__(self, "values", v)


def _overlaps(alice: np.ndarray, alice_prime: np.ndarray) -> np.ndarray:
    """overlap[..., j, k] = <x_j, alpha | x_k, alpha'> from the two basis matrices; stacks broadcast."""
    return alice.conj() @ alice_prime.swapaxes(-1, -2)


def _cells(amps: np.ndarray, overlap: np.ndarray, amps_prime: np.ndarray) -> np.ndarray:
    """F[..., j, k, l] from broadcast stacks of the three brackets.

    Each cell is a product of three complex brackets; with the real
    singlet and real rotated bases every bracket, and so the product, has
    an imaginary part of exactly 0.  The residue check guards code
    changes, such as ordering bugs, not rounding.
    """
    table = (amps.conj()[..., :, None, :] * overlap[..., :, :, None]) * amps_prime[..., None, :, :]
    check("imaginary residue of quasi-probability cells", np.abs(table.imag), _IMAG_TOL)
    return table.real


def _quasi_cells(a: np.ndarray, a_prime: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F[..., j, k, l] at Alice's basis matrices a, a' and Bob's b; stacks broadcast."""
    return _cells(_pair_amplitudes(SINGLET, a, b), _overlaps(a, a_prime), _pair_amplitudes(SINGLET, a_prime, b))


def q_value(alpha: float, alpha_prime: float, beta: float) -> float:
    """<psi| [X(a) + X(a')] Y(b) |psi>, checked against the two-table sum.

    The operator sandwich and the sum of the two sign-weighted pair
    tables must agree to 1e-12; they are two routes to the same number.
    """
    op = (x_operator(alpha) + x_operator(alpha_prime)) @ y_operator(beta)
    sandwich = float(np.real(SINGLET.conj() @ op @ SINGLET))
    bases = basis_matrix(np.array((alpha, alpha_prime, beta)))
    from_tables = float(np.sum(_PRODUCT_SIGNS * _singlet_tables(bases[:2], bases[2])))
    check("q_value operator route vs pair-table route", abs(sandwich - from_tables), 1e-12)
    return sandwich


def f_jkl(alpha: float, alpha_prime: float, beta: float) -> QuasiPmf3:
    """The eight-cell quasi-probability table at the given angles."""
    table = _quasi_cells(*basis_matrix(np.array((alpha, alpha_prime, beta))))
    return QuasiPmf3(table)


def q_reconstruct(alpha: float, alpha_prime: float, beta: float) -> float:
    """Rebuild the three-observable value from the quasi-probability table.

    sum over (j, k, l) of (x_j + x_k) y_l F[j, k, l]; agrees with
    :func:`q_value` identically.
    """
    return float(np.sum(_Q_WEIGHTS * f_jkl(alpha, alpha_prime, beta).values))


def f_jk(alpha: float, alpha_prime: float) -> QuasiPmf2:
    """Sum the quasi-probability table over Bob's outcome.

    Bob's angle drops out of the result; this is verified numerically
    over ten fixed probe angles, and a residual dependence means the
    construction is broken.  The surviving table equals half the squared
    overlap of the two Alice bases, so every cell here is non-negative.
    """
    tables = _quasi_cells(*basis_matrix(np.array((alpha, alpha_prime))), _BETA_PROBE_BASES)
    summed = tables.sum(axis=-1)
    check("f_jk spread over Bob's angle", np.abs(summed[1:] - summed[0]), _IMAG_TOL)
    # A cell that is 0 in exact arithmetic can round to -4.8e-35, e.g. at alpha = alpha' or alpha' = alpha + pi/2.
    return QuasiPmf2(np.maximum(summed[0], 0.0))


def find_negativity(grid_step: float, threshold: float = -1e-12) -> np.recarray:
    """Scan an angle grid for negative quasi-probability cells.

    All three angles run over the settings in [0, pi) at steps of
    ``grid_step`` radians, each once: pi/k gives k points.  Returns every
    cell below ``threshold`` as one record array with fields ``alpha,
    alpha_prime, beta`` (radians), ``j, k, l`` (1-based cell indices) and
    ``value``, sorted by value ascending with ties broken lexicographically
    by (alpha, alpha', beta, j, k, l); a threshold of +inf returns every
    cell.  A NaN threshold, or a step that is not positive and finite,
    raises ValueError.  Any grid with step <= 15 degrees contains negative
    cells.  Tables are built a block of alpha values at a time, about a
    million cells per block, so memory beyond the returned columns stays
    bounded however fine the grid.
    """
    grid = _setting_grid(grid_step, math.pi)
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    size = grid.size
    bases = basis_matrix(grid)
    amps = _pair_amplitudes(SINGLET, bases[:, None], bases)  # [alpha, beta, j, l]
    overlap = _overlaps(bases[:, None], bases)  # [alpha, alpha', j, k]
    block = max(1, _CHUNK_CELLS // (8 * size * size))
    found = []
    for start in range(0, size, block):
        rows = slice(start, start + block)
        table = _cells(amps[rows, None], overlap[rows, :, None], amps[None])  # [alpha, alpha', beta, j, k, l]
        negative = table < threshold
        alpha_idx, *rest = np.nonzero(negative)
        found.append((table[negative], alpha_idx + start, *rest))
    values, *index = (np.concatenate(column) for column in zip(*found))
    # np.nonzero yields each block's cells in (alpha', beta, j, k, l) order and the
    # blocks run in alpha order, so a stable sort by value breaks ties as documented.
    order = np.argsort(values, kind="stable")
    a, ap, b, j, k, l = (column[order] for column in index)
    return np.rec.fromarrays(
        [grid[a], grid[ap], grid[b], j + 1, k + 1, l + 1, values[order]],
        names=["alpha", "alpha_prime", "beta", "j", "k", "l", "value"],
    )
