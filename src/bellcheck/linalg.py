"""Dense complex linear algebra for small Hilbert spaces.

Everything here works on plain ``numpy`` arrays with dtype complex128.
Vectors are 1-d arrays, operators are 2-d arrays, and a stack of
operators is an array of shape ``(..., n, n)``; every function below
accepts a stack and acts on its trailing two axes.  The dimensions that
actually occur in this package are 2, 4 and 256; the eigensolver is a
Jacobi iteration that visits the (p, q) pairs in round-robin tournament
order, intended for the 4x4 operators it is used on, and
``eig_hermitian`` diagonalizes a whole ``(..., n, n)`` stack in one
call, so an angle sweep costs one solve rather than one per point.
Stacks and lone matrices run the same sweep.  A lone matrix takes its own
route through it: its 2x2 rotations are computed in Python floats and its
result is sorted by plain indexing, since a lone CHSH spectrum, computed
twice per Monte Carlo configuration, would otherwise spend more time on
numpy's per-call costs than on arithmetic; the bits are the same either
way.  The builders form Kronecker products with the private, unchecked
``_kron``: their factors come from angles already checked at the public
entry.
"""

from __future__ import annotations

import math

import numpy as np

# Jacobi stops once the off-diagonal Frobenius norm is at most
# _OFF_TOL * ||A||_F.  Relative, so it is reachable at every scale (the
# rounding floor is a few eps * ||A||_F).  The CHSH operators have norm
# 4, so for them the target is 1e-13, the value their pinned outputs
# (tests/test_golden.py) were computed with.
_OFF_TOL = 2.5e-14
# Off-diagonal entries below _SKIP * ||A||_F are left alone: they are far
# below the stop target, and dividing by them could overflow.  Matrices
# are scaled so that ||A||_F >= 1/2, where this threshold is a normal
# float whose reciprocal is finite.
_SKIP = 1e-300
_MAX_SWEEPS = 100


def as_operator(a: np.ndarray) -> np.ndarray:
    """Coerce to a complex128 matrix or stack of matrices, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or infinite entries")
    return m


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two complex arrays known to be finite and small, unchecked.

    Stacks pair up by broadcasting their leading axes.
    """
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    return product.reshape(product.shape[:-4] + (rows, cols))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = a b - b a for square matrices of equal dimension."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape[-2] != a.shape[-1] or a.shape != b.shape:
        raise ValueError(f"commutator needs equal square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of the complex array ``a`` (every matrix of a stack) from its adjoint."""
    return float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)))) if a.size else 0.0


def _off_diagonal_sq(work: np.ndarray, n: int) -> np.ndarray:
    """Squared off-diagonal Frobenius norm of each matrix in ``work[:, :n]``."""
    sq = work.real[:, :n] ** 2 + work.imag[:, :n] ** 2
    sq[:, np.arange(n), np.arange(n)] = 0.0
    return sq.reshape(len(sq), n * n).sum(axis=1)


def _jacobi_rotations(m: np.ndarray, p: int, q: int, skip: np.ndarray) -> np.ndarray:
    """Stack of 2x2 unitaries, each diagonalizing the (p, q) block of one matrix of ``m``.

    Each is [[c, s*phase], [-s*conj(phase), c]] with phase = apq/|apq|;
    the tangent is chosen with the classic stable formula so the rotation
    angle stays within +-45 degrees.  |theta| is capped at 1e150 inside
    the square root, where theta*theta would overflow; the tangent, below
    1e-150 there, is still right to within a factor of two.  Entries with
    |apq| below ``skip`` get the identity.
    """
    apq = m[:, p, q]
    mag = np.abs(apq)
    safe = np.maximum(mag, skip)
    theta = (m[:, q, q].real - m[:, p, p].real) / (2.0 * safe)
    size = np.abs(theta)
    capped = np.minimum(size, 1e150)
    t = np.where(theta >= 0.0, 1.0, -1.0) / (size + np.sqrt(capped * capped + 1.0)) * (mag >= skip)
    c = 1.0 / np.sqrt(t * t + 1.0)
    s_phase = (t * c) * (apq / safe)
    rot = np.empty(apq.shape + (2, 2), dtype=np.complex128)
    rot[:, 0, 0] = c
    rot[:, 0, 1] = s_phase
    rot[:, 1, 0] = -np.conj(s_phase)
    rot[:, 1, 1] = c
    return rot


def _rotation_alone(m: np.ndarray, p: int, q: int, skip: float) -> np.ndarray:
    """The rotation ``_jacobi_rotations`` builds for the one matrix ``m``, from Python floats.

    The same operations in the same order, at a fraction of the cost.
    Where numpy's complex kernels round otherwise, their way is kept:
    |apq| comes from the array ``abs`` (Python's ``abs`` and ``math.hypot``
    differ from it in the last bit on about 30% of inputs); ``apq / safe``
    is numpy's complex division by ``safe + 0j`` (Smith's method,
    ``(re + im*rat) * scl``, where safe >= skip > 0 makes rat = +0.0 and
    scl = 1/safe) and ``(t*c) * phase`` its complex product by ``t*c + 0j``.
    """
    apq = complex(m[p, q])
    mag = float(np.abs(m[p, q : q + 1])[0])
    safe = max(mag, skip)
    theta = (float(m[q, q].real) - float(m[p, p].real)) / (2.0 * safe)
    size = abs(theta)
    capped = min(size, 1e150)
    t = (1.0 if theta >= 0.0 else -1.0) / (size + math.sqrt(capped * capped + 1.0))
    t *= 1.0 if mag >= skip else 0.0
    c = 1.0 / math.sqrt(t * t + 1.0)
    scl = 1.0 / safe
    phase_re, phase_im = (apq.real + apq.imag * 0.0) * scl, (apq.imag - apq.real * 0.0) * scl
    tc = t * c
    s_re, s_im = tc * phase_re - 0.0 * phase_im, tc * phase_im + 0.0 * phase_re
    return np.array([[c, complex(s_re, s_im)], [complex(-s_re, s_im), c]])


def _round_robin_pairs(n: int) -> list[tuple[int, int]]:
    """Every index pair (p, q), p < q, of an n x n matrix in round-robin tournament order.

    The first round pairs i with n - 1 - i.  Each later round keeps index 0
    in place and moves the others one seat round the table, so every pair
    meets exactly once in n - 1 rounds (n rounds for odd n, where a
    dummy seat beside the middle index sits each index out once).
    """
    seats: list[int | None] = list(range(n))
    if n % 2:
        seats.insert((n + 1) // 2, None)
    pairs = []
    for _ in range(len(seats) - 1):
        for i in range(len(seats) // 2):
            p, q = seats[i], seats[-1 - i]
            if p is not None and q is not None:
                pairs.append((min(p, q), max(p, q)))
        seats[1:] = seats[-1:] + seats[1:-1]
    return pairs


_PAIRS_4 = _round_robin_pairs(4)


def eig_hermitian(a: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or a stack, by round-robin Jacobi sweeps.

    Parameters
    ----------
    a : square matrix, or stack of them with shape ``(..., n, n)``,
        each Hermitian within ``tol`` (entrywise).
    tol : hermiticity admission tolerance, relative to the largest real
        or imaginary part, within a factor of two; a NaN ``tol`` admits
        nothing.  Orthonormality and residual of the returned
        decomposition are good to well below ``10 * tol`` relative to
        the norm of the matrix.

    Returns
    -------
    (eigenvalues, eigenvectors) with eigenvalues real and sorted in
    descending order, shape ``(..., n)``, eigenvectors as the matching
    orthonormal columns, shape ``(..., n, n)``.

    Every matrix of a stack gets its own rotations, in the same
    round-robin (p, q) order (:func:`_round_robin_pairs`; for n = 4,
    (0,3), (1,2), (0,2), (1,3), (0,1), (2,3)), one at a time, touching
    only rows and columns p and q; a matrix whose off-diagonal norm is
    below 2.5e-14 of its Frobenius norm is frozen.  The order keeps
    cyclic Jacobi's convergence (Brent & Luk 1985; Luk & Park 1989).  A
    CHSH operator, a sum of Z(a) (x) Z(b), has equal diagonal entries 0
    and 3, and 1 and 2; the first round rotates exactly those pairs, and
    one sweep of six rotations then typically diagonalizes it.
    Each result is bit-identical to solving that matrix alone, and to
    solving it scaled by any power of two that keeps it normal.  While
    one matrix is active (always, for a lone matrix), its rotations come
    from Python floats (``_rotation_alone``), bit for bit the same.

    Raises
    ------
    ValueError for non-square or non-Hermitian input, RuntimeError if
    some matrix has not converged after 100 sweeps.
    """
    a = as_operator(a)
    n = a.shape[-1]
    if n != a.shape[-2]:
        raise ValueError(f"eig_hermitian needs a square matrix, got {a.shape}")

    # Each matrix is scaled by a power of two so that its largest real or
    # imaginary part lies in [1/2, 1).  That is exact (save for entries
    # below 2**-1022 of the largest), so no rotation changes, the
    # hermiticity check is relative, and the squared norm below can
    # neither underflow nor overflow; the eigenvalues are scaled back at
    # the end.
    parts = np.ascontiguousarray(a).view(np.float64).reshape(-1, n, 2 * n)
    _, exponent = np.frexp(np.abs(parts).max(axis=(1, 2), initial=0.0))
    stack = np.ldexp(parts, -exponent[:, None, None]).view(np.complex128)
    if not hermiticity_defect(stack) <= tol:
        raise ValueError(f"matrix is not Hermitian within tol={tol} relative to its largest entry")
    # Rows :n hold the matrix, rows n: the eigenvectors, so a single
    # product applies each rotation's column update to both.
    both = np.empty((len(stack), 2 * n, n), dtype=np.complex128)
    work = both[:, :n]
    np.add(stack, stack.conj().swapaxes(-1, -2), out=work)
    work /= 2.0
    both[:, n:] = np.eye(n)
    norm_sq = (work.real**2 + work.imag**2).reshape(len(work), n * n).sum(axis=1)
    target_sq = _OFF_TOL**2 * norm_sq
    skip = _SKIP * np.sqrt(norm_sq)
    pairs = _PAIRS_4 if n == 4 else _round_robin_pairs(n)

    active = np.flatnonzero(_off_diagonal_sq(both, n) > target_sq)
    for _ in range(_MAX_SWEEPS):
        if active.size == 0:
            break
        m, m_skip = both[active], skip[active]
        # A lone matrix is rotated as the 2-D m[0], which costs less than a stack of one.
        alone = len(m) == 1
        target = m[0] if alone else m
        for p, q in pairs:
            rot = _rotation_alone(target, p, q, float(m_skip[0])) if alone else _jacobi_rotations(m, p, q, m_skip)
            # The same BLAS products in both cases, as BLAS fuses multiply-adds
            # and rounds unlike numpy's own loops: rows p and q are a strided
            # view BLAS reads in place, and columns p and q are copied, since
            # numpy multiplies a strided column pair without BLAS.
            pq = slice(p, q + 1, q - p)
            target[..., pq, :] = rot.conj().swapaxes(-1, -2) @ target[..., pq, :]
            target[..., :, pq] = target[..., :, pq].copy() @ rot
        both[active] = m
        active = active[_off_diagonal_sq(m, n) > target_sq[active]]
    if active.size:
        raise RuntimeError(f"Jacobi iteration did not converge within {_MAX_SWEEPS} sweeps")

    if len(both) == 1:
        # A lone matrix is sorted by plain indexing, the same values as the stacked gather.
        vals = both[0, :n].diagonal().real
        order = np.argsort(-vals, kind="stable")
        return np.ldexp(vals[order], exponent[0]).reshape(a.shape[:-1]), both[0, n:][:, order].reshape(a.shape)
    vals = np.diagonal(work, axis1=1, axis2=2).real
    order = np.argsort(-vals, axis=1, kind="stable")
    vals = np.ldexp(np.take_along_axis(vals, order, axis=1), exponent[:, None])
    vecs = np.take_along_axis(both[:, n:], order[:, None, :], axis=2)
    return vals.reshape(a.shape[:-1]), vecs.reshape(a.shape)
