"""Dense complex linear algebra for small Hilbert spaces.

Everything here works on plain ``numpy`` arrays with dtype complex128.
Vectors are 1-d arrays, operators are 2-d arrays, and a stack of
operators is an array of shape ``(..., n, n)``; every function below
accepts a stack and acts on its trailing two axes.  The dimensions that
actually occur in this package are 2, 4 and 256; the eigensolver is a
cyclic Jacobi iteration intended for the 4x4 operators it is used on,
and ``eig_hermitian`` diagonalizes a whole ``(..., n, n)`` stack in one
call, so an angle sweep costs one solve rather than one per point.  A
single matrix takes a cheaper path that computes each rotation in Python
floats and gives bit for bit the stacked result.  Python floats round
like numpy's float64 ufuncs, but not like its complex kernels: Python's
``abs`` and ``math.hypot`` differ from numpy's complex ``abs`` in the
last bit on about 30% of inputs, so |apq| still comes from numpy's array
ufunc, and the complex division and product are written out the way
numpy computes them.  The row and column updates stay BLAS products.
"""

from __future__ import annotations

import math

import numpy as np

MAX_KRON_DIM = 65_536

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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with an output-dimension guard.

    Stacks pair up by broadcasting their leading axes.  The guard rejects
    results with more than 65 536 rows or columns; nothing in this
    package legitimately needs more, so exceeding it signals a misuse
    (e.g. an unbounded kron loop).
    """
    a = as_operator(a)
    b = as_operator(b)
    rows = a.shape[-2] * b.shape[-2]
    cols = a.shape[-1] * b.shape[-1]
    if rows > MAX_KRON_DIM or cols > MAX_KRON_DIM:
        raise ValueError(f"kron result {rows}x{cols} exceeds the {MAX_KRON_DIM} dimension guard")
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(lead + (rows, cols))


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return as_operator(a).conj().swapaxes(-1, -2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = a b - b a for square matrices of equal dimension."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape[-2] != a.shape[-1] or a.shape != b.shape:
        raise ValueError(f"commutator needs equal square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of ``a`` (every matrix of a stack) from its own adjoint."""
    a = as_operator(a)
    return float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)))) if a.size else 0.0


def _off_diagonal_sq(work: np.ndarray, n: int) -> np.ndarray:
    """Squared off-diagonal Frobenius norm of each matrix in ``work[:, :n]``."""
    sq = work.real[:, :n] ** 2 + work.imag[:, :n] ** 2
    sq[:, np.arange(n), np.arange(n)] = 0.0
    return sq.reshape(len(sq), n * n).sum(axis=1)


def _jacobi_rotations(app: np.ndarray, aqq: np.ndarray, apq: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Stack of 2x2 unitaries, each diagonalizing [[app, apq], [conj(apq), aqq]].

    Each is [[c, s*phase], [-s*conj(phase), c]] with phase = apq/|apq|;
    the tangent is chosen with the classic stable formula so the rotation
    angle stays within +-45 degrees.  |theta| is capped at 1e150 inside
    the square root, where theta*theta would overflow; the tangent, below
    1e-150 there, is still right to within a factor of two.  Entries with
    |apq| below ``skip`` get the identity.
    """
    mag = np.abs(apq)
    safe = np.maximum(mag, skip)
    theta = (aqq - app) / (2.0 * safe)
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


def _sweep_alone(m: np.ndarray, n: int, skip: float) -> None:
    """One cyclic Jacobi sweep, in place, of the one matrix ``m[:n]`` with eigenvectors ``m[n:]``.

    Bit for bit the stacked sweep on a stack of one, at a fraction of its
    cost.  Each rotation is the one ``_jacobi_rotations`` builds, by the
    same operations in the same order on Python floats.  Where numpy's
    complex kernels round otherwise, their way is kept: |apq| comes from
    the array ``abs``; ``apq / safe`` is numpy's complex division by
    ``safe + 0j`` (Smith's method, ``(re + im*rat) * scl``) and
    ``(t*c) * phase`` its complex product by ``t*c + 0j``.  The row and
    column updates stay the same BLAS products, since BLAS fuses
    multiply-adds: rows p and q are a strided view BLAS reads in place,
    while columns p and q are copied, as numpy multiplies a strided
    column pair without BLAS.
    """
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = complex(m[p, q])
            mag = float(np.abs(m[p, q : q + 1])[0])
            safe = max(mag, skip)
            theta = (float(m[q, q].real) - float(m[p, p].real)) / (2.0 * safe)
            size = abs(theta)
            capped = min(size, 1e150)
            t = (1.0 if theta >= 0.0 else -1.0) / (size + math.sqrt(capped * capped + 1.0))
            t *= 1.0 if mag >= skip else 0.0
            c = 1.0 / math.sqrt(t * t + 1.0)
            rat = 0.0 / safe
            scl = 1.0 / (safe + 0.0 * rat)
            phase_re, phase_im = (apq.real + apq.imag * rat) * scl, (apq.imag - apq.real * rat) * scl
            tc = t * c
            s_re, s_im = tc * phase_re - 0.0 * phase_im, tc * phase_im + 0.0 * phase_re
            rot = np.array([[c, complex(s_re, s_im)], [complex(-s_re, s_im), c]])
            pq = slice(p, q + 1, q - p)
            m[pq] = rot.conj().T @ m[pq]
            m[:, pq] = m[:, pq].copy() @ rot


def eig_hermitian(a: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or a stack, by cyclic Jacobi sweeps.

    Parameters
    ----------
    a : square matrix, or stack of them with shape ``(..., n, n)``,
        Hermitian within ``tol`` (entrywise).
    tol : hermiticity admission tolerance; orthonormality and residual of
        the returned decomposition are good to well below ``10 * tol``
        relative to the norm of the matrix.

    Returns
    -------
    (eigenvalues, eigenvectors) with eigenvalues real and sorted in
    descending order, shape ``(..., n)``, eigenvectors as the matching
    orthonormal columns, shape ``(..., n, n)``.

    Every matrix of a stack gets its own rotations, in the same cyclic
    (p, q) order, touching only rows and columns p and q; a matrix whose
    off-diagonal norm is below 2.5e-14 of its Frobenius norm is frozen.
    Each result is bit-identical to solving that matrix alone, and to
    solving it scaled by any power of two that keeps it normal.  While
    only one matrix is active (always, for a lone matrix), sweeps take
    the scalar path ``_sweep_alone``, which computes each rotation in
    Python floats but with numpy's roundings of |apq| and of the complex
    division and product, so the result does not depend on the path.

    Raises
    ------
    ValueError for non-square or non-Hermitian input, RuntimeError if
    some matrix has not converged after 100 sweeps.
    """
    a = as_operator(a)
    n = a.shape[-1]
    if n != a.shape[-2]:
        raise ValueError(f"eig_hermitian needs a square matrix, got {a.shape}")
    if hermiticity_defect(a) > tol:
        raise ValueError(f"matrix is not Hermitian within tol={tol}")

    # Each matrix is scaled by a power of two so that its largest real or
    # imaginary part lies in [1/2, 1).  That is exact (save for entries
    # below 2**-1022 of the largest), so no rotation changes, and the
    # squared norm below can neither underflow nor overflow; the
    # eigenvalues are scaled back at the end.
    parts = np.ascontiguousarray(a).view(np.float64).reshape(-1, n, 2 * n)
    _, exponent = np.frexp(np.abs(parts).max(axis=(1, 2), initial=0.0))
    stack = np.ldexp(parts, -exponent[:, None, None]).view(np.complex128)
    work = (stack + stack.conj().swapaxes(-1, -2)) / 2.0
    # Rows :n hold the matrix, rows n: the eigenvectors, so a single
    # product applies each rotation's column update to both.
    both = np.concatenate([work, np.broadcast_to(np.eye(n, dtype=np.complex128), work.shape)], axis=1)
    norm_sq = (work.real**2 + work.imag**2).reshape(len(work), n * n).sum(axis=1)
    target_sq = _OFF_TOL**2 * norm_sq
    skip = _SKIP * np.sqrt(norm_sq)
    pairs = [(p, q, np.array([p, q])) for p in range(n - 1) for q in range(p + 1, n)]

    active = np.flatnonzero(_off_diagonal_sq(both, n) > target_sq)
    for _ in range(_MAX_SWEEPS):
        if active.size == 0:
            break
        m, m_skip = both[active], skip[active]
        if len(m) == 1:
            _sweep_alone(m[0], n, float(m_skip[0]))
        else:
            for p, q, pq in pairs:
                rot = _jacobi_rotations(m[:, p, p].real, m[:, q, q].real, m[:, p, q], m_skip)
                m[:, pq, :] = rot.conj().swapaxes(-1, -2) @ m[:, pq, :]
                m[:, :, pq] = m[:, :, pq] @ rot
        both[active] = m
        active = active[_off_diagonal_sq(m, n) > target_sq[active]]
    if active.size:
        raise RuntimeError(f"Jacobi iteration did not converge within {_MAX_SWEEPS} sweeps")

    vals = np.diagonal(both[:, :n], axis1=1, axis2=2).real
    order = np.argsort(-vals, axis=1, kind="stable")
    vals = np.ldexp(np.take_along_axis(vals, order, axis=1), exponent[:, None])
    vecs = np.take_along_axis(both[:, n:], order[:, None, :], axis=2)
    return vals.reshape(a.shape[:-1]), vecs.reshape(a.shape)
