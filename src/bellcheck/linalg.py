"""Dense complex linear algebra for small Hilbert spaces.

Everything here works on plain ``numpy`` arrays with dtype complex128.
Vectors are 1-d arrays, operators are 2-d arrays, and a stack of
operators is an array of shape ``(..., n, n)``; every function below
accepts a stack and acts on its trailing two axes.  The operators that
occur in this package are 2x2 and 4x4 (256 is the length of the tensor
state; no 256x256 matrix is ever formed).  The eigensolver is a Jacobi
iteration that visits the (p, q) pairs in round-robin tournament order,
and ``eig_hermitian`` diagonalizes a whole ``(..., n, n)`` stack in one
call, so an angle sweep costs one solve rather than one per point.
A sweep takes the rotations of each round's disjoint pairs from the
matrix as it stands at the start of the round, then applies all their
row updates, then all their column updates (Brent & Luk's parallel
order).  No rotation goes through BLAS, and every product is rounded on
its own, so the bits do not depend on the BLAS kernel, on numpy's SIMD
loops or on fused multiply-adds.  A lone real matrix up to n = 8 runs
on Python floats, since a lone CHSH operator, solved once per Monte
Carlo configuration, would otherwise spend more time on numpy's
per-call costs than on arithmetic; any other input runs on float64
arrays if real and on complex128 arrays if not, one set of calls per
round.  A real matrix gets the same bits in all three forms.  The lone
route, ``_eig_lone``, takes and returns lists of Python floats, so a
caller holding one operator as floats (``chsh_spectrum``) solves it
with no numpy call.  Builders
form Kronecker products with the private, unchecked ``_kron``: their
factors come from angles already checked at the public entry.
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
# below the stop target.  Matrices are scaled so that 1/2 <= ||A||_F <=
# n * sqrt(2), so every rotated entry apq has re^2 + im^2 a normal float,
# and theta = (aqq - app) / (2 |apq|) is at most 1e150, so theta^2 is
# finite: |apq| and theta need no further scaling.
_SKIP = 1e-150
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
    """Largest entrywise deviation of the array ``a`` (every matrix of a stack) from its adjoint."""
    return float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)))) if a.size else 0.0


def _round_robin_rounds(n: int) -> list[tuple]:
    """Every index pair (p, q), p < q, of an n x n matrix, in the rounds of a round-robin tournament.

    The first round pairs i with n - 1 - i.  Each later round keeps index 0
    in place and moves the others one seat round the table, so every pair
    meets exactly once in n - 1 rounds of n // 2 disjoint pairs (n rounds
    for odd n, where a dummy seat beside the middle index sits each index
    out once; none for n <= 1).  Each round is (pairs, p, q, p + q): its
    pairs, and as views of one read-only index array their first and
    second indices and both concatenated.
    """
    if n <= 1:
        return []
    seats: list[int | None] = list(range(n))
    if n % 2:
        seats.insert((n + 1) // 2, None)
    rounds = []
    for _ in range(len(seats) - 1):
        pairs = [(min(pair), max(pair)) for pair in zip(seats[: len(seats) // 2], seats[::-1]) if None not in pair]
        p, q = ([pair[side] for pair in pairs] for side in (0, 1))
        index = np.array(p + q)
        index.flags.writeable = False
        rounds.append((pairs, index[: len(p)], index[len(p) :], index))
        seats[1:] = seats[-1:] + seats[1:-1]
    return rounds


_ROUNDS_4 = _round_robin_rounds(4)


def _rotation(app: float, aqq: float, apq: float, skip: float) -> tuple[float, float]:
    """The Jacobi rotation that zeroes one real symmetric (p, q) block, as the floats (c, u).

    The rotation is [[c, u], [-u, c]] with u = s * sign(apq).  The tangent
    t = s/c comes from the classic stable formula, so the rotation angle
    stays within +-45 degrees; it takes the sign of theta, with -0.0
    counted positive.  An |apq| below ``skip`` gets t = 0, the identity.
    :func:`_rotations` is this function on arrays, op for op, with an
    imaginary part of apq that adds exact zeros here.
    """
    mag = math.sqrt(apq * apq)
    safe = max(mag, skip)
    theta = (aqq - app) / (2.0 * safe)
    t = math.copysign(1.0 if mag >= skip else 0.0, theta + 0.0) / (abs(theta) + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    return c, t * c * (apq / safe)


def _rotations(g: np.ndarray, p: np.ndarray, q: np.ndarray, pq: np.ndarray, skip: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_rotation` for each pair (p[i], q[i]) and each matrix of the stack ``g``, as arrays (k, N).

    ``g`` holds the stack on its last axis; ``pq`` is p and q concatenated.
    A complex rotation has s*apq/|apq| = u + i*v in place of u.
    """
    apq = g[p, q]
    re, im = apq.real, apq.imag
    mag = np.sqrt(re * re + im * im)
    safe = np.maximum(mag, skip)
    diagonal = g[pq, pq].real
    theta = (diagonal[len(p) :] - diagonal[: len(p)]) / (2.0 * safe)
    t = np.copysign(mag >= skip, theta + 0.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    return c, s * (re / safe), s * (im / safe)


def _sweep_lone(cols: list, rounds: list, skip: float) -> list:
    """One round-parallel sweep of a lone real matrix, held as the columns of [A; V], lists of Python floats.

    Every round takes its rotations from A as it stands at the start of
    the round, applies all of their row updates to A, then all of their
    column updates to A and V.  Rows (and columns) p and q become c*x - u*y
    and c*y + u*x, with x, y rows p, q; the latter is c*y - (-u)*x bit for
    bit.  :func:`_sweep_stacked` is this function on stacks.
    """
    for pairs, *_ in rounds:
        rows = list(zip(*cols))
        rots = [(p, q, *_rotation(rows[p][p], rows[q][q], rows[p][q], skip)) for p, q in pairs]
        for p, q, c, u in rots:
            x, y = rows[p], rows[q]
            rows[p] = [c * xj - u * yj for xj, yj in zip(x, y)]
            rows[q] = [c * yj + u * xj for xj, yj in zip(x, y)]
        cols = list(zip(*rows))
        for p, q, c, u in rots:
            x, y = cols[p], cols[q]
            cols[p] = [c * xj - u * yj for xj, yj in zip(x, y)]
            cols[q] = [c * yj + u * xj for xj, yj in zip(x, y)]
    return cols


def _sweep_stacked(g: np.ndarray, rounds: list, skip: np.ndarray) -> None:
    """:func:`_sweep_lone` on a real or complex stack, in place, one set of array calls per round.

    ``g`` has shape (2n, n, N): [A; V] for each of N matrices, the stack
    last so that every call loops over it.  Rows (or columns) p and q are
    gathered as two halves and updated together, each from its partner in
    the other half: c*x - (w*y +- iv*y) with w = u for p and -u for q,
    iv = i*v, + for rows and - for columns; a real stack has no iv*y.
    """
    rows, n, size = g.shape
    for _, p, q, pq in rounds:
        k = len(p)
        c, u, v = _rotations(g, p, q, pq, skip)
        w, iv = np.stack((u, -u)), (v * 1j if np.iscomplexobj(g) else None)
        # Rows: axes (half, pair, column, matrix); y swaps the halves.
        x = g[pq].reshape(2, k, n, size)
        y = x[::-1]
        wy = w[:, :, None] * y
        if iv is not None:
            wy += iv[:, None] * y
        g[pq] = (c[:, None] * x - wy).reshape(2 * k, n, size)
        # Columns of [A; V]: axes (row, half, pair, matrix).
        x = g[:, pq].reshape(rows, 2, k, size)
        y = x[:, ::-1]
        wy = w * y
        if iv is not None:
            wy -= iv * y
        g[:, pq] = (c * x - wy).reshape(rows, 2 * k, size)


def _sum_sq_lone(cols: list, n: int, off: bool) -> float:
    """Left-to-right sum of a_ij^2 over A in row-major order, the diagonal left out if ``off``."""
    total = 0.0
    for i in range(n):
        for j in range(n):
            if not (off and i == j):
                total += cols[j][i] * cols[j][i]
    return total


def _sum_sq_stacked(g: np.ndarray, n: int, off: bool) -> np.ndarray:
    """:func:`_sum_sq_lone` of |a_ij|^2 for each matrix of the stack ``g`` (laid out as in :func:`_sweep_stacked`).

    A cumulative sum adds left to right; a real stack adds zero imaginary parts.
    """
    a = g[:n]
    sq = a.real * a.real + a.imag * a.imag
    if off:
        sq[range(n), range(n)] = 0.0
    return np.cumsum(sq.reshape(n * n, -1), axis=0)[-1]


def _eig_lone(rows: list, tol: float, rounds: list) -> tuple[list, list]:
    """:func:`eig_hermitian` of one real matrix, its rows given and (eigenvalues, eigenvector matrix's rows) returned as lists.

    ``rounds`` are :func:`_round_robin_rounds` for its size.
    """
    n = len(rows)
    _, exponent = math.frexp(max((abs(x) for row in rows for x in row), default=0.0))
    s = [[math.ldexp(x, -exponent) for x in row] for row in rows]
    if not max((abs(s[i][j] - s[j][i]) for i in range(n) for j in range(i)), default=0.0) <= tol:
        raise ValueError(f"matrix is not Hermitian within tol={tol} relative to its largest entry")
    # The columns of [A; I], with A the symmetrized input (column i is
    # row i) and I where the eigenvectors gather.
    a_cols = [[0.5 * (x + y) for x, y in zip(row, col)] for row, col in zip(s, zip(*s))]
    cols = [col + [0.0] * i + [1.0] + [0.0] * (n - 1 - i) for i, col in enumerate(a_cols)]
    norm_sq = _sum_sq_lone(cols, n, off=False)
    target_sq, skip = _OFF_TOL**2 * norm_sq, _SKIP * math.sqrt(norm_sq)
    sweeps = 0
    while _sum_sq_lone(cols, n, off=True) > target_sq:
        if sweeps == _MAX_SWEEPS:
            raise RuntimeError(f"Jacobi iteration did not converge within {_MAX_SWEEPS} sweeps")
        cols = _sweep_lone(cols, rounds, skip)
        sweeps += 1
    # A stable sort, as argsort's on the stacked route.
    order = sorted(range(n), key=lambda i: cols[i][i], reverse=True)
    vals = [math.ldexp(cols[i][i], exponent) + 0.0 for i in order]
    return vals, [[cols[j][n + i] + 0.0 for j in order] for i in range(n)]


def eig_hermitian(a: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or a stack, by round-robin Jacobi sweeps.

    Parameters
    ----------
    a : square matrix, or stack of them with shape ``(..., n, n)``,
        each Hermitian within the relative ``tol``.
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

    A sweep runs the round-robin rounds of :func:`_round_robin_rounds`
    (for n = 4, (0,3) and (1,2), then (0,2) and (1,3), then (0,1) and
    (2,3)) in Brent & Luk's parallel order: each round takes the
    rotations of its disjoint pairs from the matrix as it stands at the
    start of the round, then applies all of their row updates, then all
    of their column updates.  The order keeps cyclic Jacobi's convergence
    (Brent & Luk 1985; Luk & Park 1989).  A matrix whose off-diagonal
    norm is below 2.5e-14 of its Frobenius norm is frozen.  A CHSH
    operator, a sum of Z(a) (x) Z(b), has equal diagonal entries 0 and 3,
    and 1 and 2; the first round rotates exactly those pairs, and one
    sweep then typically diagonalizes it.

    Rounding model: rotations come from float64 operations, and the
    updates multiply each entry only by a real c or u or an imaginary
    i*v, and add.  A lone real matrix up to n = 8 runs on Python floats
    (:func:`_eig_lone`), any other input on float64 arrays if every
    imaginary part is zero and on complex128 arrays if not
    (:func:`_sweep_stacked`).  Each part of a complex product by a purely
    real or purely imaginary factor has one nonzero float product, the
    other an exact zero, so it is rounded once, fused or not, and a real
    matrix in complex arithmetic only adds exact zeros to what the real
    forms compute: no BLAS kernel, SIMD loop or fused multiply-add can
    change a bit, and squared norms are summed left to right in all three
    forms.  They make the same admission and convergence decisions and
    round every nonzero value alike, differing at most in the sign of a
    zero, which the results drop (no entry is -0.0).  Each result of a
    stack is therefore bit-identical to solving that matrix alone, and to
    solving it scaled by any power of two that keeps it normal.

    Raises
    ------
    ValueError for non-square or non-Hermitian input, RuntimeError if
    some matrix has not converged after 100 sweeps.
    """
    a = as_operator(a)
    n = a.shape[-1]
    if n != a.shape[-2]:
        raise ValueError(f"eig_hermitian needs a square matrix, got {a.shape}")

    rounds = _ROUNDS_4 if n == 4 else _round_robin_rounds(n)
    real = not a.imag.any()
    # The stacked route below, step for step, on Python floats (n = 0 input too,
    # of size 0 = n * n); above n = 8 the stacked sweep is faster even alone.
    if real and a.size == n * n and n <= 8:
        vals, vecs = _eig_lone(a.real.reshape(n, n).tolist(), tol, rounds)
        return np.array(vals).reshape(a.shape[:-1]), np.array(vecs, dtype=np.complex128).reshape(a.shape)

    # Each matrix is scaled by a power of two so that its largest real or
    # imaginary part lies in [1/2, 1).  That is exact (save for entries
    # below 2**-1022 of the largest), so no rotation changes, the
    # hermiticity check is relative, and the squared norm below can
    # neither underflow nor overflow; the eigenvalues are scaled back at
    # the end.  An all-real stack drops its zero imaginary parts.
    parts = np.ascontiguousarray(a.real if real else a).view(np.float64).reshape(-1, n, n if real else 2 * n)
    _, exponent = np.frexp(np.abs(parts).max(axis=(1, 2), initial=0.0))
    stack = np.ldexp(parts, -exponent[:, None, None]).view(np.float64 if real else np.complex128)
    if not hermiticity_defect(stack) <= tol:
        raise ValueError(f"matrix is not Hermitian within tol={tol} relative to its largest entry")
    work = 0.5 * (stack + stack.conj().swapaxes(-1, -2))

    # Rows :n hold the matrix, rows n: the eigenvectors, so one column update
    # applies to both.
    g = np.zeros((2 * n, n, len(work)), dtype=stack.dtype)
    g[:n] = work.transpose(1, 2, 0)
    g[n:] = np.eye(n)[:, :, None]
    norm_sq = _sum_sq_stacked(g, n, off=False)
    target_sq, skip = _OFF_TOL**2 * norm_sq, _SKIP * np.sqrt(norm_sq)
    active = np.flatnonzero(_sum_sq_stacked(g, n, off=True) > target_sq)
    for _ in range(_MAX_SWEEPS):
        if active.size == 0:
            break
        m = g[..., active]
        _sweep_stacked(m, rounds, skip[active])
        g[..., active] = m
        active = active[_sum_sq_stacked(m, n, off=True) > target_sq[active]]
    if active.size:
        raise RuntimeError(f"Jacobi iteration did not converge within {_MAX_SWEEPS} sweeps")

    order = np.argsort(-g[range(n), range(n)].real.T, axis=1, kind="stable")
    stack_index = np.arange(len(work))[:, None]
    vals = np.ldexp(g[order, order, stack_index].real, exponent[:, None]) + 0.0
    vecs = g[n:, order, stack_index].transpose(1, 0, 2) + 0.0
    return vals.reshape(a.shape[:-1]), vecs.reshape(a.shape).astype(np.complex128, copy=False)
