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
A sweep takes the rotations of each round's disjoint pairs from the
matrix as it stands at the start of the round, then applies all their
row updates, then all their column updates (Brent & Luk's parallel
order).  No rotation goes through BLAS, and every product is rounded on
its own, so the bits do not depend on the BLAS kernel or on fused
multiply-adds.  A lone matrix runs the sweep on Python complex lists,
since a lone CHSH spectrum, computed twice per Monte Carlo
configuration, would otherwise spend more time on numpy's per-call
costs than on arithmetic; a stack runs it on float arrays, one set of
calls per round, and the bits are the same either way.  The builders
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
# The stacked sweep's factors: (u, -u) for the p and q halves of a round,
# and (-v, v) for the parts (im, re) of a product by i*v.
_HALF_SIGNS = np.array([1.0, -1.0])[:, None, None]
_SWAP_SIGNS = -_HALF_SIGNS


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


def _round_robin_rounds(n: int) -> list[tuple]:
    """:func:`_round_robin_pairs` cut into its rounds of n // 2 disjoint pairs.

    Each round is (pairs, p, q, p + q): its pairs, and as index arrays
    their first and second indices and both concatenated.
    """
    pairs, size = _round_robin_pairs(n), max(n // 2, 1)
    rounds = []
    for start in range(0, len(pairs), size):
        rnd = pairs[start : start + size]
        p, q = ([pair[side] for pair in rnd] for side in (0, 1))
        rounds.append((rnd, *(np.array(index) for index in (p, q, p + q))))
    return rounds


_ROUNDS_4 = _round_robin_rounds(4)


def _rotation(app: float, aqq: float, apq: complex, skip: float) -> tuple[float, float, float]:
    """The Jacobi rotation that zeroes one Hermitian (p, q) block, as the floats (c, u, v).

    The rotation is [[c, s*phase], [-s*conj(phase), c]] with phase =
    apq/|apq| and u + i*v = s*phase.  The tangent t = s/c comes from the
    classic stable formula, so the rotation angle stays within +-45
    degrees; it takes the sign of theta, with -0.0 counted positive.  An
    |apq| below ``skip`` gets t = 0, the identity.  :func:`_rotations` is
    this function on arrays, op for op.
    """
    re, im = apq.real, apq.imag
    mag = math.sqrt(re * re + im * im)
    safe = max(mag, skip)
    theta = (aqq - app) / (2.0 * safe)
    t = math.copysign(1.0 if mag >= skip else 0.0, theta + 0.0) / (abs(theta) + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    return c, s * (re / safe), s * (im / safe)


def _rotations(f: np.ndarray, p: np.ndarray, q: np.ndarray, pq: np.ndarray, skip: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_rotation` for each pair (p[i], q[i]) and each matrix of the stack ``f``, as arrays (k, N).

    ``f`` holds the real and imaginary parts on its first axis and the
    stack on its last; ``pq`` is p and q concatenated.
    """
    parts = f[:, p, q]
    squares = parts * parts
    mag = np.sqrt(squares[0] + squares[1])
    safe = np.maximum(mag, skip)
    diagonal = f[0, pq, pq]
    theta = (diagonal[len(p) :] - diagonal[: len(p)]) / (2.0 * safe)
    t = np.copysign(mag >= skip, theta + 0.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    u, v = (t * c) * (parts / safe)
    return c, u, v


def _sweep_lone(cols: list, rounds: list, skip: float) -> list:
    """One round-parallel sweep of a lone matrix, held as the columns of [A; V], Python complex lists.

    Every round takes its rotations from A as it stands at the start of
    the round, applies all of their row updates to A, then all of their
    column updates to A and V.  Rows p and q become c*x - (u*y + iv*y)
    and c*y - (-u*x + iv*x), with x, y rows p, q and iv = i*v; columns
    the same with iv negated.  :func:`_sweep_stacked` is this function on
    stacks.
    """
    for pairs, *_ in rounds:
        rows = list(zip(*cols))
        rots = []
        for p, q in pairs:
            c, u, v = _rotation(rows[p][p].real, rows[q][q].real, rows[p][q], skip)
            rots.append((p, q, c, u, -u, complex(0.0, v)))
        for p, q, c, u, nu, iv in rots:
            x, y = rows[p], rows[q]
            rows[p] = [c * xj - (u * yj + iv * yj) for xj, yj in zip(x, y)]
            rows[q] = [c * yj - (nu * xj + iv * xj) for xj, yj in zip(x, y)]
        cols = list(zip(*rows))
        for p, q, c, u, nu, iv in rots:
            x, y = cols[p], cols[q]
            cols[p] = [c * xj - (u * yj - iv * yj) for xj, yj in zip(x, y)]
            cols[q] = [c * yj - (nu * xj - iv * xj) for xj, yj in zip(x, y)]
    return cols


def _sweep_stacked(f: np.ndarray, rounds: list, skip: np.ndarray) -> None:
    """:func:`_sweep_lone` on a stack, in place, one set of array calls per round.

    ``f`` has shape (2, 2n, n, N): the real and imaginary parts of [A; V]
    for each of N matrices, the stack last so that every call loops over
    it.  Rows (or columns) p and q are gathered as two halves and updated
    together, each from its partner in the other half: c*x - (w*y +- iv*y)
    with w = u for p and -u for q.  A product by i*v is a product by
    (-v, v) of the parts swapped.
    """
    _, rows, n, size = f.shape
    for _, p, q, pq in rounds:
        k = len(p)
        c, u, v = _rotations(f, p, q, pq, skip)
        w, v = u * _HALF_SIGNS, v * _SWAP_SIGNS
        # Rows: axes (part, half, pair, column, matrix); y swaps the halves.
        x = f[:, pq].reshape(2, 2, k, n, size)
        y = x[:, ::-1]
        new = c[:, None] * x - (w[:, :, None] * y + v[:, None, :, None] * y[::-1])
        f[:, pq] = new.reshape(2, 2 * k, n, size)
        # Columns of [A; V]: axes (part, row, half, pair, matrix).
        x = f[:, :, pq].reshape(2, rows, 2, k, size)
        y = x[:, :, ::-1]
        new = c * x - (w * y - v[:, None, None] * y[::-1])
        f[:, :, pq] = new.reshape(2, rows, 2 * k, size)


def _sum_sq_lone(cols: list, n: int, off: bool) -> float:
    """Left-to-right sum of |a_ij|^2 over A in row-major order, the diagonal left out if ``off``."""
    total = 0.0
    for i in range(n):
        for j in range(n):
            if not (off and i == j):
                z = cols[j][i]
                total += z.real * z.real + z.imag * z.imag
    return total


def _sum_sq_stacked(f: np.ndarray, n: int, off: bool) -> np.ndarray:
    """:func:`_sum_sq_lone` for each matrix of the stack ``f`` (laid out as in :func:`_sweep_stacked`).

    A cumulative sum adds left to right.
    """
    parts_sq = f[:, :n] * f[:, :n]
    sq = parts_sq[0] + parts_sq[1]
    if off:
        sq[range(n), range(n)] = 0.0
    return np.cumsum(sq.reshape(n * n, -1), axis=0)[-1]


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

    A sweep runs the round-robin rounds of :func:`_round_robin_pairs`
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
    i*v, and add.  A lone matrix runs the sweep on Python complex numbers
    (:func:`_sweep_lone`), a stack on float planes, one set of array
    calls per round (:func:`_sweep_stacked`).  Either way each part of a
    product is one rounded float product, so no BLAS kernel and no fused
    multiply-add can change a bit, and squared norms are summed left to
    right in both.  The routes make the same admission and convergence
    decisions and round every nonzero value alike; they may differ only
    in the sign of a zero, which the results drop (no entry is -0.0).
    Each result of a stack is therefore bit-identical to solving that
    matrix alone, and to solving it scaled by any power of two that
    keeps it normal.

    Raises
    ------
    ValueError for non-square or non-Hermitian input, RuntimeError if
    some matrix has not converged after 100 sweeps.
    """
    a = as_operator(a)
    n = a.shape[-1]
    if n != a.shape[-2]:
        raise ValueError(f"eig_hermitian needs a square matrix, got {a.shape}")
    if n == 0:
        # Nothing to solve, and reshape(-1, 0, 0) below cannot infer a size.
        return np.zeros(a.shape[:-1]), np.zeros(a.shape, dtype=np.complex128)

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
    work = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    rounds = _ROUNDS_4 if n == 4 else _round_robin_rounds(n)

    if len(work) == 1:
        # The columns of [A; I], with A the scaled input and I where the eigenvectors gather.
        cols = [col + [0j] * i + [1 + 0j] + [0j] * (n - 1 - i) for i, col in enumerate(work[0].T.tolist())]
        norm_sq = _sum_sq_lone(cols, n, off=False)
        target_sq, skip = _OFF_TOL**2 * norm_sq, _SKIP * math.sqrt(norm_sq)
        sweeps = 0
        while _sum_sq_lone(cols, n, off=True) > target_sq:
            if sweeps == _MAX_SWEEPS:
                raise RuntimeError(f"Jacobi iteration did not converge within {_MAX_SWEEPS} sweeps")
            cols = _sweep_lone(cols, rounds, skip)
            sweeps += 1
        # A stable sort, as argsort's on the stacked route.
        order = sorted(range(n), key=lambda i: cols[i][i].real, reverse=True)
        vals = [math.ldexp(cols[i][i].real, int(exponent[0])) + 0.0 for i in order]
        vecs = [cols[j][n + i] + 0j for i in range(n) for j in order]
        return np.array(vals).reshape(a.shape[:-1]), np.array(vecs).reshape(a.shape)

    # Rows :n hold the matrix, rows n: the eigenvectors, so one column update
    # applies to both.
    f = np.zeros((2, 2 * n, n, len(work)))
    f[0, :n], f[1, :n] = work.real.transpose(1, 2, 0), work.imag.transpose(1, 2, 0)
    f[0, n:] = np.eye(n)[:, :, None]
    norm_sq = _sum_sq_stacked(f, n, off=False)
    target_sq, skip = _OFF_TOL**2 * norm_sq, _SKIP * np.sqrt(norm_sq)
    active = np.flatnonzero(_sum_sq_stacked(f, n, off=True) > target_sq)
    for _ in range(_MAX_SWEEPS):
        if active.size == 0:
            break
        m = f[..., active]
        _sweep_stacked(m, rounds, skip[active])
        f[..., active] = m
        active = active[_sum_sq_stacked(m, n, off=True) > target_sq[active]]
    if active.size:
        raise RuntimeError(f"Jacobi iteration did not converge within {_MAX_SWEEPS} sweeps")

    order = np.argsort(-f[0, range(n), range(n)].T, axis=1, kind="stable")
    stack_index = np.arange(len(work))[:, None]
    vals = np.ldexp(f[0, order, order, stack_index], exponent[:, None]) + 0.0
    vecs = np.ascontiguousarray(f[:, n:, order, stack_index].transpose(2, 1, 3, 0)).view(np.complex128) + 0.0
    return vals.reshape(a.shape[:-1]), vecs.reshape(a.shape)
