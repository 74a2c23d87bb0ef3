import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellcheck
from bellcheck import linalg
from bellcheck.cli import main
from bellcheck.linalg import _kron, _round_robin_rounds, commutator, eig_hermitian
from bellcheck.polarization import AngleConfig, singlet_state, z_operator
from bellcheck.chsh_operator import chsh_operator

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    a = random_complex(rng, (n, n))
    return (a + a.conj().T) / 2


def char_poly_eigenvalues(m):
    """Eigenvalue oracle via Newton's identities on trace powers."""
    p = [np.trace(np.linalg.matrix_power(m, k)).real for k in range(1, 5)]
    e1 = p[0]
    e2 = (e1 * p[0] - p[1]) / 2
    e3 = (e2 * p[0] - e1 * p[1] + p[2]) / 3
    e4 = (e3 * p[0] - e2 * p[1] + e1 * p[2] - p[3]) / 4
    return np.sort(np.roots([1.0, -e1, e2, -e3, e4]).real)


# _kron is the unchecked Kronecker product the builders use; np.kron is the reference.
def test_kron_identities():
    assert np.array_equal(_kron(I2, I2), np.eye(4))
    assert np.array_equal(_kron(SIGMA_Z, I2), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_kron_fourfold_singlet_projector_trace():
    psi = singlet_state()
    projector = np.outer(psi, psi.conj())
    big = projector
    for _ in range(3):
        big = _kron(big, projector)
    assert big.shape == (256, 256)
    assert np.array_equal(big, np.kron(np.kron(np.kron(projector, projector), projector), projector))
    assert abs(np.trace(big) - 1.0) < 1e-12


def test_kron_pairs_stacks_by_broadcasting():
    rng = np.random.default_rng(3)
    a, b = random_complex(rng, (3, 1, 2, 2)), random_complex(rng, (4, 2, 3))
    got = _kron(a, b)
    assert got.shape == (3, 4, 4, 6)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(got[i, j], np.kron(a[i, 0], b[j]))


@pytest.mark.parametrize("shape_a, shape_b", [
    ((2, 2), (2, 2)),
    ((1, 3), (2, 1)),
    ((4, 4), (2, 2)),
    ((2, 2), (4, 4)),
    ((3, 2, 2), (2, 2)),
    ((2, 2), (5, 2, 2)),
])
def test_kron_matches_numpy(shape_a, shape_b):
    rng = np.random.default_rng(sum(shape_a) + 10 * sum(shape_b))
    a, b = random_complex(rng, shape_a), random_complex(rng, shape_b)
    got = _kron(a, b)
    for index in np.ndindex(got.shape[:-2]):
        ia, ib = index[len(index) - a.ndim + 2:], index[len(index) - b.ndim + 2:]
        assert np.array_equal(got[index], np.kron(a[ia], b[ib]))
    assert got.shape[-2:] == (shape_a[-2] * shape_b[-2], shape_a[-1] * shape_b[-1])


def test_commutator_zero_and_frozen_value():
    assert np.max(np.abs(commutator(I2, SIGMA_Y))) == 0.0
    got = commutator(z_operator(np.pi / 4), z_operator(0.0))
    assert np.max(np.abs(got - np.array([[0.0, -2.0], [2.0, 0.0]]))) < 1e-14


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(I2, np.eye(4))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_commutator_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    a, b = random_complex(rng, (3, 3)), random_complex(rng, (3, 3))
    assert np.max(np.abs(commutator(a, b) + commutator(b, a))) < 1e-14


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kron_mixed_product_and_associativity(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = (random_complex(rng, (2, 2)) for _ in range(4))
    assert np.array_equal(_kron(a, b), np.kron(a, b))
    lhs = _kron(a, b) @ _kron(c, d)
    rhs = _kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(_kron(_kron(a, b), c) - _kron(a, _kron(b, c)))) < 1e-12


def test_eig_sigma_z():
    vals, vecs = eig_hermitian(SIGMA_Z)
    assert np.allclose(vals, [1.0, -1.0])
    assert np.allclose(np.abs(vecs.conj().T @ vecs), np.eye(2), atol=1e-12)


def test_eig_rotated_polarizer_spectrum():
    for phi_deg in range(0, 180, 7):
        vals, _ = eig_hermitian(z_operator(np.deg2rad(phi_deg)))
        assert np.allclose(vals, [1.0, -1.0], atol=1e-12)


def test_eig_chsh_operator_against_char_poly_oracle():
    cfg = AngleConfig.from_degrees(0.0, 45.0, 22.5, -22.5)
    op = chsh_operator(cfg)
    vals, vecs = eig_hermitian(op, tol=1e-10)
    oracle = char_poly_eigenvalues(op)
    assert np.max(np.abs(np.sort(vals) - oracle)) < 1e-9
    # the extreme atoms sit at +-2 sqrt 2
    assert abs(vals[0] - 2 * np.sqrt(2)) < 1e-9
    assert abs(vals[-1] + 2 * np.sqrt(2)) < 1e-9


def test_eig_reconstruction_and_sum_rules():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_hermitian(rng, 4)
        vals, vecs = eig_hermitian(a)
        rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - a)) < 1e-9
        assert np.allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-9)
        assert abs(vals.sum() - np.trace(a).real) < 1e-10
        assert abs((vals**2).sum() - np.linalg.norm(a) ** 2) < 1e-10
        assert np.all(np.diff(vals) <= 1e-12)


def test_eig_matches_numpy_on_random_hermitian():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        a = random_hermitian(rng, n)
        vals, _ = eig_hermitian(a)
        assert np.allclose(np.sort(vals), np.linalg.eigvalsh(a), atol=1e-10)


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        eig_hermitian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="expected a matrix, got ndim=1"):
        eig_hermitian(np.array([1.0, 2.0]))


def random_hermitian_stack(rng, count, n):
    a = random_complex(rng, (count, n, n))
    return (a + a.conj().swapaxes(-1, -2)) / 2


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 4, 4), (2, 0, 3, 3)])
def test_eig_of_empty_input_is_empty(shape):
    vals, vecs = eig_hermitian(np.zeros(shape))
    assert (vals.shape, vals.dtype) == (shape[:-1], np.float64)
    assert (vecs.shape, vecs.dtype) == (shape, np.complex128)


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e6])
def test_eig_converges_at_large_scale(scale):
    rng = np.random.default_rng(17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            a = random_hermitian(rng, 4) * scale
            vals, _ = eig_hermitian(a)
            assert np.allclose(np.sort(vals), np.linalg.eigvalsh(a), rtol=0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    count=st.integers(min_value=1, max_value=5),
    log_scale=st.floats(min_value=-8.0, max_value=8.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eig_stack_scale_invariant_against_numpy(n, count, log_scale, seed):
    rng = np.random.default_rng(seed)
    stack = random_hermitian_stack(rng, count, n) * 10.0**log_scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = eig_hermitian(stack)
    assert vals.shape == (count, n) and vecs.shape == (count, n, n)
    norm = np.linalg.norm(stack, axis=(-2, -1))[:, None]
    # numpy serves only as the test oracle; eigvalsh sorts ascending
    assert np.all(np.abs(vals - np.linalg.eigvalsh(stack)[:, ::-1]) <= 1e-12 * norm)
    rebuilt = vecs @ (vals[:, :, None] * vecs.conj().swapaxes(-1, -2))
    assert np.all(np.abs(rebuilt - stack) <= 1e-12 * norm[:, :, None])
    assert np.allclose(vecs.conj().swapaxes(-1, -2) @ vecs, np.eye(n), atol=1e-12)
    for i in range(count):
        alone_vals, alone_vecs = eig_hermitian(stack[i])
        assert np.array_equal(alone_vals, vals[i]) and np.array_equal(alone_vecs, vecs[i])


def test_eig_stack_keeps_leading_shape_and_matches_chsh_operators():
    rng = np.random.default_rng(23)
    ops = np.array([
        chsh_operator(AngleConfig(*angles)) for angles in rng.uniform(0.2, 1.4, (6, 4)) * [1, 2, 1, 2]
    ]).reshape(2, 3, 4, 4)
    vals, vecs = eig_hermitian(ops)
    assert vals.shape == (2, 3, 4) and vecs.shape == (2, 3, 4, 4)
    for idx in np.ndindex(2, 3):
        alone_vals, alone_vecs = eig_hermitian(ops[idx])
        assert np.array_equal(alone_vals, vals[idx]) and np.array_equal(alone_vecs, vecs[idx])


def test_eig_leaves_exact_zero_couplings_alone():
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = [[1.0, 2.0], [2.0, -1.0]]
    block[2:, 2:] = [[3.0, 0.0], [0.0, 5.0]]
    vals, vecs = eig_hermitian(block)
    assert np.allclose(vals, [5.0, 3.0, np.sqrt(5.0), -np.sqrt(5.0)], atol=1e-14)
    assert np.allclose(vecs.conj().T @ block @ vecs, np.diag(vals), atol=1e-14)
    assert np.array_equal(eig_hermitian(np.zeros((3, 3)))[0], np.zeros(3))


def assert_bitwise_equal(x, y):
    assert np.array_equal(x, y)
    assert np.array_equal(np.signbit(x.real), np.signbit(y.real))
    assert np.array_equal(np.signbit(np.imag(x)), np.signbit(np.imag(y)))


def assert_alone_equals_stacked(a):
    """A lone real matrix takes the Python-float route, a complex one and two identical ones the stacked route."""
    alone_vals, alone_vecs = eig_hermitian(a)
    stacked_vals, stacked_vecs = eig_hermitian(np.stack([a, a]))
    assert_bitwise_equal(alone_vals, stacked_vals[0])
    assert_bitwise_equal(alone_vecs, stacked_vecs[0])
    # The routes may differ in the sign of a zero, so the results carry none.
    for part in (alone_vals, alone_vecs.real, alone_vecs.imag):
        assert not np.any(np.signbit(part) & (part == 0.0))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    log_scale=st.floats(min_value=-8.0, max_value=8.0),
    zero_fraction=st.sampled_from([0.0, 0.3, 0.7]),
    real=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eig_single_matrix_path_is_bitwise_the_stacked_path(n, log_scale, zero_fraction, real, seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, n) * 10.0**log_scale
    if real:
        a = a.real.astype(complex)
    zero = np.triu(rng.random((n, n)) < zero_fraction, 1)
    a[zero | zero.T] = 0.0
    assert_alone_equals_stacked(a)


@pytest.mark.parametrize(
    "degrees",
    [
        (0, 45, 22.5, -22.5),
        (0, 45, 20, -22.5),
        (105.528, 109.043, 92.049, 177.716),
        (10.5, 50.25, 20.125, 30),
        (0, 45, 22.5, 112.5),
        (0, 90, 0, 90),
        (0, 90, 45, 135),
    ],
)
def test_eig_single_matrix_path_is_bitwise_the_stacked_path_on_chsh_operators(degrees):
    assert_alone_equals_stacked(chsh_operator(AngleConfig.from_degrees(*degrees)))


def test_eig_skips_exact_zero_couplings_at_tiny_scale():
    # Below ||A||_F ~ 2.5e-24 the relative skip threshold rounds to zero;
    # an exact-zero coupling must still be skipped, not divided by.
    a = np.array([[1.0, 0.0, 1e-3], [0.0, 1.0, 1.0], [1e-3, 1.0, 3.0]], dtype=complex)
    want = np.linalg.eigvalsh(a)[::-1]
    for scale in (1e-25, 1e-60):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = eig_hermitian(a * scale)
            stacked_vals, _ = eig_hermitian(np.stack([a, a]) * scale)
        assert np.allclose(vals / scale, want, rtol=0, atol=1e-12)
        assert np.array_equal(stacked_vals[0], vals)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
def test_eig_where_the_squared_norm_under_or_overflows(scale):
    # ||A||_F^2 is 0 or inf in float64 at these scales; the solver must
    # still rotate instead of returning the unrotated diagonal.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]) * scale)
        op = chsh_operator(AngleConfig.from_degrees(10.5, 50.25, 20.125, 30))
        chsh_vals, _ = eig_hermitian(op * scale)
    assert np.allclose(vals / scale, [1.0, -1.0], rtol=0, atol=1e-15)
    assert np.allclose(vecs.conj().T @ vecs, I2, atol=1e-15)
    assert np.allclose(chsh_vals / scale, eig_hermitian(op)[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("power", [-900, -300, 300, 900])
def test_eig_is_bitwise_invariant_under_power_of_two_scaling(power):
    op = chsh_operator(AngleConfig.from_degrees(105.528, 109.043, 92.049, 177.716))
    vals, vecs = eig_hermitian(op)
    scaled_vals, scaled_vecs = eig_hermitian(op * 2.0**power)
    assert np.array_equal(scaled_vals, vals * 2.0**power)
    assert np.array_equal(scaled_vecs, vecs)


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e8])
def test_eig_admits_hermitian_matrices_at_any_scale(scale):
    # the rounding defect of q D q^H grows with the scale; admission is relative
    q, _ = np.linalg.qr(random_complex(np.random.default_rng(8), (4, 4)))
    vals, _ = eig_hermitian(q @ np.diag([4.0, 1.0, -2.0, -3.0]) @ q.conj().T * scale)
    assert np.allclose(vals / scale, [4.0, 1.0, -2.0, -3.0], rtol=0, atol=1e-12)


def test_eig_with_nan_tol_admits_nothing():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]), tol=np.nan)


def test_eig_rejects_a_tiny_matrix_far_from_hermitian():
    # absolute defect 1e-26, relative 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]) * 1e-20)


def test_eig_raises_when_the_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 0)
    a = random_hermitian(np.random.default_rng(4), 4)
    for m in (a, np.stack([a, a])):
        with pytest.raises(RuntimeError, match="did not converge within 0 sweeps"):
            eig_hermitian(m)
    assert np.array_equal(eig_hermitian(np.diag([1.0, 2.0]))[0], [2.0, 1.0])


@pytest.mark.parametrize("n", range(2, 9))
def test_round_robin_order_meets_each_pair_once(n):
    rounds = _round_robin_rounds(n)
    pairs = [pair for rnd, *_ in rounds for pair in rnd]
    assert sorted(pairs) == [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    assert rounds[0][0] == [(i, n - 1 - i) for i in range(n // 2)]
    for rnd, p, q, pq in rounds:
        # Each round holds n // 2 pairs and touches every index at most once.
        assert len(rnd) == n // 2 and len({i for pair in rnd for i in pair}) == 2 * len(rnd)
        assert p.tolist() == [pair[0] for pair in rnd] and q.tolist() == [pair[1] for pair in rnd]
        assert pq.tolist() == p.tolist() + q.tolist()


def test_round_robin_order_for_four():
    pairs = [pair for rnd, *_ in _round_robin_rounds(4) for pair in rnd]
    assert pairs == [(0, 3), (1, 2), (0, 2), (1, 3), (0, 1), (2, 3)]


@pytest.mark.parametrize("n", [0, 1])
def test_round_robin_order_has_no_rounds_below_two(n):
    assert _round_robin_rounds(n) == []


@pytest.fixture
def sweep_calls(monkeypatch):
    """Counts of lone (``_sweep_lone``) and stacked (``_sweep_stacked``) Jacobi sweeps."""
    calls = {"lone": 0, "stacked": 0}

    def counted(kind, sweep):
        def count(*args):
            calls[kind] += 1
            return sweep(*args)

        return count

    monkeypatch.setattr(linalg, "_sweep_lone", counted("lone", linalg._sweep_lone))
    monkeypatch.setattr(linalg, "_sweep_stacked", counted("stacked", linalg._sweep_stacked))
    return calls


# The Z(a) (x) Z(b) symmetry of the CHSH operator makes its diagonal
# entries 0 and 3, and 1 and 2, equal; the round-robin order's first
# round rotates exactly those pairs, and one sweep of three rounds
# then diagonalizes it.
@pytest.mark.parametrize(
    "degrees",
    [
        (0, 45, 22.5, -22.5),
        (0, 45, 20, -22.5),
        (10.5, 50.25, 20.125, 30),
        (105.528, 109.043, 92.049, 177.716),
        (0, 90, 22.5, -22.5),  # t0 = t1
        (0, 45, 22.5, 112.5),
    ],
)
def test_lone_chsh_operator_takes_one_sweep(sweep_calls, degrees):
    eig_hermitian(chsh_operator(AngleConfig.from_degrees(*degrees)))
    assert sweep_calls == {"lone": 1, "stacked": 0}


def test_diagonal_chsh_operator_takes_no_rotation(sweep_calls):
    # At 0 90 0 90 (t0 = t1 = 2) the off-diagonal entries are sin(pi)
    # rounding, already below the stop target.
    eig_hermitian(chsh_operator(AngleConfig.from_degrees(0, 90, 0, 90)))
    assert sweep_calls == {"lone": 0, "stacked": 0}


@pytest.mark.parametrize(
    "n, real, route", [(8, True, "lone"), (8, False, "stacked"), (16, True, "stacked"), (16, False, "stacked")]
)
def test_lone_matrix_route_depends_on_size(sweep_calls, n, real, route):
    # A lone CHSH operator, real, takes the lone route (tests above); a
    # complex lone matrix, or one above n = 8, takes the stacked sweep,
    # with the same bits.
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) * (not real)
    m = m + m.conj().T
    vals, vecs = eig_hermitian(m)
    assert 0 < sweep_calls[route] == sum(sweep_calls.values())
    pair_vals, pair_vecs = eig_hermitian(np.stack([m, m]))
    assert np.array_equal(vals, pair_vals[0]) and np.array_equal(vecs, pair_vecs[0])


@pytest.mark.parametrize("scale", [2.0**-1000, 1.0, 2.0**1000])
@pytest.mark.parametrize("n", range(1, 9))
def test_real_matrix_has_the_same_bits_in_every_arithmetic(monkeypatch, n, scale):
    # Alone on Python floats, in a real stack on float64 arrays, and beside
    # a complex matrix on complex128 arrays: the products with a zero
    # imaginary part that only the last one forms add exact zeros.
    rng = np.random.default_rng(n)
    a = rng.standard_normal((3, n, n))
    a = (a + a.swapaxes(-1, -2)) * scale
    c = random_hermitian(rng, n) * scale
    stacked = []
    sweep = linalg._sweep_stacked
    monkeypatch.setattr(linalg, "_sweep_stacked", lambda g, *args: stacked.append(g.dtype) or sweep(g, *args))
    lone = eig_hermitian(a[0])
    assert stacked == []
    for stack, dtype in ((a, np.dtype(np.float64)), (np.stack([a[0], c]), np.dtype(np.complex128))):
        vals, vecs = eig_hermitian(stack)
        assert set(stacked) == ({dtype} if n > 1 else set())
        stacked.clear()
        assert_bitwise_equal(vals[0], lone[0])
        assert_bitwise_equal(vecs[0], lone[1])
    for part in (lone[0], lone[1].real, lone[1].imag):
        assert not np.any(np.signbit(part) & (part == 0.0))


def test_chsh_sweep_stack_takes_one_stacked_sweep(sweep_calls, capsys):
    assert main(["chsh", "0", "45", "22.5", "-22.5", "--sweep", "10"]) == 0
    capsys.readouterr()
    assert sweep_calls == {"lone": 0, "stacked": 1}


# Run in a subprocess under one OpenBLAS kernel and numpy SIMD dispatch:
# prints the sha256 of a probe `@` product and of a probe elementwise
# product of general complex arrays, then that of the lone and stacked
# eig_hermitian results on complex and real matrices for n = 2..8 (every
# arithmetic form of the solver) and of the chsh_spectrum and
# chsh_spectra fields over 2,000 seeded configurations.
_KERNEL_DIGESTS = """
import hashlib, math
import numpy as np
from bellcheck.chsh_operator import chsh_spectra, chsh_spectrum
from bellcheck.linalg import eig_hermitian
from bellcheck.polarization import AngleConfig

def digest(arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()

rng = np.random.default_rng(2024)
a = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
print(digest([a @ a.conj().swapaxes(-1, -2) @ a]))
print(digest([a * a[::-1]]))
results = []
for n in range(2, 9):
    m = rng.standard_normal((20, n, n)) + 1j * rng.standard_normal((20, n, n))
    r = m.real + m.real.swapaxes(-1, -2)
    m = m + m.conj().swapaxes(-1, -2)
    for stack in (m, r):
        results += [*eig_hermitian(stack), *(part for one in stack for part in eig_hermitian(one))]
configs = []
while len(configs) < 2000:
    try:
        configs.append(AngleConfig(*rng.uniform(0.0, math.pi, 4)))
    except ValueError:
        pass
for cfg in configs:
    s = chsh_spectrum(cfg)
    results += [np.array([s.t0, s.t1, s.w_plus]), s.eigenvalues]
s = chsh_spectra(*(np.array([getattr(c, k) for c in configs]) for k in ("alpha1", "alpha2", "beta1", "beta2")))
results += [s.t0, s.t1, s.w_plus, s.eigenvalues]
print(digest(results))
"""


def test_eigensolver_bits_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks a kernel for the host CPU; Sandybridge has no fused
    # multiply-add, Haswell has.  numpy dispatches its elementwise loops to
    # the widest SIMD the CPU has; the last run turns that off.  The solver
    # makes no BLAS call, and each part of each of its products has one
    # nonzero float product, so its bits must not depend on either choice.
    src = str(pathlib.Path(bellcheck.__file__).parents[1])
    runs = []
    for kernel, simd_off in (("Sandybridge", None), ("Haswell", None), ("Haswell", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")):
        env = {
            **os.environ,
            "OPENBLAS_CORETYPE": kernel,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        if simd_off:
            env["NPY_DISABLE_CPU_FEATURES"] = simd_off
        command = [sys.executable, "-c", _KERNEL_DIGESTS]
        runs.append(subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env))
    outputs = [run.communicate()[0].split() for run in runs]
    assert [run.returncode for run in runs] == [0, 0, 0]
    if all(output[:-1] == outputs[0][:-1] for output in outputs):
        pytest.skip("neither OPENBLAS_CORETYPE nor NPY_DISABLE_CPU_FEATURES changed a probe product on this host")
    assert [output[-1] for output in outputs] == [outputs[0][-1]] * len(runs)
