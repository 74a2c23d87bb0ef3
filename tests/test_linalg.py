import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcheck.linalg import adjoint, commutator, eig_hermitian, kron
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


def test_kron_identities():
    assert np.array_equal(kron(I2, I2), np.eye(4))
    assert np.array_equal(kron(SIGMA_Z, I2), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_kron_fourfold_singlet_projector_trace():
    psi = singlet_state()
    projector = np.outer(psi, psi.conj())
    big = projector
    for _ in range(3):
        big = kron(big, projector)
    assert big.shape == (256, 256)
    assert abs(np.trace(big) - 1.0) < 1e-12


def test_kron_dimension_guard():
    with pytest.raises(ValueError, match="dimension guard"):
        kron(np.eye(300), np.eye(300))


def test_adjoint_basics():
    assert np.array_equal(adjoint(I2), I2)
    assert np.array_equal(adjoint(SIGMA_Y), SIGMA_Y)
    rng = np.random.default_rng(3)
    a = random_complex(rng, (4, 4))
    assert np.array_equal(adjoint(adjoint(a)), a)


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
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-12


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


def random_hermitian_stack(rng, count, n):
    a = random_complex(rng, (count, n, n))
    return (a + a.conj().swapaxes(-1, -2)) / 2


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
    """One matrix takes the scalar-rotation path; two identical ones the stacked path."""
    alone_vals, alone_vecs = eig_hermitian(a)
    stacked_vals, stacked_vecs = eig_hermitian(np.stack([a, a]))
    assert_bitwise_equal(alone_vals, stacked_vals[0])
    assert_bitwise_equal(alone_vecs, stacked_vecs[0])


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
