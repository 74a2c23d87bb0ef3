import functools
import math

import numpy as np
import pytest

from bellcheck.born import correlation, joint_pmf
from bellcheck.linalg import commutator
from bellcheck.polarization import (
    AngleConfig,
    _setting_radians,
    basis_matrix,
    reduce_mod_pi,
    same_setting,
    singlet_state,
    x_operator,
    y_operator,
    z_operator,
)
from bellcheck.quasiprob import f_jk, f_jkl, q_reconstruct, q_value

SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def test_singlet_components():
    psi = singlet_state()
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
    assert psi[1] == pytest.approx(1 / math.sqrt(2))
    assert psi[2] == pytest.approx(-1 / math.sqrt(2))
    assert psi[0] == 0.0 and psi[3] == 0.0


def test_basis_matrix_rows_at_special_angles():
    plus, minus = basis_matrix(0.0)
    assert np.allclose(plus, [1, 0]) and np.allclose(minus, [0, 1])
    plus, minus = basis_matrix(math.pi / 2)
    assert np.allclose(plus, [0, 1], atol=1e-15)
    assert np.allclose(minus, [-1, 0], atol=1e-15)


def test_basis_matrix_rows_orthonormal_everywhere():
    rng = np.random.default_rng(2)
    for phi in rng.uniform(-10, 10, 1000):
        plus, minus = basis_matrix(phi)
        assert abs(plus.conj() @ minus) < 1e-14
        assert abs(plus.conj() @ plus - 1) < 1e-14


def test_basis_matrix_stack_equals_per_angle_matrices():
    phis = np.random.default_rng(4).uniform(-10, 10, (3, 5))
    stack = basis_matrix(phis)
    assert stack.shape == (3, 5, 2, 2)
    for index in np.ndindex(phis.shape):
        assert np.array_equal(stack[index], basis_matrix(float(phis[index])))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_basis_matrix_rejects_one_non_finite_angle_in_a_stack(bad):
    phis = np.linspace(0.0, math.pi, 8)
    phis[5] = bad
    with pytest.raises(ValueError, match="angle must be finite"):
        basis_matrix(phis)


def test_z_operator_values():
    assert np.allclose(z_operator(0.0), np.diag([1.0, -1.0]))
    assert np.allclose(z_operator(math.pi / 4), [[0, 1], [1, 0]], atol=1e-15)


def test_z_operator_is_hermitian_involution():
    for phi in np.linspace(-2.0, 2.0, 37):
        z = z_operator(phi)
        assert np.max(np.abs(z - z.conj().T)) < 1e-14
        assert np.max(np.abs(z @ z - np.eye(2))) < 1e-14


def test_z_operator_periodicity_and_completeness():
    for phi in np.linspace(0.0, math.pi, 19):
        assert np.max(np.abs(z_operator(phi) - z_operator(phi + math.pi))) < 1e-12
        plus, minus = basis_matrix(phi)
        resolution = np.outer(plus, plus.conj()) + np.outer(minus, minus.conj())
        assert np.max(np.abs(resolution - np.eye(2))) < 1e-14


def test_z_commutator_closed_form():
    for p_deg in range(0, 180, 5):
        for q_deg in range(0, 180, 5):
            p, q = math.radians(p_deg), math.radians(q_deg)
            got = commutator(z_operator(p), z_operator(q))
            want = -2j * SIGMA_Y * math.sin(2 * (p - q))
            assert np.max(np.abs(got - want)) < 1e-12


def test_x_y_operators():
    assert np.allclose(x_operator(0.0), np.diag([1.0, 1.0, -1.0, -1.0]))
    rng = np.random.default_rng(8)
    for _ in range(50):
        alpha, beta = rng.uniform(0, math.pi, 2)
        assert np.max(np.abs(commutator(x_operator(alpha), y_operator(beta)))) < 1e-13
    # same-side operators at different angles do not commute
    gap = commutator(x_operator(0.0), x_operator(math.radians(30.0)))
    assert np.linalg.norm(gap) > 0.1


def test_angle_helpers():
    assert reduce_mod_pi(math.pi + 0.25) == pytest.approx(0.25)
    assert same_setting(0.0, math.pi)
    assert same_setting(0.1, 0.1 + 3 * math.pi)
    assert not same_setting(0.0, 0.3)
    with pytest.raises(ValueError):
        reduce_mod_pi(math.inf)


def test_angle_config_validation():
    cfg = AngleConfig.from_degrees(0.0, 45.0, 22.5, -22.5)
    assert cfg.alpha2 == pytest.approx(math.pi / 4)
    assert cfg.experiment_angles()[1] == (cfg.alpha1, cfg.beta2)
    with pytest.raises(ValueError, match="alpha"):
        AngleConfig.from_degrees(10.0, 190.0, 0.0, 45.0)
    with pytest.raises(ValueError, match="beta"):
        AngleConfig.from_degrees(0.0, 45.0, 90.0, -90.0)
    with pytest.raises(ValueError, match="finite"):
        AngleConfig(0.0, 1.0, 0.5, math.nan)


def test_from_degrees_reduces_mod_180_and_keeps_smaller_angles():
    rng = np.random.default_rng(180)
    for degrees in rng.uniform(-179.999, 179.999, (200, 4)).tolist() + [[-0.0, 45.0, 22.5, -22.5]]:
        cfg = AngleConfig.from_degrees(*degrees)
        want = tuple(math.radians(v) for v in degrees)
        for got in ((cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2), tuple(map(_setting_radians, degrees))):
            assert got == want and [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]
    big = (1e300, 45.0 + 180.0 * 2**40, 22.5 - 540.0, 1e15)
    want = tuple(math.radians(v) for v in (math.fmod(1e300, 180.0), 45.0, -157.5, 100.0))
    cfg = AngleConfig.from_degrees(*big)
    assert (cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2) == want == tuple(map(_setting_radians, big))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_degrees_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError, match="angle must be finite"):
        AngleConfig.from_degrees(0.0, 45.0, bad, 10.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", range(4))
def test_angle_config_rejects_non_finite_angles_like_every_angle_function(position, bad):
    angles = [0.0, 1.0, 0.5, 2.0]
    angles[position] = bad
    with pytest.raises(ValueError, match="angle must be finite"):
        AngleConfig(*angles)


_ANGLE_FUNCTIONS = {
    "basis_matrix": (basis_matrix, 1),
    "z_operator": (z_operator, 1),
    "x_operator": (x_operator, 1),
    "y_operator": (y_operator, 1),
    "correlation": (correlation, 2),
    "joint_pmf": (functools.partial(joint_pmf, singlet_state()), 2),
    "f_jkl": (f_jkl, 3),
    "f_jk": (f_jk, 2),
    "q_value": (q_value, 3),
    "q_reconstruct": (q_reconstruct, 3),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name, position", [(name, i) for name, (_, arity) in _ANGLE_FUNCTIONS.items() for i in range(arity)]
)
def test_non_finite_angle_raises_value_error(name, position, bad):
    # Every angle passes through basis_matrix, which rejects it before any
    # table is built, so no NaN matrix and no InternalCheckError comes out.
    fn, arity = _ANGLE_FUNCTIONS[name]
    angles = [0.3, 1.1, 2.0][:arity]
    angles[position] = bad
    with pytest.raises(ValueError, match="angle must be finite"):
        fn(*angles)
