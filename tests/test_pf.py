import math

import numpy as np
import pytest

from conedyn import flow, pf, registry
from conedyn.conefield import ConstantField
from conedyn.cones import Orthant
from conedyn.errors import ConeExitError, NotEquilibriumError, PowerIterationError
from helpers import constant_system, linear_system, tanh_fixed_point

ORTHANT2 = ConstantField(Orthant(2))
DIAG = np.ones(2) / np.sqrt(2.0)


@pytest.fixture(scope="module")
def coop():
    return registry.get_system("coop2d")


def diffusion_pair():
    # eigenpairs: 0 on (1,1), -2 on (1,-1); dominant direction (1,1)/sqrt(2)
    return linear_system([[-1.0, 1.0], [1.0, -1.0]], "diffusion_pair")


# ------------------------------------------------------------- pf_direction


def test_pf_direction_linear_dominant_ray():
    res = pf.pf_direction(diffusion_pair(), ORTHANT2, np.array([0.3, -0.2]),
                          T=20.0)
    assert res.converged
    assert np.linalg.norm(res.direction.vec - DIAG) < 1e-6
    assert res.rho is None


def test_pf_direction_identity_flow_stalls():
    s = constant_system([0.0, 0.0], "zero_field")
    res = pf.pf_direction(s, ORTHANT2, np.zeros(2), T=2.0)
    log = res.contraction_log[:, 1]
    assert np.allclose(log, log[0], atol=1e-12)  # distance never moves
    assert not res.converged
    assert np.allclose(res.direction.vec,
                       ORTHANT2.section(np.zeros(2)), atol=1e-12)


def test_pf_direction_coop2d_long_horizon(coop):
    # the Hilbert gap at (s,s) is 2*0.5*sech^2(2.5 s) ~ 0.0285 per unit
    # time, so the stated tolerances need a long horizon (T = 550)
    s_star = tanh_fixed_point(2.5)
    eq = flow.find_equilibria(coop, [np.array([1.0, 1.0])])[0]
    assert np.linalg.norm(eq - [s_star, s_star]) < 1e-10
    w, V = np.linalg.eigh(coop.jac(eq))  # eigen-oracle at the equilibrium
    target = V[:, np.argmax(w)]
    target = np.sign(target[0]) * target
    res = pf.pf_direction(coop, ORTHANT2, np.array([1.0, 0.5]),
                          T=550.0, dt=5e-3)
    assert res.converged
    assert np.linalg.norm(res.direction.vec - target) < 1e-4


def test_pf_direction_contraction_log_monotone(coop):
    res = pf.pf_direction(coop, ORTHANT2, np.array([1.0, 0.5]), T=20.0)
    d = res.contraction_log[:, 1]
    assert np.all(np.diff(d) <= 1e-8)


def test_pf_direction_cone_exit_raises():
    s = registry.get_system("rotation2d")
    with pytest.raises(ConeExitError):
        pf.pf_direction(s, ORTHANT2, np.array([1.0, 0.0]), T=5.0)


def test_pf_direction_unit_metric_norm(coop):
    res = pf.pf_direction(coop, ORTHANT2, np.array([0.2, 0.4]), T=5.0)
    assert np.linalg.norm(res.direction.vec) == pytest.approx(1.0, abs=1e-9)


# -------------------------------------------------------- pf_at_equilibrium


def test_pf_at_equilibrium_coop2d_origin(coop):
    # jac(0) = [[1, 0.5], [0.5, 1]]: eigenvalues 1.5 and 0.5
    v, rho = pf.pf_at_equilibrium(coop, ORTHANT2, np.zeros(2), tau=1.0)
    assert np.linalg.norm(v.vec - DIAG) < 1e-9
    assert rho == pytest.approx(np.exp(1.5), rel=1e-9)


def test_pf_at_equilibrium_stable_sink(coop):
    eq = flow.find_equilibria(coop, [np.array([1.0, 1.0])])[0]
    v, rho = pf.pf_at_equilibrium(coop, ORTHANT2, eq, tau=1.0)
    lam_max = np.max(np.linalg.eigvalsh(coop.jac(eq)))  # numeric eigen-oracle
    assert rho < 1.0
    assert rho == pytest.approx(np.exp(lam_max), rel=1e-9)
    assert np.linalg.norm(v.vec - DIAG) < 1e-9


def test_pf_at_equilibrium_neutral_direction():
    s = diffusion_pair()
    v, rho = pf.pf_at_equilibrium(s, ORTHANT2, np.zeros(2), tau=1.0)
    assert rho == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(v.vec - DIAG) < 1e-9


def test_pf_at_equilibrium_eigen_residual(coop):
    _, phis = flow.tangent_at(coop, np.zeros(2)[None, :], [1.0])
    Phi = phis[0, 0]
    v, rho = pf.pf_at_equilibrium(coop, ORTHANT2, np.zeros(2), tau=1.0)
    u = v.vec / np.linalg.norm(v.vec)
    assert np.linalg.norm(Phi @ u - rho * u) < 1e-8


def test_pf_at_equilibrium_interior_margin(coop):
    v, _ = pf.pf_at_equilibrium(coop, ORTHANT2, np.zeros(2), tau=1.0)
    assert Orthant(2).contains(v.vec).margin > 1e-6


def test_pf_at_equilibrium_tau_scaling(coop):
    v1, r1 = pf.pf_at_equilibrium(coop, ORTHANT2, np.zeros(2), tau=1.0)
    v2, r2 = pf.pf_at_equilibrium(coop, ORTHANT2, np.zeros(2), tau=2.0)
    assert np.linalg.norm(v1.vec - v2.vec) < 1e-8
    assert abs(r2 - r1 ** 2) / r2 < 1e-6


def test_pf_at_equilibrium_requires_equilibrium(coop):
    with pytest.raises(NotEquilibriumError):
        pf.pf_at_equilibrium(coop, ORTHANT2, np.array([1.0, 1.0]), tau=1.0)


def test_pf_at_equilibrium_complex_pair_raises():
    s = registry.get_system("rotation2d")  # rotation: complex eigenpair
    with pytest.raises(PowerIterationError):
        pf.pf_at_equilibrium(s, ORTHANT2, np.zeros(2), tau=1.0)


# ----------------------------------------------------- contraction sampling


def test_hilbert_contraction_along_equilibrium_orbit(coop):
    # tangent flow at the origin has spectral gap 1.0: strong contraction
    rng = np.random.default_rng(0)
    k = 10
    A = rng.uniform(0.1, 1.0, (k, 2))
    B = rng.uniform(0.1, 1.0, (k, 2))
    times, dists, _, _ = pf.propagate_ray_pairs(
        coop, ORTHANT2, np.zeros(2), A, B, T=20.0)
    assert times[-1] == pytest.approx(20.0)
    assert np.all(dists[-1] < 1e-3)
    assert np.all(np.diff(dists, axis=0) <= 1e-8)


def test_birkhoff_hopf_bound_along_an_orbit(coop):
    # rays stored at t reach t + tau through Phi = Phi(t + tau) Phi(t)^-1,
    # a positive map for coop2d; it contracts their Hilbert distance by
    # tanh(D / 4), D the projective diameter of Phi(orthant) (Birkhoff
    # 1957; Bushell 1973)
    x0, T, stride = np.array([1.0, 0.5]), 4.0, 100
    rng = np.random.default_rng(4)
    A = rng.uniform(0.1, 1.0, (6, 2))
    B = rng.uniform(0.1, 1.0, (6, 2))
    times, dists, _, _ = pf.propagate_ray_pairs(coop, ORTHANT2, x0, A, B, T,
                                                store_stride=stride)
    tf = flow.tangent_flow(coop, x0, T, store_stride=stride)
    assert np.array_equal(times, tf.times)
    cone = ORTHANT2.cone
    factors = []
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            Phi = tf.phis[j] @ np.linalg.inv(tf.phis[i])
            diam = max(cone.hilbert_distance(Phi[:, a], Phi[:, b])
                       for a in range(2) for b in range(2))
            k = math.tanh(diam / 4.0)
            assert np.all(dists[j] <= k * dists[i] + 1e-12)
            factors.append(k)
    assert min(factors) < 0.85  # the longest gap makes the bound bite
