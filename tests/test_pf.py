import itertools
import math

import numpy as np
import pytest

from conedyn import flow, geometry, pf, registry
from conedyn.conefield import ConstantField
from conedyn.cones import Lorentz, Orthant, Polyhedral, conic_combinations
from conedyn.errors import (
    ConeExitError,
    FlowBlowupError,
    NotEquilibriumError,
    PowerIterationError,
)
from helpers import (blowup_rotation, constant_system, linear_system,
                     tanh_fixed_point)

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


# ------------------------------------------- batched records vs a reference


def reference_ray_pairs(s, field, x0, A, B, T, dt=flow.DT_DEFAULT,
                        store_stride=flow.STORE_STRIDE,
                        exit_tol=pf.EXIT_TOL):
    """propagate_ray_pairs step by step: the march takes one step at a
    time, each step's map comes from ``_rk4_step_map`` at the state before
    it, the rays step as W <- M W and are renormalized after every step,
    and each stored time checks every ray with ``margin`` and every pair
    with ``hilbert_distance``."""
    k = len(A)
    n_full, rem = flow._plan_steps(T, dt)
    stepper = flow._Stepper(s, x0[None, :])
    W, prev = np.concatenate([A, B]).T, stepper.X
    times, dists = [], []
    step = itertools.count()

    def record(t, last):
        nonlocal W, prev
        i = next(step)
        if i:
            M = flow._rk4_step_map(s, prev, dt if i <= n_full else rem)[1]
            W = M[0] @ W
            W /= np.linalg.norm(W, axis=0)
        prev, x = stepper.X.copy(), stepper.X[0]
        if i % store_stride != 0 and not last:
            return
        cone = field.cone_at(x)
        worst = min(cone.margin(W[:, j]) for j in range(2 * k))
        if worst < -10.0 * exit_tol:
            raise ConeExitError(
                f"ray left the cone at t={t:.6g} (margin {worst:.3e})")
        times.append(t)
        dists.append([cone.hilbert_distance(W[:, j], W[:, k + j])
                      for j in range(k)])

    stepper.march(T, dt, record)
    x = stepper.X[0]
    norms = [geometry.metric_norm(s.manifold, x, geometry.Tangent(x, w))
             for w in W.T]
    return np.asarray(times), np.asarray(dists), x, W / norms


def _ray_cases():
    coop = registry.get_system("coop2d")
    twin = Polyhedral(np.eye(2), np.eye(2))  # the orthant's polyhedral twin
    spd = registry.get_system("spd_lyapunov")
    return {
        "coop2d-orthant": (coop, ORTHANT2, np.array([1.0, 0.5])),
        "coop2d-polyhedral": (coop, ConstantField(twin), np.array([1.0, 0.5])),
        "coop2d-lorentz": (coop, ConstantField(Lorentz(2)),
                           np.array([1.0, 0.5])),
        "spd_lyapunov-psd": (spd, registry.default_field(spd),
                             registry.DEFAULT_X0["spd_lyapunov"]),
    }


def _ray_pairs(field, x0, k=3):
    cone = field.cone_at(x0)
    rng = np.random.default_rng(12)
    rays = cone.unit_rays(rng)
    return (conic_combinations(rays, k, rng), conic_combinations(rays, k, rng))


@pytest.mark.parametrize("stride", [1, 10, 10**9])
@pytest.mark.parametrize("case", sorted(_ray_cases()))
def test_ray_pairs_match_the_stepwise_reference(case, stride):
    # 2500 full steps and a partial one: three chunks of the batched march
    s, field, x0 = _ray_cases()[case]
    A, B = _ray_pairs(field, x0)
    T = 2.5004
    got = pf.propagate_ray_pairs(s, field, x0, A, B, T, store_stride=stride)
    want = reference_ray_pairs(s, field, x0, A, B, T, store_stride=stride)
    assert np.array_equal(got[0], want[0])
    assert want[0][-1] == T
    assert len(want[0]) == len(range(0, 2501, stride)) + 1  # and step 2501
    assert got[1].shape == want[1].shape == (len(want[0]), 3)
    assert np.all(np.isfinite(want[1]))
    for g, w in zip(got[1:], want[1:]):
        assert np.max(np.abs(g - w)) <= 1e-12


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunk_boundaries_do_not_move_the_records(monkeypatch, chunk):
    # 15 full steps and a partial one: the partial step may start a chunk
    s, field, x0 = _ray_cases()["coop2d-orthant"]
    A, B = _ray_pairs(field, x0)
    want = reference_ray_pairs(s, field, x0, A, B, 0.01505, 1e-3, 2)
    monkeypatch.setattr(flow, "_ORBIT_CHUNK", chunk)
    got = pf.propagate_ray_pairs(s, field, x0, A, B, 0.01505, 1e-3, 2)
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        assert np.max(np.abs(g - w)) <= 1e-12
    tf = flow.tangent_flow(s, x0, 0.01505, 1e-3, store_stride=2)
    assert np.array_equal(tf.times, want[0])
    assert np.array_equal(tf.states[-1], want[2])


# {(r, p, q) : p >= 0, q >= 0, |r| <= p + q}: the rays below keep r = 0,
# so the blowup of r leaves them finite
WEDGE = ConstantField(Polyhedral(
    [[1, 0, 1], [-1, 0, 1], [1, 1, 0], [-1, 1, 0]],
    [[0, 1, 0], [0, 0, 1], [-1, 1, 1], [1, 1, 1]]))


def _rotated_rays(phi):
    return (np.array([[0.0, math.cos(phi), math.sin(phi)]]),
            np.array([[0.0, math.cos(phi - 0.05), math.sin(phi - 0.05)]]))


@pytest.mark.parametrize("stride", [1, 10])
def test_a_cone_exit_before_a_blowup_raises_at_its_own_time(stride):
    # exit near t = 1.45 (step ~1450, the second chunk); blowup at t = 2
    s, field = blowup_rotation(), WEDGE
    x0 = np.array([0.5, 1.0, 0.0])
    A, B = _rotated_rays(1.5)
    with pytest.raises(ConeExitError) as want:
        reference_ray_pairs(s, field, x0, A, B, 3.0, store_stride=stride)
    with pytest.raises(ConeExitError) as got:
        pf.propagate_ray_pairs(s, field, x0, A, B, 3.0, store_stride=stride)
    assert str(got.value) == str(want.value)
    assert "t=1.4" in str(got.value)


@pytest.mark.parametrize("stride", [1, 10])
def test_a_blowup_with_no_earlier_exit_raises_at_the_reference_time(stride):
    # blowup at t = 1.3 (step ~1300, the second chunk); exit near t = 1.45
    s, field = blowup_rotation(), WEDGE
    x0 = np.array([1.0 / 1.3, 1.0, 0.0])
    A, B = _rotated_rays(1.5)
    with pytest.raises(FlowBlowupError) as want:
        reference_ray_pairs(s, field, x0, A, B, 3.0, store_stride=stride)
    with pytest.raises(FlowBlowupError) as got:
        pf.propagate_ray_pairs(s, field, x0, A, B, 3.0, store_stride=stride)
    assert got.value.time == want.value.time
    assert 1.25 < got.value.time <= 1.35
    with pytest.raises(FlowBlowupError) as tf:
        flow.tangent_flow(s, x0, 3.0)
    assert tf.value.time == want.value.time


def test_a_blowup_at_the_first_step_of_a_chunk_raises_at_its_time(
        monkeypatch):
    # the chunk before the failing step is full: the failing step opens a
    # chunk of its own, whose maps hand over no record
    s, field = blowup_rotation(), WEDGE
    x0 = np.array([1.0 / 1.3, 1.0, 0.0])
    A, B = _rotated_rays(1.5)
    with pytest.raises(FlowBlowupError) as want:
        flow.integrate(s, x0, 3.0)
    monkeypatch.setattr(flow, "_ORBIT_CHUNK",
                        round(want.value.time / flow.DT_DEFAULT) - 1)
    with pytest.raises(FlowBlowupError) as got:
        pf.propagate_ray_pairs(s, field, x0, A, B, 3.0, store_stride=1)
    assert got.value.time == want.value.time


def test_a_tangent_overflow_before_the_state_raises_flow_blowup():
    # the r part of a ray grows like r(t)^2, so rays with r != 0 overflow
    # a step before the state does: that step raises, with no warning
    s, field = blowup_rotation(), ConstantField(Orthant(3))
    x0 = np.array([1.0 / 1.3, 1.0, 0.0])
    A = np.array([[0.01, math.cos(1.5), math.sin(1.5)]])
    B = np.array([[0.01, math.cos(1.45), math.sin(1.45)]])
    with pytest.raises(FlowBlowupError) as state:
        flow.integrate(s, x0, 3.0)
    with pytest.raises(FlowBlowupError) as got:
        pf.propagate_ray_pairs(s, field, x0, A, B, 3.0, store_stride=1)
    assert 1.25 < got.value.time < state.value.time
    assert "tangent" in str(got.value)



@pytest.mark.parametrize("k", [600, 900])
def test_a_pf_run_from_a_huge_start_is_the_scaled_unit_run(k):
    # spd_lyapunov is linear and its step map is exact in scale, so from
    # 2^k x0 the rays, the log and the state are the unit run's, scaled:
    # the unit normalization of the rays and the final metric norms must
    # not overflow or underflow on the way
    s = registry.get_system("spd_lyapunov")
    field = registry.default_field(s)
    x0 = np.array([1.0, 0.3, 2.0])
    rays = {"u0": np.array([1.0, 0.0, 1.0]), "u1": np.array([1.0, 0.5, 2.0])}
    unit = pf.pf_direction(s, field, x0, T=1.0, **rays)
    huge = pf.pf_direction(s, field, np.ldexp(x0, k), T=1.0, **rays)
    assert np.array_equal(huge.contraction_log, unit.contraction_log)
    assert np.array_equal(huge.direction.vec, np.ldexp(unit.direction.vec, k))
    assert np.array_equal(huge.direction.base, np.ldexp(unit.direction.base, k))


@pytest.mark.parametrize("start", range(6))
def test_congruence_flows_are_hilbert_isometries(start):
    # spd_lyapunov's tangent map is the congruence d -> Phi d Phi^T, and the
    # PSD Hilbert metric is invariant under congruence (Bushell 1973): the
    # contraction log of any ray pair stays at its first entry
    s = registry.get_system("spd_lyapunov")
    x0 = registry.DEFAULT_X0["spd_lyapunov"]
    if start:
        rng = np.random.default_rng(start)
        x0 = s.manifold.random_point(rng)
    log = pf.pf_direction(s, registry.default_field(s), x0,
                          T=3.0).contraction_log
    assert log[-1, 0] == pytest.approx(3.0) and len(log) > 100
    d = log[:, 1]
    assert d[0] > 0.1
    assert np.max(np.abs(d - d[0])) <= 1e-11
