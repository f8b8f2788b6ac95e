import dataclasses

import numpy as np
import pytest

from conedyn import experiments, flow, geometry, pf, registry
from conedyn.conefield import ConstantField
from conedyn.cones import Orthant
from conedyn.errors import FlowBlowupError, ManifoldExitError
from conedyn.flow import NON_SINGLETON, SINGLETON, UNDETERMINED
from conedyn.geometry import pack_sym
from helpers import constant_system, linear_system, tanh_fixed_point


@pytest.fixture(scope="module")
def coop():
    return registry.get_system("coop2d")


def test_integrate_exponential_decay():
    s = linear_system([[-1.0]])
    traj = flow.integrate(s, np.array([1.0]), T=1.0, dt=1e-3)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-9


def test_integrate_rotation_returns():
    s = registry.get_system("rotation2d")
    traj = flow.integrate(s, np.array([1.0, 0.0]), T=2.0 * np.pi, dt=1e-3)
    assert np.linalg.norm(traj.states[-1] - [1.0, 0.0]) < 1e-6


def test_integrate_coop2d_hits_oracle_equilibrium(coop):
    s_star = tanh_fixed_point(2.5)
    traj = flow.integrate(coop, np.array([0.1, 0.1]), T=50.0, dt=1e-3)
    assert np.linalg.norm(traj.states[-1] - [s_star, s_star]) < 1e-4


def test_trajectory_invariants(coop):
    traj = flow.integrate(coop, np.array([0.3, -0.2]), T=2.0, dt=1e-3)
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)
    assert np.array_equal(traj.states[0], [0.3, -0.2])
    assert traj.times[-1] == pytest.approx(2.0)


def test_integrate_partial_final_step():
    s = linear_system([[-1.0]])
    traj = flow.integrate(s, np.array([1.0]), T=0.0105, dt=1e-3)
    assert traj.times[-1] == pytest.approx(0.0105)
    assert abs(traj.states[-1, 0] - np.exp(-0.0105)) < 1e-12


def test_integrate_blowup_reports_time():
    s = flow.FlowSystem(geometry.euclidean(1), lambda x: np.asarray(x) ** 2,
                        lambda x: 2.0 * np.asarray(x)[..., None, None],
                        "quadratic")
    with pytest.raises(FlowBlowupError) as err:
        flow.integrate(s, np.array([1.0]), T=2.0, dt=1e-3)
    assert 0.9 < err.value.time <= 1.2  # true blow-up at t = 1


def test_spd_guard_raises_on_chart_exit():
    m = geometry.spd(2)
    drift = -pack_sym(np.eye(2))
    s = flow.FlowSystem(
        m, lambda v: np.broadcast_to(drift, np.asarray(v).shape),
        lambda v: np.zeros(np.asarray(v).shape[:-1] + (3, 3)), "sink_drift")
    with pytest.raises(ManifoldExitError):
        flow.integrate(s, pack_sym(0.05 * np.eye(2)), T=1.0, dt=1e-3)


# ------------------------------------------------------------- chart guard


def _eigvalsh_guard(V):
    """Reference guard: non-finite rows, or eigvalsh's lambda_min <= EIG_TOL."""
    bad = ~np.all(np.isfinite(V), axis=1)
    ok = np.flatnonzero(~bad)
    w = np.linalg.eigvalsh(geometry.unpack_sym(V[ok], 2))
    bad[ok[w[:, 0] <= geometry.EIG_TOL]] = True
    return bad


def _spd2_rows(rng, lam_min, lam_max):
    """Packed symmetric rows with eigenvalues lam_min, lam_max, random frames."""
    th = rng.uniform(0.0, np.pi, len(lam_min))
    u = np.stack([np.cos(th), np.sin(th)], axis=1)
    v = np.stack([-u[:, 1], u[:, 0]], axis=1)
    S = (lam_min[:, None, None] * u[:, :, None] * u[:, None, :]
         + lam_max[:, None, None] * v[:, :, None] * v[:, None, :])
    return pack_sym(S)


def test_spd2_guard_matches_eigvalsh():
    s = registry.get_system("spd_lyapunov")
    rng = np.random.default_rng(5)
    tol, N = geometry.EIG_TOL, 4000
    scale = 10.0 ** rng.uniform(-3.0, 12.0, N)
    # the fallback band is 1e-13 times the entry scale; put rows inside it,
    # on both sides of EIG_TOL, and just outside it
    offset = rng.choice([-1.0, 1.0], N) * scale * 10.0 ** rng.uniform(
        -18.0, -11.0, N)
    diagonal = tol + np.array([-1e-15, -1e-16, -1e-17, 0.0, 1e-17, 1e-16,
                               1e-15])
    batches = {
        "random": rng.normal(size=(N, 3)),
        "spd": _spd2_rows(rng, rng.uniform(0.0, 2.0, N), 1.0 + scale),
        "large": scale[:, None] * rng.normal(size=(N, 3)),
        "band": _spd2_rows(rng, tol + offset, scale),
        "diagonal": np.column_stack([diagonal, np.zeros(7), np.ones(7)]),
    }
    rows = np.vstack([batches["random"][:8], batches["spd"][:8]])
    rows[[0, 3, 9, 12], [0, 1, 2, 1]] = [np.nan, np.inf, -np.inf, np.nan]
    batches["nonfinite"] = rows
    for name, V in batches.items():
        want = _eigvalsh_guard(V)
        assert np.array_equal(flow._bad_rows(s, V), want), name
        assert 0 < want.sum() < len(V) or name == "spd", name
    # the diagonal rows sit on EIG_TOL to within a few ulps of the diagonal
    assert list(_eigvalsh_guard(batches["diagonal"])) == [True] * 4 + [False] * 3


def test_spd3_guard_escapes_through_eigvalsh():
    # lambda_min = 0.05 - t on the first row crosses EIG_TOL near t = 0.05
    m = geometry.spd(3)
    drift = -pack_sym(np.eye(3))
    s = flow.FlowSystem(
        m, lambda v: np.broadcast_to(drift, np.asarray(v).shape),
        lambda v: np.zeros(np.asarray(v).shape[:-1] + (6, 6)), "sink_drift3")
    X0 = pack_sym(np.array([np.diag([0.05, 1.0, 2.0]),
                            np.diag([0.5, 1.0, 2.0])]))
    with pytest.raises(ManifoldExitError) as err:
        flow.integrate(s, X0[0], T=1.0, dt=1e-3)
    assert abs(err.value.time - 0.05) <= 1e-3 + 1e-9
    xs = flow.states_at(s, X0, [0.04, 0.1], dt=1e-3, on_failure="mask")
    assert np.all(np.isfinite(xs[0]))
    assert np.all(np.isnan(xs[1, 0])) and np.all(np.isfinite(xs[1, 1]))
    assert np.allclose(geometry.unpack_sym(xs[1, 1], 3),
                       np.diag([0.4, 0.9, 1.9]), atol=1e-12)


def test_rk4_order_under_step_halving():
    s = linear_system([[-1.0]])
    exact = np.exp(-1.0)
    errs = []
    for dt in (0.02, 0.01):
        traj = flow.integrate(s, np.array([1.0]), T=1.0, dt=dt, store_stride=1)
        errs.append(abs(traj.states[-1, 0] - exact))
    factor = errs[0] / errs[1]
    assert 8.0 <= factor <= 40.0


# ------------------------------------------------------------- tangent flow


def test_tangent_flow_matches_matrix_exponential():
    # closed form from the eigenvectors (1,1) and (1,-1)
    s = linear_system([[-1.0, 1.0], [1.0, -1.0]])
    tf = flow.tangent_flow(s, np.zeros(2), T=1.0, dt=1e-3)
    e2 = np.exp(-2.0)
    expected = np.array([[(1 + e2) / 2, (1 - e2) / 2],
                         [(1 - e2) / 2, (1 + e2) / 2]])
    assert np.max(np.abs(tf.phis[-1] - expected)) < 1e-8


def test_tangent_flow_starts_at_identity(coop):
    tf = flow.tangent_flow(coop, np.array([0.2, 0.1]), T=1e-4, dt=1e-5)
    assert np.array_equal(tf.phis[0], np.eye(2))
    assert np.max(np.abs(tf.phis[-1] - np.eye(2))) < 1e-3


def test_tangent_flow_orientation(coop):
    tf = flow.tangent_flow(coop, np.array([1.0, -1.0]), T=5.0, dt=1e-3)
    assert np.all(np.linalg.det(tf.phis) > 0)


def test_tangent_flow_finite_difference_oracle(coop):
    x0 = np.array([0.4, -0.3])
    tf = flow.tangent_flow(coop, x0, T=1.0, dt=1e-3)
    Phi = tf.phis[-1]
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        plus = flow.integrate(coop, x0 + e, T=1.0, dt=1e-3).states[-1]
        base = flow.integrate(coop, x0, T=1.0, dt=1e-3).states[-1]
        fd = (plus - base) / h
        assert np.linalg.norm(Phi @ (e / h) - fd) < 1e-4


def test_variational_cocycle(coop):
    rng = np.random.default_rng(0)
    x0 = np.array([0.5, 0.2])
    for _ in range(3):
        t, s_ = rng.uniform(0.1, 5.0, 2)
        full = flow.tangent_flow(coop, x0, T=t + s_, dt=1e-3, store_stride=10**9)
        first = flow.tangent_flow(coop, x0, T=t, dt=1e-3, store_stride=10**9)
        second = flow.tangent_flow(coop, first.states[-1], T=s_, dt=1e-3,
                                   store_stride=10**9)
        assert np.max(np.abs(full.phis[-1] - second.phis[-1] @ first.phis[-1])) < 1e-6


def test_semigroup_property(coop):
    rng = np.random.default_rng(1)
    x0 = np.array([-0.7, 1.1])
    for _ in range(3):
        t, s_ = rng.uniform(0.1, 5.0, 2)
        a = flow.integrate(coop, x0, T=t + s_, dt=1e-3).states[-1]
        mid = flow.integrate(coop, x0, T=t, dt=1e-3).states[-1]
        b = flow.integrate(coop, mid, T=s_, dt=1e-3).states[-1]
        assert np.linalg.norm(a - b) < 1e-7


def test_tangent_flow_orientation_survives_det_underflow(coop):
    # det Phi ~ exp(-792) underflows to 0.0; its sign is still +1
    tf = flow.tangent_flow(coop, np.array([1.0, 0.5]), T=420.0, dt=1e-2)
    assert np.linalg.det(tf.phis[-1]) == 0.0
    assert np.all(np.linalg.slogdet(tf.phis)[0] > 0)


# --------------------------------------------------------------- step map


@pytest.mark.parametrize("name", sorted(registry.SYSTEMS))
def test_rk4_step_map_is_the_derivative_of_the_step(name):
    s = registry.get_system(name)
    rng = np.random.default_rng(8)
    X = np.array([s.manifold.random_point(rng) for _ in range(6)])
    h = 0.05
    Xn, M = flow._rk4_step_map(s, X, h)
    assert M.shape == (6, s.dim, s.dim)
    if s.matrix is not None:  # the exact RK4 map of x' = Ax
        assert np.array_equal(M, np.broadcast_to(flow._rk4_map(s.matrix, h),
                                                 M.shape))
        assert np.allclose(Xn, flow._rk4_step(s, X, h), rtol=1e-14, atol=0.0)
    else:
        assert np.array_equal(Xn, flow._rk4_step(s, X, h))
    eps = 1e-6
    for i in range(s.dim):
        e = np.zeros(s.dim)
        e[i] = eps
        fd = (flow._rk4_step(s, X + e, h)
              - flow._rk4_step(s, X - e, h)) / (2 * eps)
        assert np.max(np.abs(M[:, :, i] - fd)) <= 1e-7


def test_rk4_step_map_stages_give_the_exact_map_of_a_linear_field():
    A = np.array([[-1.0, 2.0, 0.5], [0.3, -0.7, 0.0], [1.0, -1.0, 0.2]])
    X = np.random.default_rng(9).normal(size=(4, 3))
    for h in (1e-3, 0.1, 0.7):
        _, M = flow._rk4_step_map(linear_system(A), X, h)  # matrix-free
        R = flow._rk4_map(A, h)
        assert np.allclose(M, np.broadcast_to(R, M.shape), rtol=0.0,
                           atol=1e-14 * np.abs(R).max())


# ------------------------------------------ component-major tangent stacks


def test_masked_tangent_at_keeps_every_other_row_to_itself():
    # row 1 starts at lambda_min = 2e-10 and decays below EIG_TOL = 1e-10
    # near t = 0.35, before the first capture time
    s = registry.get_system("spd_lyapunov")
    X0 = np.array([pack_sym(np.array([[2.0, 0.3], [0.3, 1.0]])),
                   pack_sym(np.diag([1.0, 2e-10])),
                   pack_sym(np.array([[1.0, -0.5], [-0.5, 3.0]]))])
    times = [0.5, 1.0, 1.5]
    xs, phis = flow.tangent_at(s, X0, times, on_failure="mask")
    assert phis.shape == (3, 3, 3, 3)
    assert np.all(np.isnan(xs[:, 1])) and np.all(np.isnan(phis[:, 1]))
    for i in (0, 2):
        x1, p1 = flow.tangent_at(s, X0[i:i + 1], times)
        assert np.array_equal(phis[:, i], p1[:, 0])
        # (R @ X.T).T is one BLAS product whose rounding follows the batch size
        assert np.allclose(xs[:, i], x1[:, 0], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", ["coop2d", "metzler_linear"])
def test_stepper_tangents_keep_their_row_major_shape(name):
    # a non-square P0, as the ray pairs of pf use; P is a view, so a write
    # through it changes the next step
    s = registry.get_system(name)
    X = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 2))
    P0 = np.random.default_rng(4).normal(size=(2, 5))
    stepper = flow._Stepper(s, X, P0=P0)
    assert stepper.P.shape == (4, 2, 5)
    assert np.array_equal(stepper.P, np.broadcast_to(P0, (4, 2, 5)))
    _, M = flow._rk4_step_map(s, X, 0.01)
    assert M.shape == (4, 2, 2)
    stepper.advance(0.01, 0.01)
    assert stepper.P.shape == (4, 2, 5)
    assert np.allclose(stepper.P, M @ P0, rtol=1e-15, atol=1e-15)
    stepper.P[2] = 0.0
    stepper.advance(0.01, 0.02)
    assert np.all(stepper.P[2] == 0.0) and np.all(stepper.P[[0, 1, 3]] != 0.0)


# --------------------------------------------------- exact propagator oracle

# For x' = Ax one RK4 step of size h is exactly the matrix R(hA) below, so
# every flow path must reproduce products of R on a linear system.
LIN_A = np.array([[-1.0, 0.5], [0.3, -2.0]])  # Metzler: keeps the orthant
LIN_DT, LIN_T = 0.01, 0.105  # 10 full steps, then a partial step of 0.005
LIN_X0 = np.array([[1.0, -0.5], [0.2, 0.7]])
LIN_RAYS = np.array([[1.0, 0.2], [0.3, 1.0]])  # one pair of orthant rays


def _rk4_map(h):
    M = h * LIN_A
    M2 = M @ M
    return np.eye(2) + M + M2 / 2.0 + M2 @ M / 6.0 + M2 @ M2 / 24.0


def _rk4_propagator(i):
    """Exact RK4 map after step i of the LIN_T plan (step 11 is partial)."""
    P = np.linalg.matrix_power(_rk4_map(LIN_DT), min(i, 10))
    return P @ _rk4_map(LIN_T - 10 * LIN_DT) if i == 11 else P


# the same field matrix-free (f and jac only), and declaring its matrix so
# the march steps by R(hA) itself
LIN_SYSTEMS = {"matrix_free": lambda: linear_system(LIN_A),
               "declared": lambda: registry._linear_system(LIN_A, "declared")}


def _oracle_run(path, system):
    """(stored step indices, stored times, [(computed, exact), ...])."""
    s, X0, R = LIN_SYSTEMS[system](), LIN_X0, _rk4_propagator
    stored = [0, 3, 6, 9, 11]
    if path == "integrate":
        tr = flow.integrate(s, X0[0], LIN_T, LIN_DT, store_stride=3)
        return stored, tr.times, [(x, R(i) @ X0[0])
                                  for i, x in zip(stored, tr.states)]
    if path == "tangent_flow":
        tf = flow.tangent_flow(s, X0[0], LIN_T, LIN_DT, store_stride=3)
        pairs = [(x, R(i) @ X0[0]) for i, x in zip(stored, tf.states)]
        return stored, tf.times, pairs + [(p, R(i))
                                          for i, p in zip(stored, tf.phis)]
    if path == "states_at":
        xs = flow.states_at(s, X0, [LIN_T], LIN_DT)
        return [], [], [(xs[0], X0 @ R(11).T)]
    if path == "tangent_at":
        xs, ps = flow.tangent_at(s, X0, [LIN_T], LIN_DT)
        return [], [], [(xs[0], X0 @ R(11).T), (ps[0], np.stack([R(11)] * 2))]
    if path == "ensemble_tails":  # tail starts at step ceil(0.75 * 11) = 9
        times, frames, _, _ = flow.ensemble_tails(s, X0, LIN_T, LIN_DT,
                                                  store_stride=3)
        return [9, 11], times, [(f, X0 @ R(i).T)
                                for i, f in zip([9, 11], frames)]
    # the rays are renormalized after each step: compare directions
    times, _, x, W = pf.propagate_ray_pairs(
        s, ConstantField(Orthant(2)), X0[0], LIN_RAYS[:1], LIN_RAYS[1:],
        LIN_T, LIN_DT, store_stride=3)
    RW = R(11) @ LIN_RAYS.T
    return stored, times, [(x, R(11) @ X0[0]),
                           (W, RW / np.linalg.norm(RW, axis=0))]


@pytest.mark.parametrize("path,system", [
    pytest.param(path, system,
                 id=path if system == "matrix_free" else f"{path}-{system}")
    for system in LIN_SYSTEMS
    for path in ["integrate", "tangent_flow", "states_at", "tangent_at",
                 "ensemble_tails", "propagate_ray_pairs"]])
def test_flow_paths_match_exact_rk4_propagator(path, system):
    assert (LIN_SYSTEMS[system]().matrix is None) == (system == "matrix_free")
    steps, times, pairs = _oracle_run(path, system)
    assert list(times) == [min(i * LIN_DT, LIN_T) for i in steps]
    assert pairs
    for got, exact in pairs:
        assert np.shape(got) == np.shape(exact)
        assert np.linalg.norm(got - exact) <= 1e-12 * np.linalg.norm(exact)


# -------------------------------------------------------------- equilibria


def test_find_equilibria_scalar():
    s = linear_system([[-1.0]])
    eqs = flow.find_equilibria(s, [np.array([3.0])])
    assert len(eqs) == 1
    assert abs(eqs[0][0]) < 1e-10


def test_find_equilibria_constant_field_empty():
    s = constant_system([1.0])
    assert flow.find_equilibria(s, [np.array([0.0]), np.array([2.0])]) == []


def test_find_equilibria_coop2d_grid(coop):
    # oracle roots: s = tanh(2.5 s) on the diagonal, a = tanh(1.5 a) on the
    # anti-diagonal (both slopes exceed 1, so both exist)
    s_star = tanh_fixed_point(2.5)
    a_star = tanh_fixed_point(1.5)
    seeds = [np.array([p, q]) for p in np.linspace(-2, 2, 5)
             for q in np.linspace(-2, 2, 5)]
    eqs = flow.find_equilibria(coop, seeds)
    assert all(np.linalg.norm(coop.f(e)) < 1e-10 for e in eqs)
    expected = [np.zeros(2),
                np.array([s_star, s_star]), -np.array([s_star, s_star]),
                np.array([a_star, -a_star]), np.array([-a_star, a_star])]
    for want in expected:
        assert min(np.linalg.norm(e - want) for e in eqs) < 1e-8
    assert len(eqs) == 5


def test_jacobians_match_finite_differences():
    for name in registry.SYSTEMS:
        s = registry.get_system(name)
        assert flow.validate_jacobian(s, samples=100, seed=0) < 1e-5


@pytest.mark.parametrize("name", [n for n in sorted(registry.SYSTEMS)
                                  if registry.get_system(n).matrix
                                  is not None])
def test_declared_matrix_is_the_vector_field(name):
    s = registry.get_system(name)
    A = s.matrix
    assert A.shape == (s.dim, s.dim)
    X = np.random.default_rng(2).uniform(-3.0, 3.0, (50, s.dim))
    assert np.allclose(s.f(X), X @ A.T, rtol=1e-15, atol=0.0)
    assert np.array_equal(s.jac(X), np.broadcast_to(A, (50, s.dim, s.dim)))
    assert flow.validate_jacobian(s, samples=20, seed=0) < 1e-8
    if name == "spd_lyapunov":  # the packed map S -> C S + S C^T
        C = np.array([[-1.0, 0.2], [0.0, -1.0]])
        S = geometry.unpack_sym(X, 2)
        assert np.allclose(geometry.unpack_sym(s.f(X), 2),
                           C @ S + S @ C.T, rtol=0.0, atol=1e-14)


def test_coop2d_jac_is_diag_sech2_times_gain_minus_identity(coop):
    A = np.array([[2.0, 0.5], [0.5, 2.0]])
    rng = np.random.default_rng(3)
    for X in (rng.normal(size=2), rng.normal(size=(1, 2)),
              3.0 * rng.normal(size=(1000, 2)), rng.normal(size=(4, 5, 2))):
        sech2 = 1.0 / np.cosh(X @ A.T) ** 2
        assert np.array_equal(coop.jac(X), sech2[..., :, None] * A - np.eye(2))


def test_only_linear_systems_declare_a_matrix():
    declared = {n for n in registry.SYSTEMS
                if registry.get_system(n).matrix is not None}
    assert declared == {"metzler_linear", "rotation2d", "spd_lyapunov"}


# ------------------------------------------------------------- omega limits


def test_omega_limit_linear_sink():
    s = linear_system([[-1.0]])
    est = flow.omega_limit(s, np.array([5.0]), T=40.0, dt=1e-3)
    assert est.kind == SINGLETON
    assert abs(est.point[0]) < 1e-9
    assert est.residual < 1e-9


def test_omega_limit_coop2d(coop):
    s_star = tanh_fixed_point(2.5)
    est = flow.omega_limit(coop, np.array([1.0, 0.5]), T=100.0, dt=1e-3)
    assert est.kind == SINGLETON
    assert np.linalg.norm(est.point - [s_star, s_star]) < 1e-8


def test_omega_limit_periodic_orbit():
    s = registry.get_system("rotation2d")
    est = flow.omega_limit(s, np.array([1.0, 0.0]), T=100.0, dt=1e-3)
    assert est.kind == NON_SINGLETON
    assert len(est.witnesses) > 10
    radii = np.linalg.norm(est.witnesses, axis=1)
    assert np.allclose(radii, 1.0, atol=1e-5)


def test_ensemble_matches_single(coop):
    X0 = np.array([[1.0, 0.5], [-1.0, -0.5]])
    ests = flow.ensemble_omega(coop, X0, T=60.0, dt=1e-3)
    singles = [flow.omega_limit(coop, x, T=60.0, dt=1e-3) for x in X0]
    for e, s_ in zip(ests, singles):
        assert e.kind == s_.kind == SINGLETON
        assert np.linalg.norm(e.point - s_.point) < 1e-10


# ---------------------------------------------------- certified retirement


@pytest.mark.parametrize("name", [n for n in sorted(registry.SYSTEMS)
                                  if registry.get_system(n).jac_lipschitz
                                  is not None])
def test_jac_lipschitz_bounds_jacobian_differences(name):
    s = registry.get_system(name)
    rng = np.random.default_rng(11)
    X = rng.uniform(-3.0, 3.0, (2000, s.dim))
    far = rng.uniform(-3.0, 3.0, (1000, s.dim))
    u = rng.normal(size=(1000, s.dim))
    near = X[1000:] + (10.0 ** rng.uniform(-7.0, -1.0, (1000, 1))
                       * u / np.linalg.norm(u, axis=1, keepdims=True))
    Y = np.clip(np.vstack([far, near]), -3.0, 3.0)
    lhs = np.linalg.norm(s.jac(X) - s.jac(Y), ord=2, axis=(1, 2))
    rhs = s.jac_lipschitz * np.linalg.norm(X - Y, axis=1) * (1.0 + 1e-9)
    assert np.all(lhs <= rhs)


def _assert_same_estimate(got, want):
    """Equal omega estimates: kind, point, residual and witnesses bit for bit."""
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got.kind == want.kind
    for a, b in ((got.point, want.point), (got.witnesses, want.witnesses)):
        assert (a is None and b is None) or np.array_equal(a, b)
    assert got.residual == want.residual or (np.isnan(got.residual)
                                             and np.isnan(want.residual))
    assert got.certified_at == want.certified_at


def _with_and_without_certificate(name, N, T):
    s = registry.get_system(name)
    X0 = experiments.sample_states(s, 3.0, N, 0)
    plain = dataclasses.replace(s, jac_lipschitz=None)
    return flow.ensemble_omega(s, X0, T), flow.ensemble_omega(plain, X0, T)


@pytest.mark.parametrize("name,T", [("coop2d", 100.0), ("coop2d", 14.0),
                                    ("bistable1d", 100.0),
                                    ("bistable1d", 16.0)])
def test_retirement_keeps_every_verdict(name, T):
    got, ref = _with_and_without_certificate(name, 300, T)
    assert [e.kind for e in got] == [e.kind for e in ref]
    certified = [e for e in got if e.certified_at is not None]
    assert certified  # the comparison covers retired rows
    t_tail = (1.0 - flow.TAIL_FRACTION) * T
    for e in certified:
        assert e.kind == SINGLETON and e.residual < 1e-12
        assert 0.0 < e.certified_at < t_tail
    for g, r in zip(got, ref):
        if g.kind == SINGLETON:
            assert np.linalg.norm(g.point - r.point) < 1e-10
    if T < 50.0:  # a short horizon leaves rows undetermined, and keeps them so
        assert any(e.kind == UNDETERMINED for e in ref)
    else:
        assert all(e.kind == SINGLETON for e in ref)


@pytest.mark.parametrize("name,T", [("metzler_linear", 40.0),
                                    ("rotation2d", 20.0),
                                    ("spd_lyapunov", 5.0)])
def test_systems_without_a_contraction_certificate_retire_nothing(name, T):
    got, ref = _with_and_without_certificate(name, 300, T)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        _assert_same_estimate(g, r)


@pytest.mark.parametrize("T", [3.3, 2.0043, 33.3])
def test_single_and_ensemble_paths_classify_one_tail_window(T):
    # (1 - TAIL_FRACTION) T is off the stride grid at each T: the window must
    # still start at the same step on both paths
    rot = registry.get_system("rotation2d")
    plain = dataclasses.replace(registry.get_system("coop2d"),
                                jac_lipschitz=None)
    p = flow.find_equilibria(plain, [np.array([1.0, 1.0])])[0]
    cases = [(rot, np.array([1.0, 0.0])), (rot, np.array([1e-6, 2e-6])),
             (plain, np.array([1.0, 0.5])), (plain, p + [3e-6, -2e-6])]
    kinds = []
    for s, x0 in cases:
        one = flow.omega_limit(s, x0, T)
        _assert_same_estimate(one, flow.ensemble_omega(s, x0[None], T)[0])
        kinds.append(one.kind)
    # the comparison covers a polished point at every T and witnesses at 33.3
    assert kinds[3] == SINGLETON
    assert (kinds[0] == NON_SINGLETON) == (T > 2.0 * np.pi / flow.TAIL_FRACTION)


# ------------------------------------------------------ batched classifier


def _polyline_min_dist(p, pts):
    """Min distance from p to the polyline through pts."""
    a, b = pts[:-1], pts[1:]
    ab = b - a
    denom = np.sum(ab * ab, axis=1)
    denom[denom == 0.0] = 1.0
    t = np.clip(np.sum((p - a) * ab, axis=1) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return float(np.min(np.linalg.norm(p - proj, axis=1)))


def _classify_one(s, tail, cluster_radius=flow.CLUSTER_RADIUS,
                  eq_tol=flow.EQ_TOL):
    """Reference classifier: one (k, n) tail at a time, None for an escape."""
    if not np.all(np.isfinite(tail)):
        return None
    diam = float(np.linalg.norm(tail.max(axis=0) - tail.min(axis=0)))
    if diam < cluster_radius:
        p, res = flow._newton_polish(s, tail.mean(axis=0), eq_tol)
        if (p is not None and res < 10.0 * eq_tol
                and float(np.max(np.linalg.norm(tail - p, axis=1)))
                < cluster_radius):
            return flow.OmegaEstimate(SINGLETON, point=p, residual=res)
        return flow.OmegaEstimate(UNDETERMINED, residual=res)
    anchor = tail[0]
    dists = np.linalg.norm(tail - anchor, axis=1)
    away = np.flatnonzero(dists > 10.0 * cluster_radius)
    if len(away) > 0 and away[0] + 1 < len(tail):
        if _polyline_min_dist(anchor, tail[away[0]:]) < cluster_radius:
            step = max(1, len(tail) // 64)
            return flow.OmegaEstimate(NON_SINGLETON,
                                      witnesses=tail[::step].copy())
    return flow.OmegaEstimate(UNDETERMINED)


def _assert_matches_reference(s, tails):
    got = flow.classify_tail(s, tails)
    assert len(got) == tails.shape[1]
    for j, est in enumerate(got):
        _assert_same_estimate(est, _classify_one(s, tails[:, j]))
    return got


def _crafted_tails(p, k=130):
    """(name, (k, 2) tail) pairs; p is an equilibrium of coop2d."""
    rng = np.random.default_rng(8)
    ang = 2.0 * np.pi * np.arange(k) / 104.0  # state 104 closes the turn
    circle = np.column_stack([np.cos(ang), np.sin(ang)])
    # every state twice (zero-length segments): over a turn, and half a turn
    twice = np.repeat(circle[::2], 2, axis=0)[:k]
    arc = np.repeat(0.5 * circle[: k // 2], 2, axis=0)[:k]
    still = 1e-5 * rng.normal(size=(k, 2))
    jump = still.copy()
    jump[-1] = [1.0, 0.0]
    # returns within cluster_radius only mid-segment, far from every vertex
    passing = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 1.0],
                        [-1.0, 5e-5], [1.0, 5e-5]])
    passing = np.vstack([passing, np.repeat(passing[-1:], k - 6, axis=0)])
    nan_row, inf_row = circle.copy(), circle.copy()
    nan_row[40, 1] = np.nan
    inf_row[-1, 0] = np.inf
    return [
        ("singleton", p + 1e-7 * rng.normal(size=(k, 2))),
        ("clustered_off_equilibrium", [0.5, 0.2] + 1e-7 * rng.normal(
            size=(k, 2))),
        ("circle", circle),
        ("drift", np.linspace([0.0, 0.0], [1.0, 2.0], k)),
        ("away_at_last_index", jump),
        ("repeated_states_circle", twice),
        ("repeated_states_arc", arc),
        ("constant", np.repeat(circle[:1], k, axis=0)),
        ("passing", passing),
        ("nan", nan_row),
        ("inf", inf_row),
    ]


@pytest.mark.parametrize("M", [0, 1, 15, 16, 17, 33])
def test_batched_classifier_matches_the_per_row_reference(M):
    coop = registry.get_system("coop2d")
    p = flow.find_equilibria(coop, [np.array([1.0, 1.0])])[0]
    crafted = _crafted_tails(p)
    order = np.random.default_rng(M).permutation(
        np.arange(M) % len(crafted))
    tails = np.empty((130, M, 2))
    for col, i in enumerate(order):
        tails[:, col] = crafted[i][1]
    # a constant field has no equilibrium: its Newton fails on every
    # clustered tail
    for s in (coop, constant_system([1.0, -1.0])):
        got = _assert_matches_reference(s, tails)
        for est, i in zip(got, order):
            name = crafted[i][0]
            if name in ("nan", "inf"):
                assert est is None
            elif name == "singleton":
                assert est.kind == (SINGLETON if s is coop else UNDETERMINED)
            elif name in ("circle", "repeated_states_circle", "passing"):
                assert est.kind == NON_SINGLETON
            else:
                assert est.kind == UNDETERMINED, name
            if name == "circle":  # witnesses sample the tail every 130 // 64
                assert np.array_equal(est.witnesses, crafted[i][1][::2])


def test_batched_classifier_takes_one_state_tails():
    coop = registry.get_system("coop2d")
    p = flow.find_equilibria(coop, [np.array([1.0, 1.0])])[0]
    tails = np.array([[p, [0.5, 0.2], [np.nan, 0.0]]])
    got = _assert_matches_reference(coop, tails)
    assert [e and e.kind for e in got] == [SINGLETON, UNDETERMINED, None]


@pytest.mark.parametrize("name,T,kinds", [
    ("rotation2d", 40.0, {NON_SINGLETON}),
    ("spd_lyapunov", 7.0, {SINGLETON, UNDETERMINED}),
    ("spd_lyapunov", 10.0, {SINGLETON, None}),  # None: left the chart
    ("bistable1d", 8.0, {UNDETERMINED}),
    ("bistable1d", 30.0, set()),  # every row retires: no tail reaches it
    ("coop2d", 30.0, {SINGLETON, UNDETERMINED})])
def test_batched_classifier_matches_the_reference_on_ensembles(name, T, kinds):
    s = registry.get_system(name)
    if name == "coop2d":  # no retirement: every row reaches the classifier
        s = dataclasses.replace(s, jac_lipschitz=None)
    X0 = experiments.sample_states(s, 3.0, 60, 0)
    _, tails, _, _ = flow.ensemble_tails(s, X0, T)
    got = _assert_matches_reference(s, tails)
    assert {e and e.kind for e in got} == kinds


# ------------------------------------------ component-major matrix steps


def _matrix_march(s, X, plan):
    """Reference: X <- X @ R.T and P <- R P per step of the plan; a row that
    leaves the manifold freezes at nan.  Yields (X, P) after each step."""
    n = s.dim
    X = np.array(X, dtype=float)
    P = np.tile(np.eye(n), (len(X), 1, 1))
    dead = np.zeros(len(X), dtype=bool)
    for h in plan:
        R = flow._rk4_map(s.matrix, h)
        X = X @ R.T
        P = np.einsum("ij,rjl->ril", R, P)
        if s.manifold.kind == "spd":
            dead |= _eigvalsh_guard(X)
        X[dead] = np.nan
        P[dead] = np.nan
        yield X, P


def _plan(span, dt):
    n_full, rem = flow._plan_steps(span, dt)
    return [dt] * n_full + ([rem] if rem > 0.0 else [])


def _matrix_x0(name):
    if name == "spd_lyapunov":  # row 1 leaves the chart near t = 0.35
        return np.array([pack_sym(np.array([[2.0, 0.3], [0.3, 1.0]])),
                         pack_sym(np.diag([1.0, 2e-10])),
                         pack_sym(np.array([[1.0, -0.5], [-0.5, 3.0]]))])
    return np.random.default_rng(6).uniform(-2.0, 2.0, (5, 2))


@pytest.mark.parametrize("name", ["metzler_linear", "rotation2d",
                                  "spd_lyapunov"])
def test_matrix_steps_equal_the_row_major_reference(name):
    s = registry.get_system(name)
    X0, dt, times = _matrix_x0(name), 1e-3, [0.5, 1.0005, 1.5]
    want, t_prev, X = [], 0.0, X0
    for t in times:  # one plan per gap between capture times, as _capture
        for X, P in _matrix_march(s, X, _plan(t - t_prev, dt)):
            pass
        want.append((X, P))
        t_prev = t
    xs = flow.states_at(s, X0, times, dt, on_failure="mask")
    xt, ps = flow.tangent_at(s, X0, times, dt, on_failure="mask")
    assert np.array_equal(xs, xt, equal_nan=True)
    for i, (X, _) in enumerate(want):
        assert np.array_equal(xs[i], X, equal_nan=True)
    # the reference restarts its tangents on every gap: compare the first;
    # the products of R sum in another order, so they agree to rounding
    P = want[0][1]
    assert np.array_equal(np.isnan(ps[0]), np.isnan(P))
    assert np.allclose(ps[0], P, rtol=1e-14, atol=0.0, equal_nan=True)
    if name == "spd_lyapunov":
        assert np.all(np.isnan(xs[:, 1])) and np.all(np.isnan(ps[:, 1]))
    T = 1.5005
    times, tails, rows, _ = flow.ensemble_tails(s, X0, T, dt)
    plan = _plan(T, dt)
    start = flow._tail_start(T, dt, flow.TAIL_FRACTION)
    stored = [X.copy() for i, (X, _) in enumerate(_matrix_march(s, X0, plan), 1)
              if i >= start and ((i - start) % flow.STORE_STRIDE == 0
                                 or i == len(plan))]
    assert list(rows) == list(range(len(X0)))
    assert np.array_equal(tails, np.array(stored), equal_nan=True)


def test_matrix_stepper_keeps_row_major_shape_over_component_major_states():
    s = registry.get_system("rotation2d")
    X0 = _matrix_x0("rotation2d")
    stepper = flow._Stepper(s, X0)
    for t in (1e-3, 2e-3):
        stepper.advance(1e-3, t)
        assert stepper.X.shape == X0.shape
        assert stepper.X.T.flags.c_contiguous  # (n, N): one row per component
    R = flow._rk4_map(s.matrix, 1e-3)
    assert np.array_equal(stepper.X, X0 @ R.T @ R.T)


def test_matrix_steps_survive_retirement():
    # on x' = -x the certificate's bound is d0 exp(-t_tail): rows that start
    # within 0.06 of the origin retire at the first check, the others never
    s = registry._linear_system(-np.eye(2), "sink")
    X0 = np.array([[0.005, 0.0], [1.0, -1.0], [0.01, 0.02], [2.0, 0.5],
                   [-0.03, 0.01]])
    T, dt = 10.0, 1e-3
    times, tails, rows, certified = flow.ensemble_tails(s, X0, T, dt)
    assert list(rows) == [1, 3]
    assert [c is not None for c in certified] == [True, False, True, False,
                                                  True]
    plan = _plan(T, dt)
    start = flow._tail_start(T, dt, flow.TAIL_FRACTION)
    stored = [X.copy() for i, (X, _) in enumerate(
        _matrix_march(s, X0[rows], plan), 1)
        if i >= start and ((i - start) % flow.STORE_STRIDE == 0
                           or i == len(plan))]
    assert np.array_equal(tails, np.array(stored))


def test_one_row_pf_march_on_a_declared_matrix_equals_the_reference():
    s = registry.get_system("metzler_linear")
    x0, T, dt = np.array([1.0, 1.0]), 2.0005, 1e-3
    rays = np.array([[1.0, 0.2], [0.3, 1.0]])
    _, _, x, W = pf.propagate_ray_pairs(s, ConstantField(Orthant(2)), x0,
                                        rays[:1], rays[1:], T, dt)
    for X, P in _matrix_march(s, x0[None], _plan(T, dt)):
        pass
    assert np.array_equal(x, X[0])
    RW = P[0] @ rays.T
    assert np.allclose(W, RW / np.linalg.norm(RW, axis=0), rtol=1e-13,
                       atol=0.0)
