import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from conedyn import cli, experiments, flow, geometry, pf, registry
from conedyn.conefield import ConstantField
from conedyn.cones import Orthant
from conedyn.errors import (FlowBlowupError, ManifoldExitError,
                            NotPositiveDefiniteError)
from conedyn.flow import NON_SINGLETON, SINGLETON, UNDETERMINED
from conedyn.geometry import pack_sym
from helpers import (blowup_rotation, constant_system, linear_system,
                     tanh_fixed_point)


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
    s, x0, T, dt = _quadratic(), np.array([1.0]), 2.0, 1e-3
    t_ref = _first_blowup(s, x0, T, dt)
    assert 1.0 < t_ref < 1.01  # the true blowup is at t = 1
    calls = {
        "integrate": lambda: flow.integrate(s, x0, T, dt),
        "states_at": lambda: flow.states_at(s, x0[None], [0.5, T], dt),
        "tangent_at": lambda: flow.tangent_at(s, x0[None], [T], dt),
        "tangent_flow": lambda: flow.tangent_flow(s, x0, T, dt),
    }
    for path, call in calls.items():
        with pytest.raises(FlowBlowupError) as err:
            call()
        assert err.value.time == t_ref, path


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


def _spd2_guard_batches():
    """The guard test's batches: random, SPD, large-scale, in-band,
    diagonal rows a few ulps either side of EIG_TOL, and nan/inf rows."""
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
    return batches


def test_spd2_guard_matches_eigvalsh():
    s = registry.get_system("spd_lyapunov")
    batches = _spd2_guard_batches()
    for name, V in batches.items():
        want, got = _eigvalsh_guard(V), flow._bad_rows(s, V)
        if got is None:  # proven clean
            got = np.zeros(len(V), dtype=bool)
        assert np.array_equal(got, want), name
        assert 0 < want.sum() < len(V) or name == "spd", name
    # the diagonal rows sit on EIG_TOL to within a few ulps of the diagonal
    assert list(_eigvalsh_guard(batches["diagonal"])) == [True] * 4 + [False] * 3


def test_check_point_accepts_and_rejects_as_eigvalsh_row_by_row():
    m = geometry.spd(2)
    for name, V in _spd2_guard_batches().items():
        for row, bad in zip(V, _eigvalsh_guard(V)):
            if not np.all(np.isfinite(row)):
                with pytest.raises(ValueError, match="non-finite"):
                    m.check_point(row)
            elif bad:
                with pytest.raises(NotPositiveDefiniteError) as err:
                    m.check_point(row)
                lam = np.linalg.eigvalsh(geometry.unpack_sym(row, 2))[0]
                assert f"{lam:.3e}" in str(err.value), name
            else:
                assert m.check_point(row) is not None, name


def _screen_batches():
    """Batches that probe the SPD(2) screen where it can go wrong."""
    rng = np.random.default_rng(13)
    tol, N = geometry.EIG_TOL, 2000
    scale = 10.0 ** rng.uniform(-3.0, 12.0, N)
    band = 1e-13 * (3.0 * scale + 1.0)  # the screen's band at a row's scale
    # lambda_min in and just out of the fallback band, and either side of
    # the screen's own threshold EIG_TOL + 2 band
    rel = rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(-6.0, 0.5, N)
    lam_band = tol + rng.choice([-1.0, 1.0], N) * band * 10.0 ** rng.uniform(
        -3.0, 0.7, N)
    lam_edge = (tol + 2.0 * band) * (1.0 + rel)
    # within a few rounding errors of EIG_TOL, where eigvalsh may err low
    lam_ulps = tol + rng.uniform(-64.0, 64.0, N) * np.finfo(float).eps * scale
    spd = _spd2_rows(rng, rng.uniform(0.5, 2.0, N),
                     1.0 + 10.0 ** rng.uniform(-3.0, 3.0, N))
    big = 10.0 ** rng.uniform(150.0, 200.0, 16)
    return {
        "band": _spd2_rows(rng, lam_band, scale),
        "edge": _spd2_rows(rng, lam_edge, scale),
        "ulps": _spd2_rows(rng, lam_ulps, scale),
        "diagonal": _spd2_guard_batches()["diagonal"],  # exact eigenvalues
        "spd": spd,
        "negative_definite": -spd[:200],
        "zero": np.zeros((5, 3)),
        "zero_and_spd": np.vstack([spd[:50], np.zeros((1, 3))]),
        "huge": _spd2_rows(rng, big, 2.0 * big),
        "huge_bad": _spd2_rows(rng, -big, big),
        "huge_in_a_clean_batch": np.vstack([spd[:20], [[1e150, 0.0, 1e150]]]),
        "nan": np.vstack([spd[:20], [[np.nan, 0.0, 1.0]]]),
        "inf": np.vstack([spd[:20], [[np.inf, 0.0, np.inf]],
                          [[np.inf, 1.0, 1.0]], [[1.0, -np.inf, 1.0]]]),
    }


def test_spd2_screen_never_passes_a_row_eigvalsh_rejects():
    s = registry.get_system("spd_lyapunov")
    batches = _screen_batches()
    proven, one_row_proven = [], {}
    for name, V in batches.items():
        want = _eigvalsh_guard(V)
        got = flow._bad_rows(s, V)
        if got is None:  # proven clean: nothing may be bad
            assert not want.any(), name
            proven.append(name)
        else:
            assert np.array_equal(got, want), name
        m = np.max(np.abs(V))
        if m < geometry._SCREEN_MAX:  # the screen runs: it passes no bad row
            with np.errstate(invalid="ignore"):
                passed = geometry._spd2_screen(V, m) > 0.0
            assert not (passed & want).any(), name
        one_row_proven[name] = 0
        for i, row in enumerate(V):  # one-row batches
            one = flow._bad_rows(s, row[None])
            assert (one is None and not want[i]) or (
                one is not None and one[0] == want[i]), (name, i)
            one_row_proven[name] += one is None
    assert proven == ["spd"]
    # one row at a time, the screen's threshold EIG_TOL + 2 band falls
    # inside the edge batch: it proves some of those rows and not others
    assert 0 < one_row_proven["edge"] < len(batches["edge"])
    assert one_row_proven["spd"] == len(batches["spd"])


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
    Xn, M = (v[0] for v in flow.tangent_at(s, X, [h], h))  # one step
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
        M = flow.tangent_at(linear_system(A), X, [h], h)[1][0]  # matrix-free
        R = flow._rk4_map(A, h)
        assert np.allclose(M, np.broadcast_to(R, M.shape), rtol=0.0,
                           atol=1e-14 * np.abs(R).max())


# ------------------------------------------------ in-place RK4 sums


def reference_rk4_step(s, X, h):
    k1 = s.f(X)
    k2 = s.f(X + 0.5 * h * k1)
    k3 = s.f(X + 0.5 * h * k2)
    k4 = s.f(X + h * k3)
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_rk4_step_map(s, X, h):
    """The state and map of one RK4 step from its stages, as _rk4_step and
    _stage_maps build them, summed by the one-line expressions."""
    k1 = s.f(X)
    K1 = flow._jac_cm(s, X)
    x2 = X + 0.5 * h * k1
    k2 = s.f(x2)
    K2 = flow._times_eye_plus(flow._jac_cm(s, x2), K1, 0.5 * h)
    x3 = X + 0.5 * h * k2
    k3 = s.f(x3)
    K3 = flow._times_eye_plus(flow._jac_cm(s, x3), K2, 0.5 * h)
    x4 = X + h * k3
    k4 = s.f(x4)
    K4 = flow._times_eye_plus(flow._jac_cm(s, x4), K3, h)
    Xn = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    M = (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    for i in range(len(M)):
        M[i, i] += 1.0
    return Xn, M.transpose(2, 0, 1)


STAGED = {  # systems that step by RK4 stages, not a declared matrix
    "coop2d": lambda: registry.get_system("coop2d"),
    "bistable1d": lambda: registry.get_system("bistable1d"),
    "blowup_rotation": blowup_rotation,
    # its jac is a read-only broadcast
    "linear3": lambda: linear_system([[-1.0, 2.0, 0.5], [0.3, -0.7, 0.0],
                                      [1.0, -1.0, 0.2]]),
}


@pytest.mark.parametrize("name", sorted(STAGED))
@pytest.mark.parametrize("N", [0, 1, 7, 1000])
def test_rk4_sums_equal_the_one_line_expressions(name, N):
    s = STAGED[name]()
    X = np.random.default_rng(N).uniform(-0.9, 0.9, (N, s.dim))
    for h in (1e-3, 0.05, 0.3):
        assert np.array_equal(flow._rk4_step(s, X, h),
                              reference_rk4_step(s, X, h))
        Xn, M = (v[0] for v in flow.tangent_at(s, X, [h], h))
        Xr, Mr = reference_rk4_step_map(s, X, h)
        assert np.array_equal(Xn, Xr) and np.array_equal(M, Mr)


def test_coop2d_jac_reaches_the_step_map_without_a_copy(coop):
    stacks = []

    def jac(x):
        stacks.append(coop.jac(x))
        return stacks[-1]

    s = dataclasses.replace(coop, jac=jac)
    X = np.random.default_rng(1).normal(size=(1000, 2))
    K = flow._jac_cm(s, X)
    assert K.shape == (2, 2, 1000) and K.flags.c_contiguous
    assert np.shares_memory(K, stacks[0])


def read_only_kernels(s):
    """s with f and jac outputs made read-only, each kept with a copy."""
    seen = []

    def freeze(fn):
        def frozen(x):
            out = np.asarray(fn(x))
            out.setflags(write=False)
            seen.append((out, out.copy()))
            return out
        return frozen

    return dataclasses.replace(s, f=freeze(s.f), jac=freeze(s.jac)), seen


@pytest.mark.parametrize("name", ["coop2d", "linear3"])
def test_steps_never_write_into_what_f_and_jac_return(name):
    s = STAGED[name]()
    frozen, seen = read_only_kernels(s)
    X = np.random.default_rng(5).uniform(-0.9, 0.9, (6, s.dim))
    h = 0.05
    assert np.array_equal(flow._rk4_step(frozen, X, h),
                          flow._rk4_step(s, X, h))
    for a, b in zip(flow.tangent_at(frozen, X, [h], h),
                    flow.tangent_at(s, X, [h], h)):
        assert np.array_equal(a, b)
    for a, b in zip(flow.tangent_at(frozen, X, [0.05, 0.1]),
                    flow.tangent_at(s, X, [0.05, 0.1])):
        assert np.array_equal(a, b)
    assert np.array_equal(flow.states_at(frozen, X, [0.1]),
                          flow.states_at(s, X, [0.1]))
    assert np.array_equal(flow.tangent_flow(frozen, X[0], 0.1).phis,
                          flow.tangent_flow(s, X[0], 0.1).phis)
    assert len(seen) > 100
    assert all(np.array_equal(out, copy) for out, copy in seen)


@pytest.mark.parametrize("name", ["rotation2d", "coop2d"])
def test_captures_come_back_in_the_order_of_times(name):
    s = registry.get_system(name)
    X = np.array([[1.0, 0.0], [0.5, 0.25]])
    times = [2.0, 1.0]
    one = [flow.states_at(s, X, [t])[0] for t in times]
    assert flow.states_at(s, X, times).tobytes() == np.stack(one).tobytes()
    xs, ps = flow.tangent_at(s, X, times)
    for k, t in enumerate(times):
        x1, p1 = flow.tangent_at(s, X, [t])
        assert xs[k].tobytes() == x1[0].tobytes()
        assert ps[k].tobytes() == p1[0].tobytes()


def test_no_capture_times_give_empty_stacks(coop):
    X = np.array([[1.0, 0.0], [0.5, 0.25], [0.0, 1.0]])
    assert flow.states_at(coop, X, []).shape == (0, 3, 2)
    xs, ps = flow.tangent_at(coop, X, [])
    assert xs.shape == (0, 3, 2) and ps.shape == (0, 3, 2, 2)


@pytest.mark.parametrize("stride", [0, -1, -2, 2.5, True])
@pytest.mark.parametrize("path", ["integrate", "tangent_flow",
                                  "propagate_ray_pairs"])
def test_store_stride_must_be_an_integer_of_at_least_one(coop, path, stride):
    x0 = np.array([1.0, 0.5])
    field = ConstantField(Orthant(2))
    calls = {
        "integrate": lambda: flow.integrate(coop, x0, 1.0, store_stride=stride),
        "tangent_flow": lambda: flow.tangent_flow(coop, x0, 1.0,
                                                  store_stride=stride),
        "propagate_ray_pairs": lambda: pf.propagate_ray_pairs(
            coop, field, x0, [[1.0, 0.5]], [[0.5, 1.0]], 1.0,
            store_stride=stride),
    }
    with pytest.raises(ValueError, match="store_stride"):
        calls[path]()


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
def test_orbit_tangents_keep_a_non_square_start(name):
    # a non-square P0, as the ray pairs of pf use, comes back as (n, m)
    # captures; stacked over rows, one step gives M @ P0
    s = registry.get_system(name)
    X = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 2))
    P0 = np.random.default_rng(4).normal(size=(2, 5))
    got = []
    for x in X:
        recs = []
        flow._orbit_tangent(s, x, P0, 0.01, 0.01, 1,
                            lambda ts, xs, Ps: recs.append(Ps))
        got.append(np.concatenate(recs))
    got = np.stack(got, axis=1)
    assert got.shape == (2, 4, 2, 5)
    assert np.array_equal(got[0], np.broadcast_to(P0, (4, 2, 5)))
    M = flow.tangent_at(s, X, [0.01], 0.01)[1][0]
    assert M.shape == (4, 2, 2)
    assert np.array_equal(got[1], M @ P0)


# ------------------------------------------------------ one tangent engine

ENGINE_TIMES = [2.0605, 0.25, 2.0605, 0.5]  # unsorted, repeated, partial
ENGINE_DT = 1e-3


def _in_order(M, P):
    """M @ P for (N, n, k) and (N, k, m) stacks, each entry summed in
    order j = 0, 1, ... with a rounding after every product and add."""
    acc = M[:, :, :1] * P[:, :1, :]
    for j in range(1, M.shape[2]):
        acc = acc + M[:, :, j:j + 1] * P[:, j:j + 1, :]
    return acc


def _staged_march(s, X, plan, P):
    """Reference for a system with no declared matrix: X <- _rk4_step and
    P <- M P, M from reference_rk4_step_map, per step of the plan, summed
    in order; a row with a non-finite state freezes at nan from the step
    it fails.  Yields (X, P) after each step."""
    dead = np.zeros(len(X), dtype=bool)
    for h in plan:
        _, M = reference_rk4_step_map(s, X, h)
        X, P = flow._rk4_step(s, X, h), _in_order(M, P)
        dead |= ~np.isfinite(X).all(axis=1)
        X[dead] = np.nan
        P[dead] = np.nan
        yield X, P


def _reference_captures(s, X0, times, dt):
    """tangent_at's (xs, ps) step by step: the times visited sorted, each
    gap on its own plan, as _capture marches them."""
    march = _matrix_march if s.matrix is not None else _staged_march
    X, P, t_prev = X0, np.tile(np.eye(s.dim), (len(X0), 1, 1)), 0.0
    xs, ps = [None] * len(times), [None] * len(times)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in sorted(range(len(times)), key=times.__getitem__):
            span = times[i] - t_prev
            if span > 0.0:
                for X, P in march(s, X, _plan(span, min(dt, span)), P):
                    pass
                t_prev = times[i]
            xs[i], ps[i] = X, P
    return np.array(xs), np.array(ps)


def _reference_orbit(s, x0, P0, T, dt, unit):
    """One orbit step by step: the state by _rk4_step (a declared matrix by
    R(hA)), P <- M @ P with M from reference_rk4_step_map (or R), each
    column scaled to unit length after every step when unit is set.
    Returns the (x, P) of every step from the start."""
    X, P, out = x0[None], P0, [(x0, P0)]
    for h in _plan(T, dt):
        if s.matrix is not None:
            M = flow._rk4_map(s.matrix, h)
            X = (M @ X.T).T
        else:
            M = reference_rk4_step_map(s, X, h)[1][0]
            X = flow._rk4_step(s, X, h)
        P = M @ P
        if unit:
            P = P / np.linalg.norm(P, axis=0)
        out.append((X[0], P))
    return out


ENGINE_SYSTEMS = ["coop2d", "bistable1d", "metzler_linear", "spd_lyapunov"]


@pytest.mark.parametrize("N", [1, 25, 1000])
@pytest.mark.parametrize("name", ENGINE_SYSTEMS)
def test_tangent_paths_equal_the_per_step_reference(name, N):
    s = registry.get_system(name)
    X0 = flow.sample_states(s, 2.0, N, 11)
    want = _reference_captures(s, X0, ENGINE_TIMES, ENGINE_DT)
    got = flow.tangent_at(s, X0, ENGINE_TIMES, ENGINE_DT)
    assert got[1].shape == (4, N, s.dim, s.dim)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    x0, T, stride = X0[-1], ENGINE_TIMES[0], 7
    steps = list(range(0, len(_plan(T, ENGINE_DT)), stride)) + [
        len(_plan(T, ENGINE_DT))]
    ref = _reference_orbit(s, x0, np.eye(s.dim), T, ENGINE_DT, False)
    tf = flow.tangent_flow(s, x0, T, ENGINE_DT, store_stride=stride)
    assert np.array_equal(tf.states, [ref[i][0] for i in steps])
    assert np.array_equal(tf.phis, [ref[i][1] for i in steps])
    field = registry.default_field(s)
    u0 = field.section(x0)
    u1 = u0 + 0.5 * field.cone.boundary_rays(np.random.default_rng(0), 1)[0]
    times, dists, x, W = pf.propagate_ray_pairs(
        s, field, x0, u0[None], u1[None], T, ENGINE_DT, stride)
    P0 = np.stack([u0, u1], axis=1)
    ref = _reference_orbit(s, x0, P0 / np.linalg.norm(P0, axis=0), T,
                           ENGINE_DT, True)
    rays = np.array([ref[i][1].T for i in steps])
    assert np.array_equal(times, tf.times)
    assert np.array_equal(dists, field.cone.hilbert_distances(
        rays[:, :1], rays[:, 1:]))
    x_ref, W_ref = ref[-1]
    assert np.array_equal(x, x_ref)
    assert np.array_equal(W, W_ref / pf._metric_norms(field, x_ref, W_ref))


def _quadratic():
    """x' = x^2, which blows up at t = 1 / x(0) for x(0) > 0."""
    return flow.FlowSystem(geometry.euclidean(1), lambda x: np.asarray(x) ** 2,
                           lambda x: 2.0 * np.asarray(x)[..., None],
                           "quadratic")


def test_a_row_that_blows_up_mid_chunk_reads_nan_from_that_capture_on():
    # 25 rows: a chunk is 40 steps; row 3 blows up near step 1020, the
    # middle of the chunk of steps 1001-1040
    s = _quadratic()
    X0 = np.linspace(-1.0, 0.35, 25)[:, None]  # the others stay finite
    X0[3] = 1.0 / 1.0205
    times = [0.5, 1.5, 2.5]
    xs, ps = flow.tangent_at(s, X0, times, on_failure="mask")
    assert np.isfinite(xs[0]).all() and np.isfinite(ps[0]).all()
    assert np.isnan(xs[1:, 3]).all() and np.isnan(ps[1:, 3]).all()
    assert np.isfinite(np.delete(ps, 3, axis=1)).all()
    want = _reference_captures(s, X0, times, flow.DT_DEFAULT)
    assert np.array_equal(xs, want[0], equal_nan=True)
    assert np.array_equal(ps, want[1], equal_nan=True)
    for i in range(0, 25, 4):  # row 3's death touches no other row
        x1, p1 = flow.tangent_at(s, X0[i:i + 1], times)
        assert xs[:, i].tobytes() == x1[:, 0].tobytes()
        assert ps[:, i].tobytes() == p1[:, 0].tobytes()


# --------------------------------------------------------- flat run guard


def _first_blowup(s, x0, T, dt):
    """The time of the first step at which a per-step guard finds the
    state non-finite."""
    X = np.array([x0], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, h in enumerate(_plan(T, dt), 1):
            X = flow._rk4_step(s, X, h)
            if not np.isfinite(X).all():
                return min(i * dt, T)
    return None


def test_a_masked_ensemble_loses_rows_at_the_per_step_guard_events():
    # rows blow up near t = 0.35, 0.72 and 1.55, in different runs of 100
    # steps; the others never do
    s = _quadratic()
    X0 = np.array([[1 / 0.35], [1 / 0.72], [-1.0], [1 / 1.55], [0.1]])
    T, dt = 2.0005, 1e-3
    want, X, dead = [], X0.copy(), np.zeros(len(X0), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, h in enumerate(_plan(T, dt), 1):
            X = flow._rk4_step(s, X, h)
            dead |= ~np.isfinite(X).all(axis=1)
            X[dead] = np.nan
            if i % 100 == 0 or i == len(_plan(T, dt)):
                want.append((dead.copy(), X.copy()))
    assert [d.sum() for d, _ in want][::5] == [0, 1, 2, 3, 3]
    stepper, seen = flow._Stepper(s, X0, on_failure="mask"), []
    stepper.march(T, dt, lambda t, last: seen.append(
        (stepper.dead.copy(), stepper.X.copy())), 100)
    assert len(seen[1:]) == len(want)
    for (d, x), (wd, wx) in zip(seen[1:], want):
        assert np.array_equal(d, wd)
        assert np.array_equal(x, wx, equal_nan=True)


# ---------------------------------------------------------- call counts


def _counting(s):
    """s with f and jac counting their rows: (system, rows of f, of jac)."""
    f_rows, jac_rows = [], []

    def f(x):
        f_rows.append(np.shape(x)[0] if np.ndim(x) > 1 else 1)
        return s.f(x)

    def jac(x):
        jac_rows.append(np.shape(x)[0] if np.ndim(x) > 1 else 1)
        return s.jac(x)

    return dataclasses.replace(s, f=f, jac=jac), f_rows, jac_rows


def test_a_chunk_of_steps_takes_one_jac_call(coop):
    s, f_rows, jac_rows = _counting(coop)
    flow.tangent_at(s, flow.sample_states(coop, 2.0, 25, 0), [1.0])
    # 1000 steps of 25 rows in chunks of 1024 // 25 = 40 steps
    assert len(jac_rows) == 25
    assert sum(jac_rows) == sum(f_rows) == 4 * 1000 * 25


@pytest.mark.parametrize("name", ["coop2d", "rotation2d", "metzler_linear"])
def test_a_flat_march_guards_once_per_run(monkeypatch, name):
    calls = _count_guard_calls(monkeypatch)
    flow.integrate(registry.get_system(name), np.array([1.0, 0.5]), T=1.0)
    assert len(calls) == 101  # the initial state and 100 runs of 10 steps


@pytest.mark.parametrize("name", ["coop2d", "bistable1d"])
def test_tangent_paths_evaluate_f_and_jac_on_the_same_rows(name):
    s, f_rows, jac_rows = _counting(registry.get_system(name))
    x0 = registry.DEFAULT_X0[name]
    field = registry.default_field(s)
    u0 = field.section(x0)
    paths = [lambda: flow.tangent_at(s, np.stack([x0, 0.5 * x0]),
                                     [0.3, 0.1005]),
             lambda: flow.tangent_flow(s, x0, 1.0005),
             lambda: pf.propagate_ray_pairs(s, field, x0, u0[None],
                                            (1.5 * u0)[None], 1.0005)]
    for path in paths:
        f_rows.clear()
        jac_rows.clear()
        path()
        assert sum(f_rows) == sum(jac_rows) > 0


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
        times, frames, _, _, _ = _recorded_tails(s, X0, LIN_T, LIN_DT)
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


def tail_sinking_to_the_zero_matrix():
    """A clustered (k, 1, 3) SPD(2) tail decaying onto 0: every state
    passes the chart guard, but its limit is no point of SPD(2)."""
    t = np.linspace(0.0, 1.0, 50)[:, None, None]
    return 1e-6 * np.exp(-t) * pack_sym(np.eye(2))


def test_an_spd_tail_clustered_at_the_zero_matrix_is_undetermined():
    s = registry.get_system("spd_lyapunov")
    tails = tail_sinking_to_the_zero_matrix()
    assert geometry.spd(2).leaves(tails[:, 0]) is None
    est, = flow.classify_tail(s, tails)
    assert est.kind == UNDETERMINED and est.point is None
    assert est.residual < flow.EQ_TOL  # Newton did reach the zero matrix
    # the same tail on flat space is a singleton at the origin
    flat, = flow.classify_tail(linear_system(s.matrix), tails)
    assert flat.kind == SINGLETON
    assert np.linalg.norm(flat.point) < 1e-12


def test_find_equilibria_keeps_only_points_of_the_manifold():
    s = registry.get_system("spd_lyapunov")
    seeds = [pack_sym(np.eye(2)), pack_sym(np.array([[2.0, 0.3], [0.3, 1.0]]))]
    assert flow.find_equilibria(s, seeds) == []
    eqs = flow.find_equilibria(linear_system(s.matrix), seeds)
    assert len(eqs) == 1 and np.linalg.norm(eqs[0]) < 1e-12


def test_spd_orbits_sinking_to_the_boundary_do_not_converge(tmp_path):
    # e^{At} X0 e^{A^T t} with A Hurwitz tends to the zero matrix, which is
    # outside SPD(2); no sample leaves the chart by T = 8
    out = tmp_path / "converge.json"
    assert cli.run(["converge", "--system", "spd_lyapunov", "--n", "20",
                    "--T", "8", "--seed", "0", "--out", str(out)]) in (0, 1)
    counts = json.loads(out.read_text())["counts"]
    assert counts["converged"] == 0 and counts["undetermined"] == 20
    assert counts["escapes"] == 0
    s = registry.get_system("spd_lyapunov")
    X0 = flow.sample_states(s, 3.0, 4, 0)
    for x0, est in zip(X0, flow.ensemble_omega(s, X0, 8.0)):
        assert est.kind == flow.omega_limit(s, x0, 8.0).kind == UNDETERMINED


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
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert repr(got.residual) == repr(want.residual)
    assert got.certified_at == want.certified_at


def _without_witnesses(est):
    """est as a caller that reads no witnesses gets it."""
    if est is None or est.kind != NON_SINGLETON:
        return est
    return dataclasses.replace(est, witnesses=None)


def _replays(monkeypatch):
    """A list that gets one entry per tail replay from now on."""
    calls, real = [], flow._replay_tail
    monkeypatch.setattr(flow, "_replay_tail",
                        lambda *args: calls.append(args) or real(*args))
    return calls


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
def test_systems_without_a_contraction_certificate_retire_nothing(
        name, T, monkeypatch):
    # no ball can certify: the declared matrices have lambda_max(sym A) = 0
    # and SPD(2) is not euclidean, so no certificate is even built
    built, real = [], flow._Certifier
    monkeypatch.setattr(flow, "_Certifier",
                        lambda *args: built.append(args) or real(*args))
    got, ref = _with_and_without_certificate(name, 300, T)
    assert built == []
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
        # the replayed states are the window's, which the crafted path reads
        _, window = _list_and_stack_window(s, x0[None], T, on_failure="raise")
        _assert_same_estimate(one, flow.classify_tail(s, window)[0])
        kinds.append(one.kind)
    # the comparison covers a polished point at every T and witnesses at 33.3
    assert kinds[3] == SINGLETON
    assert (kinds[0] == NON_SINGLETON) == (T > 2.0 * np.pi / flow.TAIL_FRACTION)


# ------------------------------------------------------------ tail window


def _list_and_stack_window(s, X0, T, on_failure="mask"):
    """The tail window built store by store as a list of copies of the
    states and stacked once at the end: the reference for the states that
    ``_march_tail`` streams (no retirement)."""
    dt = flow.DT_DEFAULT
    n_full, rem = flow._plan_steps(T, dt)
    total = n_full + (1 if rem > 0.0 else 0)
    start = flow._tail_start(T, dt)
    stepper = flow._Stepper(s, X0, on_failure=on_failure)
    times, frames = [], []

    def store(t, last):
        times.append(t)
        frames.append(stepper.X.copy())

    stepper.march(T, dt, store,
                  events=range(start, total, flow.STORE_STRIDE))
    return np.asarray(times), np.asarray(frames)


def _recorded(march, *args, **kwargs):
    """Run march(*args, **kwargs) with a copy of every state a tail
    stream takes recorded: (its result, the (k, M, n) stack of them)."""
    frames, store = [], flow._TailStream.store

    def spy(stream, X):
        frames.append(X.copy())
        store(stream, X)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow._TailStream, "store", spy)
        got = march(*args, **kwargs)
    return got, np.array(frames)


def _recorded_tails(s, X0, T, *args, **kwargs):
    """ensemble_tails with the streamed window recorded: (times, window,
    stream, rows, certified)."""
    (times, stream, rows, certified), window = _recorded(
        flow.ensemble_tails, s, X0, T, *args, **kwargs)
    if not len(window):  # no row reached the tail
        window = np.empty((0, 0, X0.shape[1]))
    return times, window, stream, rows, certified


def _assert_same_window(got, want):
    """Same shape and the same bytes, nan payloads included."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _peak_of(call, *args, **kwargs):
    """(call's result, its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        out = call(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_ensemble_tail_window_is_never_stored(monkeypatch):
    rot = registry.get_system("rotation2d")
    X0 = flow.sample_states(rot, 3.0, 1000, 0)
    out, peak = _peak_of(flow.ensemble_omega, rot, X0, 40.0)
    assert {e.kind for e in out} == {NON_SINGLETON}
    # the window would be 1001 x 1000 x 2 floats, 16.0 MB; the replay keeps
    # 67 witnesses of every row, the stream a slice of 15 stores
    assert peak <= 4e6
    # every spd_lyapunov row looks clustered after a one-state first slice
    # (k = 126, so the stride is 1), but none is at the end: no state is
    # kept, where a (126, 1000, 3) store, 3 MB, once was
    spd = registry.get_system("spd_lyapunov")
    out, peak = _peak_of(flow.ensemble_omega, spd,
                         flow.sample_states(spd, 3.0, 1000, 0), 5.0)
    assert {e.kind for e in out} == {UNDETERMINED}
    assert peak < 1e6
    # generic_convergence reads witnesses only under an SDP verdict, so on
    # the rotation (violated) it marches to T once and replays nothing
    ends, march = [], flow._Stepper.march
    monkeypatch.setattr(flow._Stepper, "march", lambda self, t_end, *a, **k:
                        ends.append(t_end) or march(self, t_end, *a, **k))
    rep = experiments.generic_convergence(rot, ConstantField(Orthant(2)), 3.0,
                                          1000, 40.0, seed=0)
    assert rep.dp_status == "violated" and rep.nonsingleton == 1000
    assert ends.count(40.0) == 1
    ends.clear()
    flow.ensemble_omega(rot, X0, 40.0)  # with witnesses: one replay
    assert ends.count(40.0) == 2


def test_a_stream_whose_rows_all_cluster_keeps_one_window():
    # every metzler_linear row clusters at the origin, so the stream keeps
    # every state of every row: its worst case
    s = registry.get_system("metzler_linear")
    X0 = flow.sample_states(s, 3.0, 1000, 0)
    tracemalloc.start()
    try:
        out = flow.ensemble_omega(s, X0, 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {e.kind for e in out} == {SINGLETON}
    window = 501 * 1000 * 2 * 8
    # the kept tails are one window; the slice buffer and the estimates
    # come on top, but no second window-sized buffer does
    assert peak <= 1.08 * window


@pytest.mark.parametrize("T", [13.0, 15.0])
def test_an_escaping_ensemble_window_equals_the_list_and_stack_reference(T):
    # seed 0's 1000 spd_lyapunov rows all leave the chart between t = 9.86
    # and 11.21, and the mask march freezes them at nan: the window opens
    # at 9.75 (T = 13), among the escapes, or at 11.25 (T = 15), after all
    spd = registry.get_system("spd_lyapunov")
    X0 = flow.sample_states(spd, 3.0, 1000, 0)
    times, tails, stream, rows, certified = _recorded_tails(spd, X0, T)
    ref_times, ref = _list_and_stack_window(spd, X0, T)
    assert np.isnan(tails[-1]).all()
    assert np.isfinite(tails[0]).all(axis=1).any() == (T == 13.0)
    _assert_same_window(tails, ref)
    assert times.tobytes() == ref_times.tobytes()
    assert np.array_equal(rows, np.arange(1000))
    assert all(c is None for c in certified)
    assert flow.classify_tail(spd, stream) == [None] * 1000


def test_a_window_whose_rows_all_retired_is_empty(coop):
    # every coop2d row certifies before the tail opens at t = 75
    X0 = flow.sample_states(coop, 3.0, 200, 0)
    times, tails, stream, rows, certified = _recorded_tails(coop, X0, 100.0)
    assert times.shape == (0,) and rows.shape == (0,)
    assert tails.shape == (0, 0, 2) and stream.M == 0
    assert flow.classify_tail(coop, stream) == []
    assert all(c is not None and c.kind == SINGLETON for c in certified)


@pytest.mark.parametrize("name,x0,T", [
    ("rotation2d", [1.0, 0.0], 33.3),   # non-singleton: witnesses
    ("coop2d", [1.0, 0.5], 15.0),       # singleton: the polished mean
    ("spd_lyapunov", [1.0, 0.2, 2.0], 5.0),
])
def test_one_orbit_window_equals_the_list_and_stack_reference(name, x0, T):
    s = registry.get_system(name)
    x0 = np.array(x0)
    _, window = _recorded(flow._march_tail, flow._Stepper(s, x0[None]), T,
                          flow.DT_DEFAULT)
    _, ref = _list_and_stack_window(s, x0[None], T, on_failure="raise")
    _assert_same_window(window, ref)
    _assert_same_estimate(flow.omega_limit(s, x0, T),
                          flow.classify_tail(s, ref)[0])


@pytest.mark.parametrize("name,T,N,kinds", [
    ("rotation2d", 40.0, 1000, {NON_SINGLETON}),
    ("spd_lyapunov", 5.0, 1000, {UNDETERMINED}),
    ("spd_lyapunov", 13.0, 300, {None}),  # every row escapes
    ("coop2d", 100.0, 50, {SINGLETON}),
    ("coop2d", 12.0, 300, {SINGLETON, UNDETERMINED}),
    ("bistable1d", 8.0, 500, {SINGLETON, UNDETERMINED}),
    ("metzler_linear", 20.0, 300, {SINGLETON}),  # every row clustered
    ("coop2d", flow.DT_DEFAULT, 50, {UNDETERMINED}),  # one stored state
    # rows leave the chart inside the tail while clustered rows replay
    ("spd_lyapunov", 10.0, 1000, {UNDETERMINED, None}),
    ("rotation2d", 40.0, 1, {NON_SINGLETON}),  # one orbit
    ("metzler_linear", 20.0, 1, {SINGLETON}),
])
def test_streamed_estimates_equal_the_per_row_reference(name, T, N, kinds,
                                                        monkeypatch):
    s = registry.get_system(name)
    X0 = experiments.sample_states(s, 3.0, N, 0)
    _, ref = _list_and_stack_window(s, X0, T)
    want = [_classify_one(s, ref[:, j]) for j in range(N)]
    assert {e and e.kind for e in want} == kinds
    for got, w in zip(flow.classify_tail(s, ref), want, strict=True):
        _assert_same_estimate(got, w)  # the crafted-window path
    plain = dataclasses.replace(s, jac_lipschitz=None)
    replays = _replays(monkeypatch)
    for witnesses in (True, False):
        replays.clear()
        got = flow.ensemble_omega(plain, X0, T, witnesses=witnesses)
        for g, w in zip(got, want, strict=True):
            _assert_same_estimate(g, w if witnesses else _without_witnesses(w))
        # one replay, made only for a clustered row (Newton's residual is
        # set) or, when they are read, for witnesses
        needs = any(w is not None and (not np.isnan(w.residual) or (
            witnesses and w.kind == NON_SINGLETON)) for w in want)
        assert len(replays) == needs
    # with retirement, every row that reaches the tail keeps its estimate
    for got, w in zip(flow.ensemble_omega(s, X0, T), want, strict=True):
        if got is None or got.certified_at is None:
            _assert_same_estimate(got, w)


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


def on_manifold(s, p):
    """p is a point of s's manifold: on SPD(n), lambda_min > EIG_TOL."""
    return s.manifold.kind != "spd" or np.linalg.eigvalsh(
        geometry.unpack_sym(p, s.manifold.n))[0] > geometry.EIG_TOL


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
                < cluster_radius and on_manifold(s, p)):
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
    # tails that cluster at the zero matrix, off SPD(2), are undetermined
    ("spd_lyapunov", 7.0, {UNDETERMINED}),
    ("spd_lyapunov", 10.0, {UNDETERMINED, None}),  # None: left the chart
    ("bistable1d", 8.0, {UNDETERMINED}),
    ("bistable1d", 30.0, set()),  # every row retires: no tail reaches it
    ("coop2d", 30.0, {SINGLETON, UNDETERMINED})])
def test_batched_classifier_matches_the_reference_on_ensembles(name, T, kinds):
    s = registry.get_system(name)
    if name == "coop2d":  # no retirement: every row reaches the classifier
        s = dataclasses.replace(s, jac_lipschitz=None)
    X0 = experiments.sample_states(s, 3.0, 60, 0)
    _, tails, stream, _, _ = _recorded_tails(s, X0, T)
    got = _assert_matches_reference(s, tails)
    assert {e and e.kind for e in got} == kinds
    streamed = flow.classify_tail(s, stream)
    assert len(streamed) == len(got)
    for est, want in zip(streamed, got):
        _assert_same_estimate(est, want)


# ------------------------------------------ component-major matrix steps


def _matrix_march(s, X, plan, P=None):
    """Reference: X <- X @ R.T and P <- R P per step of the plan, the guard
    after every step; a row that leaves the manifold (on flat space, one
    with a non-finite entry) freezes at nan, its P too.  P,
    (N, n, n), defaults to the identity; it steps component-major, as the
    stepper's tangents do.  Yields (X, P) after each step."""
    n = s.dim
    X = np.array(X, dtype=float)
    P = np.tile(np.eye(n), (len(X), 1, 1)) if P is None else P
    P = np.ascontiguousarray(P.transpose(1, 2, 0))
    dead = np.zeros(len(X), dtype=bool)
    for h in plan:
        R = flow._rk4_map(s.matrix, h)
        X = X @ R.T
        P = (R @ P.reshape(n, -1)).reshape(P.shape)
        dead |= (_eigvalsh_guard(X) if s.manifold.kind == "spd"
                 else ~np.isfinite(X).all(axis=1))
        X[dead] = np.nan
        P[..., dead] = np.nan
        yield X, P.transpose(2, 0, 1)


def _plan(span, dt):
    n_full, rem = flow._plan_steps(span, dt)
    return [dt] * n_full + ([rem] if rem > 0.0 else [])


def _matrix_x0(name, seed=None):
    if seed is not None:  # rows that leave the chart between t = 9.8 and 11.2
        return flow.sample_states(registry.get_system(name), None, 300, seed)
    if name == "spd_lyapunov":  # row 1 leaves the chart near t = 0.35
        return np.array([pack_sym(np.array([[2.0, 0.3], [0.3, 1.0]])),
                         pack_sym(np.diag([1.0, 2e-10])),
                         pack_sym(np.array([[1.0, -0.5], [-0.5, 3.0]]))])
    return np.random.default_rng(6).uniform(-2.0, 2.0, (5, 2))


SHORT = (0.5, 1.0005, 1.5)
ESCAPES = (2.5, 9.9, 10.5, 11.0005, 12.0)


@pytest.mark.parametrize("name,seed,times", [
    pytest.param(name, None, SHORT, id=name)
    for name in ("metzler_linear", "rotation2d", "spd_lyapunov")] + [
    pytest.param("spd_lyapunov", seed, ESCAPES, id=f"spd_escapes-{seed}")
    for seed in (0, 3)])
def test_matrix_steps_equal_the_row_major_reference(name, seed, times):
    s = registry.get_system(name)
    X0, dt = _matrix_x0(name, seed), 1e-3
    want, t_prev, X, P = [], 0.0, X0, None
    for t in times:  # one plan per gap between capture times, as _capture
        for X, P in _matrix_march(s, X, _plan(t - t_prev, dt), P):
            pass
        want.append((X, P))
        t_prev = t
    xs = flow.states_at(s, X0, times, dt, on_failure="mask")
    xt, ps = flow.tangent_at(s, X0, times, dt, on_failure="mask")
    assert np.array_equal(xs, xt, equal_nan=True)
    for i, (X, P) in enumerate(want):
        assert np.array_equal(xs[i], X, equal_nan=True)
        assert np.array_equal(ps[i], P, equal_nan=True)
    if name == "spd_lyapunov" and seed is None:
        assert np.all(np.isnan(xs[:, 1])) and np.all(np.isnan(ps[:, 1]))
    T = times[-1] + 5e-4  # the plan ends in a partial step
    times, tails, _, rows, _ = _recorded_tails(s, X0, T, dt)
    plan = _plan(T, dt)
    start = flow._tail_start(T, dt)
    stored = [X.copy() for i, (X, _) in enumerate(_matrix_march(s, X0, plan), 1)
              if i >= start and ((i - start) % flow.STORE_STRIDE == 0
                                 or i == len(plan))]
    assert list(rows) == list(range(len(X0)))
    assert np.array_equal(tails, np.array(stored), equal_nan=True)


@pytest.mark.parametrize("seed,t_exit", [(0, 9.86), (1, 10.019), (2, 9.855),
                                         (3, 9.906)])
def test_spd_rows_leave_the_chart_at_the_reference_steps(seed, t_exit):
    s = registry.get_system("spd_lyapunov")
    X0, T, dt = _matrix_x0("spd_lyapunov", seed), 12.0005, 1e-3
    plan = _plan(T, dt)
    died, stored = np.full(len(X0), -1), {}
    for i, (X, _) in enumerate(_matrix_march(s, X0, plan), 1):
        died[np.isnan(X[:, 0]) & (died < 0)] = i
        if i % 100 == 0 or i == len(plan):
            stored[i] = X
    assert (died > 0).all() and died.min() * dt == t_exit
    # a callback on every step sees each row die at its reference step
    stepper = flow._Stepper(s, X0, on_failure="mask")
    got, step = np.full(len(X0), -1), itertools.count()

    def every(t, last):
        i = next(step)
        got[stepper.dead & (got < 0)] = i

    stepper.march(T, dt, every)
    assert np.array_equal(got, died)
    # callbacks at a few events alone see the same states
    stepper, seen = flow._Stepper(s, X0, on_failure="mask"), []
    stepper.march(T, dt, lambda t, last: seen.append(stepper.X.copy()), 100)
    assert np.array_equal(np.array(seen[1:]), np.array(list(stored.values())),
                          equal_nan=True)
    with pytest.raises(ManifoldExitError) as err:  # raise mode: the first exit
        flow.states_at(s, X0, ESCAPES, dt)
    assert err.value.time == t_exit


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
    times, tails, _, rows, certified = _recorded_tails(s, X0, T, dt)
    assert list(rows) == [1, 3]
    assert [c is not None for c in certified] == [True, False, True, False,
                                                  True]
    plan = _plan(T, dt)
    start = flow._tail_start(T, dt)
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


# ------------------------------- SPD run proofs, growing declared matrices


def _count_guard_calls(monkeypatch):
    calls = []
    real = flow._bad_rows

    def counting(s, X):
        calls.append(len(X))
        return real(s, X)

    monkeypatch.setattr(flow, "_bad_rows", counting)
    return calls


def test_a_march_proven_finite_skips_the_per_step_guard(monkeypatch):
    calls = _count_guard_calls(monkeypatch)
    flow.integrate(registry.get_system("rotation2d"), np.array([1.0, 0.0]),
                   T=1.0005, dt=1e-3)
    # flat space takes no proof: the start, then one guard per run (100
    # runs of 10 steps to the stores, and the partial last step)
    assert len(calls) == 102
    calls.clear()
    grow = registry._linear_system(40.0 * np.eye(2), "grow")
    X0, T, dt = np.ones((2, 2)), 20.0, 1e-3
    died, _ = _grow_reference(grow, X0, _plan(T, dt))
    xs = flow.states_at(grow, X0, [T], dt, on_failure="mask")
    # both rows die inside the one run to T, which its end guard finds
    assert 0 < died[0] == died[1] < T / dt and np.isnan(xs).all()
    assert len(calls) == 2
    calls.clear()
    s = registry.get_system("spd_lyapunov")
    flow.states_at(s, flow.sample_states(s, None, 1000, 0), [5.0])
    # a positive room proves the batch clean, so back-to-back runs take no
    # guard between them: 2 calls (402 with a guard after every run)
    assert len(calls) <= 10


def test_a_mask_march_proves_runs_over_its_live_rows(monkeypatch):
    calls = []
    real = flow._bad_rows

    def counting(s, X):
        calls.append(bool(np.isnan(X).all()))
        return real(s, X)

    monkeypatch.setattr(flow, "_bad_rows", counting)
    failed, prove = [], flow._Stepper._free_steps

    def counting_proofs(stepper, h, count):
        j = prove(stepper, h, count)
        failed.append(j == 0)
        return j

    monkeypatch.setattr(flow._Stepper, "_free_steps", counting_proofs)
    s = registry.get_system("spd_lyapunov")
    xs = flow.states_at(s, flow.sample_states(s, None, 1000, 0), [15.0],
                        on_failure="mask")
    assert np.isnan(xs).all()  # the rows leave between t = 9.86 and 11.21
    # runs go on over the live rows after the first escape (one guard per
    # step from there on would make 7,612 calls), and none once all are dead
    assert 0 < len(calls) <= 2500 and not any(calls)
    # a guard in doubt that loses no row asks for no proof: 1,305 proofs
    # fail, 1,911 with a proof after every guarded step
    assert sum(failed) <= 1500


def test_a_row_at_the_chart_threshold_gets_no_free_steps():
    s = registry.get_system("spd_lyapunov")
    X0 = _matrix_x0("spd_lyapunov")  # row 1: lambda_min = 2e-10
    with np.errstate(over="ignore"):
        assert flow._Stepper(s, X0)._free_steps(1e-3, 1000) == 0
        assert flow._Stepper(s, X0[[0, 2]])._free_steps(1e-3, 1000) > 0


def test_an_overflowing_step_map_opens_no_run():
    s = registry.get_system("spd_lyapunov")
    X0 = _matrix_x0("spd_lyapunov")[[0, 2]]
    with np.errstate(over="ignore", invalid="ignore"):
        assert flow._Stepper(s, X0)._free_steps(1e80, 1) == 0
    xs = flow.states_at(s, X0, [1e80], dt=1e80, on_failure="mask")
    assert np.isnan(xs).all()  # both rows escape; nothing raises


def _near_identity_spd_system():
    """A declared matrix whose map R(hA) at h = 1 is I plus entries of about
    half an ulp of 1: the rounding of R v moves v more than (R - I) v does."""
    A = 0.51 * geometry._EPS * np.eye(3, k=1)
    return registry._linear_system(A, "near_identity", geometry.spd(2))


def test_the_step_bound_covers_every_rounded_step():
    rng = np.random.default_rng(8)
    rows = np.vstack([np.ones((1, 3)), _spd2_rows(
        rng, rng.uniform(0.01, 2.0, 4000), rng.uniform(2.0, 50.0, 4000))])
    cases = [(_near_identity_spd_system(), 1.0)] + [
        (registry.get_system("spd_lyapunov"), h) for h in (1e-3, 0.05, 0.4)]
    for s, h in cases:
        R = flow._Stepper(s, rows[:1])._map(h)
        c = s.manifold.step_growth(R)
        step = (R @ rows.T).T  # the stepper's product, bit for bit
        norm = np.linalg.norm(rows, axis=1)
        assert np.all(np.linalg.norm(step - rows, axis=1) <= c * norm)
        assert np.all(np.linalg.norm(step, axis=1) <= (1.0 + c) * norm)
    # the rounding alone moves the all-ones row past ||R - I||_2 ||v||_2
    R = flow._Stepper(cases[0][0], rows[:1])._map(1.0)
    moved = np.linalg.norm(R @ rows[0] - rows[0])
    assert moved > np.linalg.norm(R - np.eye(3), 2) * np.linalg.norm(rows[0])


def test_spd2_room_bounds_the_room_above_the_band():
    batches = dict(_screen_batches())
    # thin rows diag(1, lam): det / s is lambda_min to within lam^2, so the
    # room is tight up to the screen's rounding terms
    lam = 10.0 ** np.linspace(-9.5, -6.0, 40)
    batches["thin"] = np.column_stack([np.ones(40), np.zeros(40), lam])
    rng = np.random.default_rng(9)
    batches["conditioned"] = _spd2_rows(rng, rng.uniform(0.5, 1.0, 500),
                                        rng.uniform(1.0, 4.0, 500))
    proven = []
    for name, V in batches.items():
        with np.errstate(invalid="ignore", over="ignore"):
            q = geometry._spd2_room(V)
        if q <= 0.0:
            continue
        proven.append(name)
        m = 2.0 * np.max(V[:, 0] + V[:, 2])
        band = 1e-13 * (3.0 * m + 1.0)
        lam_min = np.linalg.eigvalsh(geometry.unpack_sym(V, 2))[:, 0]
        room = lam_min - (geometry.EIG_TOL + 2.0 * band)
        assert np.all(q * np.linalg.norm(V, axis=1) <= room), name
        if name == "thin":  # tight to well inside the band
            assert np.min(room / np.linalg.norm(V, axis=1)) - q < 1e-14
    assert proven == ["spd", "thin", "conditioned"]


@pytest.mark.parametrize("h", [1e-4, 1e-3, 5e-3])
def test_free_steps_are_the_longest_run_the_bound_allows(h):
    # the run of j steps moves row i by at most c ||v_i|| sum_{l<j} (1+c)^l
    rng = np.random.default_rng(10)
    s = registry.get_system("spd_lyapunov")
    X = _spd2_rows(rng, rng.uniform(0.5, 1.0, 200),
                   rng.uniform(1.0, 2.0, 200))
    stepper = flow._Stepper(s, X)
    c, q = s.manifold.step_growth(stepper._map(h)), geometry._spd2_room(X)
    j, moved = 0, 0.0
    while moved + c * (1.0 + c) ** j <= q:
        moved += c * (1.0 + c) ** j
        j += 1
    assert 2 <= j < q / c - 1  # the growth of the norms costs steps
    with np.errstate(over="ignore"):
        assert stepper._free_steps(h, 10 ** 6) in (j - 1, j)
        assert stepper._free_steps(h, 1) == 1  # never past the count


def _grow_reference(s, X0, plan):
    """Step X <- X R(hA)^T with the finiteness guard on every step: a row
    with a non-finite entry freezes at nan.  Returns the step at which each
    row failed (-1 for none) and the final states."""
    X = np.array(X0, dtype=float)
    died = np.full(len(X), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, h in enumerate(plan, 1):
            X = X @ flow._rk4_map(s.matrix, h).T
            new = ~np.isfinite(X).all(axis=1) & (died < 0)
            died[new] = i
            X[died >= 0] = np.nan
    return died, X


def test_a_growing_matrix_raises_at_its_blowup_time():
    s = registry._linear_system(40.0 * np.eye(2), "grow")
    x0, T, dt = np.array([1.0, -3.0]), 20.0, 1e-3
    died, _ = _grow_reference(s, x0[None], _plan(T, dt))
    assert 0 < died[0] < 20000
    with pytest.raises(FlowBlowupError) as err:
        flow.integrate(s, x0, T, dt)
    assert err.value.time == min(died[0] * dt, T)
    assert died[0] == 17718  # the step at which the unbounded march failed


def _first_bad_map(s, x0, times, dt):
    """The time of the first step at which the per-step reference's maps,
    marched gap by gap through sorted times, hold an inf or nan entry."""
    march = _matrix_march if s.matrix is not None else _staged_march
    X, P, t0 = x0[None], np.eye(s.dim)[None], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in sorted(times):
            h = min(dt, t - t0)
            for i, (X, P) in enumerate(march(s, X, _plan(t - t0, h), P), 1):
                if not np.isfinite(P).all():
                    return t0 + min(i * h, t - t0)
            t0 = t
    return None


@pytest.mark.parametrize("declared", [True, False])
def test_tangent_at_raises_at_its_first_non_finite_map(declared):
    # x' = 40 x from the origin: the state stays 0, the map e^{40 t} I
    # overflows at step 17,745 of the second gap's march
    A = 40.0 * np.eye(2)
    s = registry._linear_system(A, "grow") if declared else linear_system(A)
    x0, times = np.zeros(2), [25.0005, 10.0]
    want = _first_bad_map(s, x0, times, flow.DT_DEFAULT)
    assert want == 17.745
    with pytest.raises(FlowBlowupError, match="tangent map") as err:
        flow.tangent_at(s, x0[None], times)
    assert err.value.time == want
    xs, ps = flow.tangent_at(s, x0[None], times, on_failure="mask")
    assert np.isfinite(ps[1]).all() and not np.isfinite(ps[0]).all()
    # a state that fails first wins: a row from 1e100 overflows near t = 12
    X0 = np.array([[0.0, 0.0], [1e100, 1.0]])
    with pytest.raises(FlowBlowupError) as died:
        flow.states_at(s, X0, times)
    with pytest.raises(FlowBlowupError, match="trajectory") as err:
        flow.tangent_at(s, X0, times)
    assert err.value.time == died.value.time < want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_capture_times_and_horizons_must_be_finite(coop, bad):
    X0 = np.array([[1.0, 0.5]])
    for call in (flow.states_at, flow.tangent_at):
        with pytest.raises(ValueError, match="capture times"):
            call(coop, X0, [bad, 1.0])
        with pytest.raises(ValueError, match="capture times"):
            call(coop, X0, [1.0, bad])
    for call in (flow.integrate, flow.tangent_flow, flow.omega_limit):
        with pytest.raises(ValueError, match="T < inf"):
            call(coop, X0[0], bad)
    with pytest.raises(ValueError, match="T < inf"):
        flow.ensemble_omega(coop, X0, bad)


def test_a_growing_matrix_freezes_the_same_rows_at_the_same_steps():
    s = registry._linear_system(40.0 * np.eye(2), "grow")
    X0 = np.array([[1.0, 1.0], [1e-100, 2e-100], [1e100, -1e100],
                   [1e-300, 0.0], [0.0, 0.0]])
    T, dt = 25.0005, 1e-3  # the plan ends in a partial step
    died, X_ref = _grow_reference(s, X0, _plan(T, dt))
    assert list(died) == [17745, 23484, 11989, -1, -1]  # as before the bound
    stepper = flow._Stepper(s, X0, on_failure="mask")
    got, step = np.full(len(X0), -1), itertools.count()

    def on_store(t, last):
        i = next(step)
        got[stepper.dead & (got < 0)] = i

    stepper.march(T, dt, on_store)
    assert np.array_equal(got, died)
    assert np.array_equal(stepper.X, X_ref, equal_nan=True)


def test_a_growing_matrix_from_tiny_states_is_guarded():
    # tiny rows grow for longer than R(hA)^j alone stays finite (past
    # j = 17,744): they must still die at their own steps
    s = registry._linear_system(40.0 * np.eye(2), "grow")
    X0 = np.array([[1e-9, 0.0], [3e-9, -1e-12], [0.0, 0.0]])
    T, dt = 20.0, 1e-3
    died, X_ref = _grow_reference(s, X0, _plan(T, dt))
    assert 0 < died[1] < died[0] < T / dt and died[2] == -1
    with pytest.raises(FlowBlowupError) as err:
        flow.integrate(s, X0[0], T, dt)
    assert err.value.time == died[0] * dt  # t = 18.263
    stepper = flow._Stepper(s, X0, on_failure="mask")
    got, step = np.full(len(X0), -1), itertools.count()

    def on_store(t, last):
        got[stepper.dead & (got < 0)] = next(step)

    stepper.march(T, dt, on_store)
    assert np.array_equal(got, died)
    assert np.array_equal(stepper.X, X_ref, equal_nan=True)


def test_an_overflowing_tangent_map_raises_at_its_first_nonfinite_step():
    # the state stays at 0 while Phi = R(hA)^j overflows: the per-step
    # reference dates the first non-finite map, after whose step the scan
    # must raise, having handed over only finite records before it
    s = registry._linear_system(40.0 * np.eye(2), "grow")
    T, dt = 25.0005, 1e-3
    plan = _plan(T, dt)
    P, first = np.eye(2), None
    with np.errstate(over="ignore", invalid="ignore"):
        for j, h in enumerate(plan, 1):
            P = flow._rk4_map(s.matrix, h) @ P
            if not np.isfinite(P).all():
                first = j
                break
    assert first == 17745
    with pytest.raises(FlowBlowupError) as err:
        flow.tangent_flow(s, np.zeros(2), T, dt)
    assert err.value.time == first * dt == 17.745
    records = []
    with pytest.raises(FlowBlowupError) as err:
        flow._orbit_tangent(s, np.zeros(2), np.eye(2), T, dt, 1000,
                            lambda ts, xs, Ps: records.append((ts, Ps)))
    ts = np.concatenate([t for t, _ in records])
    assert err.value.time == 17.745 and ts[-1] == 17.0
    assert all(np.isfinite(Ps).all() for _, Ps in records)


def test_the_finiteness_bound_counts_the_partial_last_step():
    # R(1000 h) grows a row by about 4.2e10 over a full step (h = 1) and
    # 2.6e9 over the partial one (h = 0.5): from 1e289 the full step stays
    # finite, and the partial step overflows
    s = registry._linear_system(1000.0 * np.eye(2), "grow")
    x0 = np.array([1e289, 0.0])
    with pytest.raises(FlowBlowupError) as err:
        flow.integrate(s, x0, T=1.5, dt=1.0)
    assert err.value.time == 1.5
    xs = flow.states_at(s, x0[None], [1.0, 1.5], dt=1.0, on_failure="mask")
    assert np.isfinite(xs[0]).all() and np.isnan(xs[1]).all()


# --------------------------------------------- one run rule on flat space


def _dying_rows(name):
    """(system, rows, capture times, T) on flat space, with rows that
    overflow in different runs (between different capture times, and in a
    march stored every 100 steps) and rows that never do; T ends in a
    partial step.  metzler_linear: x1 of a row c (1, 1) peaks at
    2 c / sqrt(e), so c > 1.48e308 overflows.  rotation2d: x0 of a row
    c (1, 1) peaks at c sqrt(2), so c > 1.271e308 overflows.  grow,
    x' = 40 x: a row overflows near step 17,745 - 5,757 log10 max|x0|,
    after T for the last two rows."""
    if name == "grow":
        s = registry._linear_system(40.0 * np.eye(2), "grow")
        X0 = np.array([[1.0, 1.0], [1e-100, 2e-100], [1e100, -1e100],
                       [1e-300, 0.0], [0.0, 0.0]])
        return s, X0, [12.0, 20.0, 25.0005], 25.0005
    s = registry.get_system(name)
    big = np.finfo(float).max
    c, times = {"metzler_linear": ([big, 1.6e308, 1.5e308, 1.4e308],
                                   [0.1, 0.3, 0.5, 1.0005]),
                "rotation2d": ([1.35e308, 1.3e308, 1.28e308, 1.2e308],
                               [0.5, 0.6, 0.7, 1.0005])}[name]
    X0 = np.vstack([np.outer(c, [1.0, 1.0]), [[1.0, -0.5]]])
    return s, X0, times, 1.0005


RUN_SYSTEMS = ["metzler_linear", "rotation2d", "grow"]
# orthant rays near (0, 1), which rotation2d turns clockwise: they stay in
# the orthant past t = 1.5, after every row has died
RUN_RAYS = np.array([[0.01, 1.0], [0.05, 1.0]])


@pytest.mark.parametrize("name", RUN_SYSTEMS)
def test_masked_captures_equal_the_per_step_guard_reference(name):
    s, X0, times, T = _dying_rows(name)
    dt = flow.DT_DEFAULT
    died = _grow_reference(s, X0, _plan(T, dt))[0]
    dying = died[died > 0]
    assert len(dying) >= 3 and (died == -1).sum() >= 1
    assert len(set((dying - 1) // 100)) == len(dying)  # one run each
    steps = np.round(np.array(times) / dt)
    gaps = np.searchsorted(steps, dying)  # the capture each death precedes
    assert len(set(gaps)) == len(dying) and gaps.max() < len(times)
    xs_ref, ps_ref = _reference_captures(s, X0, times, dt)
    xs = flow.states_at(s, X0, times, dt, on_failure="mask")
    xt, ps = flow.tangent_at(s, X0, times, dt, on_failure="mask")
    dead = np.isnan(xs_ref).any(axis=-1)
    assert dead[-1].sum() >= 3 and not dead[-1].all()
    assert np.isnan(xs_ref[dead]).all() and np.isnan(ps_ref[dead]).all()
    for got in (xs, xt):  # same dead rows, same nan, live rows bit-equal
        assert got.tobytes() == xs_ref.tobytes()
    assert ps.tobytes() == ps_ref.tobytes()


@pytest.mark.parametrize("name", RUN_SYSTEMS)
def test_a_flat_run_raises_at_the_per_step_guard_time(name):
    # one capture at T, so a capture's march has integrate's plan
    s, X0, _, T = _dying_rows(name)
    dt = flow.DT_DEFAULT
    died = _grow_reference(s, X0, _plan(T, dt))[0]
    # tangent_flow and tangent_at also raise at their first non-finite map:
    # the columns of Phi step as rows from I do (on grow at step 17,745,
    # before the tiny rows' states die; never on the other two)
    phi = _grow_reference(s, np.eye(2), _plan(T, dt))[0]
    t_phi = phi[phi > 0].min() * dt if (phi > 0).any() else math.inf
    field = ConstantField(Orthant(2))
    for x0, step in zip(X0, died):
        if step < 0:
            continue
        t_ref = min(step * dt, T)
        calls = {
            "integrate": lambda: flow.integrate(s, x0, T, dt),
            "states_at": lambda: flow.states_at(s, x0[None], [T], dt),
            "tangent_at": lambda: flow.tangent_at(s, x0[None], [T], dt),
            "tangent_flow": lambda: flow.tangent_flow(s, x0, T, dt),
            "propagate_ray_pairs": lambda: pf.propagate_ray_pairs(
                s, field, x0, RUN_RAYS[:1], RUN_RAYS[1:], T, dt),
        }
        for path, call in calls.items():
            with pytest.raises(FlowBlowupError) as err:
                call()
            want = (min(t_ref, t_phi) if path in ("tangent_flow", "tangent_at")
                    else t_ref)
            assert err.value.time == want, (path, step)
    with pytest.raises(FlowBlowupError) as err:  # the batch: the first death
        flow.states_at(s, X0, [T], dt)
    assert err.value.time == died[died > 0].min() * dt


@pytest.mark.parametrize("name", RUN_SYSTEMS)
def test_a_flat_ensemble_window_equals_the_per_step_guard_reference(name):
    s, X0, _, T = _dying_rows(name)
    dt = flow.DT_DEFAULT
    times, tails, _, rows, _ = _recorded_tails(s, X0, T, dt)
    plan = _plan(T, dt)
    start = flow._tail_start(T, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        stored = [X.copy() for i, (X, _) in enumerate(
            _matrix_march(s, X0, plan), 1)
            if i >= start and ((i - start) % flow.STORE_STRIDE == 0
                               or i == len(plan))]
    assert list(rows) == list(range(len(X0)))
    assert tails.tobytes() == np.array(stored).tobytes()
    est = flow.ensemble_omega(s, X0, T, dt)
    escaped = np.isnan(stored[-1]).any(axis=1)
    assert [e is None for e in est] == list(escaped) and escaped.sum() >= 1


@pytest.mark.parametrize("N", [1, 3, 1000])
def test_a_matrix_step_keeps_a_non_finite_column_non_finite(N):
    # metzler's R(hA) is upper triangular: R[1, 0] is an exact zero, so a
    # column (inf, 0) relies on inf * 0 = nan in the product
    R = flow._rk4_map(registry.get_system("metzler_linear").matrix, 1e-3)
    assert R[1, 0] == 0.0
    bad = [(np.inf, 0.0), (0.0, np.inf), (-np.inf, 1.0), (np.nan, 0.0),
           (0.0, np.nan), (np.inf, -np.inf)]
    for col in bad:
        for j in {0, N - 1}:
            X = np.ones((2, N))
            X[:, j] = col
            for _ in range(3):
                with np.errstate(invalid="ignore"):
                    X = R @ X
                assert not np.isfinite(X[:, j]).all()
                assert np.isfinite(np.delete(X, j, axis=1)).all()


def test_no_flat_march_asks_for_a_proof(monkeypatch):
    for attr in ("free_steps", "step_growth"):
        real = getattr(geometry.ManifoldSpec, attr)

        def spd_only(self, *args, real=real):
            assert self.kind == "spd", "a flat march asked for a proof"
            return real(self, *args)

        monkeypatch.setattr(geometry.ManifoldSpec, attr, spd_only)
    field = ConstantField(Orthant(2))
    for name in RUN_SYSTEMS:
        s, X0, times, T = _dying_rows(name)
        x0 = X0[-1]
        flow.integrate(s, x0, T)
        flow.states_at(s, X0, times, on_failure="mask")
        flow.tangent_at(s, X0, times, on_failure="mask")
        flow.tangent_flow(s, x0, min(T, 10.0))  # grow's Phi overflows later
        flow.ensemble_omega(s, X0, T)
        pf.propagate_ray_pairs(s, field, x0, RUN_RAYS[:1], RUN_RAYS[1:], T)
    spd = registry.get_system("spd_lyapunov")  # SPD still proves its runs
    flow.states_at(spd, flow.sample_states(spd, None, 10, 0), [1.0])


# ----------------------------------------------------- start rows' guard


def _off_chart_batch():
    return np.array([pack_sym(np.eye(2)), pack_sym(np.diag([1.0, -1.0])),
                     pack_sym(2.0 * np.eye(2))])


def test_masked_start_rows_off_the_manifold_read_nan():
    s, X0 = registry.get_system("spd_lyapunov"), _off_chart_batch()
    times = [0.0, 0.5, 1.0]
    on_chart = X0.copy()
    on_chart[1] = pack_sym(3.0 * np.eye(2))  # the same batch, row 1 valid
    xs = flow.states_at(s, X0, times, on_failure="mask")
    xt, ps = flow.tangent_at(s, X0, times, on_failure="mask")
    want = flow.states_at(s, on_chart, times, on_failure="mask")
    _, want_p = flow.tangent_at(s, on_chart, times, on_failure="mask")
    for x in (xs, xt):
        assert np.isnan(x[:, 1]).all()
        assert x[:, [0, 2]].tobytes() == want[:, [0, 2]].tobytes()
    assert np.isnan(ps[:, 1]).all()
    assert ps[:, [0, 2]].tobytes() == want_p[:, [0, 2]].tobytes()
    est = flow.ensemble_omega(s, X0, 2.0)
    ref = flow.ensemble_omega(s, on_chart, 2.0)
    assert est[1] is None
    for i in (0, 2):
        _assert_same_estimate(est[i], ref[i])
    # a non-finite start row on flat space reads nan at t = 0 too
    for name in ("coop2d", "metzler_linear"):
        X0 = np.array([[np.inf, 0.0], [1.0, 0.5]])
        xs = flow.states_at(registry.get_system(name), X0, [0.0, 1.0],
                            on_failure="mask")
        assert np.isnan(xs[:, 0]).all() and np.isfinite(xs[:, 1]).all()


def test_a_bad_start_raises_what_the_step_guard_raises():
    for name in ("coop2d", "metzler_linear", "spd_lyapunov"):
        s = registry.get_system(name)
        X0 = np.full((1, s.dim), 0.5)
        X0[0, 0] = np.nan
        for call in (flow.states_at, flow.tangent_at):
            with pytest.raises(FlowBlowupError) as err:
                call(s, X0, [1.0])
            assert err.value.time == 0.0
    s = registry.get_system("spd_lyapunov")
    for call in (flow.states_at, flow.tangent_at):
        with pytest.raises(ManifoldExitError) as err:
            call(s, _off_chart_batch(), [1.0])
        assert err.value.time == 0.0


# ---------------------------------------------------------- SPD sampling


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", [1, 25, 1000])
def test_spd_samples_are_the_per_row_draws_in_one_batch(n, N):
    s = flow.FlowSystem(geometry.spd(n), None, None, f"spd{n}")
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(N):  # the per-row draw: exp of a random symmetric B
            B = rng.uniform(-1.0, 1.0, (n, n))
            w, V = np.linalg.eigh(0.5 * (B + B.T))
            rows.append(pack_sym((V * np.exp(w)) @ V.T))
        batched = np.random.default_rng(seed)
        assert np.array_equal(flow.sample_states(s, 3.0, N, batched),
                              np.array(rows))
        assert batched.random() == rng.random()  # the stream continues
