import numpy as np
import pytest

from conedyn import flow, positivity, registry
from conedyn.conefield import ConstantField, HomogeneousPSDField
from conedyn.cones import Lorentz, Orthant, Polyhedral
from conedyn.errors import UnsupportedInputError
from helpers import constant_system, linear_system

ORTHANT2 = ConstantField(Orthant(2))


@pytest.fixture(scope="module")
def coop():
    return registry.get_system("coop2d")


def test_check_dp_metzler_is_dp_not_sdp():
    s = registry.get_system("metzler_linear")
    v = positivity.check_dp(s, ORTHANT2, 30, 8, [0.1, 1.0, 5.0], seed=0)
    assert v.status == positivity.DP
    assert v.worst_margin >= -1e-7
    # the Jordan direction e1 stays on the boundary, blocking SDP
    assert v.boundary_margin <= 1e-6


def test_check_dp_coop2d_sdp(coop):
    v = positivity.check_dp(coop, ORTHANT2, 50, 8, [0.1, 1.0, 5.0], seed=0)
    assert v.status == positivity.SDP
    assert v.boundary_margin > 1e-6


def test_check_dp_rotation_violated_with_witness():
    s = registry.get_system("rotation2d")
    v = positivity.check_dp(s, ORTHANT2, 20, 8, [0.1, 1.0, 5.0], seed=3)
    assert v.status == positivity.VIOLATED
    assert v.worst_margin < -1e-6
    assert v.witness is not None
    # witness re-runs to the same verdict (reproducibility)
    v2 = positivity.check_dp(s, ORTHANT2, 20, 8, [0.1, 1.0, 5.0], seed=3)
    assert v2.witness == v.witness
    assert v2.worst_margin == v.worst_margin


@pytest.mark.parametrize("t", [380.0, 420.0, 700.0])
def test_a_damped_violation_stays_violated_at_long_horizons(t):
    # the tangent images shrink like e^-t: their squares underflow to 0 from
    # t ~ 370, where a zero norm read as the zero row's margin 0 (DP)
    s = registry._linear_system([[-1.0, 1.0], [-1.0, -1.0]], "damped")
    v = positivity.check_dp(s, ORTHANT2, x_samples=4, ray_samples=4,
                            times=[t], seed=0, dt=1e-2)
    assert v.status == "violated" and v.worst_margin < -0.5


def test_check_dp_spd_lyapunov_dp_only():
    s = registry.get_system("spd_lyapunov")
    v = positivity.check_dp(s, HomogeneousPSDField(2), 20, 8,
                            [0.1, 1.0, 5.0], seed=0)
    assert v.status == positivity.DP  # rank-one rays stay rank one
    assert v.worst_margin >= -1e-7
    assert abs(v.boundary_margin) < 1e-9


def test_check_dp_rejects_bad_times(coop):
    with pytest.raises(ValueError):
        positivity.check_dp(coop, ORTHANT2, 5, 5, [0.0, 1.0], seed=0)


# --------------------------------------------------------- cross positivity


def test_cross_positivity_metzler():
    s = linear_system([[-5.0, 1.0], [2.0, -3.0]])
    v = positivity.cross_positivity_flat(s, Orthant(2), 100, seed=0)
    assert v.status == positivity.DP


def test_cross_positivity_negative_offdiagonal():
    s = linear_system([[-1.0, -0.1], [1.0, -1.0]])
    v = positivity.cross_positivity_flat(s, Orthant(2), 100, seed=0)
    assert v.status == positivity.VIOLATED
    assert np.allclose(v.witness["ray"], [0.0, 1.0])  # g = e2
    assert np.allclose(v.witness["facet_normal"], [1.0, 0.0])  # lambda = e1
    assert v.worst_margin == pytest.approx(-0.1, abs=1e-12)


def test_cross_positivity_coop2d(coop):
    v = positivity.cross_positivity_flat(coop, Orthant(2), 1000, seed=0)
    assert v.status == positivity.DP
    # oracle: off-diagonal entries are 0.5 sech^2(.) > 0 everywhere
    assert v.worst_margin > 0.0


def test_cross_positivity_unsupported_inputs(coop):
    with pytest.raises(UnsupportedInputError):
        positivity.cross_positivity_flat(coop, Lorentz(2), 10, seed=0)
    spd_sys = registry.get_system("spd_lyapunov")
    with pytest.raises(UnsupportedInputError):
        positivity.cross_positivity_flat(spd_sys, Orthant(3), 10, seed=0)


def reference_cross_positivity(s, c, x_samples, seed):
    """cross_positivity_flat with one ``jac`` call per state: (worst,
    witness)."""
    gens = c.generators() / np.linalg.norm(c.generators(), axis=1,
                                           keepdims=True)
    worst, witness = np.inf, None
    for x in flow.sample_states(s, 2.0, x_samples, seed):
        J = s.jac(x)
        for g in gens:
            for lam in c.facet_normals():
                if abs(float(np.dot(lam, g))) >= 1e-12:
                    continue
                val = float(np.dot(lam, J @ g))
                if val < worst:
                    worst = val
                    witness = {"x0": x.tolist(), "ray": g.tolist(),
                               "facet_normal": lam.tolist(), "t": 0.0}
    return worst, witness


@pytest.mark.parametrize("name", ["coop2d", "metzler_linear", "rotation2d"])
def test_batched_cross_positivity_matches_the_per_state_reference(name):
    s = registry.get_system(name)
    wedge = Polyhedral([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, -1.0]])
    for c in (Orthant(2), wedge):
        for seed in range(4):
            v = positivity.cross_positivity_flat(s, c, 200, seed)
            worst, witness = reference_cross_positivity(s, c, 200, seed)
            assert v.witness == witness
            assert v.worst_margin == pytest.approx(worst, rel=1e-14, abs=0.0)


def test_cross_positivity_agrees_with_check_dp_in_sign(coop):
    for name in ("coop2d", "metzler_linear", "rotation2d"):
        s = registry.get_system(name)
        cross = positivity.cross_positivity_flat(s, Orthant(2), 50, seed=1)
        full = positivity.check_dp(s, ORTHANT2, 20, 6, [0.1, 1.0], seed=1)
        cross_ok = cross.status == positivity.DP
        full_ok = full.status in (positivity.DP, positivity.SDP)
        assert cross_ok == full_ok


# --------------------------------------------------------- flat equivalence


def test_flat_equivalence_metzler():
    s = registry.get_system("metzler_linear")
    rep = positivity.flat_equivalence(s, Orthant(2), pairs=200, T=1.0, seed=0)
    assert rep["agreement"] == 1.0
    assert rep["dp_status"] == positivity.DP
    assert rep["pairs_violated"] == 0


def test_flat_equivalence_rotation_both_fail():
    s = registry.get_system("rotation2d")
    rep = positivity.flat_equivalence(s, Orthant(2), pairs=100, T=4.0, seed=0)
    assert rep["agreement"] == 1.0
    assert rep["dp_status"] == positivity.VIOLATED
    assert rep["pairs_violated"] > 0


def test_flat_equivalence_identity_flow():
    s = constant_system([0.0, 0.0], "zero_field")
    rep = positivity.flat_equivalence(s, Orthant(2), pairs=100, T=1.0, seed=0)
    assert rep["agreement"] == 1.0
    assert rep["pairs_ordered"] == 100


# -------------------------------------------------------------- invariants


def test_sdp_flow_preserves_and_strictifies_order(coop):
    # order is kept at every stored time and becomes strict by t = 0.1
    rng = np.random.default_rng(7)
    cone = Orthant(2)
    for _ in range(200):
        x = rng.uniform(-2, 2, 2)
        w = rng.uniform(0.1, 1.0, 2) @ np.eye(2)
        y = x + w / np.linalg.norm(w)
        caught = flow.states_at(coop, np.vstack([x, y]), [0.1, 0.5, 1.0])
        for ti in range(3):
            diff = caught[ti, 1] - caught[ti, 0]
            assert cone.margin(diff) > 0.0  # strictly interior


def test_dp_verdict_invariant_under_representation_swap():
    rng = np.random.default_rng(11)
    poly = Polyhedral(np.eye(2), np.eye(2))  # the orthant, polyhedral rep
    for k in range(50):
        A = rng.uniform(-1.0, 1.0, (2, 2))
        A[np.diag_indices(2)] = -rng.uniform(0.5, 1.5, 2)
        s = linear_system(A, f"rand{k}")
        v1 = positivity.check_dp(s, ConstantField(Orthant(2)), 10, 6,
                                 [0.5, 1.0], seed=k)
        v2 = positivity.check_dp(s, ConstantField(poly), 10, 6,
                                 [0.5, 1.0], seed=k)
        assert v1.status == v2.status



# ------------------------------------------------ RK4's positivity threshold


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_a_refutation_by_the_rk4_step_map_is_inconclusive(coop, seed):
    # coop2d is SDP, but RK4's step map at h = 4 is not a positive map: the
    # images it pushes out of the orthant refute the integrator, not the flow
    times = [0.1, 1.0, 5.0]
    v = positivity.check_dp(coop, ORTHANT2, 3, 8, times, seed=seed, dt=4.0)
    assert v.status == positivity.INCONCLUSIVE and v.worst_margin < -1e-6
    assert v.params["rk4_step_not_positive"] is True
    small = positivity.check_dp(coop, ORTHANT2, 3, 8, times, seed=seed,
                                dt=0.5)
    assert small.status == positivity.SDP
    assert "rk4_step_not_positive" not in small.params


@pytest.mark.parametrize("dt", [flow.DT_DEFAULT, 0.5, 4.0])
def test_a_flow_that_is_not_positive_stays_violated_at_any_step(dt):
    # the rotation fails at DT_DEFAULT too, so no step size explains it
    s = registry.get_system("rotation2d")
    v = positivity.check_dp(s, ORTHANT2, 20, 8, [0.1, 1.0, 5.0], seed=3,
                            dt=dt)
    assert v.status == positivity.VIOLATED
    assert "rk4_step_not_positive" not in v.params


def test_the_rk4_map_of_a_metzler_matrix_is_positive_for_h_at_most_1():
    # A + alpha I >= 0 with alpha = 1, and RK4's stability polynomial is
    # absolutely monotonic on [-1, 0]: R(hA) >= 0 whenever h alpha <= 1
    A = registry.get_system("metzler_linear").matrix
    for h in np.linspace(0.0, 1.0, 101):
        assert flow._rk4_map(A, h).min() >= 0.0
    assert flow._rk4_map(A, 2.0).min() < 0.0  # and not at every h
