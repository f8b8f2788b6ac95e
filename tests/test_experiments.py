import json

import numpy as np
import pytest

from conedyn import experiments, flow, positivity, registry, reports
from conedyn.conefield import ConstantField
from conedyn.cones import Orthant
from conedyn.errors import UnsupportedInputError
from conedyn.order import LEQ_STRICT, leq_flat
from helpers import tanh_fixed_point

ORTHANT2 = ConstantField(Orthant(2))
ORTHANT1 = ConstantField(Orthant(1))


@pytest.fixture(scope="module")
def coop():
    return registry.get_system("coop2d")


@pytest.fixture(scope="module")
def coop_report(coop):
    return experiments.generic_convergence(coop, ORTHANT2, box=3.0, N=100,
                                           T=100.0, seed=0)


def test_generic_convergence_coop2d(coop_report):
    rep = coop_report
    assert rep.dp_status == positivity.SDP
    assert rep.converged == rep.total == 100
    assert rep.escapes == 0
    assert len(rep.per_equilibrium) >= 2
    assert sum(e["count"] for e in rep.per_equilibrium) == rep.converged
    total = (rep.converged + rep.nonsingleton + rep.undetermined + rep.escapes)
    assert total == rep.total
    lo, hi = rep.interval
    assert 0.0 <= lo <= rep.converged_fraction <= hi <= 1.0


def test_generic_convergence_rows_carry_residuals(coop_report):
    for row in coop_report.samples:
        if row["outcome"] == "converged":
            assert row["residual"] < 10 * flow.EQ_TOL


def test_generic_convergence_bistable():
    s = registry.get_system("bistable1d")
    rep = experiments.generic_convergence(s, ORTHANT1, box=2.0, N=100,
                                          T=100.0, seed=1)
    assert rep.converged / rep.total >= 0.99
    s1 = tanh_fixed_point(2.0)
    pts = sorted(e["point"][0] for e in rep.per_equilibrium)
    # the two outer roots attract everything; the middle root gets ~0 mass
    assert len(pts) == 2
    assert abs(pts[0] + s1) < 1e-6 and abs(pts[1] - s1) < 1e-6
    grid = flow.find_equilibria(s, [np.array([v]) for v in (-1.5, 0.0, 1.5)])
    assert len(grid) == 3  # the unstable middle equilibrium exists


def test_generic_convergence_rotation_flags_precondition():
    s = registry.get_system("rotation2d")
    rep = experiments.generic_convergence(s, ORTHANT2, box=3.0, N=20,
                                          T=50.0, seed=0)
    assert rep.dp_status == positivity.VIOLATED
    assert rep.converged == 0
    assert rep.nonsingleton == 20


def test_generic_convergence_undetermined_is_honest(coop):
    # horizon far too short: the classifier must admit it
    rep = experiments.generic_convergence(coop, ORTHANT2, box=3.0, N=20,
                                          T=2.0, seed=0, dp_check=False)
    assert rep.undetermined > 0
    assert (rep.converged + rep.nonsingleton + rep.undetermined
            + rep.escapes) == rep.total


def test_generic_convergence_determinism(coop):
    a = experiments.generic_convergence(coop, ORTHANT2, 3.0, 30, 60.0, seed=9)
    b = experiments.generic_convergence(coop, ORTHANT2, 3.0, 30, 60.0, seed=9)
    ja = json.dumps(reports.sanitize(a.__dict__), sort_keys=True)
    jb = json.dumps(reports.sanitize(b.__dict__), sort_keys=True)
    assert ja == jb


@pytest.mark.parametrize("name", ["coop2d", "spd_lyapunov"])
def test_sample_states_prefix_does_not_depend_on_N(name):
    s = registry.get_system(name)
    full = experiments.sample_states(s, 3.0, 50, 4)
    assert np.array_equal(full[:7], experiments.sample_states(s, 3.0, 7, 4))


def test_pair_directions_do_not_reuse_state_draws(coop):
    # direction 1 is a conic combination of e1 and e2; drawn from sample
    # 977's uniforms u, it would be parallel to the weights 0.1 + 0.9 u
    X, Y = experiments._sample_ordered_pairs(coop, Orthant(2), 1000, 3.0, 0)
    d = (Y[1] - X[1]) / np.linalg.norm(Y[1] - X[1])
    w = 0.1 + 0.9 * (X[977] + 3.0) / 6.0
    assert not np.allclose(d, w / np.linalg.norm(w), rtol=0.0, atol=1e-6)


# ------------------------------------------------------------- basin scan


def test_basin_boundary_scan_localizes(coop):
    s_star = tanh_fixed_point(2.5)
    a_star = tanh_fixed_point(1.5)
    eqs = [np.array([s_star, s_star]), -np.array([s_star, s_star]),
           np.array([a_star, -a_star]), np.array([-a_star, a_star])]
    pairs = [(np.array([1.0, 1.0]), np.array([1.0, -1.5])),
             (np.array([-2.0, -1.0]), np.array([2.0, 1.0])),
             (np.array([0.5, 0.5]), np.array([-0.5, -0.5]))]
    scan = experiments.basin_boundary_scan(coop, eqs, pairs, classify_T=50.0)
    assert scan["max_width"] < 1e-3
    for tr in scan["transects"]:
        assert tr["labels"][0] != tr["labels"][1]


def test_basin_boundary_scan_rejects_same_basin(coop):
    s_star = tanh_fixed_point(2.5)
    eqs = [np.array([s_star, s_star]), -np.array([s_star, s_star])]
    with pytest.raises(ValueError):
        experiments.basin_boundary_scan(
            coop, eqs, [(np.array([1.0, 1.0]), np.array([2.0, 2.0]))])


# -------------------------------------------------------------- dichotomy


def test_dichotomy_coop2d(coop):
    rep = experiments.dichotomy_check(coop, ORTHANT2, pairs=60, T=100.0, seed=0)
    assert rep["violations"] == 0
    assert rep["cases"]["strict_order"] > 0
    assert rep["cases"]["equal_singleton"] > 0


def test_dichotomy_metzler_all_equal():
    s = registry.get_system("metzler_linear")
    rep = experiments.dichotomy_check(s, ORTHANT2, pairs=60, T=60.0, seed=0)
    assert rep["violations"] == 0
    assert rep["cases"]["equal_singleton"] == 60 - rep["undetermined_excluded"]
    assert rep["cases"]["strict_order"] == 0


def test_dichotomy_needs_flat_field(coop):
    from conedyn.conefield import HomogeneousPSDField
    with pytest.raises(UnsupportedInputError):
        experiments.dichotomy_check(
            registry.get_system("spd_lyapunov"), HomogeneousPSDField(2),
            pairs=5, T=1.0)


# -------------------------------------------------------------- criterion


def test_criterion_coop2d_triggers_confirmed(coop):
    rep = experiments.convergence_criterion_check(
        coop, ORTHANT2, x_samples=60, T_scan=[0.5, 1.0, 2.0, 5.0], seed=0)
    assert rep["triggered"] == rep["confirmed"] > 0


def test_criterion_trigger_sign_oracle(coop):
    # f(0.1, 0.1) = (-0.1 + tanh(0.25), ...) points into the orthant,
    # so the forward comparison must trigger
    x = np.array([0.1, 0.1])
    assert -0.1 + np.tanh(0.25) > 0.0
    xt = flow.states_at(coop, x[None, :], [0.5])[0, 0]
    assert leq_flat(Orthant(2), x, xt).relation == LEQ_STRICT


def test_criterion_metzler_small_T_no_trigger():
    # A (1,1) = (1,-1) is outside both orthants, so tiny horizons cannot
    # trigger from x = (1,1)
    s = registry.get_system("metzler_linear")
    rep = experiments.convergence_criterion_check(
        s, ORTHANT2, x_samples=1, T_scan=[0.05, 0.1], seed=0, box=(1.0, 1.0 + 1e-9))
    assert rep["triggered"] == 0


def test_criterion_equilibrium_sample_trivially_confirmed(coop):
    rep = experiments.convergence_criterion_check(
        coop, ORTHANT2, x_samples=1, T_scan=[1.0], seed=0,
        box=(0.0, 1e-12))  # sample pinned (numerically) at the origin
    assert rep["triggered"] == 1
    assert rep["confirmed"] == 1


def test_criterion_bistable_all_trigger():
    s = registry.get_system("bistable1d")
    rep = experiments.convergence_criterion_check(
        s, ORTHANT1, x_samples=60, T_scan=[0.5, 1.0], seed=0, box=2.0)
    assert rep["triggered"] == 60  # scalar flow: always comparable in time
    assert rep["confirmed"] == 60


# -------------------------------------------------------------- trichotomy


def test_trichotomy_interior_of_basin(coop):
    rep = experiments.trichotomy_check(coop, ORTHANT2, np.array([1.0, 1.0]),
                                       n_seq=8, T=100.0)
    assert rep["branch"] == 2 and rep["consistent"]


def test_trichotomy_unstable_origin(coop):
    s_star = tanh_fixed_point(2.5)
    rep = experiments.trichotomy_check(coop, ORTHANT2, np.zeros(2),
                                       n_seq=8, T=100.0)
    assert rep["branch"] == 3 and rep["consistent"]
    assert np.allclose(rep["limits"][0], [-s_star, -s_star], atol=1e-6)
    assert np.allclose(rep["limit_x0"], [0.0, 0.0], atol=1e-9)


def test_trichotomy_bistable_origin():
    s = registry.get_system("bistable1d")
    s1 = tanh_fixed_point(2.0)
    rep = experiments.trichotomy_check(s, ORTHANT1, np.array([0.0]),
                                       n_seq=8, T=100.0)
    assert rep["branch"] == 3 and rep["consistent"]
    assert abs(rep["limits"][0][0] + s1) < 1e-6


# ---------------------------------------------------------------- colimit


def test_colimit_coop2d(coop):
    rep = experiments.colimit_check(coop, ORTHANT2, pairs=50, T=100.0, seed=0)
    assert rep["violations"] == 0
    assert 0 < rep["checked_pairs"] < 50  # distinct-limit pairs are excluded


def test_colimit_metzler_all_checked():
    s = registry.get_system("metzler_linear")
    rep = experiments.colimit_check(s, ORTHANT2, pairs=40, T=60.0, seed=0)
    assert rep["violations"] == 0
    assert rep["checked_pairs"] > 0
