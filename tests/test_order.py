import numpy as np
import pytest

from conedyn.conefield import ConstantField
from conedyn.cones import Lorentz, Orthant, Polyhedral, PSDCone
from conedyn.errors import DimensionMismatchError, ProbeConstructionError
from conedyn.geometry import pack_sym
from conedyn.order import (
    CAUSAL,
    CHRONOLOGICAL,
    INC,
    STRICT,
    WEAK,
    FlatOrderOracle,
    MinkowskiOracle,
    continuity_probe,
    flat_order_properties,
    minkowski_future,
    minkowski_relations,
    push_up_probe,
    quasi_closed_probe,
    reachable_grid,
    relations,
)

REGION = ((0.0, 2.0), (-2.0, 2.0))
LIGHT_CONE = ConstantField(Lorentz(2))


# ------------------------------------------------------------- one pair


def test_leq_flat_strict():
    assert relations(Orthant(2), np.zeros(2), np.array([1.0, 2.0])) == STRICT


def test_leq_flat_reflexive():
    x = np.array([0.3, -0.7])
    assert relations(Orthant(2), x, x) == WEAK


def test_leq_flat_lorentz_incomparable():
    assert relations(Lorentz(2), np.zeros(2), np.array([1.0, 2.0])) == INC


def test_leq_loewner():
    I = pack_sym(np.eye(2))
    two = pack_sym(2.0 * np.eye(2))
    indef = pack_sym(np.diag([2.0, 0.5]))
    assert relations(PSDCone(2), I, two) == STRICT
    assert relations(PSDCone(2), I, indef) == INC
    assert relations(PSDCone(2), I, I) == WEAK


# ------------------------------------------------------------ batched codes

# the polyhedral cone spanned by (1, 0) and (1, 1), skew to the axes
SKEW = Polyhedral([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, -1.0]])
CONES = [Orthant(2), Orthant(3), Lorentz(2), Lorentz(3), PSDCone(2), SKEW]


def _contains_codes(c, X, Y, tol):
    """Per-row reference: the one-row margin of y - x against tol, as a code."""
    X, Y = np.broadcast_arrays(np.asarray(X, float), np.asarray(Y, float))
    codes = np.empty(X.shape[:-1], dtype=np.int8)
    for idx in np.ndindex(codes.shape):
        m = c.margin(Y[idx] - X[idx])
        codes[idx] = STRICT if m > tol else (INC if m < -tol else WEAK)
    return codes


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("cone", CONES, ids=lambda c: f"{c.name}{c.dim}")
def test_relations_match_per_row_contains(cone, tol):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(4, 6, cone.dim))
    Y = X + rng.normal(size=X.shape)
    Y[0] = X[0]  # y = x
    Y[1, :3] = X[1, :3] + cone.boundary_rays(rng, 3)
    Y[1, 3:] = X[1, 3:] + cone.interior_witness()
    Y[2, :2] = np.nan
    got = relations(cone, X, Y, tol)
    want = _contains_codes(cone, X, Y, tol)
    assert got.dtype == np.int8 and got.shape == (4, 6)
    assert np.array_equal(got, want)
    assert np.all(got[0] == WEAK) and np.all(got[2, :2] == WEAK)
    assert np.all(got[1, 3:] == STRICT)
    assert np.array_equal(relations(cone, X[1], Y[1], tol), want[1])  # (k,)
    # one x against a (a, b) block of y
    assert np.array_equal(relations(cone, X[3, 0], Y[:2], tol),
                          _contains_codes(cone, X[3, 0], Y[:2], tol))


def test_relations_one_pair_and_bad_input():
    c = Orthant(2)
    assert relations(c, np.zeros(2), np.array([1.0, 2.0])) == STRICT
    assert relations(c, np.zeros(2), np.array([1.0, -2.0])) == INC
    with pytest.raises(ValueError):
        relations(c, np.zeros(2), np.ones(2), tol=-1e-9)
    with pytest.raises(DimensionMismatchError):
        relations(c, np.zeros(3), np.ones(3))


def _dyadic(rng, lo, hi, size):
    return np.round(rng.uniform(lo, hi, size) * 2.0 ** 20) / 2.0 ** 20


def test_minkowski_relations_match_the_inequalities():
    rng = np.random.default_rng(11)
    k = 40
    P = _dyadic(rng, -2.0, 2.0, (5, k, 2))
    s = _dyadic(rng, 0.1, 2.0, (5, k))
    u = _dyadic(rng, -1.0, 1.0, (5, k)) * s  # |u| <= s
    Q = P.copy()
    Q[0] += np.stack([s[0], np.where(u[0] > 0, s[0], -s[0])], axis=-1)  # null
    Q[1] += np.stack([s[1] + 0.25, u[1]], axis=-1)  # timelike
    Q[2] += np.stack([u[2], s[2] + 0.25], axis=-1)  # spacelike
    Q[4, :, 0] = np.nan  # Q[3] = P[3]: equal points
    got = minkowski_relations(P, Q)
    assert got.dtype == np.int8 and got.shape == (5, k)
    expected = [WEAK, STRICT, INC, WEAK, INC]
    for g, e in enumerate(expected):
        assert np.all(got[g] == e)
    for idx in np.ndindex(got.shape):
        p, q = P[idx], Q[idx]
        dt, dx = q[0] - p[0], abs(q[1] - p[1])
        assert got[idx] == (STRICT if dt > dx else WEAK if dt >= dx else INC)
    # leading shape (a, b): every p against every q
    block = minkowski_relations(P[1, :3, None], Q[1, None, :4])
    assert block.shape == (3, 4)
    for a in range(3):
        for b in range(4):
            assert block[a, b] == minkowski_relations(P[1, a], Q[1, b])
    with pytest.raises(DimensionMismatchError):
        minkowski_relations(np.zeros(3), np.ones(3))


# ------------------------------------------------------------ minkowski sets


def test_minkowski_point_classifications():
    # the causal future holds WEAK and STRICT points, the chronological
    # future STRICT ones only
    got = minkowski_relations(np.zeros(2), [[2.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    assert got.tolist() == [STRICT, WEAK, INC]


def test_chronological_subset_of_causal():
    fut_c = minkowski_future(np.zeros(2), CAUSAL, REGION, 101)
    fut_i = minkowski_future(np.zeros(2), CHRONOLOGICAL, REGION, 101)
    assert not np.any(fut_i.grid & ~fut_c.grid)


def test_minkowski_relation_null():
    assert minkowski_relations(np.zeros(2), np.array([1.0, 1.0])) == WEAK
    assert minkowski_relations(np.zeros(2), np.array([2.0, 1.0])) == STRICT


def test_degenerate_region_rejected():
    with pytest.raises(ValueError):
        minkowski_future(np.zeros(2), CAUSAL, ((0.0, 0.0), (-1.0, 1.0)), 11)
    with pytest.raises(ValueError):
        minkowski_future(np.zeros(2), CAUSAL, REGION, 1)


# ------------------------------------------------------------ reachability


def test_reachable_grid_matches_analytic_future():
    fut = minkowski_future(np.zeros(2), CAUSAL, REGION, 101)
    reach = reachable_grid(LIGHT_CONE, np.zeros(2), REGION, 101, 16)
    assert reach.agreement(fut) >= 0.99


def test_reachable_grid_orthant_corner_fills_quadrant():
    field = ConstantField(Orthant(2))
    reach = reachable_grid(field, np.array([0.0, -2.0]),
                           ((0.0, 2.0), (-2.0, 2.0)), 51, 8)
    assert np.all(reach.grid)


def test_reachable_grid_rejects_a_start_outside_the_region():
    for p in ([-1.0, 0.0], [5.0, 5.0], [np.nan, 0.0], [0.5, np.inf]):
        with pytest.raises(ValueError):
            reachable_grid(LIGHT_CONE, np.array(p), REGION, 101, 16)


def test_reachable_grid_start_on_the_region_edge_runs():
    # (0, 0) lies on the t = 0 edge; its future fills the analytic cone
    reach = reachable_grid(LIGHT_CONE, np.zeros(2), REGION, 101, 16)
    fut = minkowski_future(np.zeros(2), CAUSAL, REGION, 101)
    assert reach.grid[0, 50] and reach.agreement(fut) >= 0.99


def test_reachable_grid_requires_enough_directions():
    with pytest.raises(ValueError):
        reachable_grid(LIGHT_CONE, np.zeros(2), REGION, 11, 4)


# ----------------------------------------------------------------- probes


def test_quasi_closed_flat_orthant():
    rep = quasi_closed_probe(FlatOrderOracle(Orthant(2)), 200, seed=0)
    assert rep["violations"] == 0


def test_quasi_closed_minkowski_null_pairs():
    rep = quasi_closed_probe(MinkowskiOracle(), 200, seed=0)
    assert rep["violations"] == 0


def test_quasi_closed_specific_boundary_pairs():
    # the orthant boundary pair (0,0) <= (1,0) and the null Minkowski pair
    flat = FlatOrderOracle(Orthant(2))
    assert flat.relations(np.zeros(2), np.array([1.0, 0.0])) == WEAK
    mink = MinkowskiOracle()
    assert mink.relations(np.zeros(2), np.array([1.0, 1.0])) == WEAK
    assert mink.relations(np.zeros(2), np.zeros(2)) == WEAK


def test_quasi_closed_probe_rejects_a_boundary_shift():
    # shifting along a boundary ray does not make the sequences strict
    oracle = FlatOrderOracle(Orthant(2))
    oracle.shift = np.array([1.0, 0.0])
    with pytest.raises(ProbeConstructionError):
        quasi_closed_probe(oracle, 50, seed=0)


def test_boundary_pairs_are_weakly_ordered():
    rng = np.random.default_rng(4)
    for oracle in (FlatOrderOracle(Lorentz(3)), MinkowskiOracle()):
        X, Y = oracle.boundary_pairs(rng, 100)
        assert X.shape == Y.shape == (100, len(oracle.shift))
        assert np.all(oracle.relations(X, Y) == WEAK)


def test_push_up_probe_clean():
    rep = push_up_probe(1000, seed=0)
    assert rep["violations"] == 0


def test_openness_of_strict_order():
    # perturbing both endpoints inside the margin keeps strict order
    rng = np.random.default_rng(1)
    c = Orthant(2)
    checked = 0
    while checked < 100:
        x = rng.normal(size=2)
        y = x + rng.uniform(0.1, 2.0, 2)
        if relations(c, x, y) != STRICT:
            continue
        checked += 1
        margin = c.margin(y - x)
        budget = 0.1 * margin * np.linalg.norm(y - x)
        for _ in range(5):
            dx = rng.normal(size=2)
            dy = rng.normal(size=2)
            x2 = x + budget * dx / np.linalg.norm(dx)
            y2 = y + budget * dy / np.linalg.norm(dy)
            assert relations(c, x2, y2) == STRICT


def test_flat_order_properties_clean():
    rep = flat_order_properties(Orthant(2), 1000, seed=0)
    assert rep["antisymmetry_violations"] == 0
    assert rep["transitivity_violations"] == 0


def test_antisymmetry_forces_equality():
    c = Orthant(2)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.normal(size=2)
        y = x + rng.uniform(0, 1.0) * np.array([1.0, 0.4])
        fwd = relations(c, x, y) != INC
        rev = relations(c, y, x) != INC
        if fwd and rev:
            assert np.linalg.norm(x - y) < 1e-12


def test_transitivity_on_chains():
    c = Orthant(3)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = rng.normal(size=3)
        y = x + rng.uniform(0, 1, 3)
        z = y + rng.uniform(0, 1, 3)
        assert relations(c, x, y) != INC
        assert relations(c, y, z) != INC
        assert relations(c, x, z) != INC


# -------------------------------------------------------------- continuity


def test_continuity_inner_config():
    rep = continuity_probe("inner", np.zeros(2), [np.array([-2.0, 0.0])], [0.5])
    assert rep["max_delta_passing"] == 0.5


def test_continuity_outer_config():
    rep = continuity_probe("outer", np.zeros(2), [np.array([0.0, 3.0])], [0.5])
    assert rep["max_delta_passing"] == 0.5


def test_continuity_empty_k_vacuous():
    rep = continuity_probe("inner", np.zeros(2), [], [0.1, 0.5, 2.0])
    assert rep["passing"] == [True, True, True]
    assert rep["max_delta_passing"] == 2.0


def test_continuity_precondition_enforced():
    with pytest.raises(ValueError):
        continuity_probe("inner", np.zeros(2), [np.array([0.0, 3.0])], [0.5])
    with pytest.raises(ValueError):
        continuity_probe("outer", np.zeros(2), [np.array([-2.0, 0.0])], [0.5])


def test_psd_boundary_pair_probe():
    rep = quasi_closed_probe(FlatOrderOracle(PSDCone(2)), 100, seed=5)
    assert rep["violations"] == 0


def test_continuity_requires_k_by_2_points():
    # a flat list of four numbers is not two points
    with pytest.raises(DimensionMismatchError):
        continuity_probe("inner", np.zeros(2), [-2.0, 0.0, -3.0, 0.0], [0.5])
    with pytest.raises(DimensionMismatchError):
        continuity_probe("inner", np.zeros(2), [np.array([-2.0, 0.0, 7.0])],
                         [0.5])
    with pytest.raises(ValueError, match="precondition failed: K not in"):
        continuity_probe("inner", np.zeros(2), [[-2.0, 0.0], [0.0, 3.0]], [0.5])
    with pytest.raises(ValueError, match="precondition failed: K meets"):
        continuity_probe("outer", np.zeros(2), [[0.0, 3.0], [-2.0, 0.0]], [0.5])


def test_continuity_batch_matches_per_point_inequalities():
    p = np.array([0.25, -0.5])
    K = np.array([[-2.0, 0.0], [-1.0, -0.25], [-3.0, 1.5]])
    deltas = [0.05, 0.2, 0.5, 0.8, 1.2]
    rep = continuity_probe("inner", p, K, deltas, angular_resolution=32)
    angles = 2.0 * np.pi * np.arange(32) / 32
    for d, ok in zip(deltas, rep["passing"]):
        want = all((p[0] + d * np.cos(a)) - k[0] > abs(p[1] + d * np.sin(a) - k[1])
                   for a in angles for k in K)
        assert ok == want
    assert True in rep["passing"] and False in rep["passing"]
