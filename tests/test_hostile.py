"""Every public function and method of ``cones``, ``order``, ``flow``,
``pf`` and ``positivity`` under hostile input: nan, +-inf, 1e+-300, empty,
misshapen and 0-d arrays.

A call must return its documented values or raise a ``ConedynError`` or
``ValueError``.  Any other exception fails, and so does any warning (a
RuntimeWarning from an inf or nan reaching arithmetic, say).  ``CASES``
names one case per public function or method (of a public class or of
a base of one), found with ``ast`` as ``test_parameters`` finds
defaults; a public name without a case fails.  Parameters that take an
object (a cone, a field, an oracle, a generator, a system) get valid
objects; every number, array and size parameter gets the hostile values.
Inputs are drawn from one seeded generator per case.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conedyn import cones, flow, order, pf, positivity, registry
from conedyn.conefield import ConstantField
from conedyn.cones import Lorentz, Orthant, Polyhedral, PSDCone
from conedyn.errors import ConedynError
from conedyn.order import INC, STRICT, WEAK

SRC = Path(__file__).resolve().parents[1] / "src" / "conedyn"
MODULES = {"cones": cones, "order": order, "flow": flow, "pf": pf,
           "positivity": positivity}
ENTRIES = (math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300)
# sizes, counts and seeds: none is a nonnegative integer a caller may pass
BAD_COUNTS = (math.nan, math.inf, -math.inf, 1e300, 1e-300, -1, 2.5, True,
              np.float64(3.0), np.array(3), np.ones(2), "3")
REGION = ((0.0, 2.0), (-2.0, 2.0))
RAISED = object()


def all_cones():
    return [Orthant(2), Lorentz(3), PSDCone(2),
            Polyhedral([[1, 0], [1, 1]], [[0, 1], [1, -1]])]


def attempt(fn, *args):
    """fn(*args), or RAISED when it raises an error the API documents."""
    try:
        return fn(*args)
    except (ConedynError, ValueError):
        return RAISED


def raises(fn, *args):
    assert attempt(fn, *args) is RAISED, (fn, args)


def hostile_rows(rng, dim):
    """Arrays of rows of length dim, each holding one hostile entry kind at
    seeded places (at least one), then empty, misshapen and 0-d arrays."""
    out = []
    for e in ENTRIES:
        A = rng.normal(size=(5, dim))
        A[rng.random(A.shape) < 0.4] = e
        A[0, 0] = e
        out.append(A)
    misshapen = [np.empty((0, dim)), np.empty(0), np.ones((3, dim + 1)),
                 np.ones((2, 3, dim)), np.float64(1.0), np.array(math.nan)]
    return out, misshapen


def finite_rows(A):
    return np.isfinite(A).all(axis=-1)


def check_margins(m, V):
    """margins' documented values: nan exactly on non-finite rows, and a
    normalized slack on finite ones: at most 1, at least -sqrt(2) (the
    Lorentz slack t - |x| of (-1, 1) over its norm)."""
    fin = finite_rows(V)
    assert m.shape == V.shape[:-1]
    assert np.array_equal(np.isnan(m), ~fin)
    assert np.all((m[fin] <= 1.0 + 1e-12) & (m[fin] >= -math.sqrt(2) - 1e-12))


# -------------------------------------------------------------- cones cases


def case_margins(rng):
    for c in all_cones():
        good, bad = hostile_rows(rng, c.dim)
        for V in good:
            check_margins(c.margins(V), V)
            for row in V:
                m = c.margin(row)
                assert isinstance(m, float)
                assert math.isnan(m) != bool(np.isfinite(row).all())
        assert c.margins(np.empty((0, c.dim))).shape == (0,)
        for V in bad[1:]:
            if np.ndim(V) and np.shape(V)[-1] == c.dim:  # (2, 3, dim)
                assert c.margins(V).shape == (2, 3)
                raises(c.margin, V)
            else:
                raises(c.margins, V)
                raises(c.margin, V)


def case_dual_contains(rng):
    for c in all_cones():
        good, bad = hostile_rows(rng, c.dim)
        for V in good:
            for row in V:
                got = c.dual_contains(row)
                assert isinstance(got, bool)
                assert not got or np.isfinite(row).all()
        # a positive multiple of a dual vector stays dual
        w = c.interior_witness()
        assert all(c.dual_contains(s * w) for s in (1e300, 1e-300))
        for V in bad:
            raises(c.dual_contains, V)


def case_hilbert_distances(rng):
    for c in all_cones():
        good, bad = hostile_rows(rng, c.dim)
        w = c.interior_witness()
        for V in good:
            V = np.where(V == 0.0, 1.0, V)  # a zero row is a ValueError
            for U, W in [(V, w), (w, V), (V, V[::-1])]:
                d = c.hilbert_distances(U, W)
                both = finite_rows(np.broadcast_to(U, V.shape)) & \
                    finite_rows(np.broadcast_to(W, V.shape))
                assert np.all(d[~both] == math.inf)
                assert np.all(d >= 0.0)
        scaled = [c.hilbert_distances(s * w, w) for s in (1e300, 1e-300)]
        assert np.allclose(scaled, 0.0, atol=1e-12)
        raises(c.hilbert_distances, np.zeros(c.dim), w)
        for V in bad:
            if np.ndim(V) and np.shape(V)[-1] == c.dim:
                assert c.hilbert_distances(V + w, w).shape == np.shape(V)[:-1]
            else:
                raises(c.hilbert_distances, V, w)


def case_no_arguments(rng):
    """generators, facet_normals, interior_witness and unit_rays take no
    hostile argument: each returns finite rows of the cone."""
    for c in all_cones():
        w = c.interior_witness()
        assert w.shape == (c.dim,) and c.margin(w) > 0.0
        for rows in (c.generators(), c.facet_normals(), c.unit_rays(rng)):
            if rows is not None:
                assert rows.shape[1:] == (c.dim,) and np.isfinite(rows).all()


def case_boundary_rays(rng):
    for c in all_cones():
        assert c.boundary_rays(rng, 0).shape == (0, c.dim)
        R = c.boundary_rays(rng, np.int64(3))
        assert R.shape == (3, c.dim) and np.allclose(c.margins(R), 0.0)
        for k in BAD_COUNTS:
            raises(c.boundary_rays, rng, k)


def case_sized_constructors(rng):
    for cls, least in [(Lorentz, 2), (PSDCone, 1), (Orthant, 1)]:
        assert cls(least).n == least
        for n in BAD_COUNTS + (least - 1, 0, 2 ** 70):
            raises(cls, n)


def case_polyhedral(rng):
    G, L = [[1, 0], [1, 1]], [[0, 1], [1, -1]]
    ref = Polyhedral(G, L)
    for s in (1e300, 1e-300):  # exact in scale: the same unit data
        c = Polyhedral(np.multiply(s, G), np.multiply(s, L),
                       s * ref.interior_witness())
        assert np.allclose(c.facet_normals(), ref.facet_normals())
        assert np.allclose(c.interior_witness(), ref.interior_witness())
        assert np.allclose(c.unit_rays(rng), ref.unit_rays(rng))
    for e in ENTRIES:
        for args in [(np.where(rng.random((2, 2)) < 0.5, e, G), L),
                     (G, np.where(rng.random((2, 2)) < 0.5, e, L)),
                     (G, L, [e, 1.0])]:
            c = attempt(Polyhedral, *args)
            if c is not RAISED:  # only 1e+-300 entries may build a cone
                assert abs(e) in (1e300, 1e-300)
                assert np.isfinite(c.interior_witness()).all()
        raises(Polyhedral, [[e, e]], L)
    _, bad = hostile_rows(rng, 2)
    for A in bad:
        raises(Polyhedral, A, L)
        raises(Polyhedral, G, A)
        if not (np.ndim(A) == 2 and np.shape(A)[-1] == 2):
            raises(Polyhedral, G, L, A)


def case_conic_combinations(rng):
    R = Orthant(2).unit_rays(rng)
    C = cones.conic_combinations(R, 4, rng)
    assert C.shape == (4, 2) and np.allclose(np.linalg.norm(C, axis=1), 1.0)
    tiny = cones.conic_combinations(1e-100 * R, 2, rng)
    assert np.allclose(np.linalg.norm(tiny, axis=1), 1.0)
    for e in ENTRIES:
        H = R.copy()
        H[0, 0] = e
        got = attempt(cones.conic_combinations, H, 3, rng)
        if got is not RAISED:
            assert np.allclose(np.linalg.norm(got, axis=1), 1.0)
    good, bad = hostile_rows(rng, 2)
    # the nan and inf entries, and every shape but a stack of rows
    for A in good[:3] + bad[:2] + bad[3:]:
        raises(cones.conic_combinations, A, 3, rng)
    raises(cones.conic_combinations, np.zeros((2, 2)), 1, rng)  # no direction
    for k in BAD_COUNTS:
        raises(cones.conic_combinations, R, k, rng)


def case_finite_number(rng):
    vals = ENTRIES + (np.float64(2.0), 7, 10 ** 400, True, None,
                      np.array(1.0), "1", [1.0])
    want = [False] * 3 + [True] * 4 + [True, True] + [False] * 6
    assert [cones.finite_number(v) for v in vals] == want


def case_specs(rng):
    for val in ENTRIES + BAD_COUNTS[5:] + (None, [2]):
        spec = {"type": "orthant", "n": val}
        n = attempt(cones.spec_int, spec, "n", "cone")
        assert n is RAISED or (isinstance(n, int) and n == val)
        dim = attempt(cones.parse_cone_spec, spec)
        assert dim is RAISED or dim[0] == n
        c = attempt(cones.cone_from_spec, spec)
        assert c is RAISED or cones.cone_to_spec(c) == {"type": "orthant",
                                                         "n": n}
    for spec in (math.nan, np.ones(2), [], {"type": math.nan}):
        raises(cones.spec_int, spec, "n", "cone")
        raises(cones.parse_cone_spec, spec)
        raises(cones.cone_from_spec, spec)
    for e in ENTRIES[:3]:
        raises(cones.cone_from_spec, {"type": "polyhedral",
                                      "generators": [[1, e]],
                                      "facet_normals": [[1, 0]]})
    for obj in (math.nan, np.ones(2), None):
        raises(cones.cone_to_spec, obj)


# -------------------------------------------------------------- order cases


def check_codes(codes, shape):
    assert codes.dtype == np.int8 and codes.shape == shape
    assert np.isin(codes, (INC, WEAK, STRICT)).all()


def case_relations(rng):
    for c in all_cones():
        good, bad = hostile_rows(rng, c.dim)
        for V in good:
            for X, Y in [(0.0, V), (V, 0.0), (V, V[::-1]), (V, -V)]:
                codes = order.relations(c, X, Y)
                check_codes(codes, V.shape[:-1])
                with np.errstate(all="ignore"):
                    sep = np.asarray(Y, float) - np.asarray(X, float)
                assert np.all(codes[~finite_rows(sep)] == WEAK)
            oracle = order.FlatOrderOracle(c)
            assert np.array_equal(oracle.relations(V, V[::-1]),
                                  order.relations(c, V, V[::-1]))
        for V in bad:
            if np.ndim(V) and np.shape(V)[-1] == c.dim:
                check_codes(order.relations(c, 0.0, V), np.shape(V)[:-1])
            else:
                raises(order.relations, c, 0.0, V)
        for tol in (math.nan, -math.inf, -1e-300):
            raises(order.relations, c, 0.0, c.interior_witness(), tol)
        assert order.relations(c, 0.0, c.interior_witness(), math.inf) == WEAK


def case_minkowski_relations(rng):
    good, bad = hostile_rows(rng, 2)
    oracle = order.MinkowskiOracle()
    for V in good:
        for P, Q in [(0.0, V), (V, 0.0), (V, V[::-1])]:
            codes = order.minkowski_relations(P, Q)
            check_codes(codes, V.shape[:-1])
            with np.errstate(all="ignore"):
                d = np.asarray(Q, float) - np.asarray(P, float)
            nan = np.isnan(d).any(axis=-1)
            assert np.all(codes[nan] == INC)
            assert np.array_equal(oracle.relations(P, Q), codes)
    for V in bad:
        if np.ndim(V) and np.shape(V)[-1] == 2:
            check_codes(order.minkowski_relations(0.0, V), np.shape(V)[:-1])
        else:
            raises(order.minkowski_relations, 0.0, V)


def case_oracle_pairs(rng):
    for oracle in [order.FlatOrderOracle(c) for c in all_cones()] + [
            order.MinkowskiOracle()]:
        X, Y = oracle.boundary_pairs(rng, 5)
        assert X.shape == Y.shape and np.isfinite(X).all()
        assert np.all(oracle.relations(X, Y) == WEAK)
        assert oracle.boundary_pairs(rng, 0)[0].shape[0] == 0
        for k in BAD_COUNTS:
            raises(oracle.boundary_pairs, rng, k)


def bad_points(rng):
    good, bad = hostile_rows(rng, 2)
    return [V[0] for V in good if not np.isfinite(V[0]).all()] + bad


def bad_regions():
    return [((0.0, e), (-1.0, 1.0)) for e in ENTRIES
            if not 0.0 < e < math.inf] + [
        ((e, 1.0), (-1.0, 1.0)) for e in ENTRIES[:3]] + [
        ((0.0, 1.0, 2.0), (0.0, 1.0)), ((0.0, 1.0),), np.float64(1.0),
        np.empty((0, 2)), ((0.0, 0.0), (0.0, 1.0))]


def case_future_sets(rng):
    fut = order.minkowski_future(np.zeros(2), order.CAUSAL, REGION, 5)
    assert fut.grid.shape == (5, 5) and fut.agreement(fut) == 1.0
    other = order.minkowski_future(np.zeros(2), order.CAUSAL, REGION, 6)
    raises(fut.agreement, other)
    huge = order.minkowski_future(np.zeros(2), order.CHRONOLOGICAL,
                                  ((-1e300, 1e300), (-1e300, 1e300)), 4)
    # cell centers +-2.5e299 and +-7.5e299: strictly inside only at
    # t = 7.5e299, x = +-2.5e299
    assert huge.grid.tolist() == [[False] * 4] * 3 + [[False, True,
                                                       True, False]]
    for p in bad_points(rng):
        raises(order.minkowski_future, p, order.CAUSAL, REGION, 5)
        raises(order.reachable_grid, ConstantField(Lorentz(2)), p, REGION, 5)
    for region in bad_regions():
        raises(order.minkowski_future, np.zeros(2), order.CAUSAL, region, 5)
        raises(order.reachable_grid, ConstantField(Lorentz(2)),
               np.zeros(2), region, 5)
    for k in BAD_COUNTS + (1,):
        raises(order.minkowski_future, np.zeros(2), order.CAUSAL, REGION, k)
        raises(order.reachable_grid, ConstantField(Lorentz(2)), np.zeros(2),
               REGION, k)
        raises(order.reachable_grid, ConstantField(Lorentz(2)), np.zeros(2),
               REGION, 5, k)
    for kind in (math.nan, "causal ", None):
        raises(order.minkowski_future, np.zeros(2), kind, REGION, 5)
    raises(order.reachable_grid, Lorentz(2), np.zeros(2), REGION, 5)
    reached = order.reachable_grid(ConstantField(Lorentz(2)),
                                   np.array([1e-300, 0.0]), REGION, 5)
    assert reached.grid.shape == (5, 5) and reached.grid[0, 2]


def case_probes(rng):
    qc = order.quasi_closed_probe(order.MinkowskiOracle(), 3, 0)
    assert qc["violations"] == 0
    props = order.flat_order_properties(Orthant(2), 3, 0)
    assert props["antisymmetry_violations"] == 0
    assert order.push_up_probe(3, 0)["violations"] == 0
    for k in BAD_COUNTS + (0,):  # sample counts
        raises(order.quasi_closed_probe, order.MinkowskiOracle(), k, 0)
        raises(order.flat_order_properties, Orthant(2), k, 0)
        raises(order.push_up_probe, k, 0)
    for k in BAD_COUNTS:  # seeds
        raises(order.quasi_closed_probe, order.MinkowskiOracle(), 3, k)
        raises(order.flat_order_properties, Orthant(2), 3, k)
        raises(order.push_up_probe, 3, k)


def case_continuity(rng):
    K = [np.array([-2.0, 0.0])]
    rep = order.continuity_probe("inner", np.zeros(2), K, [0.5, 1e-300])
    assert rep["max_delta_passing"] == 0.5
    rep = order.continuity_probe("outer", np.zeros(2), [[0.0, 3.0]], [1e300])
    assert rep["passing"] == [False]
    assert order.continuity_probe("inner", np.zeros(2), [], [])["K_size"] == 0
    for p in bad_points(rng):
        raises(order.continuity_probe, "inner", p, K, [0.5])
        raises(order.continuity_probe, "outer", p, [[0.0, 3.0]], [0.5])
    good, bad = hostile_rows(rng, 2)
    for Ks in [V for V in good if not np.isfinite(V).all()] + bad[2:]:
        raises(order.continuity_probe, "outer", np.zeros(2), Ks, [0.5])
    for deltas in [[e] for e in ENTRIES if not 0 < e < math.inf] + [
            np.float64(0.5), [[0.5]], [0.5, math.nan]]:
        raises(order.continuity_probe, "inner", np.zeros(2), K, deltas)
    for k in BAD_COUNTS + (0,):
        raises(order.continuity_probe, "inner", np.zeros(2), K, [0.5], k)
    raises(order.continuity_probe, math.nan, np.zeros(2), K, [0.5])


# --------------------------------------------------------------- flow cases

# a nonlinear field, a declared matrix and the SPD manifold
FLOW_SYSTEMS = ("coop2d", "metzler_linear", "spd_lyapunov")
# spans and steps: none is a finite positive time a march can run
BAD_TIMES = (math.nan, math.inf, -math.inf, 1e300, -1e300, -1e-300, 0.0)


def flow_systems():
    return [registry.get_system(name) for name in FLOW_SYSTEMS]


def check_captured(X0, xs, mask):
    """A capture stack of start rows X0: a row with a non-finite start is
    nan at every capture in mask mode; every other row is finite or, once
    it escaped, nan throughout."""
    assert xs.shape[1:] == X0.shape
    rows_nan = np.isnan(xs).all(axis=-1)
    assert np.array_equal(rows_nan, ~np.isfinite(xs).all(axis=-1))
    if mask:
        assert rows_nan[:, ~finite_rows(X0)].all()


def case_orbits(rng):
    """integrate, tangent_flow and omega_limit on one start point."""
    for s in flow_systems():
        x0 = s.manifold.random_point(rng)
        calls = [lambda x, T=1.0, dt=0.01: flow.integrate(s, x, T, dt),
                 lambda x, T=1.0, dt=0.01: flow.tangent_flow(s, x, T, dt),
                 lambda x, T=1.0, dt=0.01: flow.omega_limit(s, x, T, dt)]
        good, bad = hostile_rows(rng, s.dim)
        for call in calls:
            for V in good:
                got = attempt(call, V[0])
                if got is RAISED:
                    continue
                assert np.isfinite(V[0]).all()
                if isinstance(got, flow.OmegaEstimate):
                    assert got.kind in (flow.SINGLETON, flow.NON_SINGLETON,
                                        flow.UNDETERMINED)
                else:  # times, states and, of a tangent flow, every map
                    assert all(np.isfinite(a).all() for a in vars(got).values())
            for V in bad:
                raises(call, V)
            for e in BAD_TIMES:
                raises(call, x0, e)
                raises(call, x0, 1.0, e)
        for k in BAD_COUNTS:
            raises(flow.integrate, s, x0, 1.0, 0.01, k)
            raises(flow.tangent_flow, s, x0, 1.0, 0.01, k)


def case_captures(rng):
    """states_at and tangent_at, in both failure modes."""
    def states_at(*args):  # a tuple, as tangent_at returns
        return (flow.states_at(*args),)

    for s in flow_systems():
        good, bad = hostile_rows(rng, s.dim)
        X0 = s.manifold.random_points(rng, 3)
        for fn in (states_at, flow.tangent_at):
            for V in good:
                for mode in ("raise", "mask"):
                    got = attempt(fn, s, V, [0.5, 0.25], 0.01, mode)
                    if got is RAISED:
                        assert mode == "raise"
                        continue
                    check_captured(V, got[0], mode == "mask")
                    gone = np.isnan(got[0]).all(axis=-1)
                    assert mode == "mask" or not gone.any()
                    for ps in got[1:]:  # raise mode: every map is finite
                        assert np.isnan(ps[gone]).all()
                        assert mode == "mask" or np.isfinite(ps).all()
            for V in bad[1:]:  # bad[0], a batch of no rows, is valid
                raises(fn, s, V, [0.5], 0.01)
            for e in BAD_TIMES[:-1] + (-1.0,):  # a time of 0 is the start
                raises(fn, s, X0, [0.5, e], 0.01)
            for e in BAD_TIMES[:3] + BAD_TIMES[4:] + (1e-300,):  # steps
                raises(fn, s, X0, [0.5], e)
            for times in (np.float64(0.5), [[0.5]], [0.5, None]):
                raises(fn, s, X0, times, 0.01)
            # below the march's resolution, a time is the start
            assert np.array_equal(fn(s, X0, [1e-300], 0.01)[0][0], X0)
            for a, b in zip(fn(s, X0, [0.02], 1e300),  # one step, the gap
                            fn(s, X0, [0.02], 0.02)):
                assert np.array_equal(a, b)
            for mode in ("bogus", None, ""):
                raises(fn, s, X0, [0.5], 0.01, mode)


def case_sample_states(rng):
    c, spd = (registry.get_system(n) for n in ("coop2d", "spd_lyapunov"))
    assert flow.sample_states(c, 1e300, 3, 0).shape == (3, 2)
    assert np.abs(flow.sample_states(c, 1e-300, 3, 0)).max() <= 1e-300
    for box in ENTRIES[:3] + (-1e300, -1e-300, 0.0, None, np.ones(3),
                              np.ones((3, 2)), np.empty((0, 2)),
                              [[0.0, math.nan], [0.0, 1.0]]):
        raises(flow.sample_states, c, box, 3, 0)
    for s in (c, spd):
        assert flow.sample_states(s, 2.0, 0, rng).shape == (0, s.dim)
        assert flow.sample_states(s, 2.0, np.int64(2), 0).shape == (2, s.dim)
        for k in BAD_COUNTS + (2 ** 70,):
            raises(flow.sample_states, s, 2.0, k, 0)
            raises(flow.sample_states, s, 2.0, 3, k)


def case_find_equilibria(rng):
    for s in flow_systems():
        good, bad = hostile_rows(rng, s.dim)
        for V in good:
            for p in flow.find_equilibria(s, V):
                assert np.isfinite(p).all()
                assert np.linalg.norm(s.f(p)) < flow.EQ_TOL
        for V in bad:
            raises(flow.find_equilibria, s, V)


def case_classify_tail(rng):
    for s in flow_systems():
        good, bad = hostile_rows(rng, s.dim)
        for V in good:  # every row's tail holds one state, five times
            ests = flow.classify_tail(s, np.broadcast_to(V, (5,) + V.shape))
            assert len(ests) == len(V)
            for row, est in zip(V, ests):
                assert (est is None) == (not np.isfinite(row).all())
                if est is not None and est.kind == flow.SINGLETON:
                    assert np.linalg.norm(s.f(est.point)) < flow.EQ_TOL
        assert len(flow.classify_tail(s, np.ones((2, 3, s.dim)))) == 3
        for V in bad[:3] + bad[4:]:  # not a (k, M, n) stack
            raises(flow.classify_tail, s, V)
        raises(flow.classify_tail, s, np.empty((0, 3, s.dim)))  # no state
        assert flow.classify_tail(s, np.empty((0, 0, s.dim))) == []


def case_ensembles(rng):
    """ensemble_tails and ensemble_omega: an escape is None."""
    for s in flow_systems():
        good, bad = hostile_rows(rng, s.dim)
        X0 = s.manifold.random_points(rng, 3)
        for V in good:
            ests = flow.ensemble_omega(s, V, 1.0, 0.01)
            assert len(ests) == len(V)
            assert all(e is None for e, fin in zip(ests, finite_rows(V))
                       if not fin)
            _, tails, rows, certified = flow.ensemble_tails(s, V, 1.0, 0.01)
            assert len(certified) == len(V) and tails.M == len(rows)
        assert flow.ensemble_omega(s, np.empty((0, s.dim)), 1.0, 0.01) == []
        for fn in (flow.ensemble_tails, flow.ensemble_omega):
            for V in bad[1:]:
                raises(fn, s, V, 1.0, 0.01)
            for e in BAD_TIMES:
                raises(fn, s, X0, e, 0.01)
                raises(fn, s, X0, 1.0, e)


def case_validate_jacobian(rng):
    c = registry.get_system("coop2d")
    assert flow.validate_jacobian(c, 2, 0) < 1e-5
    for k in BAD_COUNTS + (0,):
        raises(flow.validate_jacobian, c, k, 0)
    for k in BAD_COUNTS:
        raises(flow.validate_jacobian, c, 2, k)


# ---------------------------------------------------------------- pf cases

ORTHANT2 = ConstantField(Orthant(2))
RAYS = (np.array([[1.0, 0.5]]), np.array([[0.5, 1.0]]))


def check_ray_pairs(got):
    """times, state and rays finite; a distance is >= 0, and inf where a
    ray is on the cone's boundary (as ``hilbert_distances`` documents)."""
    times, dists, x, W = got
    assert all(np.isfinite(a).all() for a in (times, x, W))
    assert np.all(dists >= 0.0)


def case_ray_pairs(rng):
    """propagate_ray_pairs and pf_direction on coop2d with the orthant."""
    s, x0 = registry.get_system("coop2d"), np.array([1.0, 0.5])
    want = pf.propagate_ray_pairs(s, ORTHANT2, x0, *RAYS, 0.05)
    for scale in (1e300, 1e-300):  # rays are directions
        got = pf.propagate_ray_pairs(s, ORTHANT2, x0, scale * RAYS[0],
                                     scale * RAYS[1], 0.05)
        assert all(np.allclose(g, w, rtol=1e-12, atol=0.0)
                   for g, w in zip(got, want))
    good, bad = hostile_rows(rng, 2)
    for V in good:  # |V|: rays in the cone unless non-finite
        got = attempt(pf.propagate_ray_pairs, s, ORTHANT2, x0, np.abs(V),
                      np.abs(V[::-1]), 0.05)
        assert (got is RAISED) != bool(np.isfinite(V).all())
        if got is not RAISED:
            check_ray_pairs(got)
        for start in (V[0], np.abs(V[0])):  # a far or non-finite start
            got = attempt(pf.propagate_ray_pairs, s, ORTHANT2, start, *RAYS,
                          0.05)
            res = attempt(pf.pf_direction, s, ORTHANT2, start, 0.05)
            assert ((got is RAISED) == (res is RAISED)
                    == (not np.isfinite(start).all()))
            if got is not RAISED:
                check_ray_pairs(got)
                assert np.isfinite(res.direction.vec).all()
                assert np.all(res.contraction_log >= 0.0)
    # refused before the march: a zero ray's start normalization divides
    # by 0, a nan ray makes the first map nan, and no ray has no records
    for A, B in [(np.zeros((1, 2)), RAYS[1]),
                 (np.array([[1.0, 0.5], [0.0, 0.0]]), np.ones((2, 2))),
                 (np.array([[math.nan, 1.0]]), RAYS[1]),
                 (RAYS[0], np.array([[1.0, math.inf]])),
                 (np.empty((0, 2)), np.empty((0, 2)))]:
        with pytest.raises(ValueError, match="^rays"):
            pf.propagate_ray_pairs(s, ORTHANT2, x0, A, B, 0.05)
    for V in bad:
        raises(pf.propagate_ray_pairs, s, ORTHANT2, x0, V, V, 0.05)
        raises(pf.propagate_ray_pairs, s, ORTHANT2, V, *RAYS, 0.05)
        raises(pf.pf_direction, s, ORTHANT2, V, 0.05)
    raises(pf.propagate_ray_pairs, s, ORTHANT2, x0, RAYS[0], RAYS, 0.05)
    for e in BAD_TIMES:
        raises(pf.propagate_ray_pairs, s, ORTHANT2, x0, *RAYS, e)
        raises(pf.propagate_ray_pairs, s, ORTHANT2, x0, *RAYS, 0.05, e)
        raises(pf.pf_direction, s, ORTHANT2, x0, e)
        raises(pf.pf_direction, s, ORTHANT2, x0, 0.05, e)
    for k in BAD_COUNTS:
        raises(pf.propagate_ray_pairs, s, ORTHANT2, x0, *RAYS, 0.05, 0.01, k)


def case_pf_at_equilibrium(rng):
    s = registry.get_system("coop2d")
    good, bad = hostile_rows(rng, 2)
    for V in good:  # a point of 1e-300 entries passes as an equilibrium
        got = attempt(pf.pf_at_equilibrium, s, ORTHANT2, V[0])
        assert got is RAISED or (np.isfinite(V[0]).all() and got[1] > 0.0)
    for V in bad:
        raises(pf.pf_at_equilibrium, s, ORTHANT2, V)
    for e in BAD_TIMES + (1e-300,):  # at tau = 1e-300, Phi is I
        raises(pf.pf_at_equilibrium, s, ORTHANT2, np.zeros(2), e)


# -------------------------------------------------------- positivity cases


def case_check_dp(rng):
    s, args = registry.get_system("coop2d"), (ORTHANT2, 2, 3, [0.05])
    want = positivity.check_dp(s, *args, 0)
    assert want.status == positivity.SDP
    # a seed or the generator it seeds; a step of 1e300 is one step over
    # the gap, as a step of 0.05 is
    for got, ref in [
            (positivity.check_dp(s, *args, np.random.default_rng(0)), want),
            (positivity.check_dp(s, *args, 0, 1e300),
             positivity.check_dp(s, *args, 0, 0.05))]:
        assert (got.worst_margin, got.witness) == (ref.worst_margin,
                                                   ref.witness)
    for k in BAD_COUNTS + (0,):
        raises(positivity.check_dp, s, ORTHANT2, k, 3, [0.05], 0)
        raises(positivity.check_dp, s, ORTHANT2, 2, k, [0.05], 0)
    for k in BAD_COUNTS:
        raises(positivity.check_dp, s, *args, k)
    for times in [[e] for e in BAD_TIMES] + [
            [], np.float64(0.05), [[0.05]], [0.05, None]]:
        raises(positivity.check_dp, s, ORTHANT2, 2, 3, times, 0)
    for e in BAD_TIMES[:3] + BAD_TIMES[4:] + (1e-300,):
        raises(positivity.check_dp, s, *args, 0, e)


def case_cross_positivity(rng):
    s, c = registry.get_system("coop2d"), Orthant(2)
    got = positivity.cross_positivity_flat(s, c, 3, rng)
    assert got.status == positivity.DP and np.isfinite(got.worst_margin)
    for k in BAD_COUNTS + (0,):
        raises(positivity.cross_positivity_flat, s, c, k, 0)
    for k in BAD_COUNTS:
        raises(positivity.cross_positivity_flat, s, c, 3, k)
    raises(positivity.cross_positivity_flat, s, Lorentz(2), 3, 0)
    raises(positivity.cross_positivity_flat,
           registry.get_system("spd_lyapunov"), c, 3, 0)


def case_flat_equivalence(rng):
    s, c = registry.get_system("coop2d"), Orthant(2)
    got = positivity.flat_equivalence(s, c, 2, 0.05, rng)
    assert got["agreement"] == 1.0 and got["pairs_ordered"] == 2
    for k in BAD_COUNTS + (0,):
        raises(positivity.flat_equivalence, s, c, k, 0.05, 0)
    for k in BAD_COUNTS:
        raises(positivity.flat_equivalence, s, c, 2, 0.05, k)
    for e in BAD_TIMES:
        raises(positivity.flat_equivalence, s, c, 2, e, 0)
    raises(positivity.flat_equivalence, registry.get_system("spd_lyapunov"),
           c, 2, 0.05, 0)


CASES = {
    "cones.integer_at_least": case_sized_constructors,
    "cones.Cone.margins": case_margins,
    "cones.Cone.margin": case_margins,
    "cones.Cone.dual_contains": case_dual_contains,
    "cones._SelfDual.dual_contains": case_dual_contains,
    "cones.Polyhedral.dual_contains": case_dual_contains,
    "cones.Cone.hilbert_distances": case_hilbert_distances,
    "cones.Cone.generators": case_no_arguments,
    "cones.Cone.facet_normals": case_no_arguments,
    "cones.Cone.interior_witness": case_no_arguments,
    "cones.Cone.unit_rays": case_no_arguments,
    "cones.Lorentz.interior_witness": case_no_arguments,
    "cones.PSDCone.interior_witness": case_no_arguments,
    "cones.Polyhedral.generators": case_no_arguments,
    "cones.Polyhedral.facet_normals": case_no_arguments,
    "cones.Polyhedral.interior_witness": case_no_arguments,
    "cones.Cone.boundary_rays": case_boundary_rays,
    "cones.Lorentz.boundary_rays": case_boundary_rays,
    "cones.PSDCone.boundary_rays": case_boundary_rays,
    "cones.Polyhedral.boundary_rays": case_boundary_rays,
    "cones.Lorentz.__init__": case_sized_constructors,
    "cones.PSDCone.__init__": case_sized_constructors,
    "cones.Orthant.__init__": case_sized_constructors,
    "cones.Polyhedral.__init__": case_polyhedral,
    "cones.conic_combinations": case_conic_combinations,
    "cones.finite_number": case_finite_number,
    "cones.spec_int": case_specs,
    "cones.parse_cone_spec": case_specs,
    "cones.cone_from_spec": case_specs,
    "cones.cone_to_spec": case_specs,
    "order.relations": case_relations,
    "order.minkowski_relations": case_minkowski_relations,
    "order.FlatOrderOracle.__init__": case_relations,
    "order.FlatOrderOracle.relations": case_relations,
    "order.FlatOrderOracle.boundary_pairs": case_oracle_pairs,
    "order.MinkowskiOracle.__init__": case_oracle_pairs,
    "order.MinkowskiOracle.relations": case_minkowski_relations,
    "order.MinkowskiOracle.boundary_pairs": case_oracle_pairs,
    "order.FutureSet.agreement": case_future_sets,
    "order.minkowski_future": case_future_sets,
    "order.reachable_grid": case_future_sets,
    "order.quasi_closed_probe": case_probes,
    "order.flat_order_properties": case_probes,
    "order.push_up_probe": case_probes,
    "order.continuity_probe": case_continuity,
    "flow.integrate": case_orbits,
    "flow.tangent_flow": case_orbits,
    "flow.omega_limit": case_orbits,
    "flow.states_at": case_captures,
    "flow.tangent_at": case_captures,
    "flow.sample_states": case_sample_states,
    "flow.find_equilibria": case_find_equilibria,
    "flow.classify_tail": case_classify_tail,
    "flow.ensemble_tails": case_ensembles,
    "flow.ensemble_omega": case_ensembles,
    "flow.validate_jacobian": case_validate_jacobian,
    "pf.propagate_ray_pairs": case_ray_pairs,
    "pf.pf_direction": case_ray_pairs,
    "pf.pf_at_equilibrium": case_pf_at_equilibrium,
    "positivity.check_dp": case_check_dp,
    "positivity.cross_positivity_flat": case_cross_positivity,
    "positivity.flat_equivalence": case_flat_equivalence,
}


def public_names():
    """module.function and module.Class.method for every public function,
    and every public method and constructor of a class a caller reaches:
    a public class or a base of one."""
    names = set()
    for mod in MODULES:
        body = ast.parse((SRC / f"{mod}.py").read_text()).body
        public = [n for n in body if isinstance(n, ast.ClassDef)
                  and not n.name.startswith("_")]
        reached = {n.name for n in public} | {
            b.id for n in public for b in n.bases if isinstance(b, ast.Name)}
        for node in body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_"):
                    names.add(f"{mod}.{node.name}")
            elif isinstance(node, ast.ClassDef) and node.name in reached:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                            item.name == "__init__"
                            or not item.name.startswith("_")):
                        names.add(f"{mod}.{node.name}.{item.name}")
    return names


def test_every_public_function_has_a_hostile_case():
    names = public_names()
    assert names - set(CASES) == set(), "public names with no hostile case"
    assert set(CASES) - names == set(), "cases for names that are gone"


@pytest.mark.parametrize("case", sorted(set(CASES.values()),
                                        key=lambda f: f.__name__),
                         ids=lambda f: f.__name__[5:])
def test_hostile_inputs_return_documented_values_or_raise(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        case(np.random.default_rng(20240))
