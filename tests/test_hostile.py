"""Every public function and method of ``cones`` and ``order`` under
hostile input: nan, +-inf, 1e+-300, empty, misshapen and 0-d arrays.

A call must return its documented values or raise a ``ConedynError`` or
``ValueError``.  Any other exception fails, and so does any warning (a
RuntimeWarning from an inf or nan reaching arithmetic, say).  ``CASES``
names one case per public function or method, found with ``ast`` as
``test_parameters`` finds defaults; a public name without a case fails.
Parameters that take an object (a cone, a field, an oracle, a generator)
get valid objects; every number, array and size parameter gets the
hostile values.  Inputs are drawn from one seeded generator per case.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conedyn import cones, order
from conedyn.conefield import ConstantField
from conedyn.cones import Lorentz, Orthant, Polyhedral, PSDCone
from conedyn.errors import ConedynError
from conedyn.order import INC, STRICT, WEAK

SRC = Path(__file__).resolve().parents[1] / "src" / "conedyn"
MODULES = {"cones": cones, "order": order}
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
}


def public_names():
    """module.function and module.Class.method for every public function,
    every public method (of any class) and every constructor."""
    names = set()
    for mod in MODULES:
        for node in ast.parse((SRC / f"{mod}.py").read_text()).body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_"):
                    names.add(f"{mod}.{node.name}")
            elif isinstance(node, ast.ClassDef):
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
