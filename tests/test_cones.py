import math

import numpy as np
import pytest

from conedyn import cones
from conedyn.cones import (
    BOUNDARY,
    INTERIOR,
    OUTSIDE,
    Lorentz,
    Orthant,
    Polyhedral,
    PSDCone,
)
from conedyn.errors import ConeConstructionError, DimensionMismatchError
from conedyn.geometry import pack_sym
from helpers import hilbert_bisect


def lorentz2_polyhedral():
    # same 2-d cone as Lorentz(2): generators on the null rays
    return Polyhedral([[1, 1], [1, -1]], [[1, 1], [1, -1]])


def square_pyramid():
    # {(t, x, y) : |x| <= t, |y| <= t}: a 3-d cone that is not simplicial
    return Polyhedral([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]],
                      [[1, -1, 0], [1, 1, 0], [1, 0, -1], [1, 0, 1]])


def all_cones():
    return [Orthant(2), Orthant(3), Lorentz(2), Lorentz(3), PSDCone(2),
            lorentz2_polyhedral()]


def interior_sample(c, rng):
    w = c.interior_witness()
    for _ in range(100):
        v = w + 0.3 * rng.normal(size=c.dim)
        if c.contains(v).region == INTERIOR:
            return v
    raise AssertionError("could not sample interior point")


# ------------------------------------------------------------------ contains


def test_contains_orthant_interior():
    got = Orthant(2).contains(np.array([1.0, 1.0]))
    assert got.region == INTERIOR
    assert got.margin == pytest.approx(1 / math.sqrt(2))


def test_contains_lorentz_interior():
    got = Lorentz(2).contains(np.array([2.0, 1.0]))
    assert got.region == INTERIOR
    assert got.margin == pytest.approx((2 - 1) / math.sqrt(5))


def test_contains_orthant_outside():
    got = Orthant(2).contains(np.array([1.0, -1.0]))
    assert got.region == OUTSIDE
    assert got.margin == pytest.approx(-1 / math.sqrt(2))


def test_contains_psd():
    got = PSDCone(2).contains(pack_sym(np.diag([3.0, 1.0])))
    assert got.region == INTERIOR
    assert got.margin == pytest.approx(1.0 / np.sqrt(10.0))
    rank1 = PSDCone(2).contains(pack_sym(np.outer([1, 1], [1, 1]) * 1.0))
    assert rank1.region == BOUNDARY


def test_margins_match_margin_row_by_row():
    rng = np.random.default_rng(5)
    for c in all_cones():
        rows = np.vstack([rng.normal(size=(7, c.dim)),
                          [interior_sample(c, rng) for _ in range(3)],
                          c.boundary_rays(rng, 3), np.zeros((2, c.dim))])
        want = np.array([c.margin(r) for r in rows])
        if type(c) is Polyhedral:  # a stacked matmul may round apart by ulps
            def same(a, b):
                return np.allclose(a, b, rtol=0.0, atol=4 * np.finfo(float).eps)
        else:  # per-row arithmetic, the orthant's products by 0 and 1 too
            same = np.array_equal
        assert same(c.margins(rows), want)
        assert same(c.margins(rows.reshape(3, 5, c.dim)), want.reshape(3, 5))
        assert np.all(want[-2:] == 0.0)
        assert np.all(c.margins(rows)[-2:] == 0.0)
        with pytest.raises(DimensionMismatchError):
            c.margins(np.ones((4, c.dim + 1)))


@pytest.mark.parametrize("c", [Orthant(3), Lorentz(3), PSDCone(2),
                               PSDCone(3)], ids=lambda c: f"{c.name}{c.dim}")
def test_margins_are_exact_in_scale(c):
    # entries of |v| in [2^-21, 2^20] (or 0) keep 2^k v normal for every k
    # in [-1000, 1000], so each scaling is exact and must leave every bit
    rng = np.random.default_rng(3)
    V = (rng.uniform(0.5, 1.0, (200, c.dim)) * rng.choice([-1.0, 1.0], (200, c.dim))
         * np.exp2(rng.integers(-20, 21, (200, c.dim))))
    V[rng.random(V.shape) < 0.1] = 0.0
    want = c.margins(V)
    moved = [k for k in range(-1000, 1001)
             if not np.array_equal(c.margins(np.ldexp(V, k)), want)]
    assert moved == []
    assert c.margin(np.ldexp(V[0], 1000)) == want[0]


@pytest.mark.parametrize("c,v,unit", [
    (Orthant(2), [1e200, -1e200], [1.0, -1.0]),
    (Lorentz(2), [3e200, 1e200], [3.0, 1.0]),
    (PSDCone(2), [1e200, 0.0, -1e200], [1.0, 0.0, -1.0]),
    (Orthant(2), [1e-200, -1e-200], [1.0, -1.0]),
], ids=["orthant-huge", "lorentz-huge", "psd-huge", "orthant-tiny"])
def test_margins_of_huge_and_tiny_rows_are_the_unit_margins(c, v, unit):
    # |v|^2 overflows (or underflows to 0) unless the row is scaled first
    assert c.margin(np.array(v)) == pytest.approx(c.margin(np.array(unit)),
                                                  rel=1e-15)


def reference_per_norm(slack, V):
    nv = np.linalg.norm(V, axis=-1)
    return np.divide(slack, nv, out=np.zeros_like(nv), where=nv != 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_per_norm_equals_the_linalg_norm_version(dim):
    rng = np.random.default_rng(dim)
    V = np.vstack([rng.normal(size=(9, dim)), np.zeros((2, dim)),
                   np.full((1, dim), np.nan),
                   rng.normal(size=(3, dim)) * 1e-160,
                   rng.normal(size=(3, dim)) * 1e150])
    V[-1, 0] = np.nan
    slack = rng.normal(size=len(V))
    with np.errstate(over="ignore"):  # the 1e150 rows square to inf
        for v, sl in [(V, slack), (V.reshape(3, 6, dim), slack.reshape(3, 6)),
                      (V[0], slack[0]), (V[9], slack[9]), (V[11], slack[11])]:
            got, want = cones._per_norm(sl, v), reference_per_norm(sl, v)
            assert type(got) is type(want) and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
    assert cones._per_norm(np.float64(1.5), np.zeros(dim)) == 0.0


def test_conic_combinations_are_unit_cone_elements_drawn_row_by_row():
    for c in all_cones() + [square_pyramid()]:
        R = c.unit_rays(np.random.default_rng(2))
        assert np.allclose(np.linalg.norm(R, axis=1), 1.0)
        assert np.all(c.margins(R) >= -1e-12)
        C = cones.conic_combinations(R, 9, np.random.default_rng(3))
        assert np.all(c.margins(C) > 0.0)
        # bit for bit the one-row computation, whatever k is
        rng = np.random.default_rng(3)
        for v in C:
            w = rng.uniform(0.1, 1.0, len(R)) @ R
            assert np.array_equal(v, w / np.linalg.norm(w))
        assert np.array_equal(
            cones.conic_combinations(R, 4, np.random.default_rng(3)), C[:4])
        assert cones.conic_combinations(R, 0, np.random.default_rng(3)).shape \
            == (0, c.dim)


def test_zero_vector_is_boundary():
    for c in all_cones():
        got = c.contains(np.zeros(c.dim))
        assert got.region == BOUNDARY
        assert got.margin == 0.0


def test_generators_never_outside():
    for c in all_cones():
        gens = c.generators()
        if gens is None:
            continue
        for g in gens:
            assert c.contains(g).region in (BOUNDARY, INTERIOR)


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        Orthant(2).contains(np.ones(3))


def test_cross_representation_contains_agreement():
    L, P = Lorentz(2), lorentz2_polyhedral()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        v = rng.uniform(-1, 1, 2)
        assert L.contains(v).region == P.contains(v).region


# ---------------------------------------------------------------- polyhedral


def test_polyhedral_rejects_inconsistent_reps():
    with pytest.raises(ConeConstructionError):
        Polyhedral([[0, 1]], [[1, -1]])


def test_polyhedral_rejects_unpointed():
    with pytest.raises(ConeConstructionError):
        Polyhedral([[1, 0], [-1, 0]], [[0, 1]])


def test_orthant_is_the_identity_polyhedral_cone():
    for n in (1, 2, 3):
        c = Orthant(n)
        assert isinstance(c, Polyhedral)
        assert np.array_equal(c.generators(), np.eye(n))
        assert np.array_equal(c.facet_normals(), np.eye(n))
        assert np.array_equal(c.interior_witness(), np.ones(n) / np.sqrt(n))
        assert cones.cone_to_spec(c) == {"type": "orthant", "n": n}


def test_polyhedral_rejects_non_solid():
    with pytest.raises(ConeConstructionError):
        Polyhedral([[1, 0]], [[0, 1], [0, -1]])


# ------------------------------------------------------------------- hilbert


def test_hilbert_orthant_closed_form():
    d = Orthant(2).hilbert_distance(np.array([1.0, 1.0]), np.array([2.0, 1.0]))
    assert d == pytest.approx(math.log(2.0), abs=1e-12)


def test_hilbert_projective_identity():
    rng = np.random.default_rng(1)
    for c in all_cones():
        v = interior_sample(c, rng)
        assert c.hilbert_distance(3.0 * v, v) == pytest.approx(0.0, abs=1e-9)


def test_hilbert_cross_representation():
    # bisection on the Lorentz cone must match the polyhedral closed path
    L, P = Lorentz(2), lorentz2_polyhedral()
    u, v = np.array([2.0, 1.0]), np.array([2.0, -1.0])
    dl, dp = L.hilbert_distance(u, v), P.hilbert_distance(u, v)
    assert abs(dl - dp) < 1e-9
    # light-cone coordinates map this cone onto the orthant: distance log 9
    assert dl == pytest.approx(math.log(9.0), abs=1e-9)


def test_hilbert_scale_invariance():
    rng = np.random.default_rng(2)
    for c in all_cones():
        u, v = interior_sample(c, rng), interior_sample(c, rng)
        d0 = c.hilbert_distance(u, v)
        for _ in range(5):
            a, b = rng.uniform(0.1, 10.0, 2)
            assert abs(c.hilbert_distance(a * u, b * v) - d0) < 1e-9


@pytest.mark.parametrize("c", [Orthant(3), Lorentz(3), PSDCone(2),
                               PSDCone(3), square_pyramid()],
                         ids=lambda c: f"{c.name}{c.dim}")
def test_hilbert_distances_are_exact_in_scale(c):
    # entries on the grid 2^-20 Z below 2^3 keep 2^k u normal for every k
    # in [-1000, 1000], so each scaling is exact and must leave every bit
    rng = np.random.default_rng(5)
    U, V = (np.round(np.array([interior_sample(c, rng) for _ in range(30)])
                     * 2.0 ** 20) / 2.0 ** 20 for _ in range(2))
    want = c.hilbert_distances(U, V)
    assert np.all(np.isfinite(want)) and np.all(want > 0.0)
    moved = [k for k in range(-1000, 1001)
             if not np.array_equal(
                 c.hilbert_distances(np.ldexp(U, k), np.ldexp(V, k)), want)]
    assert moved == []


@pytest.mark.parametrize("c,u,v", [
    (Orthant(3), [1.0, 2.0, 3.0], [2.0, 1.0, 1.0]),
    (Lorentz(3), [2.0, 0.5, 0.3], [3.0, 1.0, -0.5]),
    (PSDCone(2), [2.0, 0.3, 1.0], [1.0, -0.2, 3.0]),
], ids=["orthant", "lorentz", "psd"])
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_hilbert_distance_of_huge_and_tiny_rays_is_the_unit_distance(
        c, u, v, scale):
    # |u|^2 underflows to 0 (or overflows) unless the rows are normalized
    # exactly; RuntimeWarnings are errors under this suite's settings
    u, v = np.array(u), np.array(v)
    assert c.hilbert_distance(scale * u, scale * v) == pytest.approx(
        c.hilbert_distance(u, v), rel=1e-14)


def test_hilbert_triangle_inequality():
    rng = np.random.default_rng(3)
    for c in all_cones():
        for _ in range(20):
            u, v, w = (interior_sample(c, rng) for _ in range(3))
            duw = c.hilbert_distance(u, w)
            assert duw <= (c.hilbert_distance(u, v)
                           + c.hilbert_distance(v, w) + 1e-9)


def test_hilbert_symmetry():
    rng = np.random.default_rng(4)
    for c in all_cones():
        u, v = interior_sample(c, rng), interior_sample(c, rng)
        assert abs(c.hilbert_distance(u, v) - c.hilbert_distance(v, u)) < 1e-9


def test_closed_forms_match_bisection_oracle():
    rng = np.random.default_rng(6)
    for c in all_cones() + [Lorentz(4), square_pyramid()]:
        for _ in range(10):
            u, v = interior_sample(c, rng), interior_sample(c, rng)
            assert abs(c.hilbert_distance(u, v)
                       - hilbert_bisect(c, u, v)) < 1e-9


def _positive_maps(rng):
    """(cone, Phi, generators) with Phi mapping the cone into its interior."""
    twin = lorentz2_polyhedral()
    T = twin.generators().T  # columns: the two null rays of Lorentz(2)
    for _ in range(5):
        for n in (2, 3):
            yield Orthant(n), rng.uniform(0.1, 1.0, (n, n)), np.eye(n)
        Phi = T @ rng.uniform(0.1, 1.0, (2, 2)) @ np.linalg.inv(T)
        yield Lorentz(2), Phi, T.T
        yield twin, Phi, T.T


def test_birkhoff_hopf_contraction():
    # a positive map of projective diameter D contracts the Hilbert metric
    # by at least tanh(D / 4) (Birkhoff 1957; Bushell 1973)
    rng = np.random.default_rng(7)
    for c, Phi, gens in _positive_maps(rng):
        images = gens @ Phi.T
        diam = max(c.hilbert_distance(a, b) for a in images for b in images)
        assert math.isfinite(diam)
        k = math.tanh(diam / 4.0)
        for _ in range(20):
            u, v = interior_sample(c, rng), interior_sample(c, rng)
            assert (c.hilbert_distance(Phi @ u, Phi @ v)
                    <= k * c.hilbert_distance(u, v) + 1e-12)


def test_hilbert_infinite_outside_interior():
    c = Orthant(2)
    assert c.hilbert_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == math.inf


def test_hilbert_zero_vector_rejected():
    with pytest.raises(ValueError):
        Orthant(2).hilbert_distance(np.zeros(2), np.ones(2))


@pytest.mark.parametrize("c", [Orthant(3), square_pyramid(), Lorentz(3),
                               PSDCone(2)], ids=lambda c: c.name)
def test_batched_hilbert_distances_match_bisection_oracle(c):
    rng = np.random.default_rng(11)
    U = np.array([interior_sample(c, rng) for _ in range(8)])
    V = np.array([interior_sample(c, rng) for _ in range(8)])
    # rows 8, 9: a boundary ray, then an outside ray, on either side
    edge = c.boundary_rays(rng, 1)[0]
    U = np.vstack([U, edge, V[0]])
    V = np.vstack([V, V[1], -edge])
    d = c.hilbert_distances(U, V)
    assert d.shape == (10,)
    assert d[8] == d[9] == math.inf
    for i in range(8):
        assert abs(d[i] - hilbert_bisect(c, U[i], V[i])) < 1e-9
    # the one-row case, rows as rays, and any leading shape (a stacked
    # product may round apart from a one-row product by ulps)
    one_row = [c.hilbert_distance(u, v) for u, v in zip(U, V)]
    assert np.allclose(one_row, d, rtol=1e-14, atol=0.0)
    assert np.allclose(c.hilbert_distances(3.0 * U, 0.5 * V), d,
                       rtol=1e-14, atol=0.0)
    grid = c.hilbert_distances(U.reshape(2, 5, -1), V.reshape(2, 5, -1))
    assert np.allclose(grid, d.reshape(2, 5), rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        c.hilbert_distances(U, np.vstack([V[:-1], np.zeros(c.dim)]))


# ---------------------------------------------------------------------- dual


def test_dual_contains_orthant():
    assert cones.dual_contains(Orthant(3), np.array([1.0, 0.0, 2.0]))
    assert not cones.dual_contains(Orthant(3), np.array([1.0, -0.1, 2.0]))


def test_dual_contains_lorentz_boundary():
    assert Lorentz(2).dual_contains(np.array([1.0, -1.0]))


def test_dual_contains_polyhedral():
    c = Polyhedral([[1, 0], [1, 1]], [[0, 1], [1, -1]])
    assert not c.dual_contains(np.array([0.0, -1.0]))  # <(0,-1),(1,1)> = -1
    assert c.dual_contains(np.array([0.0, 1.0]))


def test_dual_contains_psd_self_dual():
    c = PSDCone(2)
    assert c.dual_contains(pack_sym(np.eye(2)))
    assert not c.dual_contains(pack_sym(np.diag([1.0, -1.0])))


# ------------------------------------------------------------------ spec i/o


def test_cone_spec_roundtrip():
    for c in all_cones():
        again = cones.cone_from_spec(cones.cone_to_spec(c))
        assert type(again) is type(c)
        assert again.dim == c.dim
