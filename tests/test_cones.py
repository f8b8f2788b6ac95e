import math

import numpy as np
import pytest

from conedyn import cones
from conedyn.cones import Lorentz, Orthant, Polyhedral, PSDCone
from conedyn.errors import ConeConstructionError, DimensionMismatchError
from conedyn.geometry import pack_sym
from conedyn.order import INC, STRICT, WEAK, relations
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
        if relations(c, 0, v) == STRICT:
            return v
    raise AssertionError("could not sample interior point")


# ------------------------------------------------------- membership, margins


def test_contains_orthant_interior():
    v = np.array([1.0, 1.0])
    assert relations(Orthant(2), 0, v) == STRICT
    assert Orthant(2).margin(v) == pytest.approx(1 / math.sqrt(2))


def test_contains_lorentz_interior():
    v = np.array([2.0, 1.0])
    assert relations(Lorentz(2), 0, v) == STRICT
    assert Lorentz(2).margin(v) == pytest.approx((2 - 1) / math.sqrt(5))


def test_contains_orthant_outside():
    v = np.array([1.0, -1.0])
    assert relations(Orthant(2), 0, v) == INC
    assert Orthant(2).margin(v) == pytest.approx(-1 / math.sqrt(2))


def test_contains_psd():
    v = pack_sym(np.diag([3.0, 1.0]))
    assert relations(PSDCone(2), 0, v) == STRICT
    assert PSDCone(2).margin(v) == pytest.approx(1.0 / np.sqrt(10.0))
    rank1 = pack_sym(np.outer([1, 1], [1, 1]) * 1.0)
    assert relations(PSDCone(2), 0, rank1) == WEAK


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
        assert relations(c, 0, np.zeros(c.dim)) == WEAK
        assert c.margin(np.zeros(c.dim)) == 0.0


def test_generators_never_outside():
    for c in all_cones():
        gens = c.generators()
        if gens is None:
            continue
        assert np.all(relations(c, 0, gens) != INC)


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        relations(Orthant(2), 0, np.ones(3))


def test_cross_representation_contains_agreement():
    L, P = Lorentz(2), lorentz2_polyhedral()
    V = np.random.default_rng(0).uniform(-1, 1, (1000, 2))
    assert np.array_equal(relations(L, 0, V), relations(P, 0, V))


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
    d = Orthant(2).hilbert_distances(np.array([1.0, 1.0]), np.array([2.0, 1.0]))
    assert d == pytest.approx(math.log(2.0), abs=1e-12)


def test_hilbert_projective_identity():
    rng = np.random.default_rng(1)
    for c in all_cones():
        v = interior_sample(c, rng)
        assert c.hilbert_distances(3.0 * v, v) == pytest.approx(0.0, abs=1e-9)


def test_hilbert_cross_representation():
    # bisection on the Lorentz cone must match the polyhedral closed path
    L, P = Lorentz(2), lorentz2_polyhedral()
    u, v = np.array([2.0, 1.0]), np.array([2.0, -1.0])
    dl, dp = L.hilbert_distances(u, v), P.hilbert_distances(u, v)
    assert abs(dl - dp) < 1e-9
    # light-cone coordinates map this cone onto the orthant: distance log 9
    assert dl == pytest.approx(math.log(9.0), abs=1e-9)


def test_hilbert_scale_invariance():
    rng = np.random.default_rng(2)
    for c in all_cones():
        u, v = interior_sample(c, rng), interior_sample(c, rng)
        d0 = c.hilbert_distances(u, v)
        for _ in range(5):
            a, b = rng.uniform(0.1, 10.0, 2)
            assert abs(c.hilbert_distances(a * u, b * v) - d0) < 1e-9


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
    assert c.hilbert_distances(scale * u, scale * v) == pytest.approx(
        c.hilbert_distances(u, v), rel=1e-14)


def test_hilbert_triangle_inequality():
    rng = np.random.default_rng(3)
    for c in all_cones():
        for _ in range(20):
            u, v, w = (interior_sample(c, rng) for _ in range(3))
            duw = c.hilbert_distances(u, w)
            assert duw <= (c.hilbert_distances(u, v)
                           + c.hilbert_distances(v, w) + 1e-9)


def test_hilbert_symmetry():
    rng = np.random.default_rng(4)
    for c in all_cones():
        u, v = interior_sample(c, rng), interior_sample(c, rng)
        assert abs(c.hilbert_distances(u, v) - c.hilbert_distances(v, u)) < 1e-9


def test_closed_forms_match_bisection_oracle():
    rng = np.random.default_rng(6)
    for c in all_cones() + [Lorentz(4), square_pyramid()]:
        for _ in range(10):
            u, v = interior_sample(c, rng), interior_sample(c, rng)
            assert abs(c.hilbert_distances(u, v)
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
        diam = max(c.hilbert_distances(a, b) for a in images for b in images)
        assert math.isfinite(diam)
        k = math.tanh(diam / 4.0)
        for _ in range(20):
            u, v = interior_sample(c, rng), interior_sample(c, rng)
            assert (c.hilbert_distances(Phi @ u, Phi @ v)
                    <= k * c.hilbert_distances(u, v) + 1e-12)


def test_hilbert_infinite_outside_interior():
    c = Orthant(2)
    assert c.hilbert_distances(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == math.inf


def test_hilbert_zero_vector_rejected():
    with pytest.raises(ValueError):
        Orthant(2).hilbert_distances(np.zeros(2), np.ones(2))


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
    one_row = [c.hilbert_distances(u, v) for u, v in zip(U, V)]
    assert np.allclose(one_row, d, rtol=1e-14, atol=0.0)
    assert np.allclose(c.hilbert_distances(3.0 * U, 0.5 * V), d,
                       rtol=1e-14, atol=0.0)
    grid = c.hilbert_distances(U.reshape(2, 5, -1), V.reshape(2, 5, -1))
    assert np.allclose(grid, d.reshape(2, 5), rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        c.hilbert_distances(U, np.vstack([V[:-1], np.zeros(c.dim)]))


# ---------------------------------------------------------------------- dual


def test_dual_contains_orthant():
    assert Orthant(3).dual_contains(np.array([1.0, 0.0, 2.0]))
    assert not Orthant(3).dual_contains(np.array([1.0, -0.1, 2.0]))


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


# ------------------------------------------------- non-finite and 0-d input


@pytest.mark.parametrize("c", [Orthant(2), Lorentz(3), PSDCone(2),
                               square_pyramid()], ids=lambda c: c.name)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_nonfinite_row_reads_nan_margin_inf_distance_and_weak(c, bad):
    # RuntimeWarnings are errors under this suite's settings
    w = c.interior_witness()
    V = np.vstack([w, w])
    V[1, 0] = bad
    m = c.margins(V)
    assert m[0] > 0.0 and np.isnan(m[1])
    assert np.isnan(c.margins(V[1]))
    for U, W in [(V, V[::-1]), (V[::-1], V)]:
        d = c.hilbert_distances(U, W)
        assert np.isinf(d[0]) and np.isinf(d[1]) and d[1] > 0.0
    assert c.hilbert_distances(V[0], V[0]) == 0.0
    assert relations(c, 0, V).tolist() == [STRICT, WEAK]
    assert relations(c, V, V).tolist() == [WEAK, WEAK]  # inf - inf is nan
    assert relations(c, 0, np.full((2, c.dim), bad)).tolist() == [WEAK, WEAK]


@pytest.mark.parametrize("c", [Orthant(2), Lorentz(3), PSDCone(2),
                               square_pyramid()], ids=lambda c: c.name)
def test_a_0d_input_is_a_dimension_mismatch(c):
    for call in (lambda: c.margins(np.float64(1.0)),
                 lambda: c.margin(1.0),
                 lambda: c.hilbert_distances(np.float64(1.0), 1.0),
                 lambda: relations(c, 0.0, np.float64(1.0))):
        with pytest.raises(DimensionMismatchError):
            call()
    with pytest.raises(DimensionMismatchError):
        c.margin(np.ones((2, c.dim)))  # margin takes one vector
