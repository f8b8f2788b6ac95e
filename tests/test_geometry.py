import numpy as np
import pytest

from conedyn import geometry as g
from conedyn.errors import BasePointMismatchError, NotPositiveDefiniteError
from conedyn.geometry import Tangent, pack_sym, unpack_sym


def tangent(x, v):
    return Tangent(np.asarray(x, float), np.asarray(v, float))


def test_metric_inner_euclidean_orthogonal():
    m = g.euclidean(2)
    x = np.zeros(2)
    assert g.metric_inner(m, x, tangent(x, [1, 0]), tangent(x, [0, 1])) == 0.0


def test_metric_inner_spd_identity():
    m = g.spd(2)
    I = m.identity_point()
    u = tangent(I, I)
    assert g.metric_inner(m, I, u, u) == pytest.approx(2.0, abs=1e-12)


def test_metric_inner_spd_diagonal():
    # oracle: direct evaluation of trace(P^-1 U P^-1 U)
    m = g.spd(2)
    P = pack_sym(np.diag([2.0, 1.0]))
    U = pack_sym(np.diag([2.0, 0.0]))
    Pm, Um = np.diag([2.0, 1.0]), np.diag([2.0, 0.0])
    expected = np.trace(np.linalg.inv(Pm) @ Um @ np.linalg.inv(Pm) @ Um)
    got = g.metric_inner(m, P, tangent(P, U), tangent(P, U))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_metric_inner_base_mismatch():
    m = g.euclidean(2)
    x = np.zeros(2)
    u = tangent(np.ones(2), [1, 0])
    with pytest.raises(BasePointMismatchError):
        g.metric_inner(m, x, u, u)


def test_metric_inner_rejects_non_pd_point():
    m = g.spd(2)
    bad = pack_sym(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefiniteError):
        m.check_point(bad)


def test_transport_euclidean_constant():
    m = g.euclidean(2)
    out = g.transport(m, np.zeros(2), np.array([5.0, -3.0]),
                      tangent(np.zeros(2), [3, 4]))
    assert np.array_equal(out.vec, [3, 4])


def test_transport_spd_scaling():
    # G = (4I)^(1/2) I^(-1/2) = 2I, so I maps to 4I
    m = g.spd(2)
    I = m.identity_point()
    x2 = pack_sym(4.0 * np.eye(2))
    out = g.transport(m, I, x2, tangent(I, I))
    assert np.allclose(out.vec, pack_sym(4.0 * np.eye(2)), atol=1e-12)


def test_transport_same_point_is_identity():
    m = g.spd(2)
    rng = np.random.default_rng(0)
    P = m.random_point(rng)
    U = pack_sym(np.array([[0.3, 0.1], [0.1, -0.2]]))
    out = g.transport(m, P, P, tangent(P, U))
    assert np.allclose(out.vec, U, atol=1e-12)


def test_transport_isometry():
    # the metric must be carried exactly by the transport
    m = g.spd(3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x1, x2 = m.random_point(rng), m.random_point(rng)
        B1 = rng.normal(size=(3, 3))
        B2 = rng.normal(size=(3, 3))
        u = tangent(x1, pack_sym(0.5 * (B1 + B1.T)))
        v = tangent(x1, pack_sym(0.5 * (B2 + B2.T)))
        lhs = g.metric_inner(m, x1, u, v)
        rhs = g.metric_inner(m, x2, g.transport(m, x1, x2, u),
                             g.transport(m, x1, x2, v))
        assert abs(lhs - rhs) < 1e-9


def test_transport_cocycle():
    m = g.spd(2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x1, x2, x3 = (m.random_point(rng) for _ in range(3))
        B = rng.normal(size=(2, 2))
        u = tangent(x1, pack_sym(0.5 * (B + B.T)))
        two_leg = g.transport(m, x2, x3, g.transport(m, x1, x2, u))
        direct = g.transport(m, x1, x3, u)
        assert np.max(np.abs(two_leg.vec - direct.vec)) < 1e-9


def test_distance_euclidean():
    m = g.euclidean(3)
    assert g.distance(m, np.zeros(3), np.array([1.0, 2.0, 2.0])) == pytest.approx(3.0)


def test_distance_spd_log_scaling():
    m = g.spd(2)
    I = m.identity_point()
    y = pack_sym(np.exp(2.0) * np.eye(2))
    assert g.distance(m, I, y) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_distance_identity_of_indiscernibles():
    for m in (g.euclidean(2), g.spd(2)):
        x = m.identity_point()
        assert g.distance(m, x, x) == 0.0


def test_distance_triangle_inequality():
    rng = np.random.default_rng(3)
    for m in (g.euclidean(3), g.spd(2)):
        for _ in range(50):
            x, y, z = (m.random_point(rng) for _ in range(3))
            assert g.distance(m, x, z) <= (
                g.distance(m, x, y) + g.distance(m, y, z) + 1e-9)


def test_point_roundtrip_is_exact():
    # chart coordinates are the primary representation
    m = g.spd(2)
    rng = np.random.default_rng(4)
    v = m.random_point(rng)
    assert np.array_equal(m.check_point(v), v)


def test_packing_is_frobenius_isometric():
    rng = np.random.default_rng(5)
    for _ in range(20):
        B1, B2 = rng.normal(size=(2, 3, 3))
        U, V = 0.5 * (B1 + B1.T), 0.5 * (B2 + B2.T)
        assert np.dot(pack_sym(U), pack_sym(V)) == pytest.approx(
            np.sum(U * V), abs=1e-12)
        assert np.allclose(unpack_sym(pack_sym(U), 3), U, atol=1e-14)


def test_packing_is_the_weighted_upper_triangle_for_every_size():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 5):
        iu, ju = np.triu_indices(n)
        w = np.where(iu == ju, 1.0, np.sqrt(2.0))
        B = rng.normal(size=(4, n, n))
        S = B + np.swapaxes(B, 1, 2)
        v = pack_sym(S)
        assert np.array_equal(v, S[..., iu, ju] * w)
        U = np.zeros_like(S)
        U[..., iu, ju] = v / w
        U[..., ju, iu] = U[..., iu, ju]
        assert np.array_equal(unpack_sym(v, n), U)
        # the index arrays are shared between calls, so nobody may write them
        for a in g._packing(n):
            assert not a.flags.writeable


def _unpack_by_scatter(v, n):
    """unpack_sym as two scatters into zeros: the form the gather replaced."""
    iu, ju = np.triu_indices(n)
    w = np.where(iu == ju, 1.0, np.sqrt(2.0))
    S = np.zeros(v.shape[:-1] + (n, n))
    S[..., iu, ju] = v / w
    S[..., ju, iu] = S[..., iu, ju]
    return S


def test_unpack_is_the_scatter_form_bit_for_bit():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        d = g.sym_dim(n)
        for shape in ((d,), (6, d), (2, 3, d)):
            v = rng.normal(size=shape)
            if len(shape) > 1:
                v.reshape(-1, d)[0, -1] = np.nan  # a nan row
            got, want = unpack_sym(v, n), _unpack_by_scatter(v, n)
            assert got.shape == want.shape == shape[:-1] + (n, n)
            assert np.array_equal(got, want, equal_nan=True)
            ok = ~np.isnan(v).any(axis=-1)
            assert np.array_equal(np.linalg.eigvalsh(got[ok]),
                                  np.linalg.eigvalsh(want[ok]))


def test_norms_equal_numpy_in_range_and_stay_exact_in_scale():
    rng = np.random.default_rng(2)
    V = rng.normal(size=(50, 3))
    for axis in (0, -1):
        assert np.array_equal(g.norms(V, axis), np.linalg.norm(V, axis=axis))
    for k in (-1000, -700, 700, 1000):  # |v|^2 underflows or overflows here
        assert np.array_equal(g.norms(np.ldexp(V, k)),
                              np.ldexp(np.linalg.norm(V, axis=-1), k))
    assert np.array_equal(g.norms(np.zeros((2, 3))), [0.0, 0.0])
    assert np.isnan(g.norms(np.array([np.nan, 1.0])))
