import numpy as np
import pytest

from conedyn import flow, geometry, registry
from conedyn.conefield import (
    ConeField,
    ConstantField,
    HomogeneousPSDField,
    check_gamma_invariance,
    field_from_spec,
    field_to_spec,
)
from conedyn.cones import Lorentz, Orthant, PSDCone
from conedyn.errors import DimensionMismatchError, NotPositiveDefiniteError
from conedyn.experiments import generic_convergence
from conedyn.geometry import pack_sym, unpack_sym
from conedyn.order import INC, STRICT, reachable_grid, relations
from conedyn.pf import pf_direction
from conedyn.positivity import check_dp
from helpers import constant_system


def test_constant_cone_at_everywhere():
    f = ConstantField(Orthant(2))
    assert f.cone_at(np.array([5.0, -3.0])) is f.cone
    # the transported PSD field has one chart cone too, checked points only
    f = HomogeneousPSDField(2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert f.cone_at(f.manifold.random_point(rng)) is f.cone
    with pytest.raises(NotPositiveDefiniteError):
        f.cone_at(pack_sym(np.diag([1.0, -1.0])))
    with pytest.raises(DimensionMismatchError):
        f.cone_at(np.ones(2))


def test_homogeneous_cone_at_base_point():
    f = HomogeneousPSDField(2)
    assert isinstance(f.cone_at(f.base_point), PSDCone)


def test_homogeneous_congruence_preserves_psd():
    # oracle: congruence by G keeps eigenvalues nonnegative; 100 random PSD
    f = HomogeneousPSDField(2)
    m = f.manifold
    x = pack_sym(np.diag([4.0, 1.0]))
    rng = np.random.default_rng(0)
    for _ in range(100):
        B = rng.normal(size=(2, 2))
        S = B @ B.T  # random PSD
        w = f.transport_vec(f.base_point, x, pack_sym(S))
        assert np.min(np.linalg.eigvalsh(unpack_sym(w, 2))) >= -1e-12
    assert isinstance(f.cone_at(x), PSDCone)


def test_gamma_invariance_constant_exact():
    rep = check_gamma_invariance(ConstantField(Orthant(2)), samples=20, seed=0)
    assert rep["max_violation"] == 0.0


def test_gamma_invariance_homogeneous_psd():
    rep = check_gamma_invariance(HomogeneousPSDField(2), samples=100, seed=1)
    assert rep["max_violation"] >= -1e-9


def test_gamma_invariance_broken_field():
    # a rotation is not an orthant automorphism: (0,1) rotates out
    theta = np.deg2rad(30.0)
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    broken = ConstantField(Orthant(2), transport=lambda x1, x2, v: R @ v)
    rep = check_gamma_invariance(broken, samples=50, seed=2)
    assert rep["max_violation"] < -0.1


def test_section_constant_orthant():
    f = ConstantField(Orthant(2))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=2)
        v = f.section(x)
        assert np.allclose(v, np.ones(2) / np.sqrt(2))
        assert f.cone.margin(v) == pytest.approx(1 / np.sqrt(2))


def test_section_homogeneous_identity():
    f = HomogeneousPSDField(2)
    v = f.section(f.base_point)
    assert np.allclose(unpack_sym(v, 2), np.eye(2) / np.sqrt(2), atol=1e-12)
    assert relations(f.cone, 0, v) == STRICT


def test_section_margin_floor_constant():
    # sampled section margins stay at least half the base witness margin
    f = ConstantField(Orthant(2))
    o = f.manifold.identity_point()
    base_margin = f.cone_at(o).margin(f.section(o))
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = f.manifold.random_point(rng)
        assert relations(f.cone_at(x), 0, f.section(x)) == STRICT
        assert f.cone_at(x).margin(f.section(x)) >= 0.5 * base_margin


def test_section_margin_floor_homogeneous():
    # the chart margin of the transported section is point-dependent, but
    # the transport-invariant margin (pull the section back to the base
    # point) equals the base witness margin exactly
    f = HomogeneousPSDField(2)
    o = f.base_point
    base_margin = f.cone.margin(f.section(o))
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = f.manifold.random_point(rng)
        assert relations(f.cone_at(x), 0, f.section(x)) == STRICT
        pulled = f.transport_vec(x, o, f.section(x))
        assert f.cone.margin(pulled) == pytest.approx(
            base_margin, abs=1e-9)


def test_section_integral_curve_is_conal():
    # the section of the constant orthant field integrates to a straight
    # line: time 1 from the origin lands on (1,1)/sqrt(2)
    f = ConstantField(Orthant(2))
    sys = constant_system(f.section(np.zeros(2)), "section_flow")
    traj = flow.integrate(sys, np.zeros(2), T=1.0, dt=1e-3)
    assert np.allclose(traj.states[-1], np.ones(2) / np.sqrt(2), atol=1e-12)
    assert np.all(relations(f.cone, traj.states[:-1], traj.states[1:]) != INC)


def test_transport_preserves_membership_region():
    f = HomogeneousPSDField(2)
    m = f.manifold
    rng = np.random.default_rng(5)
    for _ in range(200):
        x1, x2 = m.random_point(rng), m.random_point(rng)
        ray = f.cone_at(x1).boundary_rays(rng, 1)[0]
        w = f.transport_vec(x1, x2, ray)
        assert abs(f.cone_at(x2).margin(w)) < 1e-9  # stays on the boundary


def test_field_spec_roundtrip():
    for f in (ConstantField(Orthant(2)), HomogeneousPSDField(2)):
        again = field_from_spec(field_to_spec(f))
        assert type(again) is type(f)
        assert again.manifold == f.manifold


def _no_point_lookup(self, x):
    raise AssertionError("a caller looked the cone up point by point")


def test_callers_read_the_one_chart_cone(monkeypatch):
    # cone_at is defined once, on the base class, and no caller needs it
    assert "cone_at" not in vars(ConstantField)
    assert "cone_at" not in vars(HomogeneousPSDField)
    monkeypatch.setattr(ConeField, "cone_at", _no_point_lookup)
    for name in ("coop2d", "spd_lyapunov"):  # orthant and PSD fields
        s = registry.get_system(name)
        field = registry.default_field(s)
        check_dp(s, field, 4, 6, [0.1, 0.5], seed=0)
        pf_direction(s, field, registry.DEFAULT_X0[name], T=0.5)
        generic_convergence(s, field, box=2.0, N=5, T=1.0, seed=0)
    reach = reachable_grid(ConstantField(Lorentz(2)), np.zeros(2),
                           ((0.0, 2.0), (-2.0, 2.0)), 21, 16)
    assert reach.grid.any()
