"""Perron-Frobenius directions of cone-positive tangent flows.

Along an orbit of a positive system, any two interior cone rays pushed by
the tangent flow approach each other in the Hilbert projective metric of
the cone at the moving point; the common limit direction is the
Perron-Frobenius direction of the orbit.  ``pf_direction`` propagates two
rays and records the contraction log.  Rays are directions: margins and
Hilbert distances ignore scale, so they ride the orbit's tangent map at
unit Euclidean length, renormalized every step, and are put at unit metric
length once, on return.  The stored records of each chunk of steps are
checked in one batched cone call.

At an equilibrium the tangent map over a fixed horizon tau is a single
matrix, so its Perron-Frobenius pair comes from one eigendecomposition:
Krein-Rutman asks for a simple, real, positive eigenvalue, strictly
ahead of every other modulus, with its eigenvector in the cone, and
``pf_at_equilibrium`` raises unless the map shows all of it.  The
dominant multiplier rho scales like rho(2 tau) = rho(tau)^2, which is
tested instead of fixing a canonical tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow as flowmod
from .conefield import ConeField
from .cones import DEFAULT_TOL
from .errors import (ConeExitError, DimensionMismatchError,
                     NotEquilibriumError, PowerIterationError)
from .geometry import Tangent, metric_norm, norms, scaled

PF_CONVERGED_TOL = 1e-6
# least relative lead of the dominant modulus: well above eig's error on a
# defective pair (sqrt(eps) ~ 1.5e-8), so a Jordan block never passes
DOMINANCE_GAP = 1e-6
EIGEN_RESIDUAL_TOL = 1e-8
EXIT_TOL = 1e-7  # cone-exit guard threshold is -10 * EXIT_TOL


@dataclass
class PfResult:
    direction: Tangent  # unit (metric) direction at the final point
    contraction_log: np.ndarray  # rows (t, hilbert distance between test rays)
    converged: bool


def _metric_norms(field: ConeField, x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Metric norms of the columns of W at x, exact in scale.

    On SPD, |u|_x scales as |u| / |x|, so each column is first brought to
    the scale of x by a power of two (``geometry.scaled``); the products
    in the metric then neither underflow nor overflow for a point far from
    unit size, and in the normal range the norms keep every bit.
    """
    m = field.manifold
    if m.kind == "euclidean":
        return norms(W, axis=0)
    U, e = scaled(W, axis=0)
    a = int(np.frexp(np.max(np.abs(x)))[1])
    U = np.ldexp(U, a)
    return np.ldexp([metric_norm(m, x, Tangent(x, U[:, j]))
                     for j in range(W.shape[1])], e[0] - a)


def propagate_ray_pairs(s: flowmod.FlowSystem, field: ConeField,
                        x0: np.ndarray, rays_a: np.ndarray, rays_b: np.ndarray,
                        T: float, dt: float = flowmod.DT_DEFAULT,
                        store_stride: int = flowmod.STORE_STRIDE):
    """Push k ray pairs along one orbit, renormalizing every step.

    The rays are the columns of a tangent matrix on the orbit's shared flow
    march (same step plan and manifold guard as every other flow path),
    scaled to unit Euclidean length after each step: margins and Hilbert
    distances ignore scale.  Each chunk of stored steps takes one
    ``margins`` call and one ``hilbert_distances`` call in the field's
    chart cone.

    Returns (times, dists, x_final, W_final) where dists[m, j] is the
    Hilbert distance of pair j at stored time m and W_final holds the
    propagated rays as columns (a-rays then b-rays), at unit metric length.

    Raises ValueError, before marching, unless both ray arrays are (k, dim)
    with k >= 1 and every ray is finite and nonzero, and ConeExitError when
    a propagated ray's containment margin drops below -10 * EXIT_TOL (a
    positivity violation along the orbit), at the first stored time it
    does so.
    """
    x0 = s.manifold.check_point(x0)
    A = np.atleast_2d(np.asarray(rays_a, dtype=float))
    B = np.atleast_2d(np.asarray(rays_b, dtype=float))
    if A.shape != B.shape or A.shape[1:] != (s.dim,) or not len(A):
        raise ValueError("rays must come as two (k, dim) arrays, k >= 1")
    R = np.concatenate([A, B])
    if not (np.isfinite(R).all() and R.any(axis=1).all()):
        raise ValueError("rays must be finite and nonzero")
    k = len(A)
    cone = field.cone
    times: list[np.ndarray] = []
    dists: list[np.ndarray] = []

    def record(ts, _xs, Ws):
        rays = np.swapaxes(Ws, 1, 2)  # (stored, 2k, dim)
        worst = np.min(cone.margins(rays), axis=1)
        out = np.flatnonzero(worst < -10.0 * EXIT_TOL)
        if out.size:
            j = out[0]
            raise ConeExitError(
                f"ray left the cone at t={ts[j]:.6g} (margin {worst[j]:.3e})")
        times.append(ts)
        dists.append(cone.hilbert_distances(rays[:, :k], rays[:, k:]))

    x, W = flowmod._orbit_tangent(s, x0, R.T, T, dt, store_stride, record,
                                  unit=True)
    W /= _metric_norms(field, x, W)[None, :]
    return np.concatenate(times), np.concatenate(dists), x, W


def pf_direction(s: flowmod.FlowSystem, field: ConeField, x0: np.ndarray,
                 T: float, dt: float = flowmod.DT_DEFAULT) -> PfResult:
    """Estimate the Perron-Frobenius direction along the orbit of x0.

    Two distinct interior rays (the cone-field section and a
    section/boundary mix) ride the tangent flow (see
    ``propagate_ray_pairs``); their Hilbert distance in the cone at the
    moving point is the contraction log.  converged is True when the final
    distance drops below 1e-6; the direction is the first ray at time T, at
    unit metric length.
    """
    x0 = s.manifold.check_point(x0)
    u0 = field.section(x0)
    b = field.cone.boundary_rays(np.random.default_rng(0), 1)[0]
    times, dists, x_final, W = propagate_ray_pairs(
        s, field, x0, u0[None, :], (u0 + 0.5 * b)[None, :], T, dt)
    log = np.column_stack([times, dists[:, 0]])
    return PfResult(direction=Tangent(x_final, W[:, 0].copy()),
                    contraction_log=log,
                    converged=bool(dists[-1, 0] < PF_CONVERGED_TOL))


def pf_at_equilibrium(s: flowmod.FlowSystem, field: ConeField, e: np.ndarray,
                      tau: float = 1.0, dt: float = flowmod.DT_DEFAULT):
    """Dominant eigenpair of the tangent map Phi over horizon tau at
    equilibrium e, from one eigendecomposition of Phi.

    Raises PowerIterationError unless the eigenvalue of largest modulus is
    real, positive and ahead of every other modulus by the relative gap
    DOMINANCE_GAP (a complex or defective dominant pair fails), and unless
    its eigenvector, oriented by the sign with the larger margin, lies in
    ``field.cone`` (margin >= -DEFAULT_TOL): a dominant pair outside the
    cone is no Perron-Frobenius pair.

    Returns (v, rho) with v a metric-unit Tangent at e satisfying
    |Phi_tau v - rho v| < 1e-8 at unit Euclidean length.
    """
    e = s.manifold.check_point(e)
    if e.ndim != 1:
        raise DimensionMismatchError(f"e must be one point, not {e.shape}")
    res = float(norms(s.f(e)))  # exact in scale: a far point cannot overflow
    if res >= flowmod.EQ_TOL:
        raise NotEquilibriumError(
            f"|f(e)| = {res:.3e} >= {flowmod.EQ_TOL:.0e}")
    if tau <= 0:
        raise ValueError("tau must be > 0")
    Phi = flowmod.tangent_at(s, e[None, :], [tau], dt)[1][0, 0]
    lams, V = np.linalg.eig(Phi)
    first, *rest = np.argsort(-np.abs(lams))
    lam = lams[first]
    ahead = np.abs(lams[rest]) <= (1.0 - DOMINANCE_GAP) * abs(lam)
    if not (lam.imag == 0.0 and lam.real > 0.0 and ahead.all()):
        raise PowerIterationError(
            f"no simple, real, positive dominant eigenvalue among {lams}")
    rho, v = float(lam.real), V[:, first].real
    m = field.cone.margins(np.array([v, -v]))
    if m[1] > m[0]:
        v, m = -v, m[::-1]
    if not m[0] >= -DEFAULT_TOL:
        raise PowerIterationError(
            f"dominant eigenvector {v} lies outside the cone "
            f"(margin {m[0]:.3e})")
    if float(np.linalg.norm(Phi @ v - rho * v)) >= EIGEN_RESIDUAL_TOL:
        raise PowerIterationError(
            "dominant pair failed the eigen-residual check")
    return Tangent(e, v / metric_norm(s.manifold, e, Tangent(e, v))), rho
