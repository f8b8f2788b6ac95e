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
cone-positive matrix, so its Perron-Frobenius eigenpair is computed by
power iteration started from the cone-field section (guaranteed interior).
The dominant multiplier rho scales like rho(2 tau) = rho(tau)^2, which is
tested instead of fixing a canonical tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow as flowmod
from .conefield import ConeField
from .errors import ConeExitError, NotEquilibriumError, PowerIterationError
from .geometry import Tangent, metric_norm, norms, scaled

PF_CONVERGED_TOL = 1e-6
POWER_DIR_TOL = 1e-12
POWER_MAX_ITER = 10_000
EIGEN_RESIDUAL_TOL = 1e-8
EXIT_TOL = 1e-7  # cone-exit guard threshold is -10 * EXIT_TOL


@dataclass
class PfResult:
    direction: Tangent  # unit (metric) direction at the final point
    rho: float | None  # dominant multiplier; None away from equilibria
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

    Raises ConeExitError when a propagated ray's containment margin drops
    below -10 * EXIT_TOL (a positivity violation along the orbit), at the
    first stored time it does so.
    """
    x0 = s.manifold.check_point(x0)
    A = np.atleast_2d(np.asarray(rays_a, dtype=float))
    B = np.atleast_2d(np.asarray(rays_b, dtype=float))
    if A.shape != B.shape or A.shape[1] != s.dim:
        raise ValueError("ray arrays must both be (k, dim)")
    k = A.shape[0]
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

    x, W = flowmod._orbit_tangent(s, x0, np.concatenate([A, B]).T, T, dt,
                                  store_stride, record, unit=True)
    W /= _metric_norms(field, x, W)[None, :]
    return np.concatenate(times), np.concatenate(dists), x, W


def pf_direction(s: flowmod.FlowSystem, field: ConeField, x0: np.ndarray,
                 T: float, dt: float = flowmod.DT_DEFAULT,
                 u0: np.ndarray | None = None, u1: np.ndarray | None = None,
                 store_stride: int = flowmod.STORE_STRIDE) -> PfResult:
    """Estimate the Perron-Frobenius direction along the orbit of x0.

    Two distinct interior rays (defaults: the cone-field section and a
    section/boundary mix) ride the tangent flow (see
    ``propagate_ray_pairs``); their Hilbert distance in the cone at the
    moving point is the contraction log.  converged is True when the final
    distance drops below 1e-6; the direction is the first ray at time T, at
    unit metric length.
    """
    x0 = s.manifold.check_point(x0)
    if u0 is None:
        u0 = field.section(x0)
    if u1 is None:
        rng = np.random.default_rng(0)
        b = field.cone.boundary_rays(rng, 1)[0]
        u1 = u0 + 0.5 * b
    times, dists, x_final, W = propagate_ray_pairs(
        s, field, x0, u0[None, :], u1[None, :], T, dt, store_stride)
    log = np.column_stack([times, dists[:, 0]])
    final = float(dists[-1, 0])
    return PfResult(direction=Tangent(x_final, W[:, 0].copy()),
                    rho=None,
                    contraction_log=log,
                    converged=bool(final < PF_CONVERGED_TOL))


def pf_at_equilibrium(s: flowmod.FlowSystem, field: ConeField, e: np.ndarray,
                      tau: float = 1.0, dt: float = flowmod.DT_DEFAULT):
    """Dominant eigenpair of the tangent map over horizon tau at equilibrium e.

    Power iteration starts from the cone-field section (interior, so
    Perron-Frobenius convergence applies whenever the map is strongly
    cone-positive) and must converge: a complex dominant pair raises
    rather than returning a silently wrong answer.

    Returns (v, rho) with v a metric-unit Tangent at e satisfying
    |Phi_tau v - rho v| < 1e-8.
    """
    e = s.manifold.check_point(e)
    res = float(np.linalg.norm(s.f(e)))
    if res >= flowmod.EQ_TOL:
        raise NotEquilibriumError(
            f"|f(e)| = {res:.3e} >= {flowmod.EQ_TOL:.0e}")
    if tau <= 0:
        raise ValueError("tau must be > 0")
    _, phis = flowmod.tangent_at(s, e[None, :], [tau], dt)
    Phi = phis[0, 0]

    v = field.section(e)
    v = v / np.linalg.norm(v)
    converged = False
    for _ in range(POWER_MAX_ITER):
        w = Phi @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            raise PowerIterationError("tangent map annihilated the iterate")
        v_new = w / nw
        if float(np.linalg.norm(v_new - v)) < POWER_DIR_TOL:
            v = v_new
            converged = True
            break
        v = v_new
    if not converged:
        raise PowerIterationError(
            "power iteration did not converge (complex or defective "
            "dominant pair?)")
    rho = float(np.linalg.norm(Phi @ v))
    if float(np.linalg.norm(Phi @ v - rho * v)) >= EIGEN_RESIDUAL_TOL:
        raise PowerIterationError(
            "dominant pair failed the eigen-residual check")

    # report v at metric length 1
    nv = metric_norm(s.manifold, e, Tangent(e, v))
    return Tangent(e, v / nv), rho
