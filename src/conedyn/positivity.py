"""Differential positivity checkers.

A flow is differentially positive (DP) for a cone field when its tangent
flow maps each cone into the cone at the image point, and strongly so
(SDP) when nonzero cone vectors land strictly inside for positive times.
Universal quantification over states, rays, and times is not numerically
testable, so ``check_dp`` samples: a verdict of SDP means "not refuted at
the sampled resolution" and the report carries the sampling parameters.

``cross_positivity_flat`` is the infinitesimal test on flat space with a
polyhedral cone: along every active generator/facet pair (generator on the
facet), the Jacobian must not pull the generator through the facet.  For
polyhedral cones the condition is necessary and sufficient, so failures
are definite and Inconclusive is never returned.

``flat_equivalence`` cross-checks the order-theoretic characterization:
on flat space, DP with a constant cone is the same thing as monotonicity
of the flow for the cone order.  A DP verdict must see every sampled
ordered pair stay ordered; a violated verdict must be confirmed by at
least one pair losing order at the sampled times.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import flow as flowmod
from .conefield import ConeField, ConstantField
from .cones import Cone, OUTSIDE
from .errors import UnsupportedInputError

DP = "DP"
SDP = "SDP"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

DP_TOL = 1e-7  # containment-margin tolerance after time-1 integration
SDP_MARGIN_FLOOR = 1e-6


@dataclass
class DpVerdict:
    status: str
    worst_margin: float
    witness: dict | None  # x0 / ray / t of the worst case
    boundary_margin: float | None  # min interior margin over boundary rays
    params: dict = dc_field(default_factory=dict)


def _sample_points(s, n_points: int, rng: np.random.Generator, box_scale: float):
    if s.manifold.kind == "euclidean":
        return rng.uniform(-box_scale, box_scale, (n_points, s.dim))
    return np.stack([s.manifold.random_point(rng) for _ in range(n_points)])


def _ray_set(cone: Cone, field: ConeField, x0: np.ndarray, k: int,
             rng: np.random.Generator):
    """k nonzero cone rays at x0 with boundary tags.

    Generators (the binding extreme rays) come first, then the section and
    random conic combinations.
    """
    rays, tags = [], []
    gens = cone.generators()
    if gens is not None:
        base = gens / np.linalg.norm(gens, axis=1, keepdims=True)
    else:
        base = cone.boundary_rays(rng, min(4, k))
    for g in base[:k]:
        rays.append(g)
        tags.append(True)
    if len(rays) < k:
        rays.append(field.section(x0))
        tags.append(False)
    while len(rays) < k:
        w = rng.uniform(0.1, 1.0, len(base))
        v = w @ base
        rays.append(v / np.linalg.norm(v))
        tags.append(False)
    return np.asarray(rays[:k]), np.asarray(tags[:k])


def check_dp(s: flowmod.FlowSystem, field: ConeField, x_samples: int,
             ray_samples: int, times, seed: int,
             tol: float = DP_TOL, sdp_margin_floor: float = SDP_MARGIN_FLOOR,
             dt: float = flowmod.DT_DEFAULT, box_scale: float = 2.0) -> DpVerdict:
    """Sampled cone-invariance verdict for the tangent flow.

    For each random state and cone ray, pushes the ray through the tangent
    map at every requested time and classifies the image in the cone at the
    image point (chart cones are already expressed there, so no extra
    transport is applied).  Margins below -10*tol refute positivity;
    margins in [-10*tol, -tol) are inconclusive; otherwise the verdict is
    DP, upgraded to SDP when every boundary-ray image stays strictly
    interior by more than sdp_margin_floor at all sampled t > 0.
    """
    times = sorted(float(t) for t in times)
    if not times or times[0] <= 0:
        raise ValueError("times must all be > 0")
    if x_samples < 1 or ray_samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    X0 = _sample_points(s, x_samples, rng, box_scale)
    ray_list, tag_list = [], []
    for i in range(x_samples):
        r, tg = _ray_set(field.cone_at(X0[i]), field, X0[i], ray_samples, rng)
        ray_list.append(r)
        tag_list.append(tg)

    xs, phis = flowmod.tangent_at(s, X0, times, dt)

    worst = np.inf
    witness = None
    boundary_min = np.inf
    for ti, t in enumerate(times):
        for i in range(x_samples):
            cone_img = field.cone_at(xs[ti, i])
            W = ray_list[i] @ phis[ti, i].T  # rows: Phi_t(x0) v
            for j in range(ray_samples):
                m = cone_img.margin(W[j])
                if m < worst:
                    worst = m
                    witness = {"x0": X0[i].tolist(),
                               "ray": ray_list[i][j].tolist(), "t": t}
                if tag_list[i][j]:
                    boundary_min = min(boundary_min, m)

    if worst < -10.0 * tol:
        status = VIOLATED
    elif worst < -tol:
        status = INCONCLUSIVE
    elif boundary_min > sdp_margin_floor:
        status = SDP
    else:
        status = DP
    params = {"x_samples": x_samples, "ray_samples": ray_samples,
              "times": times, "seed": seed, "tol": tol,
              "sdp_margin_floor": sdp_margin_floor, "dt": dt,
              "box_scale": box_scale, "system": s.name}
    return DpVerdict(status, float(worst), witness,
                     float(boundary_min) if np.isfinite(boundary_min) else None,
                     params)


def cross_positivity_flat(s: flowmod.FlowSystem, c: Cone, x_samples: int,
                          seed: int, tol: float = DP_TOL,
                          box_scale: float = 2.0) -> DpVerdict:
    """Infinitesimal positivity test on flat space with a polyhedral cone.

    For every sampled state x, generator g, and facet normal lam with
    <lam, g> = 0, requires <lam, jac(x) g> >= -tol.
    """
    if s.manifold.kind != "euclidean":
        raise UnsupportedInputError("cross-positivity needs a flat manifold")
    gens = c.generators()
    normals = c.facet_normals()
    if gens is None or normals is None:
        raise UnsupportedInputError("cross-positivity needs a polyhedral cone")
    gens = gens / np.linalg.norm(gens, axis=1, keepdims=True)
    active = [(g, lam) for g in gens for lam in normals
              if abs(float(np.dot(lam, g))) < 1e-12]

    rng = np.random.default_rng(seed)
    X = rng.uniform(-box_scale, box_scale, (x_samples, s.dim))
    worst = np.inf
    witness = None
    for x in X:
        J = s.jac(x)
        for g, lam in active:
            val = float(np.dot(lam, J @ g))
            if val < worst:
                worst = val
                witness = {"x0": x.tolist(), "ray": g.tolist(),
                           "facet_normal": lam.tolist(), "t": 0.0}
    status = DP if worst >= -tol else VIOLATED
    params = {"x_samples": x_samples, "seed": seed, "tol": tol,
              "box_scale": box_scale, "system": s.name,
              "active_pairs": len(active)}
    return DpVerdict(status, float(worst), witness, None, params)


def flat_equivalence(s: flowmod.FlowSystem, c: Cone, pairs: int, T: float,
                     seed: int, dt: float = flowmod.DT_DEFAULT,
                     tol: float = DP_TOL, box_scale: float = 2.0,
                     dp_x_samples: int = 25, dp_ray_samples: int = 6) -> dict:
    """Cross-check DP verdict against flow monotonicity on ordered pairs.

    Samples ordered pairs x <= y (y = x + random cone element, cycling
    through the generators first so extreme directions are always probed),
    checks order preservation at t in {T/2, T}, and compares with the
    check_dp verdict at the same two times.  agreement = fraction of
    ordered pairs when the verdict is DP/SDP; when the verdict refutes
    positivity, agreement is 1.0 iff at least one pair lost order.
    """
    if s.manifold.kind != "euclidean":
        raise UnsupportedInputError("flat_equivalence needs a flat manifold")
    check_times = [T / 2.0, T]
    dp = check_dp(s, ConstantField(c), dp_x_samples, dp_ray_samples,
                  check_times, seed, tol=tol, dt=dt, box_scale=box_scale)
    dp_pass = dp.status in (DP, SDP)

    rng = np.random.default_rng(seed)
    gens = c.generators()
    base = (gens / np.linalg.norm(gens, axis=1, keepdims=True)
            if gens is not None else c.boundary_rays(rng, 4))
    X = rng.uniform(-box_scale, box_scale, (pairs, s.dim))
    dirs = np.empty_like(X)
    for i in range(pairs):
        if i < 2 * len(base):
            dirs[i] = base[i % len(base)]
        else:
            w = rng.uniform(0.1, 1.0, len(base))
            v = w @ base
            dirs[i] = v / np.linalg.norm(v)
    Y = X + rng.uniform(0.5, 1.5, (pairs, 1)) * dirs

    both = np.vstack([X, Y])
    caught = flowmod.states_at(s, both, check_times, dt)
    ordered = np.ones(pairs, dtype=bool)
    for ti in range(len(check_times)):
        xt, yt = caught[ti, :pairs], caught[ti, pairs:]
        ordered[c.margins(yt - xt) < -tol] = False  # left the cone: order lost
    n_ordered = int(np.sum(ordered))
    if dp_pass:
        agreement = n_ordered / pairs
    else:
        agreement = 1.0 if n_ordered < pairs else 0.0
    return {"agreement": float(agreement), "dp_status": dp.status,
            "pairs": pairs, "pairs_ordered": n_ordered,
            "pairs_violated": pairs - n_ordered,
            "times": check_times, "seed": seed, "system": s.name}
