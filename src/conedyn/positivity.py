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
from .cones import Cone, conic_combinations
from .errors import UnsupportedInputError
from .order import INC, relations

DP = "DP"
SDP = "SDP"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

DP_TOL = 1e-7  # containment-margin tolerance after time-1 integration
SDP_MARGIN_FLOOR = 1e-6
BOX_SCALE = 2.0  # sampled states are uniform in [-BOX_SCALE, BOX_SCALE]^n


@dataclass
class DpVerdict:
    status: str
    worst_margin: float
    witness: dict | None  # x0 / ray / t of the worst case
    boundary_margin: float | None  # min interior margin over boundary rays
    params: dict = dc_field(default_factory=dict)


def _ray_set(field: ConeField, x0: np.ndarray, k: int,
             rng: np.random.Generator):
    """k nonzero rays of the field's cone at x0 with boundary tags.

    The unit extreme rays come first, then the section and random conic
    combinations.
    """
    rays = field.cone.unit_rays(rng)
    combos = conic_combinations(rays, max(k - len(rays) - 1, 0), rng)
    out = np.vstack([rays, field.section(x0), combos])[:k]
    return out, np.arange(k) < len(rays)


def _first_min(values: np.ndarray):
    """(value, index) of the first strict minimum of values in C order, as
    a scan keeping ``v < worst`` from worst = inf would find it: nan
    entries never win.  (inf, None) when no entry is below inf."""
    seen = np.where(np.isnan(values), np.inf, values)
    if seen.size:
        first = int(np.argmin(seen))
        if seen.flat[first] < np.inf:
            return seen.flat[first], np.unravel_index(first, seen.shape)
    return np.inf, None


def _rk4_step_not_positive(s: flowmod.FlowSystem, cone: Cone, X0: np.ndarray,
                           rays: np.ndarray, dt: float) -> bool:
    """True when RK4's step map, not the flow, refutes positivity at the
    sampled states X0: the step map at DT_DEFAULT keeps every ray of
    rays[i] (the rays drawn at X0[i]) within DP_TOL of the cone, and the
    map at dt pushes one out by more than 10 DP_TOL.

    RK4's stability polynomial is absolutely monotonic on [-1, 0] and on
    no larger interval, so its step map at a large h need not be positive
    where the flow is; a system that is not positive fails at DT_DEFAULT
    too.  One ``_rk4_step_map`` and one batched ``margins`` call per step.
    """
    def margins(h):
        M = flowmod._rk4_step_map(s, X0, h)[1]
        return cone.margins(rays @ M.transpose(0, 2, 1))

    with np.errstate(all="ignore"):  # a map at a huge dt may overflow
        return bool(np.all(margins(flowmod.DT_DEFAULT) >= -DP_TOL)
                    and np.any(margins(dt) < -10.0 * DP_TOL))


def check_dp(s: flowmod.FlowSystem, field: ConeField, x_samples: int,
             ray_samples: int, times, seed: int | np.random.Generator,
             dt: float = flowmod.DT_DEFAULT) -> DpVerdict:
    """Sampled cone-invariance verdict for the tangent flow.

    For each random state and cone ray, pushes the ray through the tangent
    map at every requested time and classifies the image in the field's
    chart cone, which is the cone at the image point (chart cones are
    already expressed there, so no extra transport is applied).  With
    tol = DP_TOL, margins below -10*tol refute positivity; margins in
    [-10*tol, -tol) are inconclusive; otherwise the verdict is DP,
    upgraded to SDP when every boundary-ray image stays strictly interior
    by more than SDP_MARGIN_FLOOR at all sampled t > 0.  A refutation at
    dt above DT_DEFAULT that RK4's step map explains
    (``_rk4_step_not_positive``) is inconclusive instead, with
    params["rk4_step_not_positive"] set.
    """
    times = sorted(float(t) for t in times)
    if not times or times[0] <= 0:
        raise ValueError("times must all be > 0")
    if x_samples < 1 or ray_samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    X0 = flowmod.sample_states(s, BOX_SCALE, x_samples, rng)
    ray_list, tag_list = [], []
    for i in range(x_samples):
        r, tg = _ray_set(field, X0[i], ray_samples, rng)
        ray_list.append(r)
        tag_list.append(tg)

    _, phis = flowmod.tangent_at(s, X0, times, dt)

    cone = field.cone
    worst = np.inf
    witness = None
    boundary_min = np.inf
    for ti, t in enumerate(times):
        for i in range(x_samples):
            W = ray_list[i] @ phis[ti, i].T  # rows: Phi_t(x0) v
            for j in range(ray_samples):
                m = cone.margin(W[j])
                if m < worst:
                    worst = m
                    witness = {"x0": X0[i].tolist(),
                               "ray": ray_list[i][j].tolist(), "t": t}
                if tag_list[i][j]:
                    boundary_min = min(boundary_min, m)

    if worst < -10.0 * DP_TOL:
        status = VIOLATED
    elif worst < -DP_TOL:
        status = INCONCLUSIVE
    elif boundary_min > SDP_MARGIN_FLOOR:
        status = SDP
    else:
        status = DP
    params = {"x_samples": x_samples, "ray_samples": ray_samples,
              "times": times, "seed": seed, "tol": DP_TOL,
              "sdp_margin_floor": SDP_MARGIN_FLOOR, "dt": dt,
              "box_scale": BOX_SCALE, "system": s.name}
    if (status == VIOLATED and dt > flowmod.DT_DEFAULT
            and _rk4_step_not_positive(s, cone, X0, np.array(ray_list), dt)):
        status = INCONCLUSIVE
        params["rk4_step_not_positive"] = True
    return DpVerdict(status, float(worst), witness,
                     float(boundary_min) if np.isfinite(boundary_min) else None,
                     params)


def cross_positivity_flat(s: flowmod.FlowSystem, c: Cone, x_samples: int,
                          seed: int) -> DpVerdict:
    """Infinitesimal positivity test on flat space with a polyhedral cone.

    For every sampled state x, generator g, and facet normal lam with
    <lam, g> = 0, requires <lam, jac(x) g> >= -DP_TOL.  One ``jac`` call
    covers every sample; the witness is the first strict minimum in
    (x, pair) order.
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

    X = flowmod.sample_states(s, BOX_SCALE, x_samples, seed)
    J = s.jac(X)
    vals = np.empty((len(X), len(active)))
    for p, (g, lam) in enumerate(active):
        vals[:, p] = J @ g @ lam
    worst, at = _first_min(vals)
    witness = None
    if at is not None:
        g, lam = active[at[1]]
        witness = {"x0": X[at[0]].tolist(), "ray": g.tolist(),
                   "facet_normal": lam.tolist(), "t": 0.0}
    status = DP if worst >= -DP_TOL else VIOLATED
    params = {"x_samples": x_samples, "seed": seed, "tol": DP_TOL,
              "box_scale": BOX_SCALE, "system": s.name,
              "active_pairs": len(active)}
    return DpVerdict(status, float(worst), witness, None, params)


def flat_equivalence(s: flowmod.FlowSystem, c: Cone, pairs: int, T: float,
                     seed: int, dt: float = flowmod.DT_DEFAULT) -> dict:
    """Cross-check DP verdict against flow monotonicity on ordered pairs.

    Samples ordered pairs x <= y (y = x + random cone element, cycling
    through the generators first so extreme directions are always probed),
    checks order preservation at t in {T/2, T}, and compares with the
    check_dp verdict (25 states, 6 rays each) at the same two times, at
    tolerance DP_TOL.  agreement = fraction of
    ordered pairs when the verdict is DP/SDP; when the verdict refutes
    positivity, agreement is 1.0 iff at least one pair lost order.
    """
    if s.manifold.kind != "euclidean":
        raise UnsupportedInputError("flat_equivalence needs a flat manifold")
    check_times = [T / 2.0, T]
    rng = np.random.default_rng(seed)  # the pairs follow check_dp's draws
    dp = check_dp(s, ConstantField(c), 25, 6, check_times, rng, dt=dt)
    dp_pass = dp.status in (DP, SDP)

    rays = c.unit_rays(rng)
    X = flowmod.sample_states(s, BOX_SCALE, pairs, rng)
    n_ext = min(pairs, 2 * len(rays))
    dirs = np.vstack([rays[np.arange(n_ext) % len(rays)],
                      conic_combinations(rays, pairs - n_ext, rng)])
    Y = X + rng.uniform(0.5, 1.5, (pairs, 1)) * dirs

    both = np.vstack([X, Y])
    caught = flowmod.states_at(s, both, check_times, dt)
    # a pair that is incomparable at either time lost its order
    ordered = np.all(
        relations(c, caught[:, :pairs], caught[:, pairs:], DP_TOL) != INC,
        axis=0)
    n_ordered = int(np.sum(ordered))
    if dp_pass:
        agreement = n_ordered / pairs
    else:
        agreement = 1.0 if n_ordered < pairs else 0.0
    return {"agreement": float(agreement), "dp_status": dp.status,
            "pairs": pairs, "pairs_ordered": n_ordered,
            "pairs_violated": pairs - n_ordered,
            "times": check_times, "seed": seed, "system": s.name}
