"""Monte-Carlo checks of the convergence theory on concrete systems.

Every experiment is seeded and deterministic: a run draws all of its
random inputs from one generator, ``np.random.default_rng(seed)``, in a
fixed order, so no two of its streams share draws.  States come first,
one row per sample in sample order, so sample i does not depend on N.
Ensembles integrate in chunks of OMEGA_CHUNK rows whose results are
concatenated in sample order.

"Almost every orbit converges" is operationalized honestly: a converged
fraction with a 95% binomial interval, plus a basin-boundary bisection
scan showing the non-convergent set is thin along random transects.
Undetermined omega-estimates reduce the effective sample and are always
reported, never coerced into a theorem-friendly bucket.

The pair theorems (dichotomy, convergence criterion, trichotomy) decide
the conal order with ``relations(field.cone, X, Y)`` on every manifold:
on SPD(n) with the transported PSD field that is the Loewner order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import flow as flowmod
from . import positivity
from .conefield import ConeField
from .cones import conic_combinations
from .errors import ProbeConstructionError
from .flow import NON_SINGLETON, SINGLETON, UNDETERMINED, sample_states
from .geometry import norms
from .order import INC, STRICT, relations

MATCH_TOL = 1e-3  # singleton limits closer than this are the same equilibrium
# rows per ensemble_omega call.  Each call builds its own contraction
# balls, so merging the chunks would share balls across them and move
# certified_at for N > 1024.  The chunking also bounds memory: the tails
# stream, but classify_tail's replay keeps every clustered row's whole
# window (40 MB for 1,000 rows of metzler_linear at T = 100).
OMEGA_CHUNK = 1024
_Z95 = 1.959963984540054
WIDTH_TOL = 1e-3  # basin_boundary_scan bisects until brackets are this narrow
MAX_ROUNDS = 40  # or for this many rounds
SNAP_RADIUS = 0.05  # a state this close to an equilibrium is in its basin
PAIR_BOX = 3.0  # half-width of the box the pair theorems sample x from


def wilson_interval(k: int, n: int):
    """95% score interval for a binomial fraction k/n."""
    if n == 0:
        return (0.0, 1.0)
    z = _Z95
    ph = k / n
    den = 1.0 + z * z / n
    center = (ph + z * z / (2 * n)) / den
    half = z * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / den
    # exact ends: center - half (k = 0) and center + half (k = n) meet 0
    # and 1 only up to rounding
    return (0.0 if k == 0 else max(0.0, center - half),
            1.0 if k == n else min(1.0, center + half))


def _omega_batch(s, X0, T, dt, witnesses=True):
    return [est for i in range(0, len(X0), OMEGA_CHUNK)
            for est in flowmod.ensemble_omega(s, X0[i:i + OMEGA_CHUNK], T, dt,
                                              witnesses=witnesses)]


def _match_cluster(points: list, p: np.ndarray, tol: float):
    for k, q in enumerate(points):
        if np.linalg.norm(p - q) < tol:
            return k
    return None


# ------------------------------------------------------- generic convergence


@dataclass
class ConvergenceReport:
    total: int
    converged: int
    nonsingleton: int
    undetermined: int
    escapes: int
    certified: int  # converged rows retired early by a contraction certificate
    per_equilibrium: list  # [{"point": [...], "count": int}, ...]
    T: float
    seed: int
    interval: tuple
    dp_status: str
    samples: list = dc_field(default_factory=list)  # per-sample CSV rows
    findings: list = dc_field(default_factory=list)

    @property
    def converged_fraction(self) -> float:
        return self.converged / self.total if self.total else 0.0


def generic_convergence(s: flowmod.FlowSystem, field: ConeField, box, N: int,
                        T: float, seed: int = 0,
                        dt: float = flowmod.DT_DEFAULT) -> ConvergenceReport:
    """Classify the omega-limits of N uniform samples.

    The strong-positivity precondition is probed by check_dp and recorded
    in the report (a missing SDP verdict flags the run rather than
    aborting it, so control cases stay runnable).  Escaping samples are
    counted, not fatal.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = np.random.default_rng(seed)
    X0 = sample_states(s, box, N, rng)
    dp_times = [min(0.1, T / 2.0), min(1.0, T)]
    dp_status = positivity.check_dp(s, field, 25, 6, dp_times, rng,
                                    dt=dt).status

    # the witnesses are read only under an SDP verdict
    estimates = _omega_batch(s, X0, T, dt, dp_status == positivity.SDP)

    eq_points: list[np.ndarray] = []
    eq_counts: list[int] = []
    converged = nonsingleton = undet = escapes = certified = 0
    samples, findings = [], []
    for i, est in enumerate(estimates):
        limit, residual = None, None
        if est is None:
            escapes += 1
            outcome = "escape"
        elif est.kind == SINGLETON:
            converged += 1
            outcome = "converged"
            limit = est.point
            residual = est.residual
            certified += est.certified_at is not None
            k = _match_cluster(eq_points, est.point, MATCH_TOL)
            if k is None:
                eq_points.append(est.point.copy())
                eq_counts.append(1)
            else:
                eq_counts[k] += 1
        elif est.kind == NON_SINGLETON:
            nonsingleton += 1
            outcome = "non_singleton"
            if dp_status == positivity.SDP:
                # omega-limit sets of strongly positive flows are unordered;
                # an ordered witness pair is a finding, not a crash: the
                # first b ordered above each a
                W = est.witnesses
                ordered = relations(field.cone, W[:, None], W[None, :]) != INC
                np.fill_diagonal(ordered, False)
                for a in np.flatnonzero(ordered.any(axis=1)):
                    b = np.argmax(ordered[a])
                    findings.append({
                        "kind": "ordered_omega_witnesses",
                        "sample": i,
                        "points": [W[a].tolist(), W[b].tolist()]})
        else:
            undet += 1
            outcome = "undetermined"
        samples.append({
            "index": i,
            "x0": X0[i].tolist(),
            "outcome": outcome,
            "limit": None if limit is None else np.asarray(limit).tolist(),
            "residual": residual if residual is not None else None,
            "certified_at": None if est is None else est.certified_at,
        })

    per_eq = [{"point": p.tolist(), "count": c}
              for p, c in sorted(zip(eq_points, eq_counts),
                                 key=lambda pc: (-pc[1], tuple(pc[0])))]
    return ConvergenceReport(
        total=N, converged=converged, nonsingleton=nonsingleton,
        undetermined=undet, escapes=escapes, certified=certified,
        per_equilibrium=per_eq,
        T=T, seed=seed, interval=wilson_interval(converged, N),
        dp_status=dp_status, samples=samples, findings=findings)


def basin_boundary_scan(s: flowmod.FlowSystem, equilibria, transect_pairs,
                        classify_T: float = 50.0,
                        dt: float = flowmod.DT_DEFAULT) -> dict:
    """Bisect straddling segments to localize basin boundaries.

    Each transect (a, b) must have its endpoints classify to different
    attractors (nearest equilibrium of the time-classify_T state, within
    SNAP_RADIUS).  Bisection keeps the a-side label on the lower end;
    midpoints that classify elsewhere (other attractor, or nowhere) move
    the upper end, so the bracket always contains the basin boundary.
    """
    E = np.asarray(equilibria, dtype=float)
    if not len(E):
        raise ValueError("need the attractor list to classify transects")
    if not len(transect_pairs):
        raise ValueError("need at least one transect to scan")

    def classify(P):
        """Nearest-equilibrium label of each row at classify_T; -1 where
        the row escaped or no equilibrium lies within SNAP_RADIUS."""
        final = flowmod.states_at(s, P, [classify_T], dt,
                                  on_failure="mask")[0]
        d = norms(final[:, None, :] - E)  # (rows, equilibria); nan if escaped
        return np.where(d.min(axis=1) < SNAP_RADIUS, d.argmin(axis=1), -1)

    lo = np.array([np.asarray(a, float) for a, _ in transect_pairs])
    hi = np.array([np.asarray(b, float) for _, b in transect_pairs])
    la = classify(lo)
    lb = classify(hi)
    bad = np.flatnonzero((la < 0) | (lb < 0) | (la == lb))
    if len(bad):
        raise ValueError(f"transect {bad[0]} does not straddle two basins")

    rounds = 0
    widths = np.linalg.norm(hi - lo, axis=1)
    while np.max(widths) > WIDTH_TOL and rounds < MAX_ROUNDS:
        mid = 0.5 * (lo + hi)
        live = ~(widths <= WIDTH_TOL)
        up = (classify(mid) == la)[:, None]  # the a-side label moves lo
        lo = np.where(live[:, None] & up, mid, lo)
        hi = np.where(live[:, None] & ~up, mid, hi)
        widths = np.linalg.norm(hi - lo, axis=1)
        rounds += 1

    transects = [{"lo": lo[i].tolist(), "hi": hi[i].tolist(),
                  "width": float(widths[i]),
                  "labels": (int(la[i]), int(lb[i]))}
                 for i in range(len(transect_pairs))]
    return {"transects": transects, "max_width": float(np.max(widths)),
            "rounds": rounds, "width_tol": WIDTH_TOL,
            "classify_T": classify_T}


# ------------------------------------------------------------ pair theorems


def _sample_ordered_pairs(s, c, pairs: int, seed: int):
    rng = np.random.default_rng(seed)
    X = sample_states(s, PAIR_BOX, pairs, rng)
    rays = c.unit_rays(rng)
    extreme = np.arange(pairs) % 3 == 0
    n_ext = int(np.count_nonzero(extreme))
    dirs = np.empty((pairs, c.dim))
    dirs[extreme] = rays[np.arange(n_ext) % len(rays)]
    dirs[~extreme] = conic_combinations(rays, pairs - n_ext, rng)
    scale = rng.uniform(0.5, 2.0, (pairs, 1))
    Y = X + scale * dirs
    degenerate = np.arange(pairs) % 17 == 16
    Y[degenerate] = X[degenerate]
    return X, Y


def dichotomy_check(s: flowmod.FlowSystem, field: ConeField, pairs: int,
                    T: float, seed: int = 0,
                    dt: float = flowmod.DT_DEFAULT) -> dict:
    """Limit-set dichotomy on sampled ordered pairs x <= y.

    A violation is a pair of distinct singleton limits that is not
    strictly ordered, or intersecting non-singleton estimates whose
    near-intersection points fail the equilibrium residual.  Undetermined
    estimates are excluded and counted separately.  A singleton paired
    with a non-singleton must lie strictly below (or above) every witness.
    A pair sharing one singleton limit is equal_singleton: the co-limit
    principle holds there by construction, as a singleton limit is a point
    Newton polished below EQ_TOL.  The order tests of all pairs are one
    ``relations`` call.
    """
    X, Y = _sample_ordered_pairs(s, field.cone, pairs, seed)
    ests = _omega_batch(s, np.vstack([X, Y]), T, dt)
    ex, ey = ests[:pairs], ests[pairs:]
    escapes = excluded = equal_singleton = mixed = 0
    found = [None] * pairs  # the finding of each violating pair
    tests = []  # (pair, low rows, high rows, finding unless low < high)
    for i, (a, b) in enumerate(zip(ex, ey)):
        if a is None or b is None:
            escapes += 1
        elif UNDETERMINED in (a.kind, b.kind):
            excluded += 1
        elif a.kind == b.kind == NON_SINGLETON:
            mixed += 1
            found[i] = _nonequilibrium_intersection(s, a.witnesses,
                                                    b.witnesses, i)
        elif a.kind == b.kind:
            if np.linalg.norm(a.point - b.point) < MATCH_TOL:
                equal_singleton += 1
            else:
                tests.append((i, a.point, b.point, {
                    "kind": "unordered_distinct_limits", "pair": i,
                    "px": a.point.tolist(), "py": b.point.tolist()}))
        else:
            mixed += 1
            low, high = (e.point if e.kind == SINGLETON else e.witnesses
                         for e in (a, b))
            tests.append((i, low, high,
                          {"kind": "unordered_mixed_limits", "pair": i}))

    strict_order = len(tests)
    if tests:
        low, high = zip(*(np.broadcast_arrays(np.atleast_2d(lo), hi)
                          for _, lo, hi, _ in tests))
        codes = relations(field.cone, np.concatenate(low),
                          np.concatenate(high))
        seg = np.repeat(np.arange(len(tests)), [len(rows) for rows in low])
        for k in np.flatnonzero(np.bincount(seg, codes != STRICT, len(tests))):
            found[tests[k][0]] = tests[k][3]
            strict_order -= 1
    findings = [f for f in found if f is not None]
    return {"violations": len(findings),
            "cases": {"strict_order": strict_order,
                      "equal_singleton": equal_singleton},
            "undetermined_excluded": excluded, "escapes": escapes,
            "nonsingleton_or_mixed": mixed, "pairs": pairs, "T": T,
            "seed": seed, "findings": findings, "system": s.name}


def _nonequilibrium_intersection(s, wa, wb, pair: int):
    """The finding for the first witness of wa within CLUSTER_RADIUS of wb
    that fails the equilibrium residual, or None."""
    d = np.linalg.norm(wa[:, None, :] - wb[None, :, :], axis=-1)
    for ia in np.flatnonzero((d < flowmod.CLUSTER_RADIUS).any(axis=1)):
        res = float(np.linalg.norm(s.f(wa[ia])))
        if res >= 10.0 * flowmod.EQ_TOL:
            return {"kind": "nonequilibrium_intersection", "pair": pair,
                    "point": wa[ia].tolist(), "residual": res}
    return None


def convergence_criterion_check(s: flowmod.FlowSystem, field: ConeField,
                                x_samples: int, T_scan, seed: int = 0,
                                box=3.0, dt: float = flowmod.DT_DEFAULT,
                                omega_T: float = 100.0) -> dict:
    """Orbits comparable with their own time-T image must converge.

    A sample triggers when x <= phi_T(x) or phi_T(x) <= x for some T in
    T_scan; every triggered sample's omega-estimate must then be a
    singleton equilibrium.  A non-singleton estimate is a finding;
    undetermined estimates and escapes are excluded and counted
    separately, as in ``dichotomy_check``.
    """
    T_scan = sorted(float(t) for t in T_scan)
    if not T_scan or T_scan[0] <= 0:
        raise ValueError("T_scan times must be > 0")
    X = sample_states(s, box, x_samples, seed)
    caught = flowmod.states_at(s, X, T_scan, dt, on_failure="mask")

    # an escaped (masked) row is compared with its own start, then dropped
    finite = np.all(np.isfinite(caught), axis=-1)
    Xt = np.where(finite[..., None], caught, X)
    pairs = np.stack([np.broadcast_to(X, Xt.shape), Xt])
    # x <= xt, xt <= x
    fwd, rev = relations(field.cone, pairs, pairs[::-1]) != INC
    hit = finite & (fwd | rev)
    first = np.argmax(hit, axis=0)  # the first T that triggers each sample
    triggered_idx = np.flatnonzero(hit.any(axis=0)).tolist()
    trigger_rows = [{"T": T_scan[first[i]],
                     "direction": "forward" if fwd[first[i], i] else "reversed"}
                    for i in triggered_idx]

    confirmed = excluded = escapes = 0
    findings = []
    if triggered_idx:
        ests = _omega_batch(s, X[triggered_idx], omega_T, dt)
        for j, est in enumerate(ests):
            if est is None:
                escapes += 1
            elif est.kind == SINGLETON:
                confirmed += 1
            elif est.kind == UNDETERMINED:
                excluded += 1
            else:
                findings.append({"kind": "triggered_not_confirmed",
                                 "sample": triggered_idx[j],
                                 "x0": X[triggered_idx[j]].tolist(),
                                 "estimate": est.kind,
                                 "trigger": trigger_rows[j]})
    return {"triggered": len(triggered_idx), "confirmed": confirmed,
            "undetermined_excluded": excluded, "escapes": escapes,
            "samples": x_samples, "T_scan": T_scan, "omega_T": omega_T,
            "seed": seed, "findings": findings, "system": s.name}


def trichotomy_check(s: flowmod.FlowSystem, field: ConeField, x0,
                     n_seq: int, T: float,
                     dt: float = flowmod.DT_DEFAULT) -> dict:
    """Classify the limits of a monotone approximating sequence.

    Builds x_n = x0 - w/n (w the interior section), verifies the chain
    x_1 <= ... <= x_n <= x0 strictly, and matches the omega-limits against
    the three alternatives: (1) strictly increasing limits below omega(x0),
    (2) all limits equal omega(x0), (3) all limits equal a common p
    strictly below omega(x0).  consistent is True iff exactly one branch
    matches; it is None, with no branch, when an estimate is undetermined
    or escaped.
    """
    c = field.cone
    x0 = np.asarray(x0, dtype=float)
    if n_seq < 2:
        raise ValueError("n_seq must be >= 2")
    w = field.section(x0)
    # x_1, ..., x_n, x0: the chain x_i < x_{i+1}, then x_n < x0
    xs = np.vstack([x0 - w / np.arange(1, n_seq + 1)[:, None], x0])
    unordered = np.flatnonzero(relations(c, xs[:-1], xs[1:]) != STRICT)
    if len(unordered):
        raise ProbeConstructionError(
            "sequence is not strictly increasing" if unordered[0] < n_seq - 1
            else "sequence does not approach x0 from below")

    ests = _omega_batch(s, xs, T, dt)
    if any(e is None or e.kind == UNDETERMINED for e in ests):
        return {"branch": None, "consistent": None,
                "reason": "undetermined or escaped omega estimate",
                "n_seq": n_seq, "T": T, "system": s.name}
    if any(e.kind != SINGLETON for e in ests):
        return {"branch": None, "consistent": False,
                "reason": "non-singleton omega estimate",
                "n_seq": n_seq, "T": T, "system": s.name}
    ps = np.array([e.point for e in ests[:-1]])
    p0 = ests[-1].point

    # strictly below and distinct: each limit below the next, then each
    # limit below p0 (row n_seq - 1 compares ps[0] with p0)
    low = np.vstack([ps[:-1], ps])
    high = np.vstack([ps[1:], np.broadcast_to(p0, ps.shape)])
    below = ((relations(c, low, high) == STRICT)
             & ~(np.linalg.norm(high - low, axis=-1) < MATCH_TOL))
    b1 = bool(below.all())
    b2 = bool(np.all(np.linalg.norm(ps - p0, axis=-1) < MATCH_TOL))
    b3 = bool(np.all(np.linalg.norm(ps - ps[0], axis=-1) < MATCH_TOL)
              and below[n_seq - 1])
    matches = [b1, b2, b3]
    branch = matches.index(True) + 1 if sum(matches) == 1 else None
    return {"branch": branch, "consistent": sum(matches) == 1,
            "branch_flags": {"1": b1, "2": b2, "3": b3},
            "limits": ps.tolist(), "limit_x0": p0.tolist(),
            "n_seq": n_seq, "T": T, "system": s.name}
