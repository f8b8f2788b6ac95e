"""Conal-order oracles and causal-structure probes.

Three order oracles ship:

* flat:      x <= y iff y - x lies in a fixed cone (the straight segment
             from x to y is then an order-respecting curve, so the
             algebraic test and the curve-based order coincide);
* Minkowski: 1+1 space-time with coordinates (t, x); causal order
             dt >= |dx|, chronological (strict) order dt > |dx|;
* Loewner:   SPD(n) points packed in chart coordinates, P <= Q iff Q - P
             is positive semidefinite (the flat test with the PSD cone).

``reachable_grid`` discretizes curve-based reachability: breadth-first
propagation over a rectangular grid, stepping only along displacement
directions that the local cone admits (up to a slack that keeps exactly
null directions connected).  ``quasi_closed_probe`` and
``continuity_probe`` check closure and continuity behavior of the orders
on constructed limit sequences.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .conefield import ConeField, ConstantField
from .cones import (
    BOUNDARY,
    DEFAULT_TOL,
    INTERIOR,
    Cone,
    Lorentz,
    PSDCone,
)
from .errors import DimensionMismatchError, ProbeConstructionError

LEQ_STRICT = "leq_strict"
LEQ = "leq"
INCOMPARABLE = "incomparable"

CHRONOLOGICAL = "chronological"
CAUSAL = "causal"


@dataclass
class OrderVerdict:
    relation: str
    certificate: np.ndarray | None = None  # polyline rows, when ordered


def leq_flat(c: Cone, x: np.ndarray, y: np.ndarray,
             tol: float = DEFAULT_TOL) -> OrderVerdict:
    """Order verdict for the constant-cone order on flat space.

    y - x interior -> strictly ordered; boundary (including y = x) ->
    weakly ordered; outside -> incomparable.  The certificate is the
    straight segment, which has constant velocity y - x in the cone.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.shape[-1] != c.dim:
        raise DimensionMismatchError("point dimensions do not match the cone")
    cont = c.contains(y - x, tol)
    if cont.region == INTERIOR:
        return OrderVerdict(LEQ_STRICT, np.vstack([x, y]))
    if cont.region == BOUNDARY:
        return OrderVerdict(LEQ, np.vstack([x, y]))
    return OrderVerdict(INCOMPARABLE, None)


def minkowski_relation(p: np.ndarray, q: np.ndarray) -> OrderVerdict:
    """Analytic causal/chronological verdict on 1+1 Minkowski space."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (2,) or q.shape != (2,):
        raise DimensionMismatchError("Minkowski points are (t, x) pairs")
    dt = q[0] - p[0]
    dx = abs(q[1] - p[1])
    if dt > dx:
        return OrderVerdict(LEQ_STRICT, np.vstack([p, q]))
    if dt >= dx:
        return OrderVerdict(LEQ, np.vstack([p, q]))
    return OrderVerdict(INCOMPARABLE, None)


def leq_loewner(n: int, x: np.ndarray, y: np.ndarray,
                tol: float = DEFAULT_TOL) -> OrderVerdict:
    """Loewner order on packed SPD(n) chart points: x <= y iff y - x is PSD."""
    return leq_flat(PSDCone(n), x, y, tol)


# ----------------------------------------------------------- order oracles


class FlatOrderOracle:
    """Order oracle for a constant cone on flat space, probe-ready."""

    def __init__(self, cone: Cone):
        self.cone = cone
        self.shift = cone.interior_witness()

    def relation(self, x, y) -> OrderVerdict:
        return leq_flat(self.cone, x, y)

    def boundary_pair(self, rng: np.random.Generator):
        """A pair (x, y) with y - x on the cone boundary (or y = x)."""
        x = rng.normal(size=self.cone.dim)
        if rng.integers(0, 10) == 0:
            return x, x.copy()
        ray = self.cone.boundary_rays(rng, 1)[0]
        return x, x + rng.uniform(0.5, 2.0) * ray


def _dyadic(rng: np.random.Generator, lo: float, hi: float, size=None):
    """Uniform draw snapped to the 2^-20 grid, so small sums stay exact.

    Null separations are knife-edge equalities; building them from dyadic
    coordinates keeps the analytic comparisons exact in float64.
    """
    scale = 2.0 ** 20
    return np.round(rng.uniform(lo, hi, size) * scale) / scale


class MinkowskiOracle:
    """Analytic causal-order oracle on 1+1 Minkowski space."""

    def __init__(self):
        self.shift = np.array([1.0, 0.0])

    def relation(self, p, q) -> OrderVerdict:
        return minkowski_relation(p, q)

    def boundary_pair(self, rng: np.random.Generator):
        p = _dyadic(rng, -2.0, 2.0, 2)
        if rng.integers(0, 10) == 0:
            return p, p.copy()
        sgn = 1.0 if rng.integers(0, 2) == 0 else -1.0
        s = _dyadic(rng, 0.5, 2.0)
        return p, p + s * np.array([1.0, sgn])


# ------------------------------------------------------------- future sets


@dataclass
class FutureSet:
    """Grid bitmap of a future set, with the analytic predicate if known."""

    kind: str  # CHRONOLOGICAL | CAUSAL
    base: np.ndarray
    t_centers: np.ndarray
    x_centers: np.ndarray
    grid: np.ndarray  # bool, shape (len(t_centers), len(x_centers))
    predicate: object = None  # callable(q) -> bool, or None for grid-only sets

    def contains_point(self, q) -> bool:
        if self.predicate is None:
            raise ValueError("this future set has no analytic predicate")
        return bool(self.predicate(np.asarray(q, dtype=float)))

    def agreement(self, other: "FutureSet") -> float:
        """Fraction of cells on which two grids agree."""
        if self.grid.shape != other.grid.shape:
            raise DimensionMismatchError("grid shapes differ")
        return float(np.mean(self.grid == other.grid))


def _cells(region, resolution: int):
    (tmin, tmax), (xmin, xmax) = region
    if not (tmax > tmin and xmax > xmin):
        raise ValueError("degenerate region")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    dt_c = (tmax - tmin) / resolution
    dx_c = (xmax - xmin) / resolution
    t_centers = tmin + (np.arange(resolution) + 0.5) * dt_c
    x_centers = xmin + (np.arange(resolution) + 0.5) * dx_c
    return t_centers, x_centers, dt_c, dx_c


def minkowski_future(p: np.ndarray, kind: str, region, resolution: int) -> FutureSet:
    """Analytic future set of p sampled on a rectangular grid.

    kind "causal": dt >= |dx|; "chronological": dt > |dx|.  region is
    ((tmin, tmax), (xmin, xmax)); membership is evaluated at cell centers.
    """
    p = np.asarray(p, dtype=float)
    if kind not in (CHRONOLOGICAL, CAUSAL):
        raise ValueError(f"kind must be chronological|causal, got {kind!r}")
    t_centers, x_centers, _, _ = _cells(region, resolution)
    dt = t_centers[:, None] - p[0]
    dx = np.abs(x_centers[None, :] - p[1])
    grid = (dt > dx) if kind == CHRONOLOGICAL else (dt >= dx)

    def predicate(q, _kind=kind, _p=p):
        d_t = q[0] - _p[0]
        d_x = abs(q[1] - _p[1])
        return d_t > d_x if _kind == CHRONOLOGICAL else d_t >= d_x

    return FutureSet(kind, p, t_centers, x_centers, grid, predicate)


def _coprime_offsets(directions: int):
    radius = 1 if directions <= 8 else (2 if directions <= 16 else 3)
    offs = []
    for di in range(-radius, radius + 1):
        for dj in range(-radius, radius + 1):
            if (di, dj) == (0, 0):
                continue
            if math.gcd(abs(di), abs(dj)) == 1:
                offs.append((di, dj))
    return offs


def reachable_grid(field, p: np.ndarray, region, resolution: int,
                   directions: int = 16, grid_slack: float | None = None) -> FutureSet:
    """Reachability by cone-respecting grid steps (BFS over cells).

    ``field`` is a ConeField, or the string "minkowski" for the Lorentz
    cone of 1+1 space-time.  From each reached cell the walk may step by
    any coprime integer offset (directions -> 8/16/32 stencil) whose
    physical displacement has containment margin >= -grid_slack in the
    cone at the source cell.  The default slack, half a cell diagonal over
    the region diameter, keeps exactly-null directions connected without
    admitting clearly spacelike ones.
    """
    if directions < 8:
        raise ValueError("directions must be >= 8")
    p = np.asarray(p, dtype=float)
    t_centers, x_centers, dt_c, dx_c = _cells(region, resolution)
    if grid_slack is None:
        cell_diag = math.hypot(dt_c, dx_c)
        region_diag = math.hypot(t_centers[-1] - t_centers[0] + dt_c,
                                 x_centers[-1] - x_centers[0] + dx_c)
        grid_slack = 0.5 * cell_diag / region_diag

    if isinstance(field, str):
        if field != "minkowski":
            raise ValueError("field must be a ConeField or 'minkowski'")
        cone = Lorentz(2)
        cone_at = lambda xy: cone
        constant = True
    elif isinstance(field, ConeField):
        cone_at = field.cone_at
        constant = isinstance(field, ConstantField)
    else:
        raise ValueError("field must be a ConeField or 'minkowski'")

    offsets = _coprime_offsets(directions)
    disps = np.array([[di * dt_c, dj * dx_c] for di, dj in offsets])
    if constant:
        c0 = cone_at(np.array([t_centers[0], x_centers[0]]))
        allowed = c0.margins(disps) >= -grid_slack

    res = resolution
    grid = np.zeros((res, res), dtype=bool)
    i0 = int(np.clip(np.searchsorted(t_centers + 0.5 * dt_c, p[0]), 0, res - 1))
    j0 = int(np.clip(np.searchsorted(x_centers + 0.5 * dx_c, p[1]), 0, res - 1))
    grid[i0, j0] = True
    queue = deque([(i0, j0)])
    while queue:
        i, j = queue.popleft()
        if not constant:
            src = np.array([t_centers[i], x_centers[j]])
            local = cone_at(src)
            allowed = local.margins(disps) >= -grid_slack
        for (di, dj), ok in zip(offsets, allowed):
            if not ok:
                continue
            ni, nj = i + di, j + dj
            if 0 <= ni < res and 0 <= nj < res and not grid[ni, nj]:
                grid[ni, nj] = True
                queue.append((ni, nj))
    return FutureSet(CAUSAL, p, t_centers, x_centers, grid, None)


# ------------------------------------------------------------------ probes


def quasi_closed_probe(oracle, sequences: int, seed: int,
                       n_terms: int = 8) -> dict:
    """Check that limits of strictly ordered sequences stay weakly ordered.

    For each sampled boundary pair (x, y), the sequences x_n = x - w/n and
    y_n = y + w/n (w the oracle's interior shift) are strictly ordered by
    construction; the probe counts limit pairs that fail the weak order.
    """
    if sequences < 1:
        raise ValueError("sequences must be >= 1")
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(sequences):
        x, y = oracle.boundary_pair(rng)
        for n in range(1, n_terms + 1):
            xn = x - oracle.shift / n
            yn = y + oracle.shift / n
            if oracle.relation(xn, yn).relation != LEQ_STRICT:
                raise ProbeConstructionError(
                    "constructed sequence is not strictly ordered")
        if oracle.relation(x, y).relation == INCOMPARABLE:
            violations += 1
    return {"violations": violations, "sequences": sequences,
            "terms_per_sequence": n_terms, "seed": seed}


def _chron(p, q) -> bool:
    return (q[0] - p[0]) > abs(q[1] - p[1])


def _causal(p, q) -> bool:
    return (q[0] - p[0]) >= abs(q[1] - p[1])


def flat_order_properties(cone: Cone, samples: int, seed: int) -> dict:
    """Antisymmetry and transitivity spot-checks for a flat cone order."""
    rng = np.random.default_rng(seed)
    anti = trans = 0
    for i in range(samples):
        x = rng.normal(size=cone.dim)
        if i % 3 == 0:
            y = x.copy()
        else:
            w = rng.uniform(0.1, 1.0, 1)[0]
            y = x + w * cone.interior_witness()
        fwd = leq_flat(cone, x, y).relation
        rev = leq_flat(cone, y, x).relation
        if (fwd != INCOMPARABLE and rev != INCOMPARABLE
                and np.linalg.norm(x - y) > 1e-12):
            anti += 1
        c1 = _random_cone_element(cone, rng)
        c2 = _random_cone_element(cone, rng)
        if leq_flat(cone, x, x + c1 + c2).relation == INCOMPARABLE:
            trans += 1
    return {"antisymmetry_violations": anti, "transitivity_violations": trans,
            "samples": samples, "seed": seed}


def _random_cone_element(cone: Cone, rng: np.random.Generator) -> np.ndarray:
    gens = cone.generators()
    base = (gens if gens is not None else cone.boundary_rays(rng, 4))
    w = rng.uniform(0.1, 1.0, len(base))
    return w @ base


def push_up_probe(samples: int, seed: int) -> dict:
    """Strict-then-weak chains must stay strict on Minkowski space.

    Samples triples with x strictly below y and y weakly below z (null
    steps included) and counts triples where the oracle fails to report
    x strictly below z.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(samples):
        x = _dyadic(rng, -2.0, 2.0, 2)
        dx = _dyadic(rng, 0.2, 2.0)
        y = x + np.array([dx + _dyadic(rng, 0.05, 1.0),
                          _dyadic(rng, -dx, dx)])
        if rng.integers(0, 2) == 0:  # null second leg
            s2 = _dyadic(rng, 0.2, 2.0)
            z = y + s2 * np.array([1.0, 1.0 if rng.integers(0, 2) == 0 else -1.0])
        else:
            d2 = _dyadic(rng, 0.2, 2.0)
            z = y + np.array([d2, _dyadic(rng, -d2, d2)])
        if not (_chron(x, y) and _causal(y, z)):  # pragma: no cover - sampler
            raise ProbeConstructionError("triple construction failed")
        if minkowski_relation(x, z).relation != LEQ_STRICT:
            violations += 1
    return {"violations": violations, "samples": samples, "seed": seed}


def continuity_probe(kind: str, p: np.ndarray, K, deltas,
                     angular_resolution: int = 64) -> dict:
    """Inner/outer continuity of chronological pasts on 1+1 Minkowski.

    Inner: K inside I^-(p); the probe finds the largest tested delta such
    that K stays inside I^-(q) for every q on the circle |q - p| = delta.
    Outer: K disjoint from the closure of I^-(p); the probe requires K to
    stay disjoint from the closure of I^-(q).  Preconditions are verified
    analytically and reported as errors, never skipped.
    """
    if kind not in ("inner", "outer"):
        raise ValueError("kind must be 'inner' or 'outer'")
    p = np.asarray(p, dtype=float)
    K = [np.asarray(k, dtype=float) for k in K]
    deltas = sorted(float(d) for d in deltas)
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be > 0")

    if kind == "inner":
        bad = [k for k in K if not _chron(k, p)]
        if bad:
            raise ValueError(f"precondition failed: K not in I^-(p): {bad}")
        keep = _chron
        want = True
    else:
        bad = [k for k in K if _causal(k, p)]
        if bad:
            raise ValueError(
                f"precondition failed: K meets closure(I^-(p)): {bad}")
        keep = _causal
        want = False

    angles = 2.0 * np.pi * np.arange(angular_resolution) / angular_resolution
    passing = []
    for d in deltas:
        ok = True
        for a in angles:
            q = p + d * np.array([np.cos(a), np.sin(a)])
            for k in K:
                if keep(k, q) != want:
                    ok = False
                    break
            if not ok:
                break
        passing.append(ok)
    max_pass = None
    for d, ok in zip(deltas, passing):
        if ok:
            max_pass = d
    return {"kind": kind, "deltas": deltas, "passing": passing,
            "max_delta_passing": max_pass, "K_size": len(K)}
