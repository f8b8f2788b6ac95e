"""Conal-order oracles and causal-structure probes.

Three order oracles ship:

* flat:      x <= y iff y - x lies in a fixed cone (the straight segment
             from x to y is then an order-respecting curve, so the
             algebraic test and the curve-based order coincide);
* Minkowski: 1+1 space-time with coordinates (t, x); causal order
             dt >= |dx|, chronological (strict) order dt > |dx|;
* Loewner:   SPD(n) points packed in chart coordinates, P <= Q iff Q - P
             is positive semidefinite: ``relations(field.cone, P, Q)``
             with the PSD field's chart cone.

Every order decision is one batched call that returns int8 codes INC,
WEAK or STRICT per pair, one pair being the case of no leading axes:
``relations`` for a cone order (one ``margins`` call, the one place a
margin and a tolerance become a relation) and ``minkowski_relations``,
the one encoding of the Minkowski inequalities, analytic and without a
tolerance.  On both shipped manifolds a field's chart cone is the cone
at every point, so ``relations(field.cone, X, Y)`` decides the conal
order of any ``ConeField``, the Loewner order on SPD included.  An
ordered pair's certificate is the straight segment from x to y, whose
constant velocity y - x lies in the cone.

``reachable_grid`` discretizes curve-based reachability for a
``ConeField``: breadth-first propagation over a rectangular grid,
stepping only along displacement directions that the field's chart cone
admits (up to a slack that keeps exactly null directions connected).
``quasi_closed_probe`` and ``continuity_probe`` check closure and
continuity behavior of the orders on constructed limit sequences.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .conefield import ConeField
from .cones import DEFAULT_TOL, Cone, conic_combinations, integer_at_least
from .errors import DimensionMismatchError, ProbeConstructionError

# relation codes: incomparable, weakly ordered, strictly ordered
INC, WEAK, STRICT = 0, 1, 2

CHRONOLOGICAL = "chronological"
CAUSAL = "causal"
QC_TERMS = 8  # terms of each sequence quasi_closed_probe builds


def relations(c: Cone, X, Y, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Codes of the pairs (x, y) under the constant-cone order of c.

    One ``c.margins(Y - X)`` call over the broadcast leading shapes of X
    and Y: STRICT where the margin is > tol, INC where it is < -tol, and
    WEAK otherwise, so y = x is weakly ordered, and so is a separation
    with an inf or nan entry (one that overflows included): its margin is
    NaN.
    """
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # read as NaN margins
        m = c.margins(np.asarray(Y, dtype=float) - np.asarray(X, dtype=float))
    codes = np.full(m.shape, WEAK, dtype=np.int8)
    codes[m > tol] = STRICT
    codes[m < -tol] = INC
    return codes


def minkowski_relations(P, Q) -> np.ndarray:
    """Analytic codes of the pairs (p, q) on 1+1 Minkowski space.

    STRICT where dt > |dx| (chronological), WEAK where dt = |dx| (causal
    but null), INC otherwise, NaN separations included.  No tolerance:
    null separations built from exact coordinates stay exactly null.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN
        d = np.asarray(Q, dtype=float) - np.asarray(P, dtype=float)
    if d.shape[-1:] != (2,):
        raise DimensionMismatchError("Minkowski points are (t, x) pairs")
    dt, dx = d[..., 0], np.abs(d[..., 1])
    codes = np.asarray(dt >= dx, dtype=np.int8)  # WEAK = 1 where causal
    codes[dt > dx] = STRICT
    return codes


# ----------------------------------------------------------- order oracles


class FlatOrderOracle:
    """Order oracle for a constant cone on flat space, probe-ready."""

    def __init__(self, cone: Cone):
        self.cone = cone
        self.shift = cone.interior_witness()

    def relations(self, X, Y) -> np.ndarray:
        return relations(self.cone, X, Y)

    def boundary_pairs(self, rng: np.random.Generator, k: int):
        """k pairs (x, y), y - x on the cone boundary; y = x in about 1/10."""
        k = integer_at_least(k, 0, "k", ValueError)
        X = rng.normal(size=(k, self.cone.dim))
        same = rng.integers(0, 10, k) == 0
        Y = X + rng.uniform(0.5, 2.0, (k, 1)) * self.cone.boundary_rays(rng, k)
        Y[same] = X[same]
        return X, Y


def _seed(seed) -> int:
    return integer_at_least(seed, 0, "seed", ValueError)


def _dyadic(rng: np.random.Generator, lo, hi, size=None):
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

    def relations(self, P, Q) -> np.ndarray:
        return minkowski_relations(P, Q)

    def boundary_pairs(self, rng: np.random.Generator, k: int):
        """k null pairs (p, q) from dyadic coordinates; q = p in about 1/10."""
        k = integer_at_least(k, 0, "k", ValueError)
        P = _dyadic(rng, -2.0, 2.0, (k, 2))
        same = rng.integers(0, 10, k) == 0
        sgn = np.where(rng.integers(0, 2, k) == 0, 1.0, -1.0)
        s = _dyadic(rng, 0.5, 2.0, k)
        Q = P + s[:, None] * np.stack([np.ones(k), sgn], axis=-1)
        Q[same] = P[same]
        return P, Q


# ------------------------------------------------------------- future sets


@dataclass
class FutureSet:
    """Grid bitmap of a future set: ``minkowski_relations`` decides a point
    of the analytic sets."""

    kind: str  # CHRONOLOGICAL | CAUSAL
    base: np.ndarray
    t_centers: np.ndarray
    x_centers: np.ndarray
    grid: np.ndarray  # bool, shape (len(t_centers), len(x_centers))

    def agreement(self, other: "FutureSet") -> float:
        """Fraction of cells on which two grids agree."""
        if self.grid.shape != other.grid.shape:
            raise DimensionMismatchError("grid shapes differ")
        return float(np.mean(self.grid == other.grid))


def _point(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (2,) or not np.isfinite(p).all():
        raise ValueError(f"{p.tolist()} is not a finite (t, x) point")
    return p


def _cells(region, resolution: int):
    R = np.asarray(region, dtype=float)
    if R.shape != (2, 2) or not np.isfinite(R).all():
        raise ValueError("region must be ((tmin, tmax), (xmin, xmax)), finite")
    (tmin, tmax), (xmin, xmax) = R.tolist()
    if not (tmax > tmin and xmax > xmin):
        raise ValueError("degenerate region")
    resolution = integer_at_least(resolution, 2, "resolution", ValueError)
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
    p = _point(p)
    if kind not in (CHRONOLOGICAL, CAUSAL):
        raise ValueError(f"kind must be chronological|causal, got {kind!r}")
    t_centers, x_centers, _, _ = _cells(region, resolution)
    cells = np.stack(np.meshgrid(t_centers, x_centers, indexing="ij"), axis=-1)
    least = STRICT if kind == CHRONOLOGICAL else WEAK
    grid = minkowski_relations(p, cells) >= least
    return FutureSet(kind, p, t_centers, x_centers, grid)


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


def reachable_grid(field: ConeField, p: np.ndarray, region, resolution: int,
                   directions: int = 16) -> FutureSet:
    """Reachability by cone-respecting grid steps (BFS over cells).

    The walk starts at the cell of p, which must lie in the closed region.
    From each reached cell it may step by any coprime integer offset
    (directions -> 8/16/32 stencil) whose physical displacement is not
    incomparable, at a slack of half a cell diagonal over the region
    diameter, in the chart cone of ``field`` (for 1+1 Minkowski space,
    ``ConstantField(Lorentz(2))``).  The slack keeps exactly-null
    directions connected without admitting clearly spacelike ones.
    """
    directions = integer_at_least(directions, 8, "directions", ValueError)
    if not isinstance(field, ConeField):
        raise ValueError("field must be a ConeField")
    p = _point(p)
    t_centers, x_centers, dt_c, dx_c = _cells(region, resolution)
    (tmin, tmax), (xmin, xmax) = region
    if not (tmin <= p[0] <= tmax and xmin <= p[1] <= xmax):
        raise ValueError(f"start point {p.tolist()} is not a point of the region")
    cell_diag = math.hypot(dt_c, dx_c)
    region_diag = math.hypot(t_centers[-1] - t_centers[0] + dt_c,
                             x_centers[-1] - x_centers[0] + dx_c)
    grid_slack = 0.5 * cell_diag / region_diag

    offsets = _coprime_offsets(directions)
    disps = np.array([[di * dt_c, dj * dx_c] for di, dj in offsets])
    allowed = relations(field.cone, np.zeros(2), disps, grid_slack) != INC

    res = resolution
    grid = np.zeros((res, res), dtype=bool)
    i0 = int(np.clip(np.searchsorted(t_centers + 0.5 * dt_c, p[0]), 0, res - 1))
    j0 = int(np.clip(np.searchsorted(x_centers + 0.5 * dx_c, p[1]), 0, res - 1))
    grid[i0, j0] = True
    queue = deque([(i0, j0)])
    while queue:
        i, j = queue.popleft()
        for (di, dj), ok in zip(offsets, allowed):
            if not ok:
                continue
            ni, nj = i + di, j + dj
            if 0 <= ni < res and 0 <= nj < res and not grid[ni, nj]:
                grid[ni, nj] = True
                queue.append((ni, nj))
    return FutureSet(CAUSAL, p, t_centers, x_centers, grid)


# ------------------------------------------------------------------ probes


def quasi_closed_probe(oracle, sequences: int, seed: int) -> dict:
    """Check that limits of strictly ordered sequences stay weakly ordered.

    For each sampled boundary pair (x, y), the sequences x_n = x - w/n and
    y_n = y + w/n, n = 1..QC_TERMS (w the oracle's interior shift), are
    strictly ordered by construction; the probe counts limit pairs that
    fail the weak order.
    """
    sequences = integer_at_least(sequences, 1, "sequences", ValueError)
    rng = np.random.default_rng(_seed(seed))
    X, Y = oracle.boundary_pairs(rng, sequences)
    step = oracle.shift / np.arange(1, QC_TERMS + 1)[:, None]  # w/n, by term
    if np.any(oracle.relations(X[:, None] - step, Y[:, None] + step) != STRICT):
        raise ProbeConstructionError(
            "constructed sequence is not strictly ordered")
    violations = int(np.sum(oracle.relations(X, Y) == INC))
    return {"violations": violations, "sequences": sequences,
            "terms_per_sequence": QC_TERMS, "seed": seed}


def flat_order_properties(cone: Cone, samples: int, seed: int) -> dict:
    """Antisymmetry and transitivity spot-checks for a flat cone order."""
    samples = integer_at_least(samples, 1, "samples", ValueError)
    rng = np.random.default_rng(_seed(seed))
    rays = cone.unit_rays(rng)
    X = rng.normal(size=(samples, cone.dim))
    Y = X + rng.uniform(0.1, 1.0, (samples, 1)) * cone.interior_witness()
    Y[::3] = X[::3]  # every third pair is y = x
    both = (relations(cone, X, Y) != INC) & (relations(cone, Y, X) != INC)
    apart = np.linalg.norm(X - Y, axis=-1) > 1e-12
    C = conic_combinations(rays, 2 * samples, rng).reshape(samples, 2, -1)
    lost = relations(cone, X, X + C[:, 0] + C[:, 1]) == INC
    return {"antisymmetry_violations": int(np.sum(both & apart)),
            "transitivity_violations": int(np.sum(lost)),
            "samples": samples, "seed": seed}


def push_up_probe(samples: int, seed: int) -> dict:
    """Strict-then-weak chains must stay strict on Minkowski space.

    Samples triples with x strictly below y and y weakly below z (null
    steps included) and counts triples where the oracle fails to report
    x strictly below z.
    """
    samples = integer_at_least(samples, 1, "samples", ValueError)
    rng = np.random.default_rng(_seed(seed))
    X = _dyadic(rng, -2.0, 2.0, (samples, 2))
    dx = _dyadic(rng, 0.2, 2.0, samples)
    Y = X + np.stack([dx + _dyadic(rng, 0.05, 1.0, samples),
                      _dyadic(rng, -dx, dx)], axis=-1)
    null = rng.integers(0, 2, samples) == 0  # null second leg
    sgn = np.where(rng.integers(0, 2, samples) == 0, 1.0, -1.0)
    s2 = _dyadic(rng, 0.2, 2.0, samples)
    d2 = _dyadic(rng, 0.2, 2.0, samples)
    leg = np.where(null[:, None],
                   s2[:, None] * np.stack([np.ones(samples), sgn], axis=-1),
                   np.stack([d2, _dyadic(rng, -d2, d2)], axis=-1))
    Z = Y + leg
    built = (np.all(minkowski_relations(X, Y) == STRICT)
             and np.all(minkowski_relations(Y, Z) != INC))
    if not built:  # pragma: no cover - sampler
        raise ProbeConstructionError("triple construction failed")
    violations = int(np.sum(minkowski_relations(X, Z) != STRICT))
    return {"violations": violations, "samples": samples, "seed": seed}


def continuity_probe(kind: str, p: np.ndarray, K, deltas,
                     angular_resolution: int = 64) -> dict:
    """Inner/outer continuity of chronological pasts on 1+1 Minkowski.

    Inner: K inside I^-(p); the probe finds the largest tested delta such
    that K stays inside I^-(q) for every q on the circle |q - p| = delta.
    Outer: K disjoint from the closure of I^-(p); the probe requires K to
    stay disjoint from the closure of I^-(q).  K is a (k, 2) array of
    points.  Preconditions are verified analytically and reported as
    errors, never skipped.
    """
    if kind not in ("inner", "outer"):
        raise ValueError("kind must be 'inner' or 'outer'")
    p = _point(p)
    K = np.asarray(K, dtype=float)
    if K.size == 0:
        K = K.reshape(0, 2)
    if K.ndim != 2 or K.shape[1] != 2:
        raise DimensionMismatchError("K must be (k, 2) Minkowski points")
    if not np.isfinite(K).all():
        raise ValueError("K must be finite points")
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or not np.all(np.isfinite(deltas) & (deltas > 0)):
        raise ValueError("deltas must be a list of finite numbers > 0")
    deltas = sorted(deltas.tolist())
    angular_resolution = integer_at_least(angular_resolution, 1,
                                          "angular_resolution", ValueError)

    # inner: every k chronologically below q; outer: no k causally below q
    want = STRICT if kind == "inner" else INC
    bad = list(K[minkowski_relations(K, p) != want])
    if bad:
        where = ("K not in I^-(p)" if kind == "inner"
                 else "K meets closure(I^-(p))")
        raise ValueError(f"precondition failed: {where}: {bad}")

    angles = 2.0 * np.pi * np.arange(angular_resolution) / angular_resolution
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=-1)[:, None]
    passing = [bool(np.all(minkowski_relations(K, p + d * circle) == want))
               for d in deltas]
    max_pass = max((d for d, ok in zip(deltas, passing) if ok), default=None)
    return {"kind": kind, "deltas": deltas, "passing": passing,
            "max_delta_passing": max_pass, "K_size": len(K)}
