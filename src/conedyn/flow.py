"""Numerical flows, tangent (variational) flows, equilibria, omega-limits.

Integration is classical fixed-step RK4 (default dt = 1e-3, final partial
step allowed) for determinism and reproducibility; adaptive stepping would
make downstream tolerances scheduler-dependent.  Tangent maps propagate by
one step map: ``_rk4_step_map`` returns, with each RK4 step, its exact
Jacobian M built from the stages, so a tangent matrix steps as P <- M P.
The map has two batch axes: the rows of an ensemble at one time, or the
states of one orbit over time.  Batched tangent paths (``tangent_at``)
step M and P with the rows; single-orbit tangent paths (``tangent_flow``
and the Perron-Frobenius ray pairs) march the state alone, then evaluate
the maps of a chunk of buffered steps in one call and scan P over them.

Vector fields are vectorized: ``f`` maps arrays of shape (..., n) to
(..., n) and ``jac`` maps (..., n) to (..., n, n).  Every flow path -- single
orbits, tangent flows, captures at given times, ensemble tails and the
Perron-Frobenius ray pairs -- goes through one batched march
(``_Stepper.march``), so all share the step plan, the stored times
min(i*dt, T), the manifold guard and the failure policy, and ensembles of
initial conditions integrate at numpy speed.  A system x' = Ax that
declares its ``matrix`` A steps by its exact RK4 map x -> R(hA) x.

Omega-limit classification is an explicitly heuristic desk-scale estimate:
the last quarter of the stored trajectory either clusters to a polished
equilibrium (singleton), revisits its own start (non-singleton/recurrent),
or stays honest as "undetermined".  Undetermined is never coerced.

Ensemble rows retire early under a contraction certificate (Lohmiller &
Slotine 1998).  A system may declare ``jac_lipschitz`` L, an exact global
bound on ||J(x) - J(y)||_2 / ||x - y||.  At an equilibrium p with
mu = lambda_max(sym J(p)) < 0 the logarithmic norm of J stays below
mu + L d on the ball d = ||x - p|| < r = -mu / (2 L) (r = inf when L = 0),
so d never grows there and the exact flow keeps
d(t) <= d0 exp((mu + L d0)(t - t0)).  A row whose bound stays below
CLUSTER_RADIUS / (2 sqrt(n)) over the whole tail window has a tail that
classify_tail would call a singleton at p, so it leaves the batch with
that verdict.  Retirement only pre-empts a singleton verdict: it never
turns an undetermined or non-singleton tail into a singleton.  The bound
holds for the exact flow, not the RK4 map; the RK4 error over a tail is
far below the factor-of-two margin the threshold leaves.  Rows that never
certify integrate to T as before.

SPD-manifold trajectories integrate in chart coordinates with a
positive-definiteness guard every step; leaving the chart raises (single
orbit) or marks the sample as escaped (ensembles).  On SPD(2) the guard
takes lambda_min in closed form and decides each row as eigvalsh would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FlowBlowupError,
    ManifoldExitError,
    NumericsError,
)
from .geometry import _SQRT2, EIG_TOL, ManifoldSpec, unpack_sym

DT_DEFAULT = 1e-3
STORE_STRIDE = 10
TAIL_FRACTION = 0.25
CLUSTER_RADIUS = 1e-4
EQ_TOL = 1e-10
CERT_EVERY = 100  # ensemble steps between contraction-certificate checks
_ORBIT_CHUNK = 1024  # steps of one orbit per batched step-map call
_CERT_F_MAX = 1e-2  # only rows with |f| below this seed an equilibrium search
_CERT_EQ_TOL = 1e-12  # certified equilibria are polished past EQ_TOL
_CERT_REJECT_RADIUS = 0.05  # rows this close to a rejected point seed nothing

SINGLETON = "singleton_equilibrium"
NON_SINGLETON = "non_singleton"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class FlowSystem:
    """A named smooth vector field with its exact Jacobian.

    jac_lipschitz, when given, is an exact global bound on
    ||jac(x) - jac(y)||_2 / ||x - y||; it enables certified early
    retirement of ensemble rows (see the module docstring).  matrix, when
    given, is the A of a linear field f(x) = Ax, jac(x) = A.
    """

    manifold: ManifoldSpec
    f: callable
    jac: callable
    name: str = "system"
    jac_lipschitz: float | None = None
    matrix: np.ndarray | None = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return self.manifold.dim


@dataclass
class Trajectory:
    times: np.ndarray  # (k,), strictly increasing, starts at 0
    states: np.ndarray  # (k, n)


@dataclass
class TangentFlow:
    times: np.ndarray
    states: np.ndarray  # (k, n)
    phis: np.ndarray  # (k, n, n), phis[0] = I


@dataclass
class OmegaEstimate:
    kind: str  # SINGLETON | NON_SINGLETON | UNDETERMINED
    point: np.ndarray | None = None  # singleton limit
    witnesses: np.ndarray | None = None  # samples of a non-singleton tail
    residual: float = float("nan")
    certified_at: float | None = None  # retirement time of a certified row


# ---------------------------------------------------------------- stepping


def _plan_steps(T: float, dt: float):
    """Full-step count and the trailing partial step (0 if aligned)."""
    if T <= 0:
        raise ValueError("T must be > 0")
    if not 0 < dt <= T:
        raise ValueError("need 0 < dt <= T")
    n_full = int(np.floor(T / dt + 1e-9))
    rem = T - n_full * dt
    if rem < 1e-12 * max(1.0, T):
        rem = 0.0
    return n_full, rem


def _rk4_step(s: FlowSystem, X: np.ndarray, h: float) -> np.ndarray:
    k1 = s.f(X)
    k2 = s.f(X + 0.5 * h * k1)
    k3 = s.f(X + 0.5 * h * k2)
    k4 = s.f(X + h * k3)
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _times_eye_plus(J: np.ndarray, K: np.ndarray, c: float) -> np.ndarray:
    """J (I + c K) as J + c (J K): no identity matrix is formed."""
    JK = J @ K
    JK *= c
    JK += J
    return JK


def _rk4_step_map(s: FlowSystem, X: np.ndarray, h: float):
    """One RK4 step of the rows of X and its exact Jacobian.

    Returns (Xn, M) with Xn = _rk4_step(s, X, h) bit for bit and M[j] the
    derivative of the step map at X[j], built from the stages as
    K1 = J1, K2 = J2 (I + h/2 K1), K3 = J3 (I + h/2 K2), K4 = J4 (I + h K3),
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), the identity added in place on
    the diagonal.  A declared matrix gives M = R(hA).  The rows may be one
    batch at one time or one orbit's states over time: the map batches
    over either.
    """
    if s.matrix is not None:
        R = _rk4_map(s.matrix, h)
        return X @ R.T, np.broadcast_to(R, X.shape[:-1] + R.shape)
    k1 = s.f(X)
    K1 = s.jac(X)
    x2 = X + 0.5 * h * k1
    k2 = s.f(x2)
    K2 = _times_eye_plus(s.jac(x2), K1, 0.5 * h)
    x3 = X + 0.5 * h * k2
    k3 = s.f(x3)
    K3 = _times_eye_plus(s.jac(x3), K2, 0.5 * h)
    x4 = X + h * k3
    k4 = s.f(x4)
    K4 = _times_eye_plus(s.jac(x4), K3, h)
    Xn = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    M = (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    for i in range(M.shape[-1]):
        M[..., i, i] += 1.0
    return Xn, M


def _rk4_map(A: np.ndarray, h: float) -> np.ndarray:
    """R(hA) = sum_{k<=4} (hA)^k / k! by Horner: one RK4 step of x' = Ax."""
    R = eye = np.eye(len(A))
    for k in (4.0, 3.0, 2.0, 1.0):
        R = eye + (h / k) * A @ R
    return R


def _leaves_chart(V: np.ndarray, n: int) -> np.ndarray:
    """Rows of finite packed SPD(n) points with lambda_min <= EIG_TOL; on
    SPD(2) in closed form, and by eigvalsh within a rounding band of it."""
    if n != 2:
        return np.linalg.eigvalsh(unpack_sym(V, n))[:, 0] <= EIG_TOL
    a, b, c = V[:, 0], V[:, 1] / _SQRT2, V[:, 2]
    lam = 0.5 * a + 0.5 * c - np.hypot(0.5 * a - 0.5 * c, b)
    band = 1e-13 * (np.abs(a) + np.abs(b) + np.abs(c) + 1.0)  # >> ulp errors
    near = ~(np.abs(lam - EIG_TOL) > band)  # nan rows too
    out = lam <= EIG_TOL
    if near.any():
        out[near] = np.linalg.eigvalsh(unpack_sym(V[near], 2))[:, 0] <= EIG_TOL
    return out


def _bad_rows(s: FlowSystem, X: np.ndarray) -> np.ndarray:
    """Boolean mask of rows that are non-finite or left the SPD chart."""
    finite = np.isfinite(X)
    if finite.all():  # one reduction over the batch; per row only on failure
        if s.manifold.kind == "spd":
            return _leaves_chart(X, s.manifold.n)
        return np.zeros(len(X), dtype=bool)
    bad = ~finite.all(axis=-1)
    ok = np.flatnonzero(~bad)
    if s.manifold.kind == "spd" and len(ok):
        bad[ok[_leaves_chart(X[ok], s.manifold.n)]] = True
    return bad


class _Stepper:
    """Fixed-step RK4 over a batch, with failure masking or raising.

    Every flow path marches through ``march``.  With an initial tangent
    matrix ``P0`` (broadcast to every row) the stepper also steps the
    variational equation P' = jac(x) P as P <- M P, M from _rk4_step_map.
    """

    def __init__(self, s: FlowSystem, X0: np.ndarray, P0=None,
                 on_failure: str = "raise"):
        self.s = s
        self.X = np.array(X0, dtype=float, copy=True)
        if self.X.ndim != 2:
            raise ValueError("batch states must have shape (N, n)")
        self.t = 0.0
        self.P = None if P0 is None else np.broadcast_to(
            np.asarray(P0, dtype=float),
            (self.X.shape[0],) + np.shape(P0)[-2:]).copy()
        self.on_failure = on_failure
        self.maps = {}  # step size h -> R(hA), for a declared matrix A
        self.dead = _bad_rows(s, self.X)
        self.any_dead = bool(np.any(self.dead))
        if self.on_failure == "raise" and self.any_dead:
            raise ManifoldExitError(0.0, "initial state is off the manifold")

    def advance(self, h: float, t_new: float) -> None:
        if self.s.matrix is not None:
            R = self.maps.get(h)
            if R is None:
                R = self.maps[h] = _rk4_map(self.s.matrix, h)
            Xn = self.X @ R.T
            Pn = None if self.P is None else R @ self.P
        elif self.P is None:
            Xn, Pn = _rk4_step(self.s, self.X, h), None
        else:
            Xn, M = _rk4_step_map(self.s, self.X, h)
            Pn = M @ self.P
        bad = _bad_rows(self.s, Xn)
        if self.any_dead:
            bad &= ~self.dead
        if bad.any():  # the method skips np.any's dispatch, per step
            if self.on_failure == "raise":
                if np.any(~np.isfinite(Xn[bad])):
                    raise FlowBlowupError(t_new)
                raise ManifoldExitError(t_new)
            self.dead |= bad
            self.any_dead = True
        if self.any_dead:  # dead rows stay frozen at nan
            Xn[self.dead] = np.nan
            if Pn is not None:
                Pn[self.dead] = np.nan
        self.X, self.P = Xn, Pn

    def drop(self, rows: np.ndarray) -> None:
        """Remove the rows where the boolean mask rows is True."""
        keep = ~rows
        self.X = self.X[keep]
        self.dead = self.dead[keep]
        self.any_dead = bool(self.dead.any())
        if self.P is not None:
            self.P = self.P[keep]

    def march(self, t_end: float, dt: float, on_store=None,
              stride: int = 1) -> None:
        """Step from self.t to t_end: full dt steps plus one partial step.

        Step i ends at time self.t + min(i*dt, span).  on_store(t, last)
        runs after step i (i = 0 is the start) when i % stride == 0, and
        after the last step.  The march ends early once the batch is empty.
        """
        t0 = self.t
        span = t_end - t0
        n_full, rem = _plan_steps(span, dt)
        total = n_full + (1 if rem > 0.0 else 0)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            if on_store is not None:
                on_store(t0, False)
            for i in range(1, total + 1):
                t = t0 + min(i * dt, span)
                self.advance(dt if i <= n_full else rem, t)
                if on_store is not None and (i % stride == 0 or i == total):
                    on_store(t, i == total)
                if not len(self.X):
                    break  # every row has left the batch
        self.t = t_end  # no float drift across horizons


def _capture(stepper: _Stepper, times, dt: float, snapshot) -> list:
    """Snapshots at the sorted times, marching each gap on its own plan."""
    out = []
    for t in sorted(float(t) for t in times):
        if t < 0:
            raise ValueError("capture times must be >= 0")
        span = t - stepper.t
        if span > 1e-15 * max(1.0, t):
            stepper.march(t, min(dt, span))
        out.append(snapshot())
    return out


def _orbit_tangent(s: FlowSystem, x0: np.ndarray, P0: np.ndarray, T: float,
                   dt: float, stride: int, on_records, unit: bool = False):
    """March one orbit and a tangent matrix P, P(0) = P0, to T.

    Only the state marches through ``_Stepper`` (same plan, guard and
    failure policy as every flow path).  Its states are buffered, and for
    every _ORBIT_CHUNK steps one ``_rk4_step_map`` call over the buffered
    states (a batch over time) gives the step maps; P <- M P then scans
    them, with every column scaled to unit Euclidean length after each
    step when unit is set.  on_records(ts, xs, Ps) receives, in step
    order, the stored steps: the start, every stride-th step and the last.
    A state failure first hands over the steps before it, then raises; so
    does (unit set) a step that leaves a column of P a zero or inf/nan norm.

    Returns (x_final, P_final).
    """
    n_full, rem = _plan_steps(T, dt)
    total = n_full + (1 if rem > 0.0 else 0)
    stepper = _Stepper(s, x0[None, :])
    P = np.array(P0, dtype=float)
    if unit:
        P /= np.linalg.norm(P, axis=0)
    on_records(np.zeros(1), x0[None, :], P[None])
    xs, ts = [], []  # states and times from the chunk's start state on
    done = 0  # steps handed over

    def flush():
        nonlocal P, done, xs, ts
        m = len(xs) - 1
        if m < 1:
            return
        X, t_steps = np.asarray(xs), np.asarray(ts[1:])
        xs, ts = xs[-1:], ts[-1:]
        full = min(m, n_full - done)  # the partial step, if any, comes last
        steps = np.arange(done + 1, done + m + 1)
        done += m
        keep = (steps % stride == 0) | (steps == total)
        out = np.empty((int(keep.sum()),) + P.shape)
        norms = np.ones((m, P.shape[1]))  # unit: column norms after each step
        r = 0
        with np.errstate(all="ignore"):  # failures are dated below or by march
            Ms = [_rk4_step_map(s, X[a:b], h)[1]
                  for a, b, h in ((0, full, dt), (full, m, rem)) if b > a]
            for M, k, nrm in zip(itertools.chain(*Ms), keep.tolist(), norms):
                P = M @ P
                if unit:  # np.linalg.norm(P, axis=0) without its overhead
                    P /= np.sqrt(np.add.reduce(P * P, axis=0), out=nrm)
                if k:
                    out[r] = P
                    r += 1
        ok = ((norms > 0.0) & (norms < np.inf)).all(axis=1)  # nan fails too
        n_ok = m if ok.all() else int(np.argmin(ok))
        n_rec = int(keep[:n_ok].sum())
        on_records(t_steps[keep][:n_rec], X[1:][keep][:n_rec], out[:n_rec])
        if n_ok < m:
            raise FlowBlowupError(t_steps[n_ok], "tangent map blew up near "
                                  f"t={t_steps[n_ok]:.6g}")

    def buffer(t, last):
        xs.append(stepper.X[0])  # advance allocates a new X every step
        ts.append(t)
        if len(xs) > _ORBIT_CHUNK:
            flush()

    try:
        stepper.march(T, dt, buffer)
    except (FlowBlowupError, ManifoldExitError):
        flush()
        raise
    flush()
    return stepper.X[0], P


# ------------------------------------------------------------- public ops


def integrate(s: FlowSystem, x0: np.ndarray, T: float, dt: float = DT_DEFAULT,
              store_stride: int = STORE_STRIDE) -> Trajectory:
    """Integrate one orbit, storing every store_stride-th step and the end."""
    x0 = s.manifold.check_point(x0)
    stepper = _Stepper(s, x0[None, :])
    times, states = [], []

    def store(t, last):
        times.append(t)
        states.append(stepper.X[0].copy())

    stepper.march(T, dt, store, store_stride)
    return Trajectory(np.asarray(times), np.asarray(states))


def tangent_flow(s: FlowSystem, x0: np.ndarray, T: float, dt: float = DT_DEFAULT,
                 store_stride: int = STORE_STRIDE) -> TangentFlow:
    """Integrate x' = f(x) and its tangent map Phi' = jac(x) Phi, Phi0 = I."""
    x0 = s.manifold.check_point(x0)
    times, states, phis = [], [], []

    def store(ts, xs, Ps):
        times.append(ts)
        states.append(xs)
        phis.append(Ps)

    _orbit_tangent(s, x0, np.eye(s.dim), T, dt, store_stride, store)
    tf = TangentFlow(np.concatenate(times), np.concatenate(states),
                     np.concatenate(phis))
    # the sign, not det itself: det Phi underflows to 0 on long contracting orbits
    signs, _ = np.linalg.slogdet(tf.phis)
    if np.any(signs <= 0.0):
        raise NumericsError("tangent flow lost orientation (det Phi <= 0)")
    return tf


def states_at(s: FlowSystem, X0: np.ndarray, times, dt: float = DT_DEFAULT,
              on_failure: str = "raise") -> np.ndarray:
    """Batched states captured exactly at the requested times.

    Returns (len(times), N, n); with on_failure="mask", escaped rows are nan.
    """
    stepper = _Stepper(s, np.atleast_2d(np.asarray(X0, float)),
                       on_failure=on_failure)
    return np.asarray(_capture(stepper, times, dt, lambda: stepper.X.copy()))


def tangent_at(s: FlowSystem, X0: np.ndarray, times, dt: float = DT_DEFAULT,
               on_failure: str = "raise"):
    """Batched (states, tangent maps) captured exactly at the given times."""
    stepper = _Stepper(s, np.atleast_2d(np.asarray(X0, float)),
                       P0=np.eye(s.dim), on_failure=on_failure)
    snaps = _capture(stepper, times, dt,
                     lambda: (stepper.X.copy(), stepper.P.copy()))
    return (np.asarray([x for x, _ in snaps]),
            np.asarray([p for _, p in snaps]))


def _box_array(box, dim: int) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.ndim == 0:
        box = np.array([[-float(box), float(box)]] * dim)
    elif box.ndim == 1:
        if box.shape[0] != 2:
            raise ValueError("1-d box must be (lo, hi)")
        box = np.tile(box, (dim, 1))
    if box.shape != (dim, 2) or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must give lo < hi per dimension")
    return box


def sample_states(s: FlowSystem, box, N: int,
                  seed: int | np.random.Generator) -> np.ndarray:
    """N states drawn from ``np.random.default_rng(seed)``.

    Uniform in the box on flat space; random SPD points (log-uniform
    eigenvalues) on SPD, where a coordinate box would leave the chart.
    Rows are drawn in sample order, so row i does not depend on N.  seed
    may be a ``np.random.Generator``, which the draws then continue.
    """
    rng = np.random.default_rng(seed)
    if s.manifold.kind == "euclidean":
        box = _box_array(box, s.dim)
        return rng.uniform(box[:, 0], box[:, 1], (N, s.dim))
    return np.stack([s.manifold.random_point(rng) for _ in range(N)])


# ------------------------------------------------------------ equilibria


def _newton_polish(s: FlowSystem, x0: np.ndarray, eq_tol: float = EQ_TOL,
                   max_iter: int = 100):
    """Damped Newton on f; returns (point, residual) or (None, residual)."""
    x = np.asarray(x0, dtype=float).copy()
    res = float(np.linalg.norm(s.f(x)))
    for _ in range(max_iter):
        if res < eq_tol:
            return x, res
        try:
            step = np.linalg.solve(s.jac(x), s.f(x))
        except np.linalg.LinAlgError:
            return None, res
        alpha = 1.0
        for _ in range(25):
            x_new = x - alpha * step
            res_new = float(np.linalg.norm(s.f(x_new)))
            if res_new <= res or alpha < 1e-8:
                break
            alpha *= 0.5  # damping on residual increase
        x, res = x_new, res_new
        if not np.all(np.isfinite(x)):
            return None, float("inf")
    return (x, res) if res < eq_tol else (None, res)


def find_equilibria(s: FlowSystem, seeds, eq_tol: float = EQ_TOL,
                    cluster_radius: float = CLUSTER_RADIUS) -> list:
    """Newton from every seed; keep |f| < eq_tol, dedupe within cluster_radius."""
    seeds = [np.asarray(x, dtype=float) for x in seeds]
    if not seeds:
        raise ValueError("seeds must be nonempty")
    found: list[np.ndarray] = []
    for x0 in seeds:
        p, res = _newton_polish(s, x0, eq_tol)
        if p is None or res >= eq_tol:
            continue
        if not any(np.linalg.norm(p - q) < cluster_radius for q in found):
            found.append(p)
    found.sort(key=lambda p: tuple(np.round(p, 8)))
    return found


# ----------------------------------------------------------- omega limits


def _segment_min_dist(p: np.ndarray, pts: np.ndarray) -> float:
    """Min distance from p to the polyline through pts."""
    a, b = pts[:-1], pts[1:]
    ab = b - a
    denom = np.sum(ab * ab, axis=1)
    denom[denom == 0.0] = 1.0
    t = np.clip(np.sum((p - a) * ab, axis=1) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return float(np.min(np.linalg.norm(p - proj, axis=1)))


def classify_tail(s: FlowSystem, tail: np.ndarray,
                  cluster_radius: float = CLUSTER_RADIUS,
                  eq_tol: float = EQ_TOL) -> OmegaEstimate:
    """Classify the tail window of an orbit; shared by single and ensemble paths."""
    if not np.all(np.isfinite(tail)):
        return OmegaEstimate(UNDETERMINED)
    diam = float(np.linalg.norm(tail.max(axis=0) - tail.min(axis=0)))
    if diam < cluster_radius:
        mean = tail.mean(axis=0)
        p, res = _newton_polish(s, mean, eq_tol)
        if (p is not None and res < 10.0 * eq_tol
                and float(np.max(np.linalg.norm(tail - p, axis=1))) < cluster_radius):
            return OmegaEstimate(SINGLETON, point=p, residual=res)
        return OmegaEstimate(UNDETERMINED, residual=res)
    anchor = tail[0]
    dists = np.linalg.norm(tail - anchor, axis=1)
    away = np.flatnonzero(dists > 10.0 * cluster_radius)
    if len(away) > 0 and away[0] + 1 < len(tail):
        back = _segment_min_dist(anchor, tail[away[0]:])
        if back < cluster_radius:
            step = max(1, len(tail) // 64)
            return OmegaEstimate(NON_SINGLETON, witnesses=tail[::step].copy())
    return OmegaEstimate(UNDETERMINED)


def omega_limit(s: FlowSystem, x0: np.ndarray, T: float, dt: float = DT_DEFAULT,
                tail_fraction: float = TAIL_FRACTION,
                cluster_radius: float = CLUSTER_RADIUS,
                eq_tol: float = EQ_TOL,
                store_stride: int = STORE_STRIDE) -> OmegaEstimate:
    """Integrate to T and classify the last tail_fraction of stored states."""
    traj = integrate(s, x0, T, dt, store_stride)
    tail = traj.states[traj.times >= (1.0 - tail_fraction) * T]
    return classify_tail(s, tail, cluster_radius, eq_tol)


class _Certifier:
    """Contraction balls around the stable equilibria an ensemble reaches.

    balls[k] is (p, mu, r, residual) for a polished equilibrium p with
    mu = lambda_max(sym J(p)) < 0 and certified radius r.  check(X, t)
    returns per row the index of the ball that retires it at time t, or -1.
    """

    def __init__(self, s: FlowSystem, t_tail: float):
        self.s = s
        self.L = float(s.jac_lipschitz)
        self.t_tail = t_tail
        # classify_tail's diam is a bounding-box diagonal: up to 2 sqrt(n) d
        self.floor = CLUSTER_RADIUS / (2.0 * np.sqrt(s.dim))
        self.balls: list[tuple] = []
        self.rejected: list[np.ndarray] = []

    def check(self, X: np.ndarray, t: float) -> np.ndarray:
        which = np.full(len(X), -1)
        covered = np.zeros(len(X), dtype=bool)
        for k in range(len(self.balls)):
            self._claim(k, X, t, which, covered)
        if self._discover(X, ~covered):
            self._claim(len(self.balls) - 1, X, t, which, covered)
        return which

    def _claim(self, k, X, t, which, covered) -> None:
        p, mu, r, _ = self.balls[k]
        d = np.linalg.norm(X - p, axis=1)
        inside = np.flatnonzero(d < r)  # nan (escaped) rows are never inside
        covered[inside] = True
        d_in = d[inside]
        bound = d_in * np.exp((mu + self.L * d_in) * (self.t_tail - t))
        which[inside[bound < self.floor]] = k

    def _discover(self, X, uncovered) -> bool:
        """One Newton search from the slowest uncovered row; True if it
        added a ball."""
        idx = np.flatnonzero(uncovered)
        speed = np.linalg.norm(self.s.f(X[idx]), axis=1)
        seed = speed < _CERT_F_MAX
        for q in self.rejected:
            seed &= np.linalg.norm(X[idx] - q, axis=1) >= _CERT_REJECT_RADIUS
        if not seed.any():
            return False
        x = X[idx[seed][np.argmin(speed[seed])]]
        p, res = _newton_polish(self.s, x, _CERT_EQ_TOL)
        if p is None:
            self.rejected.append(x.copy())
            return False
        if any(np.linalg.norm(p - q) < r for q, _, r, _ in self.balls):
            return False  # a known equilibrium; the row is not in its ball yet
        J = self.s.jac(p)
        mu = float(np.linalg.eigvalsh(0.5 * (J + J.T))[-1])
        if not mu < 0.0:
            self.rejected.append(p)
            return False
        r = np.inf if self.L == 0.0 else -mu / (2.0 * self.L)
        self.balls.append((p, mu, r, res))
        return True


def ensemble_tails(s: FlowSystem, X0: np.ndarray, T: float,
                   dt: float = DT_DEFAULT,
                   tail_fraction: float = TAIL_FRACTION,
                   store_stride: int = STORE_STRIDE):
    """Batched integration that stores only the tail window.

    On a euclidean system that declares jac_lipschitz, every CERT_EVERY
    steps before the tail window the rows that a contraction certificate
    places in a singleton verdict leave the batch (see the module
    docstring); the march ends once every row has left.

    Returns (tail_times, tails, rows, certified): tails has shape (k, M, n)
    and holds the M rows still in the batch at the tail start, whose sample
    indices are rows; certified[j] is the certified singleton estimate of
    a retired sample j and None for the others.  Escaped rows carry nan in
    tails and classify as escapes downstream.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    n_full, rem = _plan_steps(T, dt)
    total = n_full + (1 if rem > 0.0 else 0)
    # the tail never includes the start state, even with tail_fraction = 1
    tail_start = max(1, int(np.ceil((1.0 - tail_fraction) * total)))
    stepper = _Stepper(s, X0, on_failure="mask")
    certifier = None
    if s.jac_lipschitz is not None and s.manifold.kind == "euclidean":
        certifier = _Certifier(s, min(tail_start * dt, T))
    rows = np.arange(len(X0))
    certified = [None] * len(X0)
    times, frames = [], []
    step = itertools.count()

    def on_step(t, last):
        nonlocal rows
        i = next(step)
        if i >= tail_start:
            if (i - tail_start) % store_stride == 0 or last:
                times.append(t)
                frames.append(stepper.X.copy())
        elif certifier is not None and i > 0 and i % CERT_EVERY == 0:
            which = certifier.check(stepper.X, t)
            done = which >= 0
            if done.any():
                for j, k in zip(rows[done], which[done]):
                    p, _, _, res = certifier.balls[k]
                    certified[j] = OmegaEstimate(SINGLETON, point=p,
                                                 residual=res, certified_at=t)
                rows = rows[~done]
                stepper.drop(done)

    stepper.march(T, dt, on_step)
    tails = np.asarray(frames).reshape(len(times), len(rows), X0.shape[1])
    return np.asarray(times), tails, rows, certified


def ensemble_omega(s: FlowSystem, X0: np.ndarray, T: float,
                   dt: float = DT_DEFAULT,
                   tail_fraction: float = TAIL_FRACTION,
                   store_stride: int = STORE_STRIDE):
    """Omega-limit estimates for a batch; escaped samples come back as None.

    Tails classify with the default CLUSTER_RADIUS and EQ_TOL, the
    tolerances the retirement certificate is built on.
    """
    _, frames, rows, out = ensemble_tails(s, X0, T, dt, tail_fraction,
                                          store_stride)
    for col, j in enumerate(rows):
        tail = frames[:, col, :]
        # a non-finite tail is an escape
        out[j] = classify_tail(s, tail) if np.all(np.isfinite(tail)) else None
    return out


# ------------------------------------------------------------- validation


def validate_jacobian(s: FlowSystem, samples: int = 100, seed: int = 0,
                      scale: float = 1.0) -> float:
    """Max component error of jac vs central differences of f."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = s.manifold.random_point(rng, scale)
        J = s.jac(x)
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        for i in range(s.dim):
            e = np.zeros(s.dim)
            e[i] = h
            col = (s.f(x + e) - s.f(x - e)) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(J[:, i] - col))))
    return worst
