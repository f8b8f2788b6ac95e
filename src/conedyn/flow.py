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

Inside the step map and the stepper, stacks of matrices are stored
component-major: a batch of N matrices of shape (n, m) is one contiguous
(n, m, N) array, so entry (i, j) of every matrix is one contiguous row.
A stacked product is then one pass of sums over whole rows (``_mul``)
rather than N small matrix products, and the product with a declared
matrix R is one BLAS call over the (n, m N) reshape.  Every stack
that leaves this module has the usual (N, n, m) shape: the step map's M
and the stepper's P are transposed views of the component-major arrays.
A system that declares its matrix keeps its states the same way: a step
is (R @ X.T).T, so X is the (N, n) transposed view of a contiguous
(n, N) array, bit-equal to X @ R.T and about three times faster at
N = 1000.  Nonlinear systems keep row-major states: their stage sums
would otherwise mix memory layouts.  A jac may build its stack
component-major and return the (N, n, n) view of it, as coop2d does;
``_jac_cm`` then hands that stack on without a copy.  The RK4 sums
k1 + 2 k2 + 2 k3 + k4 of the state and of M accumulate in place
(``_rk4_increment``), in the order of the textbook expression, so a step
rounds as that expression does; nothing f or jac returns is written into.

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
or stays honest as "undetermined".  Undetermined is never coerced.  Single
orbits and ensembles store the same tail window, fixed by step indices,
and ``classify_tail`` classifies a whole stack of tails in one batched
pass over blocks of rows; only the Newton polish of a clustered tail runs
one row at a time.

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
_CLASSIFY_BLOCK = 16  # tail rows per classify_tail pass: temporaries (k, 16, n)
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


def _rk4_increment(h: float, k1, k2, k3, k4, scratch: bool = False):
    """(h / 6) (k1 + 2 k2 + 2 k3 + k4), bit for bit, summed in place.

    The adds run in that order; only their operands commute.  The sum
    lives in a new array, or, with scratch set, in k2, and 2 k3 in k3:
    only a caller that allocated k2 and k3 itself may set it.  What f and
    jac return is never written into (a jac may return a read-only view).
    """
    if scratch:
        acc, two_k3 = k2, k3
        acc *= 2.0
        two_k3 *= 2.0
    else:
        acc, two_k3 = 2.0 * k2, 2.0 * k3
    acc += k1
    acc += two_k3
    acc += k4
    acc *= h / 6.0
    return acc


def _rk4_step(s: FlowSystem, X: np.ndarray, h: float) -> np.ndarray:
    k1 = s.f(X)
    k2 = s.f(X + 0.5 * h * k1)
    k3 = s.f(X + 0.5 * h * k2)
    k4 = s.f(X + h * k3)
    Xn = _rk4_increment(h, k1, k2, k3, k4)
    Xn += X
    return Xn


def _mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stacked products of component-major stacks: A (n, k, N) and
    B (k, m, N) give C (n, m, N) with C[:, :, r] = A[:, :, r] @ B[:, :, r].

    Each entry is sum_j A[i, j] B[j, l], summed in order j = 0, 1, ...
    over rows of length N.  A and B should be C-contiguous: over strided
    stacks the same sums run many times slower.
    """
    return np.einsum("ijr,jlr->ilr", A, B)


def _jac_cm(s: FlowSystem, X: np.ndarray) -> np.ndarray:
    """jac at the rows of X as a contiguous component-major (n, n, N) stack;
    no copy when jac returns the (N, n, n) view of such a stack."""
    return np.ascontiguousarray(s.jac(X).transpose(1, 2, 0))


def _times_eye_plus(J: np.ndarray, K: np.ndarray, c: float) -> np.ndarray:
    """J (I + c K) as J + c (J K), component-major: no identity is formed."""
    JK = _mul(J, K)
    JK *= c
    JK += J
    return JK


def _rk4_step_map(s: FlowSystem, X: np.ndarray, h: float):
    """One RK4 step of the rows of X and its exact Jacobian.

    Returns (Xn, M) with Xn = _rk4_step(s, X, h) bit for bit and M[j] the
    derivative of the step map at X[j], built from the stages as
    K1 = J1, K2 = J2 (I + h/2 K1), K3 = J3 (I + h/2 K2), K4 = J4 (I + h K3),
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), the identity added in place on
    the diagonal.  The stages are component-major and M, of shape (N, n, n),
    is a view of the contiguous (n, n, N) stack: ``M.transpose(1, 2, 0)``
    gives that stack back for free.  A declared matrix gives M = R(hA) as
    a zero-stride broadcast of R, which is not such a stack.
    The rows of the 2-d X may be one batch at one time or one orbit's
    states over time: the map batches over either.
    """
    if s.matrix is not None:
        R = _rk4_map(s.matrix, h)
        return (R @ X.T).T, np.broadcast_to(R, X.shape[:-1] + R.shape)
    k1 = s.f(X)
    K1 = _jac_cm(s, X)
    x2 = X + 0.5 * h * k1
    k2 = s.f(x2)
    K2 = _times_eye_plus(_jac_cm(s, x2), K1, 0.5 * h)
    x3 = X + 0.5 * h * k2
    k3 = s.f(x3)
    K3 = _times_eye_plus(_jac_cm(s, x3), K2, 0.5 * h)
    x4 = X + h * k3
    k4 = s.f(x4)
    K4 = _times_eye_plus(_jac_cm(s, x4), K3, h)
    Xn = _rk4_increment(h, k1, k2, k3, k4)
    Xn += X
    # K2 and K3 are _times_eye_plus outputs, so they may hold the sum
    M = _rk4_increment(h, K1, K2, K3, K4, scratch=True)
    for i in range(len(M)):
        M[i, i] += 1.0
    return Xn, M.transpose(2, 0, 1)


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


def _off_chart(s: FlowSystem, p: np.ndarray) -> bool:
    """True for a point of an SPD system that fails the chart guard: it is
    no point of the manifold, so no limit or equilibrium there counts."""
    return s.manifold.kind == "spd" and bool(
        _leaves_chart(p[None, :], s.manifold.n)[0])


def _bad_rows(s: FlowSystem, X: np.ndarray):
    """Boolean mask of rows that are non-finite or left the SPD chart, or
    None when one reduction proves a euclidean batch clean."""
    finite = np.isfinite(X)
    if finite.all():  # one reduction over the batch; per row only on failure
        if s.manifold.kind == "spd":
            return _leaves_chart(X, s.manifold.n)
        return None
    bad = ~finite.all(axis=-1)
    ok = np.flatnonzero(~bad)
    if s.manifold.kind == "spd" and len(ok):
        bad[ok[_leaves_chart(X[ok], s.manifold.n)]] = True
    return bad


class _Stepper:
    """Fixed-step RK4 over a batch, with failure masking or raising.

    Every flow path marches through ``march``.  With an initial (n, m)
    tangent matrix ``P0`` (copied to every row) the stepper also steps the
    variational equation P' = jac(x) P as P <- M P, M from _rk4_step_map.
    The tangent matrices are stored component-major, (n, m, N); the ``P``
    property is their (N, n, m) view, and writes through it land in the
    stored stack.  With a declared matrix the states are component-major
    too: X is the (N, n) view of the (n, N) array each step returns.
    """

    def __init__(self, s: FlowSystem, X0: np.ndarray, P0=None,
                 on_failure: str = "raise"):
        self.s = s
        self.X = np.array(X0, dtype=float, copy=True)
        if self.X.ndim != 2:
            raise ValueError("batch states must have shape (N, n)")
        self.t = 0.0
        self._P = None if P0 is None else np.repeat(
            np.asarray(P0, dtype=float)[..., None], len(self.X), axis=-1)
        self.on_failure = on_failure
        self.maps = {}  # step size h -> R(hA), for a declared matrix A
        bad = _bad_rows(s, self.X)
        self.dead = np.zeros(len(self.X), dtype=bool) if bad is None else bad
        self.any_dead = bool(np.any(self.dead))
        if self.on_failure == "raise" and self.any_dead:
            raise ManifoldExitError(0.0, "initial state is off the manifold")

    @property
    def P(self):
        """The tangent matrices, (N, n, m): a view of the stored stack."""
        return None if self._P is None else self._P.transpose(2, 0, 1)

    def advance(self, h: float, t_new: float) -> None:
        P = self._P
        if self.s.matrix is not None:
            R = self.maps.get(h)
            if R is None:
                R = self.maps[h] = _rk4_map(self.s.matrix, h)
            Xn = (R @ self.X.T).T  # component-major: one pass over (n, N)
            Pn = None if P is None else (R @ P.reshape(len(R), -1)).reshape(
                P.shape)
        elif P is None:
            Xn, Pn = _rk4_step(self.s, self.X, h), None
        else:
            Xn, M = _rk4_step_map(self.s, self.X, h)
            Pn = _mul(M.transpose(1, 2, 0), P)
        bad = _bad_rows(self.s, Xn)
        if bad is not None:
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
                Pn[..., self.dead] = np.nan
        self.X, self._P = Xn, Pn

    def drop(self, rows: np.ndarray) -> None:
        """Remove the rows where the boolean mask rows is True (a stepper
        without tangent matrices only)."""
        keep = ~rows
        self.X = self.X[keep]
        self.dead = self.dead[keep]
        self.any_dead = bool(self.dead.any())

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
    """Newton from every seed; keep |f| < eq_tol at points of the manifold
    (on SPD, inside the chart guard), dedupe within cluster_radius."""
    seeds = [np.asarray(x, dtype=float) for x in seeds]
    if not seeds:
        raise ValueError("seeds must be nonempty")
    found: list[np.ndarray] = []
    for x0 in seeds:
        p, res = _newton_polish(s, x0, eq_tol)
        if p is None or res >= eq_tol or _off_chart(s, p):
            continue
        if not any(np.linalg.norm(p - q) < cluster_radius for q in found):
            found.append(p)
    found.sort(key=lambda p: tuple(np.round(p, 8)))
    return found


# ----------------------------------------------------------- omega limits


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of u * v, in order.  Over component-major
    stacks of fewer than 8 components these are the sums that
    np.sum(u * v, axis=-1) takes row-major, bit for bit."""
    out = u[0] * v[0]
    for i in range(1, len(u)):
        out += u[i] * v[i]
    return out


def _return_distances(X: np.ndarray, cluster_radius: float) -> np.ndarray:
    """Per tail of a component-major (n, k, B) block with k >= 2: how close
    the polyline through the tail comes back to its anchor, state 0, after
    first leaving 10 cluster_radius of it; inf for a tail that never
    leaves, or leaves only at its last state."""
    anchor = X[:, :1]
    D = X - anchor
    far = np.sqrt(_dot(D, D)) > 10.0 * cluster_radius
    first = far.argmax(axis=0)  # the first far state; 0 for none
    a, ab = X[:, :-1], np.diff(X, axis=1)  # segment i runs from state i
    denom = _dot(ab, ab)
    denom[denom == 0.0] = 1.0
    t = np.clip(_dot(anchor - a, ab) / denom, 0.0, 1.0)
    E = anchor - (a + t * ab)
    d = np.sqrt(_dot(E, E))
    d[np.arange(len(d))[:, None] < first] = np.inf
    back = d.min(axis=0)
    back[~far.any(axis=0)] = np.inf
    return back


def classify_tail(s: FlowSystem, tails: np.ndarray,
                  cluster_radius: float = CLUSTER_RADIUS,
                  eq_tol: float = EQ_TOL) -> list:
    """Classify a (k, M, n) stack of tail windows: M estimates, in order.

    Shared by the single-orbit and ensemble paths.  A tail with a
    non-finite entry (an escape) gives None.  A tail whose bounding-box
    diagonal is below cluster_radius is a singleton when Newton from its
    mean polishes to a point that every state lies within cluster_radius
    of and that is a point of the manifold (on SPD, one that passes the
    chart guard), and undetermined otherwise.  Any other tail is
    non-singleton when the polyline through its states, from the first one
    farther than 10 cluster_radius from tail[0] on, comes back within
    cluster_radius of tail[0], and undetermined otherwise.  The rows go
    through in blocks of _CLASSIFY_BLOCK, each in one vectorized pass; only
    Newton runs per row.
    """
    k, M, _ = tails.shape
    step = max(1, k // 64)  # witnesses of a non-singleton tail
    out = []
    for b in range(0, M, _CLASSIFY_BLOCK):
        block = tails[:, b:b + _CLASSIFY_BLOCK]
        # component-major, (n, k, B): sums over n short rows run slower
        X = np.ascontiguousarray(np.moveaxis(block, -1, 0))
        finite = np.isfinite(X).all(axis=(0, 1))
        with np.errstate(invalid="ignore", over="ignore"):  # escaped rows
            box = X.max(axis=1) - X.min(axis=1)
            clustered = np.sqrt(_dot(box, box)) < cluster_radius
            back = (_return_distances(X, cluster_radius)
                    if (finite & ~clustered).any() else None)
        for j in range(block.shape[1]):
            tail = block[:, j]
            if not finite[j]:
                out.append(None)
            elif clustered[j]:
                p, res = _newton_polish(s, tail.mean(axis=0), eq_tol)
                if (p is not None and res < 10.0 * eq_tol and float(np.max(
                        np.linalg.norm(tail - p, axis=1))) < cluster_radius
                        and not _off_chart(s, p)):
                    out.append(OmegaEstimate(SINGLETON, point=p, residual=res))
                else:
                    out.append(OmegaEstimate(UNDETERMINED, residual=res))
            elif back[j] < cluster_radius:
                out.append(OmegaEstimate(NON_SINGLETON,
                                         witnesses=tail[::step].copy()))
            else:
                out.append(OmegaEstimate(UNDETERMINED))
    return out


def _tail_start(T: float, dt: float, tail_fraction: float) -> int:
    """The step that opens the tail window of a march to T; never step 0,
    so the window never holds the start state, even with tail_fraction 1."""
    n_full, rem = _plan_steps(T, dt)
    total = n_full + (1 if rem > 0.0 else 0)
    return max(1, int(np.ceil((1.0 - tail_fraction) * total)))


def _march_tail(stepper: _Stepper, T: float, dt: float, tail_fraction: float,
                store_stride: int, check=None):
    """March stepper from 0 to T, storing only the tail window.

    The window stores step ``_tail_start``, every store_stride-th step
    after it and the last step, so the window depends on T, dt and
    tail_fraction alone.  check(t) runs after every CERT_EVERY-th step
    before the window.  Returns (times, frames): lists of the stored times
    and copies of stepper.X.
    """
    tail_start = _tail_start(T, dt, tail_fraction)
    times, frames = [], []
    step = itertools.count()

    def on_step(t, last):
        i = next(step)
        if i >= tail_start:
            if (i - tail_start) % store_stride == 0 or last:
                times.append(t)
                frames.append(stepper.X.copy())
        elif check is not None and i > 0 and i % CERT_EVERY == 0:
            check(t)

    stepper.march(T, dt, on_step)
    return times, frames


def omega_limit(s: FlowSystem, x0: np.ndarray, T: float, dt: float = DT_DEFAULT,
                tail_fraction: float = TAIL_FRACTION,
                cluster_radius: float = CLUSTER_RADIUS,
                eq_tol: float = EQ_TOL,
                store_stride: int = STORE_STRIDE) -> OmegaEstimate:
    """Integrate to T and classify the tail window of stored states, the
    window ``ensemble_tails`` stores; leaving the chart or blowing up
    raises, as in ``integrate``."""
    x0 = s.manifold.check_point(x0)
    stepper = _Stepper(s, x0[None, :])
    _, frames = _march_tail(stepper, T, dt, tail_fraction, store_stride)
    return classify_tail(s, np.asarray(frames), cluster_radius, eq_tol)[0]


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
    stepper = _Stepper(s, X0, on_failure="mask")
    certifier = None
    if s.jac_lipschitz is not None and s.manifold.kind == "euclidean":
        certifier = _Certifier(s, min(_tail_start(T, dt, tail_fraction) * dt,
                                      T))
    rows = np.arange(len(X0))
    certified = [None] * len(X0)

    def retire(t):
        nonlocal rows
        which = certifier.check(stepper.X, t)
        done = which >= 0
        if done.any():
            for j, k in zip(rows[done], which[done]):
                p, _, _, res = certifier.balls[k]
                certified[j] = OmegaEstimate(SINGLETON, point=p,
                                             residual=res, certified_at=t)
            rows = rows[~done]
            stepper.drop(done)

    times, frames = _march_tail(stepper, T, dt, tail_fraction, store_stride,
                                retire if certifier is not None else None)
    tails = np.asarray(frames).reshape(len(times), len(rows), X0.shape[1])
    return np.asarray(times), tails, rows, certified


def ensemble_omega(s: FlowSystem, X0: np.ndarray, T: float,
                   dt: float = DT_DEFAULT,
                   tail_fraction: float = TAIL_FRACTION,
                   store_stride: int = STORE_STRIDE):
    """Omega-limit estimates for a batch; escaped samples come back as None.

    Tails classify with the default CLUSTER_RADIUS and EQ_TOL, the
    tolerances the retirement certificate is built on, in one
    ``classify_tail`` call.
    """
    _, tails, rows, out = ensemble_tails(s, X0, T, dt, tail_fraction,
                                         store_stride)
    for j, est in zip(rows, classify_tail(s, tails)):
        out[j] = est
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
