"""Numerical flows, tangent (variational) flows, equilibria, omega-limits.

Integration is classical fixed-step RK4 (default dt = 1e-3, final partial
step allowed) for determinism and reproducibility; adaptive stepping would
make downstream tolerances scheduler-dependent.  Tangent maps propagate by
the exact Jacobian M of each RK4 step, built from its stages, so a tangent
matrix steps as P <- M P.  Every tangent path (``tangent_at``,
``tangent_flow`` and the Perron-Frobenius ray pairs) marches the states
once and keeps each step's four stage points, a chunk of at most
_ORBIT_CHUNK step-rows at a time (``_StepMaps``); one jac call over all of
a chunk's stage points gives its maps (``_stage_maps``), and P scans them
one step at a time.  A declared matrix keeps M = R(hA) and needs no
stages.

The step maps are stored component-major: a batch of N matrices of shape
(n, m) is one contiguous (n, m, N) array, so entry (i, j) of every matrix
is one contiguous row.  A stacked product is then one pass of sums over
whole rows (``_mul``) rather than N small matrix products, and the product
with a declared matrix R is one BLAS call over the (n, m N) reshape.  A
batch's tangents scan component-major, summed in order; one orbit's take
one small matmul per step, which BLAS rounds with fused multiply-adds, so
the two may differ in the last bit.  Every stack that leaves this module
has the usual (N, n, m) shape.  A system that declares its matrix keeps
its states the same way: a step is (R @ X.T).T, so X is the (N, n)
transposed view of a contiguous (n, N) array, bit-equal to X @ R.T and
about three times faster at N = 1000.  Nonlinear systems keep row-major
states: their stage sums would otherwise mix memory layouts.  A jac may
build its stack component-major and return the (N, n, n) view of it, as
coop2d does; ``_jac_cm`` then hands that stack on without a copy.  The
RK4 sums k1 + 2 k2 + 2 k3 + k4 of the state and of M accumulate in place
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
the tail window (the last TAIL_FRACTION of the march, stored every
STORE_STRIDE steps) either clusters within CLUSTER_RADIUS to an equilibrium
polished below EQ_TOL (singleton), revisits its own start (non-singleton),
or stays honest as "undetermined".  Undetermined is never coerced.  Single
orbits and ensembles stream this window, fixed by T and dt alone, through a
``_TailStream``: it folds each slice of stored states, one witness stride
long, into running per-row statistics (bounding box, finiteness, return
distance) in one vectorized pass and keeps no state.  They decide every
verdict; ``classify_tail`` replays the window once, from the batch at the
tail start in the march's own steps, only for the states they cannot give:
a clustered tail's (its mean seeds Newton, and every state must lie near
the point) and, if asked for, non-singleton witnesses.  The replay steps
the whole batch: a declared matrix steps all rows in one product, and a
product over fewer columns can round differently (one column takes BLAS's
gemv path).  The verdicts equal those of the whole window bit for bit; only
Newton runs per row.

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
positive-definiteness guard; leaving the chart raises (single orbit) or
marks the sample as escaped (ensembles).  The manifold owns the guard,
``ManifoldSpec.leaves`` (finiteness on flat space; on SPD, eigvalsh's
decision, on SPD(2) after a trace/determinant screen that proves most
batches clean at once), and the start rows take it as every step does.  On
flat space each run up to the next event is one bare loop of steps with
one guard at its end: an RK4 step, or a product with a declared matrix's
R(hA) (inf * 0 is nan), keeps a non-finite row non-finite, so a row finite
at the end of a run was finite at every step of it.  Rows that died in it
are set to nan before the event reads them, and in raise mode a failed run
is replayed with the guard after every step, which dates the failure.  On
SPD the run rule is ``free_steps``: how many steps of a declared matrix the
live rows can take before the guard could reject one, from their room
above the guard's threshold (SPD(2) only) and the growth of one step.  The
march asks for a proof wherever none covers the next step (after a failed
proof, only once a guarded step proves the live rows clean or loses a row),
takes the run it proves as one bare loop of products and guards the live
rows on every other step, so every decision is the one the guard makes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .cones import integer_at_least
from .errors import (
    DimensionMismatchError,
    FlowBlowupError,
    ManifoldExitError,
    NumericsError,
)
from .geometry import FlowSystem, norms

DT_DEFAULT = 1e-3
STORE_STRIDE = 10
TAIL_FRACTION = 0.25
CLUSTER_RADIUS = 1e-4
EQ_TOL = 1e-10
CERT_EVERY = 100  # ensemble steps between contraction-certificate checks
_ORBIT_CHUNK = 1024  # step-rows of stage points per jac call of a tangent path
_MAX_STEPS = 2.0 ** 53  # step counts stay exact floats below this
_CERT_F_MAX = 1e-2  # only rows with |f| below this seed an equilibrium search
_CERT_EQ_TOL = 1e-12  # certified equilibria are polished past EQ_TOL
_CERT_REJECT_RADIUS = 0.05  # rows this close to a rejected point seed nothing

SINGLETON = "singleton_equilibrium"
NON_SINGLETON = "non_singleton"
UNDETERMINED = "undetermined"


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
    if not (0 < T < np.inf and 0 < dt <= T and T / dt < _MAX_STEPS):
        raise ValueError(f"need 0 < dt <= T < inf, T/dt < 2**53: {T=} {dt=}")
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


def _rk4_step(s: FlowSystem, X: np.ndarray, h: float,
              stages=None) -> np.ndarray:
    """One RK4 step of the rows of X.  With stages, a list, the step also
    appends its four stage points (X, X + h/2 k1, X + h/2 k2, X + h k3) to
    it, the arrays it evaluated f at; nothing writes into them later."""
    k1 = s.f(X)
    x2 = X + 0.5 * h * k1
    k2 = s.f(x2)
    x3 = X + 0.5 * h * k2
    k3 = s.f(x3)
    x4 = X + h * k3
    k4 = s.f(x4)
    if stages is not None:
        stages += (X, x2, x3, x4)
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


def _stage_maps(s: FlowSystem, stages: list, h: float) -> np.ndarray:
    """The exact Jacobians of RK4 steps of size h from their stage points.

    stages holds the stage points of C steps of N rows, as _rk4_step
    appends them.  One jac call over all 4 C N points gives the stage
    Jacobians J1..J4, and K1 = J1, K2 = J2 (I + h/2 K1), K3 = J3 (I + h/2 K2),
    K4 = J4 (I + h K3), M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), the identity
    added in place on the diagonal, over the C N columns at once.  Returns
    the (C, n, n, N) view in which M[c] is step c's component-major stack.
    """
    C, (N, n) = len(stages) // 4, stages[0].shape
    Z = np.concatenate(stages).reshape(C, 4, N, n).transpose(1, 0, 2, 3)
    J = _jac_cm(s, Z.reshape(-1, n))  # the points grouped by stage
    K1, J2, J3, J4 = (J[:, :, q * C * N:(q + 1) * C * N] for q in range(4))
    K2 = _times_eye_plus(J2, K1, 0.5 * h)
    K3 = _times_eye_plus(J3, K2, 0.5 * h)
    K4 = _times_eye_plus(J4, K3, h)
    # K2 and K3 are _times_eye_plus outputs, so they may hold the sum
    M = _rk4_increment(h, K1, K2, K3, K4, scratch=True)
    for i in range(n):
        M[i, i] += 1.0
    return M.reshape(n, n, C, N).transpose(2, 0, 1, 3)


def _rk4_map(A: np.ndarray, h: float) -> np.ndarray:
    """R(hA) = sum_{k<=4} (hA)^k / k! by Horner: one RK4 step of x' = Ax."""
    R = eye = np.eye(len(A))
    for k in (4.0, 3.0, 2.0, 1.0):
        R = eye + (h / k) * A @ R
    return R


def _off_chart(s: FlowSystem, p: np.ndarray) -> bool:
    """True for a point that fails the manifold guard (on SPD, the chart
    guard): no limit or equilibrium there counts."""
    bad = s.manifold.leaves(p[None, :])
    return bad is not None and bool(bad[0])


def _bad_rows(s: FlowSystem, X: np.ndarray):
    """The manifold guard, ``ManifoldSpec.leaves``, on the live rows of
    every step no proven run covers: a boolean mask of rows that are
    non-finite or left the SPD chart, or None when they are proven clean."""
    return s.manifold.leaves(X)


class _StepMaps:
    """The step maps of a march, handed to a scan a chunk at a time.

    A ``_Stepper`` whose ``tangents`` is set hands over every step it
    takes: a declared matrix's steps as their map R(hA) (``matrix_steps``),
    any other step as its four stage points, which _rk4_step appends to
    ``stages(h)``.  A chunk holds at most C = max(1, _ORBIT_CHUNK // N)
    steps of the N rows, all of one size h.  ``flush`` builds the chunk's
    maps, from the stages with one jac call (``_stage_maps``), and calls
    scan(Ms) with them in step order: Ms[c] is step c's component-major
    (n, n, N) stack, or, for a declared matrix, R itself.  A step's maps
    may reach the scan before its guard; only inside a run on flat space
    can that guard then fail (``_Stepper``), so a row that dies there may
    scan garbage until it is marked dead.
    """

    def __init__(self, s: FlowSystem, N: int, scan):
        self.s, self.scan = s, scan
        self.C = max(1, _ORBIT_CHUNK // max(N, 1))
        self.points = []  # the stage points of the chunk's steps, in order
        self.used, self.h, self.R = 0, None, None  # steps in the chunk

    def _take(self, h: float, k: int) -> None:
        """Open k more steps of size h in the chunk; a chunk that is full
        or of another step size is flushed first."""
        if self.used and (self.used + k > self.C or h != self.h):
            self.flush()
        self.used += k
        self.h = h

    def stages(self, h: float) -> list:
        """The list the next step, of size h, appends its stage points to."""
        self._take(h, 1)
        return self.points

    def matrix_steps(self, R: np.ndarray, h: float, k: int) -> None:
        """k steps of size h of a declared matrix, whose map is R."""
        self._take(h, k)
        self.R = R

    def flush(self) -> None:
        """Scan the maps of the steps in the chunk, and empty it."""
        c, self.used = self.used, 0
        points, self.points = self.points, []
        if not c:
            return
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            if self.s.matrix is not None:
                self.scan(np.broadcast_to(self.R, (c,) + self.R.shape))
            else:
                self.scan(_stage_maps(self.s, points, self.h))


class _Stepper:
    """Fixed-step RK4 over a batch, with failure masking or raising.

    Every flow path marches through ``march``.  With a declared matrix the
    states are component-major: X is the (N, n) view of the (n, N) array
    each step returns.  A ``_StepMaps`` set as ``tangents`` receives every
    step, so the tangent paths build their maps from the march's own stages.

    The manifold guard (``_bad_rows``) decides every row, the start rows
    included; it returns None only for rows it proves clean, and then the
    step does no mask work.  On flat space each run up to the next event is
    one bare loop of steps (``_steps``) with one guard at its end: a step
    keeps a non-finite row non-finite (an RK4 sum or a product with R(hA)
    carries an inf or nan entry into every entry it touches, inf * 0 being
    nan), so a row that is finite at the end of a run was finite at every
    step of it.  Rows found bad are marked dead and set to nan before the
    event reads them; in raise mode a failed run is replayed from its start
    with the guard after every step, which raises at the step that failed.
    On SPD a declared matrix takes the runs a proof covers (``_free_steps``:
    the steps ``ManifoldSpec.free_steps`` allows the live rows) with no
    guard, and every other step is guarded after it.
    """

    def __init__(self, s: FlowSystem, X0: np.ndarray,
                 on_failure: str = "raise"):
        self.s = s
        self.X = np.array(X0, dtype=float, copy=True)
        if self.X.ndim != 2 or self.X.shape[1] != s.dim:
            raise DimensionMismatchError(
                f"batch states must have shape (N, {s.dim}): {self.X.shape}")
        if on_failure not in ("raise", "mask"):
            raise ValueError(f"on_failure must be raise|mask: {on_failure!r}")
        self.t = 0.0
        self.on_failure = on_failure
        self.maps = {}  # step size h -> R(hA), for a declared matrix A
        self.growth = {}  # step size h -> step_growth(R(hA)), for SPD proofs
        self.tangents = None  # a _StepMaps that takes every step
        self.runs = s.manifold.kind == "euclidean"
        self.dead = np.zeros(len(self.X), dtype=bool)
        self.any_dead = False
        self._accept(self.X, 0.0)  # the start rows, by the step guard's rule

    def _map(self, h: float) -> np.ndarray:
        """R(hA) for the declared matrix A, cached per step size."""
        R = self.maps.get(h)
        if R is None:
            R = self.maps[h] = _rk4_map(self.s.matrix, h)
        return R

    def _free_steps(self, h: float, count: int) -> int:
        """How many of the next count steps of size h on SPD need no guard:
        those ``ManifoldSpec.free_steps`` allows the live rows (all count
        once every row is dead), none without a declared matrix.  Call it
        under errstate(over="ignore")."""
        if self.s.matrix is None:
            return 0
        c = self.growth.get(h)
        if c is None:
            c = self.growth[h] = self.s.manifold.step_growth(self._map(h))
        live = self.X[~self.dead] if self.any_dead else self.X
        return min(count, self.s.manifold.free_steps(live, c))

    def _steps(self, h: float, k: int) -> None:
        """k steps of size h with no guard: by R(hA) for a declared matrix,
        by _rk4_step otherwise; tangents, if set, takes each one."""
        maps = self.tangents
        if self.s.matrix is None:
            X = self.X
            for _ in range(k):
                X = _rk4_step(self.s, X, h, None if maps is None
                              else maps.stages(h))
            self.X = X
            return
        R = self._map(h)
        X = self.X.T
        for _ in range(k):
            X = R @ X  # component-major: one pass over (n, N)
        self.X = X.T
        if maps is not None:
            maps.matrix_steps(R, h, k)

    def _accept(self, Xn: np.ndarray, t_new: float) -> bool:
        """Guard the live rows of Xn, the states at t_new, and take them;
        True when the guard proved them clean or rows left."""
        live = ~self.dead if self.any_dead else slice(None)
        bad = _bad_rows(self.s, Xn[live])  # the dead rows need no guard
        fresh = bad is None
        if not fresh and bad.any():  # the method skips np.any's dispatch
            if self.on_failure == "raise":
                if np.any(~np.isfinite(Xn[bad])):
                    raise FlowBlowupError(t_new)
                raise ManifoldExitError(t_new)
            self.dead[live] |= bad
            self.any_dead = fresh = True
        if self.any_dead:  # dead rows stay frozen at nan
            Xn[self.dead] = np.nan
        self.X = Xn
        return fresh

    def advance(self, h: float, t_new: float) -> bool:
        """One guarded step of size h to time t_new; True when the guard
        proved the live rows clean or rows left: a new proof may succeed."""
        self._steps(h, 1)
        return self._accept(self.X, t_new)

    def _run(self, i: int, stop: int, size, time) -> None:
        """Steps i + 1..stop on flat space (step j + 1 of size size(j),
        ending at time(j + 1)): one bare loop, then one guard."""
        start, last = self.X, stop - 1  # only the last step may be partial
        if last > i:
            self._steps(size(i), last - i)
        self._steps(size(last), 1)
        try:
            self._accept(self.X, time(stop))
        except FlowBlowupError:  # raise mode: replay to date the failure
            self.X, self.tangents = start, None
            for j in range(i, stop):
                self.advance(size(j), time(j + 1))
            raise

    def drop(self, rows: np.ndarray) -> None:
        """Remove the rows where the boolean mask rows is True (a stepper
        without tangents only)."""
        keep = ~rows
        self.X = self.X[keep]
        self.dead = self.dead[keep]
        self.any_dead = bool(self.dead.any())

    def march(self, t_end: float, dt: float, on_store=None, stride: int = 1,
              events=None, first: int = 0) -> None:
        """Step from self.t to t_end: full dt steps plus one partial step.

        Step i ends at time self.t + min(i*dt, span).  on_store(t, last)
        runs after each step of events, ascending step indices below the
        last (by default the multiples of stride, from i = 0, the start),
        and after the last step.  The march ends early once the batch is
        empty.  With first, it resumes the plan at step first's state.
        """
        t0 = self.t
        span = t_end - t0
        n_full, rem = _plan_steps(span, dt)
        total = n_full + (1 if rem > 0.0 else 0)
        if on_store is None:
            events = ()
        elif events is None:
            events = range(0, total, stride)

        def size(j):  # of step j + 1
            return dt if j < n_full else rem

        def time(j):  # at the end of step j
            return t0 + min(j * dt, span)

        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            i = proven = first  # steps i + 1..proven need no guard
            fresh = True  # no proof has failed on the batch as it stands
            for stop in itertools.chain(events, (total,)):
                if self.runs and i < stop:  # flat: one run, one guard
                    self._run(i, stop, size, time)
                    i = stop
                while i < stop:  # SPD: proven runs and guarded steps
                    h = size(i)
                    if i >= proven and fresh:  # no proof covers step i + 1
                        proven = i + self._free_steps(
                            h, n_full - i if i < n_full else 1)
                    if i < proven:
                        k = min(proven, stop) - i
                        self._steps(h, k)
                        i += k
                    else:
                        i += 1
                        fresh = self.advance(h, time(i))
                if on_store is not None:
                    on_store(time(stop), stop == total)
                if not len(self.X):
                    break  # every row has left the batch
        self.t = t_end  # no float drift across horizons


def _capture(stepper: _Stepper, times, dt: float, snapshot,
             date=None) -> list:
    """Snapshots at times, in their order; the march visits them sorted,
    each gap on its own plan.  When a gap to t, in steps of h, fails (its
    march or its snapshot), date(t, h) may raise a better dated error."""
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or not np.all((0.0 <= times) & (times < np.inf))
            or not 0.0 < dt < np.inf):
        raise ValueError("need capture times in [0, inf) and 0 < dt < inf")
    times = times.tolist()
    out = [None] * len(times)
    for i in sorted(range(len(times)), key=times.__getitem__):
        t = times[i]
        span = t - stepper.t
        h = min(dt, span)
        try:
            if span > 1e-15 * max(1.0, t):
                stepper.march(t, h)
            out[i] = snapshot()
        except (FlowBlowupError, ManifoldExitError):
            if date is not None:
                date(t, h)
            raise
    return out


def _orbit_tangent(s: FlowSystem, x0: np.ndarray, P0: np.ndarray, T: float,
                   dt: float, stride: int, on_records, unit: bool = False):
    """March one orbit and a tangent matrix P, P(0) = P0, to T.

    The orbit marches as a batch of one row (same plan, guard and failure
    policy as every flow path) with a ``_StepMaps`` attached, and P <- M P
    scans each chunk's maps (one matmul per step), with every column scaled
    to unit Euclidean length after each step when unit is set.  A store
    after every step buffers its state, so every step is guarded before
    its maps are scanned.  on_records(ts, xs, Ps) receives, in step order,
    the stored steps: the start, every stride-th step and the last.  A
    state failure first hands over the steps before it, then raises; so
    does the first step that leaves an inf or nan entry in P, or (unit
    set) a zero column.

    Returns (x_final, P_final).
    """
    integer_at_least(stride, 1, "store_stride", ValueError)
    n_full, rem = _plan_steps(T, dt)
    total = n_full + (1 if rem > 0.0 else 0)
    stepper = _Stepper(s, x0[None, :])
    P = np.array(P0, dtype=float)
    if unit:
        P /= norms(P, axis=0)  # exact in scale: a huge start stays nonzero
    on_records(np.zeros(1), x0[None, :], P[None])
    xs, ts = [], []  # states and times from the chunk's start state on
    done = 0  # steps handed over

    def scan(Ms):
        nonlocal P, done, xs, ts
        if Ms.ndim == 4:  # (c, n, n, 1) stacks of the one row
            Ms = Ms[..., 0]
        m = min(len(Ms), len(xs) - 1)  # a failed step has maps, no state
        X, t_steps = np.asarray(xs[:m + 1]), np.asarray(ts[1:m + 1])
        xs, ts = xs[m:], ts[m:]
        steps = np.arange(done + 1, done + m + 1)
        done += m
        keep = (steps % stride == 0) | (steps == total)
        out = np.empty((int(keep.sum()),) + P.shape)
        # per step and column: the norm (unit) or the largest |entry|
        norms = np.empty((m, P.shape[1]))
        r = 0
        with np.errstate(all="ignore"):  # failures are dated below or by march
            for M, k, nrm in zip(Ms, keep.tolist(), norms):
                P = M @ P
                if unit:  # np.linalg.norm(P, axis=0) without its overhead
                    P /= np.sqrt(np.add.reduce(P * P, axis=0), out=nrm)
                else:  # a finite P may still have squares that overflow
                    np.maximum.reduce(np.abs(P), axis=0, out=nrm)
                if k:
                    out[r] = P
                    r += 1
        ok = norms < np.inf  # nan fails too
        if unit:
            ok &= norms > 0.0
        ok = ok.all(axis=1)
        n_ok = m if ok.all() else int(np.argmin(ok))
        n_rec = int(keep[:n_ok].sum())
        on_records(t_steps[keep][:n_rec], X[1:][keep][:n_rec], out[:n_rec])
        if n_ok < m:
            raise FlowBlowupError(t_steps[n_ok], "tangent map blew up near "
                                  f"t={t_steps[n_ok]:.6g}")

    stepper.tangents = maps = _StepMaps(s, 1, scan)

    def buffer(t, last):
        xs.append(stepper.X[0])  # every step allocates a new X
        ts.append(t)

    try:
        stepper.march(T, dt, buffer)
    except (FlowBlowupError, ManifoldExitError):
        maps.flush()
        raise
    maps.flush()
    return stepper.X[0], P


# ------------------------------------------------------------- public ops


def integrate(s: FlowSystem, x0: np.ndarray, T: float, dt: float = DT_DEFAULT,
              store_stride: int = STORE_STRIDE) -> Trajectory:
    """Integrate one orbit, storing every store_stride-th step and the end."""
    integer_at_least(store_stride, 1, "store_stride", ValueError)
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
    snaps = _capture(stepper, times, dt, lambda: stepper.X.copy())
    return np.asarray(snaps).reshape((len(snaps),) + stepper.X.shape)


def tangent_at(s: FlowSystem, X0: np.ndarray, times, dt: float = DT_DEFAULT,
               on_failure: str = "raise"):
    """Batched (states, tangent maps) captured exactly at the given times.

    The tangent matrices, from the identity, scan the march's step maps
    (``_StepMaps``) as P <- M P: component-major, summed in order
    (``_mul``), or one product with a declared matrix's R over the (n, n N)
    reshape.  With on_failure="mask", a row that left reads nan from the
    first capture after it left.  In raise mode, a gap whose march fails
    or whose maps end non-finite (P <- M P keeps an inf or nan) is replayed
    with both checks after every step: the first failure, at a tie the
    state's, raises.
    """
    stepper = _Stepper(s, np.atleast_2d(np.asarray(X0, float)),
                       on_failure=on_failure)
    N, n = stepper.X.shape
    P = np.repeat(np.eye(n)[..., None], N, axis=-1)  # (n, n, N)

    def scan(Ms):
        nonlocal P
        for M in Ms:
            P = (_mul(M, P) if M.ndim == 3
                 else (M @ P.reshape(n, -1)).reshape(P.shape))

    stepper.tangents = maps = _StepMaps(s, N, scan)
    last = stepper.t, stepper.X, P  # the last capture, never written into

    def snapshot():
        nonlocal last
        maps.flush()
        if stepper.any_dead:  # a dead row's maps may be garbage
            P[..., stepper.dead] = np.nan
        elif on_failure == "raise" and not np.isfinite(P).all():
            raise FlowBlowupError(stepper.t)  # dated by date()
        last = stepper.t, stepper.X, P
        return stepper.X.copy(), P.transpose(2, 0, 1).copy()

    def date(t, h):
        nonlocal P
        t0, X, P = last
        replay = _Stepper(s, X)
        replay.t = t0
        replay.tangents = steps = _StepMaps(s, N, scan)

        def check(t_step, _):
            steps.flush()
            if not np.isfinite(P).all():
                raise FlowBlowupError(t_step, "tangent map blew up near "
                                      f"t={t_step:.6g}")

        replay.march(t, h, check)

    snaps = _capture(stepper, times, dt, snapshot, date)  # mask mode: no error
    k = len(snaps)
    return (np.asarray([x for x, _ in snaps]).reshape((k, N, n)),
            np.asarray([p for _, p in snaps]).reshape((k, N, n, n)))


def _box_array(box, dim: int) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.ndim == 0:
        box = np.array([[-float(box), float(box)]] * dim)
    elif box.ndim == 1:
        if box.shape[0] != 2:
            raise ValueError("1-d box must be (lo, hi)")
        box = np.tile(box, (dim, 1))
    if (box.shape != (dim, 2) or not np.isfinite(box).all()
            or np.any(box[:, 1] <= box[:, 0])):
        raise ValueError("box must give finite lo < hi per dimension")
    return box


def _generator(seed: int | np.random.Generator) -> np.random.Generator:
    """seed itself when it is a ``np.random.Generator``, else a generator
    seeded by it; ValueError unless such a seed is an integer >= 0."""
    if not isinstance(seed, np.random.Generator):
        seed = integer_at_least(seed, 0, "seed", ValueError)
    return np.random.default_rng(seed)


def sample_states(s: FlowSystem, box, N: int,
                  seed: int | np.random.Generator) -> np.ndarray:
    """N states drawn from ``np.random.default_rng(seed)``.

    Uniform in the box on flat space; random SPD points (log-uniform
    eigenvalues) on SPD, where a coordinate box would leave the chart.
    Rows are drawn in sample order, so row i does not depend on N.  seed
    may be a ``np.random.Generator``, which the draws then continue.
    """
    N = integer_at_least(N, 0, "N", ValueError)
    rng = _generator(seed)
    if s.manifold.kind == "euclidean":
        box = _box_array(box, s.dim)
        return rng.uniform(box[:, 0], box[:, 1], (N, s.dim))
    return s.manifold.random_points(rng, N)


# ------------------------------------------------------------ equilibria


def _newton_polish(s: FlowSystem, x0: np.ndarray, eq_tol: float = EQ_TOL):
    """Damped Newton on f, at most 100 steps; returns (point, residual),
    a point only once its residual is below eq_tol, or (None, residual).
    A residual or step that overflows on the way is inf or nan, silently."""
    with np.errstate(all="ignore"):
        x = np.asarray(x0, dtype=float).copy()
        res = float(np.linalg.norm(s.f(x)))
        for _ in range(100):
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


def find_equilibria(s: FlowSystem, seeds) -> list:
    """Newton from every seed; keep |f| < EQ_TOL at points of the manifold
    (on SPD, inside the chart guard), dedupe within CLUSTER_RADIUS."""
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 2 or seeds.shape[1] != s.dim or not len(seeds):
        raise DimensionMismatchError(
            f"seeds must have shape (k >= 1, {s.dim}): {seeds.shape}")
    found: list[np.ndarray] = []
    for x0 in seeds:
        p, _ = _newton_polish(s, x0)
        if p is None or _off_chart(s, p):
            continue
        if not any(np.linalg.norm(p - q) < CLUSTER_RADIUS for q in found):
            found.append(p)
    found.sort(key=lambda p: tuple(np.round(p, 8)))
    return found


# ----------------------------------------------------------- omega limits


def _dot(u: np.ndarray, v: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Sum over the leading axis of u * v, in order (into out, tmp holding
    each further product).  Over component-major stacks of fewer than 8
    components: np.sum(u * v, axis=-1)'s row-major sums, bit for bit."""
    out = np.multiply(u[0], v[0], out=out)
    for i in range(1, len(u)):
        out += np.multiply(u[i], v[i], out=tmp)
    return out


class _TailStream:
    """The tail window of M rows, classified as it is stored.

    ``store`` takes the next of k stored (M, n) states.  The states gather
    component-major in one slice buffer of step = max(1, k // 64) stores,
    the witness stride, after the last state of the slice before; each
    full slice (and the short last one) updates, in one vectorized pass,
    every row's running min and max (its finiteness and bounding box; both
    propagate nan) and its return distance (the anchor, state 0; whether
    it has left 10 CLUSTER_RADIUS of it; the running minimum of the
    segment distances from the first far state on).  replay(visit) calls
    visit with the k states again, in order.  The buffers are allocated
    once; fresh ones would fault their pages in again on every slice.
    """

    def __init__(self, k: int, M: int, n: int, replay=None):
        self.k, self.M, self.replay = k, M, replay
        self.step = step = max(1, k // 64)
        self.fill = 0  # states in the buffer
        self.buf = np.empty((n, step + 1, M))  # [:, 0]: the state before
        self.anchor = self.V = None  # V: return-distance buffers, once used
        self.lo = np.full((n, M), np.inf)
        self.hi = np.full((n, M), -np.inf)
        self.left = np.zeros(M, dtype=bool)  # a state farther than 10 r
        self.back = np.full(M, np.inf)
        self.all_near = True  # every bounding-box diagonal is below r

    def store(self, X: np.ndarray) -> None:
        """Take the next stored (M, n) state; a full slice is folded in."""
        self.fill += 1
        self.buf[:, self.fill] = X.T
        if self.fill == self.step:
            self._take()

    def _take(self) -> None:
        """Fold the filled slice into the running statistics."""
        b, buf = self.fill, self.buf
        new = buf[:, 1:b + 1]
        if self.anchor is None:
            self.anchor = new[:, 0].copy()
            buf[:, 0] = new[:, 0]  # a zero-length first segment, masked
        with np.errstate(invalid="ignore", over="ignore"):  # escaped rows
            np.minimum(self.lo, new.min(axis=1), out=self.lo)
            np.maximum(self.hi, new.max(axis=1), out=self.hi)
            if self.all_near:  # then no state is 10 r from its anchor
                box = self.hi - self.lo
                near = _dot(box, box) < CLUSTER_RADIUS ** 2
                self.all_near = bool(near.all())
            if not self.all_near:
                self._return_distances(b)
        buf[:, 0] = buf[:, b]
        self.fill = 0

    def _return_distances(self, b: int) -> None:
        """Fold the slice's segments into back: segment q runs from the
        state before new state q to it, and counts once a state before
        new state q is farther than 10 r from the anchor."""
        buf, anchor = self.buf, self.anchor[:, None]
        if self.V is None:
            n, step, M = buf.shape[0], self.step, self.M
            self.V, self.AB = np.empty((2, n, step, M))
            self.s, self.den, self.tmp = np.empty((3, step, M))
            self.skip = np.empty((step, M), dtype=bool)
        V, s, tmp = self.V[:, :b], self.s[:b], self.tmp[:b]
        D = np.subtract(buf[:, 1:b + 1], anchor, out=V)
        far = np.sqrt(_dot(D, D, s, tmp), out=s) > 10.0 * CLUSTER_RADIUS
        gone = np.logical_or.accumulate(far, axis=0)  # far at q or before
        skip = self.skip[:b]
        np.logical_not(self.left, out=skip[0])
        np.logical_not(gone[:-1], out=skip[1:])
        skip[1:] &= skip[0]
        self.left |= gone[-1]
        a = buf[:, :b]
        ab = np.subtract(buf[:, 1:b + 1], a, out=self.AB[:, :b])
        den = _dot(ab, ab, self.den[:b], tmp)
        den[den == 0.0] = 1.0
        t = _dot(np.subtract(anchor, a, out=V), ab, s, tmp)
        np.clip(np.divide(t, den, out=t), 0.0, 1.0, out=t)
        E = np.multiply(t, ab, out=V)
        np.subtract(anchor, np.add(a, E, out=E), out=E)
        d = np.sqrt(_dot(E, E, den, tmp), out=den)
        d[skip] = np.inf
        np.minimum(self.back, d.min(axis=0), out=self.back)


def classify_tail(s: FlowSystem, tails, witnesses: bool = True) -> list:
    """Classify the tails of a ``_TailStream`` or of a (k, M, n) stack of
    tail windows, which streams through one: M estimates, in order.

    Shared by the single-orbit and ensemble paths; r is CLUSTER_RADIUS.  A
    tail with a non-finite entry (an escape) gives None.  A tail whose
    bounding-box diagonal is below r is a singleton when Newton from its
    mean polishes (residual below EQ_TOL) to a point that every state
    lies within r of and that is a point of the manifold (on SPD, one that
    passes the chart guard), and undetermined otherwise.  Any other tail is
    non-singleton when the polyline through its states, from the first one
    farther than 10 r from tail[0] on, comes back within r of tail[0], and
    undetermined otherwise; its witnesses (views into one array) are None
    unless witnesses is set.  The stream's statistics decide every row;
    one replay of the window gives the states of the clustered rows and
    the witnesses.  Only Newton runs per row.
    """
    if not isinstance(tails, _TailStream):
        window = np.asarray(tails, dtype=float)
        if (window.ndim != 3 or window.shape[2] != s.dim
                or window.shape[1] and not len(window)):  # rows, no state
            raise DimensionMismatchError(
                f"tails must have shape (k >= 1, M, {s.dim}): {window.shape}")
        tails = _TailStream(*window.shape, lambda v: [v(X) for X in window])
        tails.replay(tails.store)
    st = tails
    if st.fill:
        st._take()  # the short last slice
    finite = (np.isfinite(st.lo) & np.isfinite(st.hi)).all(axis=0)
    with np.errstate(invalid="ignore", over="ignore"):
        box = st.hi - st.lo
        near = np.sqrt(_dot(box, box)) < CLUSTER_RADIUS  # and so finite
    back = finite & ~near & (st.back < CLUSTER_RADIUS)
    cols, wrows = np.flatnonzero(near), np.flatnonzero(back & witnesses)
    kept = np.empty((st.k, len(cols), len(box)))
    wit = np.empty((len(wrows), len(range(0, st.k, st.step)), len(box)))
    if len(cols) or len(wrows):
        count = itertools.count()

        def visit(X):
            i = next(count)
            kept[i] = X[cols]
            if i % st.step == 0:
                wit[:, i // st.step] = X[wrows]

        st.replay(visit)
    kept, wit = iter(kept.transpose(1, 0, 2)), iter(wit)
    out = []
    for j in range(st.M):
        if not finite[j]:
            out.append(None)
        elif near[j]:
            tail = next(kept)
            p, res = _newton_polish(s, tail.mean(axis=0))
            with np.errstate(over="ignore"):  # a huge tail is far from p
                far = p is None or not float(np.max(
                    np.linalg.norm(tail - p, axis=1))) < CLUSTER_RADIUS
            if not far and not _off_chart(s, p):
                out.append(OmegaEstimate(SINGLETON, point=p, residual=res))
            else:
                out.append(OmegaEstimate(UNDETERMINED, residual=res))
        elif back[j]:
            out.append(OmegaEstimate(
                NON_SINGLETON, witnesses=next(wit) if witnesses else None))
        else:
            out.append(OmegaEstimate(UNDETERMINED))
    return out


def _tail_start(T: float, dt: float) -> int:
    """The step that opens the tail window of a march to T; never step 0,
    so the window never holds the start state."""
    n_full, rem = _plan_steps(T, dt)
    total = n_full + (1 if rem > 0.0 else 0)
    return max(1, int(np.ceil((1.0 - TAIL_FRACTION) * total)))


def _replay_tail(s: FlowSystem, X: np.ndarray, T: float, dt: float,
                 stores: range, visit) -> None:
    """visit(state) at each of stores and at the last step of a march of s
    to T, replayed from the batch X at step stores.start."""
    stepper = _Stepper(s, X, on_failure="mask")  # copies X, layout and all
    stepper.march(T, dt, lambda t, last: visit(stepper.X), events=stores,
                  first=stores.start)


def _march_tail(stepper: _Stepper, T: float, dt: float, check=None):
    """March stepper from 0 to T, streaming only the tail window.

    The window stores step ``_tail_start``, every STORE_STRIDE-th step
    after it and the last step, so the window depends on T and dt alone.
    check(t) runs after every CERT_EVERY-th step before the window.  The
    march calls back at these steps alone.
    Returns (times, stream): the k stored times and the ``_TailStream``
    that took every stored state as it came;
    it keeps the batch at the tail start, never written into, to replay
    the window from.  M is fixed over the window, since rows only leave
    at checks; a march whose rows all left before the window stores
    nothing and returns a stream of no rows.
    """
    n_full, rem = _plan_steps(T, dt)
    total = n_full + (1 if rem > 0.0 else 0)
    tail_start = _tail_start(T, dt)
    checks = (range(CERT_EVERY, tail_start, CERT_EVERY) if check is not None
              else range(0))
    stores = range(tail_start, total, STORE_STRIDE)
    k, n = len(stores) + 1, stepper.X.shape[1]  # the stores and the last
    times, stream = [], None
    left = len(checks)  # the checks come first, then the stores

    def on_event(t, last):
        nonlocal left, stream
        if left:
            left -= 1
            check(t)
        else:
            if stream is None:  # the rows still in the batch
                replay = functools.partial(_replay_tail, stepper.s, stepper.X,
                                           T, dt, stores)
                stream = _TailStream(k, len(stepper.X), n, replay)
            stream.store(stepper.X)
            times.append(t)

    stepper.march(T, dt, on_event, events=itertools.chain(checks, stores))
    if stream is None:  # every row left before the window opened
        stream = _TailStream(k, 0, n)
    return np.asarray(times), stream


def omega_limit(s: FlowSystem, x0: np.ndarray, T: float,
                dt: float = DT_DEFAULT) -> OmegaEstimate:
    """Integrate to T and classify the tail window of stored states, the
    window ``ensemble_tails`` streams; leaving the chart or blowing up
    raises, as in ``integrate``."""
    x0 = s.manifold.check_point(x0)
    stepper = _Stepper(s, x0[None, :])
    return classify_tail(s, _march_tail(stepper, T, dt)[1])[0]


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
                   dt: float = DT_DEFAULT):
    """Batched integration that streams only the tail window.

    On a euclidean system that declares jac_lipschitz, every CERT_EVERY
    steps before the tail window the rows that a contraction certificate
    places in a singleton verdict leave the batch (see the module
    docstring); the march ends once every row has left.

    Returns (tail_times, tails, rows, certified): tails is the
    ``_TailStream`` of ``_march_tail``, which folded each stored state into
    per-row statistics as the march went; no state of the window is
    stored.  It holds the M rows still in the batch at the tail start,
    whose sample indices are rows; certified[j] is the certified singleton
    estimate of a retired sample j and None for the others.  Escaped rows
    carry nan into the stream and classify as escapes downstream.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    stepper = _Stepper(s, X0, on_failure="mask")
    certifier = None
    A = s.matrix  # with lambda_max(sym A) >= 0, every equilibrium has mu >= 0
    if (s.jac_lipschitz is not None and s.manifold.kind == "euclidean"
            and (A is None or np.linalg.eigvalsh(0.5 * (A + A.T))[-1] < 0.0)):
        certifier = _Certifier(s, min(_tail_start(T, dt) * dt, T))
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

    times, tails = _march_tail(stepper, T, dt,
                               retire if certifier is not None else None)
    return times, tails, rows, certified


def ensemble_omega(s: FlowSystem, X0: np.ndarray, T: float,
                   dt: float = DT_DEFAULT, witnesses: bool = True):
    """Omega-limit estimates for a batch; escaped samples come back as None.

    Tails classify in one ``classify_tail`` call; non-singleton estimates
    carry witnesses only when witnesses is set, and only then are they
    replayed.
    """
    _, tails, rows, out = ensemble_tails(s, X0, T, dt)
    for j, est in zip(rows, classify_tail(s, tails, witnesses=witnesses)):
        out[j] = est
    return out


# ------------------------------------------------------------- validation


def validate_jacobian(s: FlowSystem, samples: int = 100,
                      seed: int = 0) -> float:
    """Max component error of jac vs central differences of f."""
    rng = np.random.default_rng(integer_at_least(seed, 0, "seed",
                                                 ValueError))
    worst = 0.0
    for _ in range(integer_at_least(samples, 1, "samples", ValueError)):
        x = s.manifold.random_point(rng)
        J = s.jac(x)
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        for i in range(s.dim):
            e = np.zeros(s.dim)
            e[i] = h
            col = (s.f(x + e) - s.f(x - e)) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(J[:, i] - col))))
    return worst
