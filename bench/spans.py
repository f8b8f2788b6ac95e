"""Out-of-tree tracing of conedyn: span wrappers and per-layer arithmetic.

``Tracer.install`` wraps every public function and method of the conedyn
modules wherever callers look them up: the attribute in the defining
module, every other conedyn module that imported it by name, and the
class for methods.  ``registry.get_system`` is wrapped so that the
returned ``FlowSystem`` carries counting ``f`` and ``jac``.  Private
helpers (leading underscore, and every method of a private class) are left
alone; their cost lands in the self time of the public caller.

Each call records one span in flat in-memory arrays: name id, start, end,
parent span and a work count (rows for ``f``/``jac``, ray checks for
``check_dp``, stored records for ``propagate_ray_pairs``).  Spans are
written out once, after the pass, and reduced by ``layer_metrics``.

Tracing cost: ``install`` times batches of empty wrapped calls for each
kind of wrapper (``Tracer.calibrate``).  Part of a wrapper's extra time
falls inside its span's own [start, end] window (``inner``); the rest, the
array appends, stack work, name lookup and counter, falls outside it and so
inside the caller's window (``outer``).

Time attribution: a span's self time is its duration minus the durations
of its direct children (calls never overlap: the pass is single-threaded),
minus its own inner cost and each direct child's outer cost.  The
per-module self times, the summed tracing cost ``trace.bookkeeping_s`` and
``trace.unattributed_s`` (pass time outside every top-level span)
partition the traced pass wall by construction.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import statistics
import time
from array import array

import numpy as np

MODULES = ("cli", "conefield", "cones", "experiments", "flow", "geometry",
           "order", "pf", "positivity", "registry", "reports")
CONES = ("orthant", "polyhedral", "psd", "lorentz")
STEP_FUNCTIONS = ("flow.ensemble_tails", "flow.states_at", "flow.tangent_at",
                  "flow.integrate", "flow.tangent_flow")
# The one metric per module that is its whole self time, named as the
# benchmark reports it.
MODULE_SELF = {"cli": "cli.self_s", "conefield": "conefield.s",
               "cones": "cones.self_s", "experiments": "experiments.self_s",
               "flow": "flow.self_s", "geometry": "geometry.s",
               "order": "order.s", "pf": "pf.self_s",
               "positivity": "positivity.self_s",
               "registry": "registry.self_s", "reports": "reports.s"}
# Wrapper kinds, each with its own calibrated cost: no counter, a work
# counter (calibrated with the row counter that f and jac use; the other
# counters run once per command), and the per-cone label of cone methods.
KINDS = ("plain", "counted", "cone")
CALIBRATION_CALLS = 2000  # empty wrapped calls per calibration batch
CALIBRATION_BATCHES = 7  # the calibrated costs are medians over batches


def _rows(x) -> int:
    """Rows in a batch of points: every axis but the last."""
    shape = x.shape if isinstance(x, np.ndarray) else np.shape(x)
    return math.prod(shape[:-1])


def _row_count(args, kwargs, result) -> int:
    return _rows(args[0])


def _noop(x):
    return x


class _ProbeCone:
    """Stands in for a cone while the per-cone wrapper is calibrated."""

    name = "probe"

    def noop(self, x):
        return x


@dataclasses.dataclass
class Trace:
    """Spans of one pass as parallel arrays; index order is call order.

    ``inner`` and ``outer`` hold, per name, the calibrated tracing cost of
    one span in seconds (zero when not given).
    """

    names: list
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    count: np.ndarray
    inner: np.ndarray = None
    outer: np.ndarray = None
    pass_id: int = 0

    def __post_init__(self):
        zeros = np.zeros(len(self.names))
        self.inner = zeros if self.inner is None else np.asarray(self.inner)
        self.outer = zeros if self.outer is None else np.asarray(self.outer)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=self.name_id, start=self.start, end=self.end,
                 parent=self.parent, count=self.count, inner=self.inner,
                 outer=self.outer, pass_id=np.array(self.pass_id))

    @classmethod
    def load(cls, path) -> "Trace":
        with np.load(path) as z:
            return cls([str(n) for n in z["names"]], z["name_id"], z["start"],
                       z["end"], z["parent"], z["count"], z["inner"],
                       z["outer"], int(z["pass_id"]))


class Tracer:
    """Collects spans while installed; restores every original on uninstall."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self._names: list[str] = []
        self._kinds: list[str] = []  # wrapper kind of each name
        self._ids: dict[str, int] = {}
        self.cost: dict[str, tuple] = {}  # kind -> (inner, outer) seconds
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._count = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    # ------------------------------------------------------------ recording

    def _id(self, name: str, kind: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
            self._kinds.append(kind)
        return nid

    def _call(self, nid, fn, args, kwargs, counter=None):
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._count.append(0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._start[idx] = t0
            self._end[idx] = t1
        if counter is not None:
            self._count[idx] = counter(args, kwargs, result)
        return result

    def _wrap(self, fn, name, counter=None, per_cone=False):
        tracer = self
        if per_cone:  # label by the concrete cone the method runs on
            @functools.wraps(fn)
            def wrapper(self_, *args, **kwargs):
                nid = tracer._id(f"{name}.{type(self_).name}", "cone")
                return tracer._call(nid, fn, (self_,) + args, kwargs, counter)
        else:
            nid = self._id(name, "plain" if counter is None else "counted")

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._call(nid, fn, args, kwargs, counter)
        return wrapper

    def _counting_system(self, system):
        return dataclasses.replace(
            system, f=self._wrap(system.f, "registry.f", _row_count),
            jac=self._wrap(system.jac, "registry.jac", _row_count))

    # ---------------------------------------------------------- calibration

    def calibrate(self) -> None:
        """Price one span of each wrapper kind from empty wrapped calls.

        A raw call of an empty function costs ``r``, a wrapped one ``w``,
        and the wrapped call's recorded duration is ``d``.  The span's own
        window then holds ``inner = d - r`` of tracing cost, and the caller's
        window the rest, ``outer = w - r - inner``.  Loop overhead is
        measured and taken off ``r`` and ``w``.  Costs are medians over
        ``CALIBRATION_BATCHES`` batches of ``CALIBRATION_CALLS`` calls.
        """
        probe = Tracer()  # its spans stay out of this tracer's trace
        x = np.zeros((1, 2))
        cone = _ProbeCone()
        cases = {
            "plain": (probe._wrap(_noop, "probe.plain"), _noop, (x,)),
            "counted": (probe._wrap(_noop, "probe.counted", _row_count),
                        _noop, (x,)),
            "cone": (probe._wrap(_ProbeCone.noop, "probe", per_cone=True),
                     _ProbeCone.noop, (cone, x)),
        }
        n = CALIBRATION_CALLS

        def per_call(fn, args) -> float:
            t0 = time.perf_counter()
            for _ in range(n):
                fn(*args)
            return (time.perf_counter() - t0) / n

        for kind, (wrapped, raw, args) in cases.items():
            inner, outer = [], []
            for _ in range(CALIBRATION_BATCHES):
                t0 = time.perf_counter()
                for _ in range(n):
                    pass
                loop = (time.perf_counter() - t0) / n
                r = per_call(raw, args) - loop
                w = per_call(wrapped, args) - loop
                d = (np.frombuffer(probe._end, dtype=np.float64)[-n:]
                     - np.frombuffer(probe._start, dtype=np.float64)[-n:])
                inner.append(max(float(d.mean()) - r, 0.0))
                outer.append(max(w - r - inner[-1], 0.0))
            self.cost[kind] = (statistics.median(inner),
                               statistics.median(outer))

    # --------------------------------------------------------- installation

    def install(self, package) -> None:
        """Wrap the public API of every conedyn module of ``package``.

        Calibrates the tracing cost first, so the pass that follows can be
        charged for it.
        """
        self.calibrate()
        modules = [getattr(package, m) for m in MODULES]
        check_dp = inspect.signature(package.positivity.check_dp)

        def ray_checks(args, kwargs, result):
            a = check_dp.bind(*args, **kwargs).arguments
            return (int(a["x_samples"]) * int(a["ray_samples"])
                    * len(list(a["times"])))

        counters = {
            "positivity.check_dp": ray_checks,
            "pf.propagate_ray_pairs": lambda a, k, r: len(r[0]),
        }
        originals = {}  # id(original) -> wrapper, for re-export lookup
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if name == "registry.get_system":
                        wrapper = self._wrap_get_system(obj)
                    else:
                        wrapper = self._wrap(obj, name, counters.get(name))
                    originals[id(obj)] = wrapper
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(short, obj, package)
        # every place a public function is looked up, defining module included
        for owner in modules + [package]:
            for attr, obj in list(vars(owner).items()):
                if not attr.startswith("_") and id(obj) in originals:
                    self._patch(owner, attr, originals[id(obj)])

    def _wrap_get_system(self, fn):
        tracer = self
        inner = self._wrap(fn, "registry.get_system")

        @functools.wraps(fn)
        def get_system(*args, **kwargs):
            return tracer._counting_system(inner(*args, **kwargs))
        return get_system

    def _install_class(self, short, cls, package) -> None:
        per_cone = issubclass(cls, package.cones.Cone)
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if per_cone:
                wrapper = self._wrap(obj, f"cones.{attr}", per_cone=True)
            else:
                wrapper = self._wrap(obj, f"{short}.{cls.__name__}.{attr}")
            self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original object back where install found it."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def trace(self) -> Trace:
        cost = [self.cost.get(k, (0.0, 0.0)) for k in self._kinds]
        return Trace(list(self._names),
                     np.frombuffer(self._name, dtype=np.int32).copy(),
                     np.frombuffer(self._start, dtype=np.float64).copy(),
                     np.frombuffer(self._end, dtype=np.float64).copy(),
                     np.frombuffer(self._parent, dtype=np.int32).copy(),
                     np.frombuffer(self._count, dtype=np.int64).copy(),
                     np.array([c[0] for c in cost], dtype=float),
                     np.array([c[1] for c in cost], dtype=float),
                     self.pass_id)


# ------------------------------------------------------------- reduction


def self_times(start, end, parent, inner=0.0, outer=0.0) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``inner`` and ``outer`` are per-span tracing costs: a span's own inner
    cost and each direct child's outer cost are taken off too.
    """
    dur = np.asarray(end, float) - np.asarray(start, float)
    parent = np.asarray(parent)
    outer = np.broadcast_to(np.asarray(outer, float), dur.shape)
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has] + outer[has])
    return dur - child - inner


def subtree_sums(values, parent) -> np.ndarray:
    """Each span's value plus those of all spans below it.

    Children always follow their parents, so one backward sweep suffices.
    """
    total = np.asarray(values, float).tolist()
    par = np.asarray(parent).tolist()
    for i in range(len(total) - 1, -1, -1):
        if par[i] >= 0:
            total[par[i]] += total[i]
    return np.array(total, dtype=float)


def below(mask, parent) -> np.ndarray:
    """Spans with an ancestor in ``mask``.

    Parents always precede their children, so one forward sweep suffices.
    """
    mask = np.asarray(mask, bool)
    covered = np.zeros(len(mask), bool)  # in mask, or below a span in mask
    out = np.zeros(len(mask), bool)
    for i, p in enumerate(np.asarray(parent).tolist()):
        out[i] = p >= 0 and covered[p]
        covered[i] = mask[i] or out[i]
    return out


def outermost(mask, parent) -> np.ndarray:
    """Spans in ``mask`` with no ancestor in ``mask``."""
    return np.asarray(mask, bool) & ~below(mask, parent)


def layer_metrics(tr: Trace, wall_s: float) -> dict:
    """Per-layer counts and times of one traced pass of ``wall_s`` seconds.

    Names ending in ``self_s`` and the bare ``<module>.s`` are self times;
    they, ``trace.bookkeeping_s`` and ``trace.unattributed_s`` sum to
    ``trace.wall_s``.  Other times are inclusive durations of the outermost
    calls they name.  Every time is net of the calibrated tracing cost.
    Raises ValueError on a span of a module the metrics do not cover.
    """
    unknown = sorted({n.split(".", 1)[0] for n in tr.names} - set(MODULE_SELF))
    if unknown:
        raise ValueError(f"spans of modules with no self-time metric: {unknown}")
    ids = np.asarray(tr.name_id)
    parent = np.asarray(tr.parent)
    inner, outer = tr.inner[ids], tr.outer[ids]
    own = self_times(tr.start, tr.end, parent, inner, outer)
    dur = subtree_sums(own, parent)  # durations net of the tracing cost

    def where(pred):
        hit = [i for i, n in enumerate(tr.names) if pred(n)]
        return np.isin(ids, hit)

    def named(*want):
        return where(lambda n: n in want)

    m = {}
    for mod, metric in MODULE_SELF.items():
        m[metric] = float(own[where(lambda n: n.split(".", 1)[0] == mod)].sum())

    f, jac = named("registry.f"), named("registry.jac")
    m["registry.f_rows"] = int(tr.count[f].sum())
    m["registry.jac_rows"] = int(tr.count[jac].sum())
    m["registry.f_s"] = float(dur[f].sum())
    m["registry.jac_s"] = float(dur[jac].sum())

    step = named(*STEP_FUNCTIONS)
    m["flow.step_self_s"] = float(own[step].sum())
    under_step = np.zeros(len(ids), bool)
    has = parent >= 0
    under_step[has] = step[parent[has]]
    row_steps = tr.count[f & under_step].sum() / 4.0  # RK4: four f per step
    m["flow.row_step_ns"] = (m["flow.step_self_s"] / row_steps * 1e9
                             if row_steps else 0.0)
    classify = named("flow.classify_tail")
    m["flow.classify_calls"] = int(classify.sum())
    m["flow.classify_s"] = float(dur[outermost(classify, parent)].sum())

    # margins a Hilbert distance makes are part of that distance's time
    in_hilbert = below(where(lambda n: n.startswith("cones.hilbert_distance.")),
                       parent)
    for c in CONES:
        mg = named(f"cones.margin.{c}") & ~in_hilbert
        hb = named(f"cones.hilbert_distance.{c}") & ~in_hilbert
        m[f"cones.margin_calls.{c}"] = int(mg.sum())
        m[f"cones.margin_s.{c}"] = float(dur[mg].sum())
        m[f"cones.hilbert_calls.{c}"] = int(hb.sum())
        m[f"cones.hilbert_s.{c}"] = float(dur[hb].sum())

    m["conefield.calls"] = int(where(lambda n: n.startswith("conefield.")).sum())
    m["positivity.ray_checks"] = int(tr.count[named("positivity.check_dp")].sum())
    m["pf.records"] = int(tr.count[named("pf.propagate_ray_pairs")].sum())
    m["geometry.calls"] = int(where(lambda n: n.startswith("geometry.")).sum())
    sample = named("experiments.sample_states", "experiments.sample_box")
    m["experiments.sample_s"] = float(dur[outermost(sample, parent)].sum())
    m["order.calls"] = int(where(lambda n: n.startswith("order.")).sum())
    grid = named("order.reachable_grid")
    m["order.grid_s"] = float(dur[outermost(grid, parent)].sum())

    bookkeeping = float(inner.sum() + outer.sum())
    m["trace.spans"] = int(len(ids))
    m["trace.wall_s"] = float(wall_s)
    m["trace.bookkeeping_s"] = bookkeeping
    m["trace.span_cost_ns"] = bookkeeping / len(ids) * 1e9 if len(ids) else 0.0
    m["trace.unattributed_s"] = float(wall_s - own.sum() - bookkeeping)
    # the untraced pass would have taken the traced wall less the bookkeeping
    m["trace.overhead_frac"] = bookkeeping / (wall_s - bookkeeping)
    return m
