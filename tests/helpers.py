"""Shared test oracles: root finders, cone metrics and throwaway systems."""

import math

import numpy as np

from conedyn import flow, geometry


def bisect_root(g, lo, hi, iters=200):
    """Sign-change bisection; the independent oracle for fixed points."""
    glo = g(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if glo * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
            glo = g(lo)
    return 0.5 * (lo + hi)


def hilbert_bisect(cone, u, v, tol=1e-12):
    """Hilbert distance of interior rays by bisection on cone.margin alone.

    The generic route: m = sup{a : u - a v in C} and M = inf{b : b v - u
    in C}, each bracketed by doubling and bisected to an absolute width of
    tol; d = log(M / m).  The oracle for the closed forms.
    """
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    v = np.asarray(v, dtype=float) / np.linalg.norm(v)

    def switch(below):
        # [lo, hi] of width <= tol with below(lo) true and below(hi) false
        lo, hi = 0.0, 1.0
        while below(hi):
            lo, hi = hi, 2.0 * hi
            assert hi < 1e12, "no bracket: is the pair interior?"
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        return lo, hi

    m = switch(lambda a: cone.margin(u - a * v) >= 0.0)[0]
    M = switch(lambda b: cone.margin(b * v - u) < 0.0)[1]
    return math.log(M / m)


def tanh_fixed_point(gain):
    """Positive root of u = tanh(gain * u) for gain > 1."""
    return bisect_root(lambda u: u - np.tanh(gain * u), 0.5, 1.5)


def linear_system(A, name="linear"):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]

    def f(x):
        return np.asarray(x) @ A.T

    def jac(x):
        x = np.asarray(x)
        return np.broadcast_to(A, x.shape[:-1] + (n, n))

    return flow.FlowSystem(geometry.euclidean(n), f, jac, name)


def constant_system(v, name="constant"):
    v = np.asarray(v, dtype=float)
    n = v.shape[0]

    def f(x):
        x = np.asarray(x)
        return np.broadcast_to(v, x.shape)

    def jac(x):
        x = np.asarray(x)
        return np.zeros(x.shape[:-1] + (n, n))

    return flow.FlowSystem(geometry.euclidean(n), f, jac, name)
