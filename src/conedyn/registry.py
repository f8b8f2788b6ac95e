"""Built-in example systems.

Systems are code-defined (vector field and Jacobian vectorized over
leading axes) so the Jacobians are exact; the linear ones declare their
matrix (``_linear_system``), so the flow steps them by the exact RK4 map:

* coop2d         dx_i/dt = -x_i + tanh((Ax)_i), A = [[2, 0.5], [0.5, 2]];
                 cooperative and strongly positive for the orthant field.
                 Its jac builds the stack component-major, (2, 2, N), and
                 returns the (N, 2, 2) view, which the flow's tangent steps
                 take without a copy.  A's entries (2 and 1/2) are dyadic,
                 so each product with A is exact (outside the subnormal
                 range) and each entry of Ax rounds once, whatever the
                 summation order or BLAS path: f and jac equal the textbook
                 formulas bit for bit.  A general matrix gives no such
                 guarantee, so no other product is rewritten this way.
* metzler_linear dx/dt = Ax, A = [[-1, 2], [0, -1]]; Metzler, so the flow
                 is orthant-positive but only weakly (a Jordan block with
                 the rank-deficient direction staying on the boundary).
* rotation2d     dx/dt = [[0, 1], [-1, 0]] x; the control case that
                 violates orthant positivity.
* bistable1d     dx/dt = -x + tanh(2x); two stable roots, unstable origin.
* spd_lyapunov   dP/dt = A P + P A^T, A = [[-1, 0.2], [0, -1]], on SPD(2)
                 with the transported PSD cone field.  Positive but not
                 strongly so: congruence by e^{At} preserves rank, so
                 boundary (rank-deficient) rays stay on the boundary.
                 Trajectories sink toward the semidefinite boundary, so
                 long horizons leave the chart and count as escapes.

Each system declares ``jac_lipschitz``, an exact global bound on
||J(x) - J(y)||_2 / ||x - y||: 0 for the linear ones, and for the tanh
ones the slope bound |d sech^2(u) / du| <= 4 / (3 sqrt 3) times the squared
gain (||A||_2^2 for coop2d, 2^2 for bistable1d).
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .conefield import ConeField, ConstantField, HomogeneousPSDField
from .cones import Orthant
from .errors import UnsupportedInputError
from .geometry import FlowSystem, pack_sym, sym_dim, unpack_sym

_SECH2_SLOPE = 4.0 / (3.0 * np.sqrt(3.0))  # max |d sech^2(u) / du|
_EYE1 = np.eye(1)  # hoisted out of the per-step jac


def _linear_system(A: np.ndarray, name: str, manifold=None) -> FlowSystem:
    """x' = Ax on manifold (default: euclidean); f, jac and matrix share A."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]

    def f(x):
        return np.asarray(x) @ A.T

    def jac(x):
        x = np.asarray(x)
        return np.broadcast_to(A, x.shape[:-1] + (n, n))

    return FlowSystem(manifold or geometry.euclidean(n), f, jac, name,
                      jac_lipschitz=0.0, matrix=A)


def make_coop2d() -> FlowSystem:
    A = np.array([[2.0, 0.5], [0.5, 2.0]])
    # faster than x @ A.T, and bit-equal to it since A is dyadic (above)
    AT = np.ascontiguousarray(A.T)

    def f(x):
        x = np.asarray(x)
        out = np.tanh(x @ AT)
        out -= x  # tanh(u) - x rounds as -x + tanh(u)
        return out

    def jac(x):
        # sech^2 as one contiguous (2, K) array, the stack as (2, 2, K)
        x = np.asarray(x)
        sech2 = A @ x.reshape(-1, 2).T
        np.cosh(sech2, out=sech2)
        sech2 *= sech2
        np.divide(1.0, sech2, out=sech2)
        J = sech2[:, None, :] * A[:, :, None]  # diag(sech2) A
        J[0, 0] -= 1.0
        J[1, 1] -= 1.0
        return J.transpose(2, 0, 1).reshape(x.shape[:-1] + (2, 2))

    # J(x) - J(y) = diag(sech^2(Ax) - sech^2(Ay)) A, |Ax - Ay| <= |A||x - y|,
    # and |A|_2 = 2.5, the top eigenvalue of the symmetric A
    return FlowSystem(geometry.euclidean(2), f, jac, "coop2d",
                      jac_lipschitz=_SECH2_SLOPE * 2.5 ** 2)


def make_metzler_linear() -> FlowSystem:
    return _linear_system([[-1.0, 2.0], [0.0, -1.0]], "metzler_linear")


def make_rotation2d() -> FlowSystem:
    return _linear_system([[0.0, 1.0], [-1.0, 0.0]], "rotation2d")


def make_bistable1d() -> FlowSystem:
    def f(x):
        x = np.asarray(x)
        return -x + np.tanh(2.0 * x)

    def jac(x):
        x = np.asarray(x)
        sech2 = 1.0 / np.cosh(2.0 * x) ** 2
        return (-1.0 + 2.0 * sech2)[..., :, None] * _EYE1

    # J(x) = -1 + 2 sech^2(2x): slope at most 2 * 2 * _SECH2_SLOPE
    return FlowSystem(geometry.euclidean(1), f, jac, "bistable1d",
                      jac_lipschitz=4.0 * _SECH2_SLOPE)


def make_spd_lyapunov() -> FlowSystem:
    A = np.array([[-1.0, 0.2], [0.0, -1.0]])
    n = 2
    E = unpack_sym(np.eye(sym_dim(n)), n)  # the packed basis as matrices
    # column k: packed image of basis matrix k under S -> A S + S A^T
    return _linear_system(pack_sym(A @ E + E @ A.T).T, "spd_lyapunov",
                          geometry.spd(n))


SYSTEMS = {
    "coop2d": make_coop2d,
    "metzler_linear": make_metzler_linear,
    "rotation2d": make_rotation2d,
    "bistable1d": make_bistable1d,
    "spd_lyapunov": make_spd_lyapunov,
}

DESCRIPTIONS = {
    "coop2d": "cooperative 2-neuron net, strongly orthant-positive",
    "metzler_linear": "Metzler linear flow, orthant-positive (not strongly)",
    "rotation2d": "rigid rotation, violates orthant positivity",
    "bistable1d": "scalar bistable dynamics, three equilibria",
    "spd_lyapunov": "Lyapunov matrix flow on SPD(2), PSD-positive only",
}

DEFAULT_X0 = {
    "coop2d": np.array([1.0, 0.5]),
    "metzler_linear": np.array([1.0, 1.0]),
    "rotation2d": np.array([1.0, 0.0]),
    "bistable1d": np.array([0.5]),
    "spd_lyapunov": pack_sym(np.array([[2.0, 0.3], [0.3, 1.0]])),
}


def get_system(name: str) -> FlowSystem:
    if name not in SYSTEMS:
        raise UnsupportedInputError(
            f"unknown system {name!r}; known: {', '.join(sorted(SYSTEMS))}")
    return SYSTEMS[name]()


def default_field(system: FlowSystem) -> ConeField:
    """The cone field each example system is meant to be tested against."""
    if system.manifold.kind == "spd":
        return HomogeneousPSDField(system.manifold.n)
    return ConstantField(Orthant(system.dim))
