"""Manifold charts, Riemannian metrics, and invariant tangent transport.

Two manifolds are shipped, each covered by a single global chart:

* ``Euclidean(n)`` -- points are plain vectors, the metric is the dot
  product, and transport between tangent spaces is the identity.
* ``SPD(n)`` -- the manifold of symmetric positive definite matrices with
  the affine-invariant metric ``(U, V)_P = tr(P^-1 U P^-1 V)``.  Points and
  tangents are stored in chart coordinates as packed upper triangles with
  the off-diagonal entries scaled by sqrt(2), so the chart inner product at
  the identity equals the Frobenius inner product.

The transport map ``gamma(x1, x2)`` is a linear isomorphism between tangent
spaces that carries the metric (and, downstream, cone fields) from one base
point to another.  On Euclidean space it is the identity on coordinates; on
SPD(n) it is the congruence ``U -> G U G^T`` with ``G = x2^{1/2} x1^{-1/2}``
built from symmetric square roots, which is a metric isometry and satisfies
the cocycle property ``gamma(x2,x3) o gamma(x1,x2) = gamma(x1,x3)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasePointMismatchError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    UnsupportedInputError,
)

EIG_TOL = 1e-10  # positive-definiteness threshold for SPD points

_SQRT2 = np.sqrt(2.0)


def sym_dim(n: int) -> int:
    """Chart dimension of the space of symmetric n x n matrices."""
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=None)
def _packing(n: int):
    """Read-only upper-triangle indices (iu, ju) of size n and the packing
    weights: 1 on the diagonal, sqrt(2) off it."""
    iu, ju = np.triu_indices(n)
    w = np.where(iu == ju, 1.0, _SQRT2)
    for a in (iu, ju, w):
        a.flags.writeable = False
    return iu, ju, w


def pack_sym(S: np.ndarray) -> np.ndarray:
    """Pack a symmetric matrix into row-major upper-triangle coordinates.

    Off-diagonal entries are scaled by sqrt(2) so that the Euclidean inner
    product of two packed vectors equals the Frobenius inner product of the
    matrices.  Works on stacks of matrices (leading dimensions broadcast).
    """
    S = np.asarray(S, dtype=float)
    iu, ju, w = _packing(S.shape[-1])
    return S[..., iu, ju] * w


def unpack_sym(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_sym` for matrices of size n."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != sym_dim(n):
        raise DimensionMismatchError(
            f"packed length {v.shape[-1]} != sym_dim({n}) = {sym_dim(n)}"
        )
    iu, ju, w = _packing(n)
    S = np.zeros(v.shape[:-1] + (n, n))
    S[..., iu, ju] = v / w
    S[..., ju, iu] = S[..., iu, ju]
    return S


def _sym_sqrt(S: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Symmetric square root (or inverse square root) via eigendecomposition."""
    w, V = np.linalg.eigh(S)
    if np.min(w) <= EIG_TOL:
        raise NotPositiveDefiniteError(
            f"matrix has eigenvalue {np.min(w):.3e} <= {EIG_TOL:.0e}"
        )
    d = 1.0 / np.sqrt(w) if inverse else np.sqrt(w)
    return (V * d) @ V.T


@dataclass(frozen=True)
class ManifoldSpec:
    """A manifold kind plus its size.

    kind is "euclidean" or "spd"; n is the vector dimension for Euclidean
    space and the matrix size for SPD(n).  ``dim`` is the chart dimension.
    """

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("euclidean", "spd"):
            raise UnsupportedInputError(f"unknown manifold kind {self.kind!r}")
        if self.n < 1:
            raise DimensionMismatchError("manifold size must be >= 1")

    @property
    def dim(self) -> int:
        return self.n if self.kind == "euclidean" else sym_dim(self.n)

    def check_point(self, x: np.ndarray) -> np.ndarray:
        """Validate chart coordinates; returns the coordinates as an array."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"point has dim {x.shape[-1]}, expected {self.dim}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("point has non-finite coordinates")
        if self.kind == "spd":
            w = np.linalg.eigvalsh(unpack_sym(x, self.n))
            if np.min(w) <= EIG_TOL:
                raise NotPositiveDefiniteError(
                    f"SPD point has eigenvalue {np.min(w):.3e} <= {EIG_TOL:.0e}"
                )
        return x

    def to_matrix(self, x: np.ndarray) -> np.ndarray:
        """Chart coordinates -> matrix (SPD only)."""
        if self.kind != "spd":
            raise UnsupportedInputError("to_matrix is only defined on SPD")
        return unpack_sym(x, self.n)

    def from_matrix(self, S: np.ndarray) -> np.ndarray:
        """Matrix -> chart coordinates (SPD only)."""
        if self.kind != "spd":
            raise UnsupportedInputError("from_matrix is only defined on SPD")
        return pack_sym(S)

    def identity_point(self) -> np.ndarray:
        """Origin for Euclidean space, the identity matrix for SPD."""
        if self.kind == "euclidean":
            return np.zeros(self.n)
        return pack_sym(np.eye(self.n))

    def random_point(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        """Draw a chart point: uniform-ish for Euclidean, exp(sym) for SPD."""
        if self.kind == "euclidean":
            return rng.uniform(-scale, scale, self.n)
        B = rng.uniform(-scale, scale, (self.n, self.n))
        sym = 0.5 * (B + B.T)
        w, V = np.linalg.eigh(sym)
        return pack_sym((V * np.exp(w)) @ V.T)


def euclidean(n: int) -> ManifoldSpec:
    return ManifoldSpec("euclidean", n)


def spd(n: int) -> ManifoldSpec:
    return ManifoldSpec("spd", n)


@dataclass(frozen=True)
class Tangent:
    """A tangent vector in chart coordinates anchored at a base point."""

    base: np.ndarray
    vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "vec", np.asarray(self.vec, dtype=float))
        if self.base.shape != self.vec.shape:
            raise DimensionMismatchError(
                f"tangent vec dim {self.vec.shape} != base dim {self.base.shape}"
            )


def _require_base(x: np.ndarray, *tangents: Tangent) -> None:
    for u in tangents:
        if not np.array_equal(u.base, np.asarray(x, dtype=float)):
            raise BasePointMismatchError("tangent base point differs from x")


def metric_inner(m: ManifoldSpec, x: np.ndarray, u: Tangent, v: Tangent) -> float:
    """Riemannian inner product (u, v)_x.

    Euclidean: the dot product.  SPD: the affine-invariant product
    ``tr(P^-1 U P^-1 V)`` of the unpacked tangent matrices at P = x.
    """
    x = m.check_point(x)
    _require_base(x, u, v)
    if m.kind == "euclidean":
        return float(np.dot(u.vec, v.vec))
    P = m.to_matrix(x)
    Pinv = np.linalg.inv(P)
    U = unpack_sym(u.vec, m.n)
    V = unpack_sym(v.vec, m.n)
    return float(np.sum((Pinv @ U) * (Pinv @ V).T))


def metric_norm(m: ManifoldSpec, x: np.ndarray, u: Tangent) -> float:
    """|u|_x = sqrt((u, u)_x)."""
    return float(np.sqrt(max(metric_inner(m, x, u, u), 0.0)))


def transport(m: ManifoldSpec, x1: np.ndarray, x2: np.ndarray, u: Tangent) -> Tangent:
    """Carry the tangent vector u from x1 to x2.

    Euclidean transport is the identity on coordinates.  On SPD(n) it is the
    congruence ``U -> G U G^T`` with ``G = x2^{1/2} x1^{-1/2}``, which fixes
    every tangent at x1 = x2, preserves the affine-invariant metric, and
    composes along point chains (cocycle property).
    """
    x1 = m.check_point(x1)
    x2 = m.check_point(x2)
    _require_base(x1, u)
    if m.kind == "euclidean":
        return Tangent(x2, u.vec.copy())
    G = _sym_sqrt(m.to_matrix(x2)) @ _sym_sqrt(m.to_matrix(x1), inverse=True)
    U = unpack_sym(u.vec, m.n)
    return Tangent(x2, pack_sym(G @ U @ G.T))


def distance(m: ManifoldSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Riemannian distance between two points.

    Euclidean: |x - y|.  SPD: Frobenius norm of log(x^{-1/2} y x^{-1/2}),
    i.e. sqrt(sum log^2 lambda_i) over the eigenvalues of x^{-1} y.
    """
    x = m.check_point(x)
    y = m.check_point(y)
    if m.kind == "euclidean":
        return float(np.linalg.norm(x - y))
    R = _sym_sqrt(m.to_matrix(x), inverse=True)
    w = np.linalg.eigvalsh(R @ m.to_matrix(y) @ R)
    if np.min(w) <= 0.0:
        raise NotPositiveDefiniteError("distance argument is not PD")
    return float(np.linalg.norm(np.log(w)))
