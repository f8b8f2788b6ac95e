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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BasePointMismatchError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    UnsupportedInputError,
)

EIG_TOL = 1e-10  # positive-definiteness threshold for SPD points

_SQRT2 = np.sqrt(2.0)
_EPS = float(np.finfo(float).eps)
_SCREEN_MAX = 1e150  # no SPD(2) screen from here on: m^2 nears overflow


def sym_dim(n: int) -> int:
    """Chart dimension of the space of symmetric n x n matrices."""
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=None)
def _packing(n: int):
    """Read-only upper-triangle indices (iu, ju) of size n, the packing
    weights (1 on the diagonal, sqrt(2) off it) and, per entry of the
    row-major n x n matrix, the packed coordinate that holds it."""
    iu, ju = np.triu_indices(n)
    w = np.where(iu == ju, 1.0, _SQRT2)
    full = np.empty((n, n), dtype=np.intp)
    full[iu, ju] = full[ju, iu] = np.arange(len(iu))
    full = full.ravel()
    for a in (iu, ju, w, full):
        a.flags.writeable = False
    return iu, ju, w, full


def pack_sym(S: np.ndarray) -> np.ndarray:
    """Pack a symmetric matrix into row-major upper-triangle coordinates.

    Off-diagonal entries are scaled by sqrt(2) so that the Euclidean inner
    product of two packed vectors equals the Frobenius inner product of the
    matrices.  Works on stacks of matrices (leading dimensions broadcast).
    """
    S = np.asarray(S, dtype=float)
    iu, ju, w, _ = _packing(S.shape[-1])
    return S[..., iu, ju] * w


def unpack_sym(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_sym` for matrices of size n."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != sym_dim(n):
        raise DimensionMismatchError(
            f"packed length {v.shape[-1]} != sym_dim({n}) = {sym_dim(n)}"
        )
    _, _, w, full = _packing(n)
    return (v / w)[..., full].reshape(v.shape[:-1] + (n, n))  # one gather


def scaled(V: np.ndarray, axis: int = -1):
    """(W, e): every vector of V along axis scaled by 2^-e, with e (kept
    as a length-1 axis) the ``np.frexp`` exponent of its largest |entry|.

    The scaling is exact, W's largest |entry| lies in [0.5, 1), so no
    square of W overflows, and e is 0 for a zero, inf or nan vector.
    """
    e = np.frexp(np.maximum.reduce(np.abs(V), axis=axis, keepdims=True))[1]
    return np.ldexp(V, -e), e


def norms(V: np.ndarray, axis: int = -1) -> np.ndarray:
    """Euclidean norms of the vectors of V along axis, exact in scale: each
    is taken on the ``scaled`` vector, so it neither overflows nor
    underflows to 0 unless the norm itself does.  It equals
    ``np.linalg.norm(V, axis=axis)`` bit for bit wherever that neither
    overflows nor underflows."""
    W, e = scaled(V, axis)
    return np.ldexp(np.sqrt(np.add.reduce(W * W, axis=axis, keepdims=True)),
                    e).squeeze(axis)


def _sym_sqrt(S: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Symmetric square root (or inverse square root) via eigendecomposition."""
    w, V = np.linalg.eigh(S)
    if np.min(w) <= EIG_TOL:
        raise NotPositiveDefiniteError(
            f"matrix has eigenvalue {np.min(w):.3e} <= {EIG_TOL:.0e}"
        )
    d = 1.0 / np.sqrt(w) if inverse else np.sqrt(w)
    return (V * d) @ V.T


def _lambda_min_exits(V: np.ndarray, n: int) -> np.ndarray:
    """Rows of finite packed SPD(n) points with lambda_min <= EIG_TOL."""
    return np.linalg.eigvalsh(unpack_sym(V, n))[:, 0] <= EIG_TOL


def _spd2_screen(V: np.ndarray, m: float) -> np.ndarray:
    """Per row of packed SPD(2) points with entries at most m < _SCREEN_MAX
    in size: a score that is > 0 only where eigvalsh finds lambda_min above
    EIG_TOL.

    Row (a, v, c) has eigenvalue sum s = a + c and product
    det = a c - v^2 / 2; when both are > 0, lambda_min > det / s.  The
    score is min(det - s theta, s) with theta = (EIG_TOL + 2 band + 4 eps m)
    (1 + 4 eps) and band = 1e-13 (3 m + 1).  A row scoring > 0 has a, c > 0
    and |v| < s, so det is off by under 2 eps m s, and lambda_min exceeds
    EIG_TOL + 2 band.  The band is margin over eigvalsh's error, a few
    eps m, so eigvalsh lands above EIG_TOL too.
    """
    band = 1e-13 * (3.0 * m + 1.0)
    theta = (EIG_TOL + 2.0 * band + 4.0 * _EPS * m) * (1.0 + 4.0 * _EPS)
    a, v, c = V[:, 0], V[:, 1], V[:, 2]
    s = a + c
    det = a * c
    half_vv = v * v
    half_vv *= 0.5
    det -= half_vv
    det -= s * theta
    return np.minimum(det, s, out=det)


def _spd2_room(V: np.ndarray) -> float:
    """Room per unit norm of a 2-d stack V of packed SPD(2) points: a lower
    bound q on (lambda_min - EIG_TOL - 2 band) / ||v||_2 over the rows v,
    band that of ``_spd2_screen`` at M = 2 max s; 0.0 when the screen at M
    fails a row, or M is nan, inf or >= _SCREEN_MAX.

    Where the screen passes, lambda_min > det / s, so the score leaves at
    least score / s above EIG_TOL + 2 band, and ||v||_2 = ||S||_F <= s: q
    is min score / s^2, up to a few ulps that callers allow for.  A row
    passes only with entries below s, and q <= 1/4.
    """
    s = V[:, 0] + V[:, 2]  # the screen's s, bit for bit
    m = 2.0 * float(np.maximum.reduce(s))
    if not m < _SCREEN_MAX:  # also for nan and inf
        return 0.0
    score = _spd2_screen(V, m)
    if not np.minimum.reduce(score) > 0.0:
        return 0.0
    score /= s * s
    return float(np.minimum.reduce(score))


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

    def leaves(self, V: np.ndarray):
        """The manifold guard over a 2-d stack V of chart points: a mask,
        True where a row is non-finite or, on SPD, has lambda_min <= EIG_TOL
        as eigvalsh decides, or None when the batch is proven clean.  On
        SPD(2), when the largest entry m is finite and below _SCREEN_MAX,
        the rows go through ``_spd2_screen`` first and only those it fails
        take eigvalsh; None when it fails none.  In a batch with non-finite
        rows the finite rows are decided alone, so they reach the screen too.
        """
        spd = self.kind == "spd"
        if spd and self.n == 2 and V.size:
            # ufunc reductions skip the ndarray methods' wrappers, per step
            m = float(np.maximum.reduce(np.abs(V), axis=None))
            if m < _SCREEN_MAX:  # False for nan and inf
                score = _spd2_screen(V, m)
                if np.minimum.reduce(score) > 0.0:
                    return None
                bad = ~(score > 0.0)
                rest = np.flatnonzero(bad)
                bad[rest] = _lambda_min_exits(V[rest], 2)
                return bad
        finite = np.isfinite(V)
        if finite.all():  # one reduction over the batch; per row only on failure
            return _lambda_min_exits(V, self.n) if spd else None
        bad = ~finite.all(axis=-1)
        ok = np.flatnonzero(~bad)
        if spd and len(ok):
            left = self.leaves(V[ok])
            if left is not None:
                bad[ok[left]] = True
        return bad

    def step_growth(self, R: np.ndarray) -> float:
        """The growth c of a step v <- fl(R v) on SPD that ``free_steps``
        takes: c >= ||fl(R v) - v||_2 / ||v||_2, the 2-norm of R - I,
        inflated past the error of its SVD, plus 4 d eps ||R||_F, which
        passes the rounding of a product over d terms; inf for an R that
        overflowed.  c > 0, since ||R - I|| + ||R|| >= 1."""
        if not np.isfinite(R).all():
            return math.inf
        return float(np.linalg.norm(R - np.eye(len(R)), 2) * (1.0 + 1e-9)
                     + 4.0 * len(R) * _EPS * np.linalg.norm(R))

    def free_steps(self, V: np.ndarray, c: float):
        """How many steps v <- fl(R v) on SPD, c = step_growth(R), the rows
        of the 2-d stack V can take before ``leaves`` could reject one: 0
        without room or for an R that overflowed, inf for an empty V.

        V has room q, and a step grows it by at most 1 + c, so j steps are
        free while (1 + c)^j <= 1 + q: j = floor(log1p(q) / log1p(c)
        (1 - 1e-12)), the factor covering the rounding of q and the logs.
        On SPD(2), q is ``_spd2_room`` and, by Weyl, a step moves each
        eigenvalue of a row by at most c ||v||_2 (packing is a Frobenius
        isometry), so j steps move it by at most c sum_{l<j} (1 + c)^l ||v||
        <= q ||v||; norms grow by at most 1 + q, entries stay below M, and
        the band holds.  A room q > 0 proves V clean.  SPD(n > 2) has none.
        Flat space needs no proof: its march guards once per run.
        """
        if not len(V):
            return math.inf
        # _spd2_room is 0.0 without room; SPD(n > 2) has none
        room = math.log1p(_spd2_room(V)) if self.n == 2 else 0.0
        if not (room > 0.0 and c < math.inf):  # also for a nan room
            return 0
        return math.floor(room / math.log1p(c) * (1.0 - 1e-12))

    def check_point(self, x: np.ndarray) -> np.ndarray:
        """Validate chart coordinates; returns the coordinates as an array."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise DimensionMismatchError(
                f"point has shape {x.shape}, expected dim {self.dim}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("point has non-finite coordinates")
        if self.kind == "spd":
            bad = self.leaves(x.reshape(-1, self.dim))
            if bad is not None and bad.any():  # eigvalsh for the message
                w = np.linalg.eigvalsh(unpack_sym(x, self.n))
                raise NotPositiveDefiniteError(
                    f"SPD point has eigenvalue {np.min(w):.3e} <= {EIG_TOL:.0e}"
                )
        return x

    def to_matrix(self, x: np.ndarray) -> np.ndarray:
        """Chart coordinates -> matrix (SPD only)."""
        if self.kind != "spd":
            raise UnsupportedInputError("to_matrix is only defined on SPD")
        return unpack_sym(x, self.n)

    def identity_point(self) -> np.ndarray:
        """Origin for Euclidean space, the identity matrix for SPD."""
        if self.kind == "euclidean":
            return np.zeros(self.n)
        return pack_sym(np.eye(self.n))

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a chart point: uniform-ish for Euclidean, exp(sym) for SPD."""
        return self.random_points(rng, 1)[0]

    def random_points(self, rng: np.random.Generator, N: int) -> np.ndarray:
        """N chart points, (N, dim): one uniform draw in [-1, 1], one
        stacked eigh and one stacked product, bit for bit the points (and
        the rng state) that N one-point draws would give."""
        if self.kind == "euclidean":
            return rng.uniform(-1.0, 1.0, (N, self.n))
        B = rng.uniform(-1.0, 1.0, (N, self.n, self.n))
        w, V = np.linalg.eigh(0.5 * (B + B.swapaxes(-1, -2)))
        return pack_sym((V * np.exp(w)[:, None, :]) @ V.swapaxes(-1, -2))


def euclidean(n: int) -> ManifoldSpec:
    return ManifoldSpec("euclidean", n)


def spd(n: int) -> ManifoldSpec:
    return ManifoldSpec("spd", n)


@dataclass(frozen=True)
class FlowSystem:
    """A named smooth vector field with its exact Jacobian.

    jac_lipschitz, when given, is an exact global bound on
    ||jac(x) - jac(y)||_2 / ||x - y||; it enables certified early
    retirement of ensemble rows (see ``conedyn.flow``).  matrix, when
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
