"""Closed convex cones: batched membership margins, duals, Hilbert metric.

Four representations are supported, all pointed and solid:

* ``Polyhedral``  -- finitely generated, given by BOTH generators and inward
                     facet normals (no facet enumeration here).
* ``Orthant(n)``  -- the nonnegative orthant: the polyhedral cone whose
                     generators and facet normals are both I_n.
* ``Lorentz(n)``  -- vectors (t, x) in R x R^{n-1} with t >= |x|.
* ``PSDCone(n)``  -- positive semidefinite symmetric matrices, stored in the
                     packed chart coordinates of :mod:`.geometry`.

``margins(V)`` gives, for every row of V (last axis = cone coordinates),
the signed slack of the binding constraint divided by the row norm, so
margins are comparable across scales; a zero row sits on the boundary of
every closed cone and gets margin 0.

The Hilbert projective metric between interior rays u, v is

    d(u, v) = log(M / m),   M = inf{b : b v - u in C},
                            m = sup{a : u - a v in C},

and is computed in closed form for every cone (Bushell 1973, *Hilbert's
metric and positive contraction mappings*; Lemmens & Nussbaum 2012,
*Nonlinear Perron-Frobenius Theory*, ch. 2).  Polyhedral: with
r_i = <l_i, u> / <l_i, v> over the facet normals, d = log(max r / min r).
PSD: d = log(lambda_max / lambda_min) of V^{-1/2} U V^{-1/2}.  Lorentz:
with q(w) = (w_0 - |w'|)(w_0 + |w'|) and s^2 = |u_0 v' - v_0 u'|^2 -
sum_{i<j} (u'_i v'_j - u'_j v'_i)^2 (which is B(u, v)^2 - q(u) q(v) for
the Lorentz form B), d = 2 asinh(s / sqrt(q(u) q(v))).  The textbook form
2 log((B + sqrt(B^2 - q(u) q(v))) / sqrt(q(u) q(v))) subtracts two nearly
equal squares near the diagonal and returns d(3u, u) ~ 1e-7; s^2 is built
from terms that vanish with u - v, so the asinh form stays below 1e-14.
``hilbert_distances(U, V)`` evaluates a stack of row pairs at once.  Rays
outside the interior are at distance +inf.

These batched calls are the whole membership layer: a row with an inf or
nan entry gets a nan margin and distance +inf, and
``order.relations(c, X, Y)`` is the one place a margin and a tolerance
become an order decision.  ``margin`` is ``margins`` on one vector.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from .errors import (
    ConeConstructionError,
    DimensionMismatchError,
    UnsupportedInputError,
)
from .geometry import norms, pack_sym, scaled, sym_dim, unpack_sym

DEFAULT_TOL = 1e-9  # membership tolerance on the normalized margin
_ENTRY_RANGE = (2.0 ** -300, 2.0 ** 300)  # largest |entry| of unscaled rows
_DUAL_TOL = 1e-12
_INTP_MAX = int(np.iinfo(np.intp).max)


def integer_at_least(n, least: int, what: str, error: type) -> int:
    """n as an int, or error unless n is an integer in [least, intp max]:
    a size, count or seed that numpy can take."""
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or not least <= n <= _INTP_MAX):
        raise error(f"{what} must be an integer >= {least}: {n!r}")
    return int(n)


def _per_norm(slack: np.ndarray, V: np.ndarray) -> np.ndarray:
    """slack / |row of V|, and 0 for zero rows (NaN rows stay NaN)."""
    # np.linalg.norm(V, axis=-1) bit for bit, without its wrapper's overhead
    nv = np.sqrt(np.add.reduce(V * V, axis=-1))
    return np.divide(slack, nv, out=np.zeros(nv.shape), where=nv != 0.0)


class Cone:
    """Base class; concrete cones implement ``_slack``, the metric, samplers."""

    dim: int
    name: str = "cone"

    def _check_dim(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.dim,):
            raise DimensionMismatchError(
                f"vector shape {v.shape} does not end in cone dim {self.dim}"
            )
        return v

    def _slack(self, V: np.ndarray) -> np.ndarray:
        """Signed slack of the binding constraint of each row of V."""
        raise NotImplementedError

    def margins(self, V: np.ndarray) -> np.ndarray:
        """Normalized signed slack of each row of V (any leading shape).

        Exact in scale: when a row's largest |entry| lies outside
        _ENTRY_RANGE, where its squares could overflow or underflow, every
        row is ``geometry.scaled`` by a power of two first.  The scaling is
        exact, so a row and its 2^k multiples get the same margin, and
        inside the range it would not change a bit; it is skipped there
        because it costs a one-row ``margin`` about 3.5 us.  A row with an
        inf or nan entry is replaced by a nan row there, so its margin is
        nan, with no warning.
        """
        V = self._check_dim(V)
        m = np.maximum.reduce(np.abs(V), axis=-1)
        ok = (m >= _ENTRY_RANGE[0]) & (m <= _ENTRY_RANGE[1])
        if not (ok.all() if m.ndim else ok):  # np.all would cost 3 us more
            V = np.where(np.isfinite(m)[..., None], scaled(V)[0], np.nan)
        return _per_norm(self._slack(V), V)

    def margin(self, v: np.ndarray) -> float:
        """Normalized signed slack of the one vector v; 0 for the zero vector."""
        m = self.margins(v)
        if m.ndim:
            raise DimensionMismatchError("margin takes one vector; use margins")
        return float(m)

    def dual_contains(self, lam: np.ndarray) -> bool:
        """True iff lam lies in the dual cone (within 1e-12 normalized slack)."""
        raise NotImplementedError

    def generators(self):
        """Finite generating set as rows, or None when there is none."""
        return None

    def facet_normals(self):
        """Inward facet normals as rows, or None when not polyhedral."""
        return None

    def interior_witness(self) -> np.ndarray:
        """A unit vector strictly inside the cone."""
        raise NotImplementedError

    def boundary_rays(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k extreme/boundary unit rays, randomised where the set is infinite."""
        raise NotImplementedError

    def unit_rays(self, rng: np.random.Generator) -> np.ndarray:
        """The unit extreme rays that samplers combine: the normalized
        generators, or 4 random boundary rays where there are none."""
        gens = self.generators()
        if gens is None:
            return self.boundary_rays(rng, 4)
        return gens / norms(gens)[:, None]

    def hilbert_distances(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Hilbert distance of each row pair (U[i], V[i]), any leading shape.

        +inf where either row is outside the interior (a row with an inf
        or nan entry included); ValueError for a zero row.  Exact in scale:
        the rows are normalized by their ``geometry.norms``, so 2^k
        multiples of a row pair give the same distance bit for bit, and the
        closed forms see unit rows, on which no product they form can
        overflow.
        """
        U, V = np.broadcast_arrays(self._check_dim(U), self._check_dim(V))
        nu = norms(U)[..., None]
        nv = norms(V)[..., None]
        if np.any(nu == 0.0) or np.any(nv == 0.0):
            raise ValueError("the Hilbert distance is undefined for the zero vector")
        inner = ((self.margins(U) > DEFAULT_TOL)
                 & (self.margins(V) > DEFAULT_TOL))
        d = np.full(inner.shape, math.inf)
        d[inner] = self._distances(U[inner] / nu[inner], V[inner] / nv[inner])
        return d

    def _distances(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Closed-form Hilbert distances of rows of interior unit vectors."""
        raise NotImplementedError


class _SelfDual(Cone):
    """A cone equal to its dual: lam is dual iff its own margin is >= 0."""

    def dual_contains(self, lam: np.ndarray) -> bool:
        return bool(self.margin(lam) >= -_DUAL_TOL)


class Lorentz(_SelfDual):
    """Second-order cone {(t, x) : t >= |x|} in R^n (self-dual)."""

    name = "lorentz"

    def __init__(self, n: int):
        self.n = self.dim = integer_at_least(n, 2, "lorentz n",
                                             ConeConstructionError)

    def _slack(self, V: np.ndarray) -> np.ndarray:
        return V[..., 0] - np.linalg.norm(V[..., 1:], axis=-1)

    def interior_witness(self) -> np.ndarray:
        w = np.zeros(self.n)
        w[0] = 1.0
        return w

    def boundary_rays(self, rng: np.random.Generator, k: int) -> np.ndarray:
        rays = np.zeros((integer_at_least(k, 0, "k", ValueError), self.n))
        rays[:, 0] = 1.0
        if self.n == 2:
            rays[:, 1] = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
        else:
            x = rng.normal(size=(k, self.n - 1))
            rays[:, 1:] = x / np.linalg.norm(x, axis=1, keepdims=True)
        return rays / np.linalg.norm(rays, axis=1, keepdims=True)

    def _distances(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        def q(W):
            r = np.linalg.norm(W[:, 1:], axis=1)
            return (W[:, 0] - r) * (W[:, 0] + r)

        Ub, Vb = U[:, 1:], V[:, 1:]
        wedge = Ub[:, :, None] * Vb[:, None, :]
        s2 = (np.sum((U[:, :1] * Vb - V[:, :1] * Ub) ** 2, axis=1)
              - 0.5 * np.sum((wedge - np.swapaxes(wedge, 1, 2)) ** 2,
                             axis=(1, 2)))
        return 2.0 * np.arcsinh(np.sqrt(np.maximum(s2, 0.0))
                                / np.sqrt(q(U) * q(V)))


class PSDCone(_SelfDual):
    """Positive semidefinite cone in packed symmetric coordinates."""

    name = "psd"

    def __init__(self, n: int):
        self.n = integer_at_least(n, 1, "psd n", ConeConstructionError)
        self.dim = sym_dim(self.n)

    def _slack(self, V: np.ndarray) -> np.ndarray:
        # lambda_min; the packed norm equals the Frobenius norm of the matrix
        return np.linalg.eigvalsh(unpack_sym(V, self.n))[..., 0]

    def interior_witness(self) -> np.ndarray:
        return pack_sym(np.eye(self.n)) / np.sqrt(self.n)

    def boundary_rays(self, rng: np.random.Generator, k: int) -> np.ndarray:
        # rank-one projectors q q^T are the extreme rays
        k = integer_at_least(k, 0, "k", ValueError)
        q = rng.normal(size=(k, self.n))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        return pack_sym(q[:, :, None] * q[:, None, :])

    def _distances(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        # eigenvalues of V^{-1/2} U V^{-1/2}, one stack of eigh calls
        w, Q = np.linalg.eigh(unpack_sym(V, self.n))
        R = (Q / np.sqrt(w)[:, None, :]) @ np.swapaxes(Q, 1, 2)
        lam = np.linalg.eigvalsh(R @ unpack_sym(U, self.n) @ R)
        return np.log(lam[:, -1] / lam[:, 0])


class Polyhedral(Cone):
    """Finitely generated cone given by generators AND inward facet normals.

    Both representations must be supplied; construction verifies that every
    generator satisfies every facet inequality, that the cone is pointed
    (no generator's negation is inside), and that it is solid (an interior
    witness exists).
    """

    name = "polyhedral"

    def __init__(self, generators, facet_normals, witness=None):
        G = np.atleast_2d(np.asarray(generators, dtype=float))
        L = np.atleast_2d(np.asarray(facet_normals, dtype=float))
        if G.ndim != 2 or L.ndim != 2 or G.shape[1] != L.shape[1]:
            raise DimensionMismatchError(
                "generators and facet normals must be rows of one dimension")
        if not (len(G) and len(L) and G.shape[1]):
            raise ConeConstructionError("no generator or no facet normal")
        if not (np.isfinite(G).all() and np.isfinite(L).all()):
            raise ConeConstructionError("non-finite generator or facet normal")
        ng, nl = norms(G)[:, None], norms(L)[:, None]
        if np.any(ng == 0.0):
            raise ConeConstructionError("zero generator")
        if np.any(nl == 0.0):
            raise ConeConstructionError("zero facet normal")
        self.dim = G.shape[1]
        self._gens = G
        self._gens_unit = G / ng
        self._normals_unit = L / nl
        if np.min(self.margins(G)) < -1e-12:
            raise ConeConstructionError(
                "a generator violates a facet inequality (rep inconsistency)")
        if np.any(self.margins(-G) >= -1e-12):
            raise ConeConstructionError("cone is not pointed: -g inside")

        if witness is None:
            witness = self._gens_unit.mean(axis=0)
        witness = np.asarray(witness, dtype=float)
        if not self.margin(witness) > DEFAULT_TOL:  # a nan margin fails too
            raise ConeConstructionError("cone is not solid: no interior witness")
        self._witness = witness / norms(witness)

    def _facet_values(self, V: np.ndarray) -> np.ndarray:
        # <l_i, v> for every unit facet normal (exact for the unit axes);
        # V @ a pre-transposed copy would round apart for general normals
        return V @ self._normals_unit.T

    def _slack(self, V: np.ndarray) -> np.ndarray:
        return np.minimum.reduce(self._facet_values(V), axis=-1)

    def dual_contains(self, lam: np.ndarray) -> bool:
        lam = self._check_dim(lam)
        if lam.ndim != 1:
            raise DimensionMismatchError("dual_contains takes one vector")
        if not np.isfinite(lam).all():
            return False  # as a self-dual cone's nan margin reads
        return bool(np.min(self._gens_unit @ lam) >= -_DUAL_TOL * norms(lam))

    def generators(self) -> np.ndarray:
        return self._gens.copy()

    def facet_normals(self) -> np.ndarray:
        return self._normals_unit.copy()

    def interior_witness(self) -> np.ndarray:
        return self._witness.copy()

    def boundary_rays(self, rng: np.random.Generator, k: int) -> np.ndarray:
        k = integer_at_least(k, 0, "k", ValueError)
        return self._gens_unit[np.arange(k) % len(self._gens)]

    def _distances(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        r = self._facet_values(U) / self._facet_values(V)
        return np.log(np.max(r, axis=1) / np.min(r, axis=1))


class Orthant(Polyhedral):
    """The nonnegative orthant in R^n: generators = facet normals = I_n."""

    name = "orthant"

    def __init__(self, n: int):
        self.n = integer_at_least(n, 1, "orthant n", ConeConstructionError)
        super().__init__(np.eye(self.n), np.eye(self.n), witness=np.ones(self.n))


_BY_TYPE = {"orthant": Orthant, "lorentz": Lorentz, "psd": PSDCone}


def conic_combinations(rays: np.ndarray, k: int,
                       rng: np.random.Generator) -> np.ndarray:
    """k unit conic combinations of the rows of rays, weights U(0.1, 1).

    The weights are one (k, m) draw.  Row products are taken as a stack of
    one-row products, which round exactly as ``w @ rays`` and
    ``np.linalg.norm(v)`` do, so a combination does not depend on k.
    ValueError for rays that are not a nonempty stack of finite rows, or
    whose combination is zero or overflows.
    """
    rays = np.asarray(rays, dtype=float)
    if rays.ndim != 2 or not len(rays) or not np.isfinite(rays).all():
        raise ValueError("rays must be a nonempty stack of finite rows")
    k = integer_at_least(k, 0, "k", ValueError)
    with np.errstate(over="ignore"):  # an overflow is refused below
        V = rng.uniform(0.1, 1.0, (k, 1, len(rays))) @ rays
        nv = np.sqrt(V @ V.transpose(0, 2, 1))
    if not np.all((nv > 0.0) & (nv < math.inf)):
        raise ValueError("a combination of the rays is zero or overflows")
    return (V / nv)[:, 0]


def finite_number(val) -> bool:
    """True for a finite JSON number; bools and strings are not numbers."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an int beyond the float range
        return False


def spec_int(spec: dict, key: str, what: str) -> int:
    """The integer ``spec[key]`` of a JSON spec, or an error naming the key."""
    if not isinstance(spec, dict):
        raise UnsupportedInputError(f"{what} spec must be an object")
    if key not in spec:
        raise UnsupportedInputError(f"{what} spec: missing key {key!r}")
    val = spec[key]
    if not finite_number(val) or not float(val).is_integer():
        raise UnsupportedInputError(
            f"{what} spec: {key!r} must be an integer, got {val!r}")
    return int(val)


def _spec_rows(spec: dict, key: str) -> list:
    rows = spec.get(key)
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and r for r in rows)
            or len({len(r) for r in rows}) != 1
            or not all(finite_number(x) for r in rows for x in r)):
        raise UnsupportedInputError(
            f"cone spec: {key!r} must be a nonempty list of equal-length "
            "rows of finite numbers")
    return rows


def parse_cone_spec(spec: dict) -> tuple[int, Callable[[], Cone]]:
    """Validate a cone's JSON form: its dimension and a builder of the cone.

    Nothing is built here, so a caller can check the dimension first.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise UnsupportedInputError("cone spec must be an object with a 'type'")
    kind = spec["type"]
    if kind == "polyhedral":
        L = _spec_rows(spec, "facet_normals")
        G = _spec_rows(spec, "generators")
        return len(G[0]), partial(Polyhedral, G, L)
    if kind not in tuple(_BY_TYPE):  # compared with ==, so any JSON value
        raise UnsupportedInputError(f"unknown cone type {kind!r}")
    n = spec_int(spec, "n", "cone")
    return (sym_dim(n) if kind == "psd" else n), partial(_BY_TYPE[kind], n)


def cone_from_spec(spec: dict) -> Cone:
    """Build a cone from its JSON scenario form, e.g. {"type":"orthant","n":2}."""
    return parse_cone_spec(spec)[1]()


def cone_to_spec(c: Cone) -> dict:
    if isinstance(c, tuple(_BY_TYPE.values())):
        return {"type": c.name, "n": c.n}
    if isinstance(c, Polyhedral):
        return {
            "type": "polyhedral",
            "generators": c.generators().tolist(),
            "facet_normals": c.facet_normals().tolist(),
        }
    raise UnsupportedInputError(f"cannot serialize cone {type(c).__name__}")