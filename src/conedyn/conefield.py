"""Cone fields on manifolds: constant fields and the transported PSD field.

A cone field is a manifold, one chart cone ``cone``, a transport gamma
and a section.  The paper's fields are gamma-invariant, so a field is
fixed by its cone at one base point and the transport; on both shipped
manifolds the transport carries the chart cone onto itself, so the cone
at every point, in chart coordinates, is the one object ``cone``.
``cone_at(x)`` checks x and returns it.

* ``ConstantField`` -- a cone on a flat space, with identity transport.
  A custom ``transport`` callable can be injected to model (deliberately)
  broken invariance in tests.
* ``HomogeneousPSDField`` -- the PSD cone field on SPD(n).  Its cone is
  the PSD cone at the base point (the identity matrix); the congruence
  transport of :mod:`.geometry` maps it onto the PSD cone again at every
  point, because congruence by an invertible factor preserves positive
  semidefiniteness.

``section`` returns a smooth interior vector field (the transported
interior witness), normalized to unit metric length.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from . import geometry
from .cones import Cone, PSDCone, cone_to_spec, parse_cone_spec, spec_int
from .errors import UnsupportedInputError
from .geometry import ManifoldSpec, Tangent


class ConeField:
    """Interface: a manifold, its chart cone, a transport and a section."""

    manifold: ManifoldSpec
    cone: Cone  # the chart cone at every point

    def cone_at(self, x: np.ndarray) -> Cone:
        """The chart cone at x: ``cone``, once x is checked as a point."""
        self.manifold.check_point(x)
        return self.cone

    def transport_vec(self, x1: np.ndarray, x2: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Carry a tangent chart vector from x1 to x2 with the field's gamma."""
        raise NotImplementedError

    def section(self, x: np.ndarray) -> np.ndarray:
        """Unit-metric-length interior vector of the cone at x."""
        raise NotImplementedError


class ConstantField(ConeField):
    """The same cone in the tangent space of every point of a flat space."""

    def __init__(self, cone: Cone, manifold: ManifoldSpec | None = None, transport=None):
        if manifold is None:
            manifold = geometry.euclidean(cone.dim)
        if manifold.kind != "euclidean":
            raise UnsupportedInputError("constant fields live on flat spaces")
        if manifold.dim != cone.dim:
            raise UnsupportedInputError("cone dim != manifold chart dim")
        self.manifold = manifold
        self.cone = cone
        self._transport = transport  # None -> identity (the flat gamma)

    def transport_vec(self, x1, x2, v):
        if self._transport is None:
            return np.asarray(v, dtype=float).copy()
        return np.asarray(self._transport(x1, x2, v), dtype=float)

    def section(self, x: np.ndarray) -> np.ndarray:
        self.manifold.check_point(x)
        return self.cone.interior_witness()


class HomogeneousPSDField(ConeField):
    """PSD cone field on SPD(n), transported from the identity base point."""

    def __init__(self, n: int):
        self.n = n
        self.manifold = geometry.spd(n)
        self.base_point = self.manifold.identity_point()
        self.cone = PSDCone(n)

    def transport_vec(self, x1, x2, v):
        t = geometry.transport(self.manifold, x1, x2, Tangent(x1, v))
        return t.vec

    def section(self, x: np.ndarray) -> np.ndarray:
        # gamma(I, P) applied to I/sqrt(n) is P/sqrt(n); unit length in the
        # affine-invariant metric at P by the transport isometry
        P = self.manifold.to_matrix(self.manifold.check_point(x))
        return geometry.pack_sym(P / np.sqrt(self.n))


def check_gamma_invariance(field: ConeField, samples: int, seed: int) -> dict:
    """Probe gamma-invariance of the field on random point pairs.

    Pushes generators and boundary rays of the field's cone at x1 through
    its transport and records the worst (most negative) containment margin
    in the cone at x2.  A gamma-invariant field keeps boundary rays on the
    boundary, so the report's max_violation stays >= -1e-9 up to roundoff.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    m = field.manifold
    c = field.cone
    gens = c.generators()
    worst = np.inf
    for _ in range(samples):
        x1 = m.random_point(rng)
        x2 = m.random_point(rng)
        rays = [c.boundary_rays(rng, 4)]
        if gens is not None:
            rays.append(gens)
        W = np.array([field.transport_vec(x1, x2, v) for v in np.vstack(rays)])
        worst = min(worst, *c.margins(W))
    return {"max_violation": float(worst), "samples": samples, "seed": seed}


def parse_field_spec(spec: dict) -> tuple[ManifoldSpec, Callable[[], ConeField]]:
    """Validate a field's JSON form: its manifold and a builder of the field.

    {"field": "constant", "cone": {...}} or {"field": "homogeneous_spd", "n": 2}
    """
    if not isinstance(spec, dict) or "field" not in spec:
        raise UnsupportedInputError("field spec must be an object with a 'field'")
    kind = spec["field"]
    if kind == "constant":
        if "cone" not in spec:
            raise UnsupportedInputError("field spec: missing key 'cone'")
        dim, cone = parse_cone_spec(spec["cone"])
        return geometry.euclidean(dim), lambda: ConstantField(cone())
    if kind == "homogeneous_spd":
        n = spec_int(spec, "n", "field")
        return geometry.spd(n), partial(HomogeneousPSDField, n)
    raise UnsupportedInputError(f"unknown field kind {kind!r}")


def field_from_spec(spec: dict) -> ConeField:
    """Build a field from its JSON form (see :func:`parse_field_spec`)."""
    return parse_field_spec(spec)[1]()


def field_to_spec(f: ConeField) -> dict:
    if isinstance(f, ConstantField):
        return {"field": "constant", "cone": cone_to_spec(f.cone)}
    if isinstance(f, HomogeneousPSDField):
        return {"field": "homogeneous_spd", "n": f.n}
    raise UnsupportedInputError(f"cannot serialize field {type(f).__name__}")
