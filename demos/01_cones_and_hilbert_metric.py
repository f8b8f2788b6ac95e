"""Cones, membership margins, duals, and the Hilbert projective metric.

Walks through the four cone representations and shows that two encodings
of the same set (the 2-d ice-cream cone vs. its polyhedral form) agree
both on membership and on Hilbert distances.
"""

import numpy as np

from conedyn.cones import Lorentz, Orthant, Polyhedral, PSDCone
from conedyn.geometry import pack_sym
from conedyn.order import relations

REGION = ("outside", "boundary", "interior")  # by code: INC, WEAK, STRICT

print("== membership with normalized margins ==")
print("  (relations(c, 0, V) codes the region of every row of V at once)")
orthant = Orthant(2)
V = np.array([[1.0, 1.0], [2.0, 0.0], [1.0, -1.0]])
for v, code, m in zip(V, relations(orthant, 0, V), orthant.margins(V)):
    print(f"  orthant {v.tolist()}: {REGION[code]:8s} margin {m:+.4f}")

lorentz = Lorentz(2)
V = np.array([[2.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
for v, code, m in zip(V, relations(lorentz, 0, V), lorentz.margins(V)):
    print(f"  lorentz {v.tolist()}: {REGION[code]:8s} margin {m:+.4f}")

psd = PSDCone(2)
Ms = np.array([np.diag([3.0, 1.0]), np.outer([1, 1], [1, 1]) * 1.0,
               np.diag([1.0, -0.5])])
V = pack_sym(Ms)
for M, code, m in zip(Ms, relations(psd, 0, V), psd.margins(V)):
    print(f"  psd eig{np.linalg.eigvalsh(M)}: {REGION[code]:8s} "
          f"margin {m:+.4f}")

print("\n== dual cones ==")
print("  orthant dual of (1,0,2):", Orthant(3).dual_contains(np.array([1., 0., 2.])))
print("  lorentz (self-dual) boundary (1,-1):",
      lorentz.dual_contains(np.array([1., -1.])))

print("\n== Hilbert projective metric ==")
u, v = np.array([1.0, 1.0]), np.array([2.0, 1.0])
print(f"  orthant d((1,1),(2,1)) = {orthant.hilbert_distances(u, v):.6f} "
      f"(log 2 = {np.log(2):.6f})")
print(f"  scale invariance: d(5u, 0.3v) = "
      f"{orthant.hilbert_distances(5 * u, 0.3 * v):.6f}")

# the same cone two ways: the Lorentz asinh form vs facet ratios
poly = Polyhedral([[1, 1], [1, -1]], [[1, 1], [1, -1]])
u, v = np.array([2.0, 1.0]), np.array([2.0, -1.0])
print(f"  lorentz(2) asinh form: {lorentz.hilbert_distances(u, v):.12f}")
print(f"  polyhedral twin:       {poly.hilbert_distances(u, v):.12f}")
print(f"  light-cone coordinates map this cone onto the orthant: "
      f"log 9 = {np.log(9):.12f}")

W = np.random.default_rng(0).uniform(-1, 1, (1000, 2))
disagree = int(np.sum(relations(lorentz, 0, W) != relations(poly, 0, W)))
print(f"\n  membership disagreements over 1000 random vectors: {disagree}")
