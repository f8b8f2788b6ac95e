"""Cones, membership margins, duals, and the Hilbert projective metric.

Walks through the four cone representations and shows that two encodings
of the same set (the 2-d ice-cream cone vs. its polyhedral form) agree
both on membership and on Hilbert distances.
"""

import numpy as np

from conedyn.cones import Lorentz, Orthant, Polyhedral, PSDCone
from conedyn.geometry import pack_sym

print("== membership with normalized margins ==")
orthant = Orthant(2)
for v in ([1.0, 1.0], [2.0, 0.0], [1.0, -1.0]):
    got = orthant.contains(np.array(v))
    print(f"  orthant {v}: {got.region:8s} margin {got.margin:+.4f}")

lorentz = Lorentz(2)
for v in ([2.0, 1.0], [1.0, 1.0], [0.0, 1.0]):
    got = lorentz.contains(np.array(v))
    print(f"  lorentz {v}: {got.region:8s} margin {got.margin:+.4f}")

psd = PSDCone(2)
for M in (np.diag([3.0, 1.0]), np.outer([1, 1], [1, 1]) * 1.0,
          np.diag([1.0, -0.5])):
    got = psd.contains(pack_sym(M))
    print(f"  psd eig{np.linalg.eigvalsh(M)}: {got.region:8s} "
          f"margin {got.margin:+.4f}")

print("\n== dual cones ==")
print("  orthant dual of (1,0,2):", Orthant(3).dual_contains(np.array([1., 0., 2.])))
print("  lorentz (self-dual) boundary (1,-1):",
      lorentz.dual_contains(np.array([1., -1.])))

print("\n== Hilbert projective metric ==")
u, v = np.array([1.0, 1.0]), np.array([2.0, 1.0])
print(f"  orthant d((1,1),(2,1)) = {orthant.hilbert_distance(u, v):.6f} "
      f"(log 2 = {np.log(2):.6f})")
print(f"  scale invariance: d(5u, 0.3v) = "
      f"{orthant.hilbert_distance(5 * u, 0.3 * v):.6f}")

# the same cone two ways: the Lorentz asinh form vs facet ratios
poly = Polyhedral([[1, 1], [1, -1]], [[1, 1], [1, -1]])
u, v = np.array([2.0, 1.0]), np.array([2.0, -1.0])
print(f"  lorentz(2) asinh form: {lorentz.hilbert_distance(u, v):.12f}")
print(f"  polyhedral twin:       {poly.hilbert_distance(u, v):.12f}")
print(f"  light-cone coordinates map this cone onto the orthant: "
      f"log 9 = {np.log(9):.12f}")

rng = np.random.default_rng(0)
disagree = sum(
    lorentz.contains(w).region != poly.contains(w).region
    for w in rng.uniform(-1, 1, (1000, 2)))
print(f"\n  membership disagreements over 1000 random vectors: {disagree}")
