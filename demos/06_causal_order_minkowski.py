"""Causal order on 1+1 Minkowski space: future sets and reachability.

The causal future of a point is everything above its light cone.  A
breadth-first walk on a grid, allowed to step only in directions the
local cone admits, recovers the analytic set almost exactly; the order
probes then verify closedness, push-up, and continuity behavior.
"""

import numpy as np

from conedyn import order
from conedyn.conefield import ConstantField
from conedyn.cones import Lorentz

p = np.zeros(2)
LIGHT_CONE = ConstantField(Lorentz(2))  # the cone of 1+1 space-time
REGION = ((0.0, 2.0), (-2.0, 2.0))

print("== point classifications from (0,0) ==")
NAMES = ("incomparable", "causal (null)", "chronological")  # INC, WEAK, STRICT
Q = np.array([[2.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
for q, code in zip(Q, order.minkowski_relations(p, Q)):
    print(f"  q={q.tolist()}: {NAMES[code]}")

print("\n== analytic future vs cone-respecting grid walk ==")
analytic = order.minkowski_future(p, order.CAUSAL, REGION, 101)
reached = order.reachable_grid(LIGHT_CONE, p, REGION, 101, directions=16)
print(f"  cell agreement on a 101x101 grid: {reached.agreement(analytic):.4f}")

# a coarse picture: rows are time slices (top = late), # reached, . not
coarse = order.reachable_grid(LIGHT_CONE, p, REGION, 31, directions=16)
print("\n  reached set (t increases upward):")
for i in reversed(range(0, 31, 3)):
    row = "".join("#" if coarse.grid[i, j] else "." for j in range(0, 31))
    print(f"   {row}")

print("\n== order probes ==")
qc = order.quasi_closed_probe(order.MinkowskiOracle(), 500, seed=0)
print(f"  quasi-closedness: {qc['violations']} violations "
      f"over {qc['sequences']} boundary sequences")
pu = order.push_up_probe(1000, seed=0)
print(f"  push-up: {pu['violations']} violations over {pu['samples']} triples")
ci = order.continuity_probe("inner", p, [np.array([-2.0, 0.0])], [0.1, 0.5])
co = order.continuity_probe("outer", p, [np.array([0.0, 3.0])], [0.1, 0.5])
print(f"  inner continuity holds to delta = {ci['max_delta_passing']}")
print(f"  outer continuity holds to delta = {co['max_delta_passing']}")
