"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE nn [...]: PASS/FAIL` line with the
measured quantities, then asserts.  Run with `pytest -s tests/test_acceptance.py`
to see the lines on passing runs too.
"""

import time

import numpy as np
import pytest

from conedyn import experiments, flow, order, pf, positivity, registry
from conedyn.conefield import ConstantField
from conedyn.cones import Lorentz, Orthant
from conedyn.order import FlatOrderOracle, MinkowskiOracle
from helpers import linear_system, tanh_fixed_point

ORTHANT2 = ConstantField(Orthant(2))
ORTHANT1 = ConstantField(Orthant(1))


def _acceptance_line(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def coop():
    return registry.get_system("coop2d")


def test_criterion_01_cone_invariance(coop):
    t0 = time.monotonic()
    sdp = positivity.check_dp(coop, ORTHANT2, x_samples=200, ray_samples=8,
                              times=[0.1, 1.0, 5.0], seed=0)
    rot = registry.get_system("rotation2d")
    vio = positivity.check_dp(rot, ORTHANT2, x_samples=50, ray_samples=8,
                              times=[0.1, 1.0, 5.0], seed=0)
    vio2 = positivity.check_dp(rot, ORTHANT2, x_samples=50, ray_samples=8,
                               times=[0.1, 1.0, 5.0], seed=0)
    elapsed = time.monotonic() - t0
    ok = (sdp.status == positivity.SDP
          and sdp.boundary_margin > 1e-6
          and vio.status == positivity.VIOLATED
          and vio.witness is not None
          and vio2.witness == vio.witness
          and elapsed < 30.0)
    _acceptance_line(1, "cone invariance", ok,
             f"coop2d={sdp.status} boundary_margin={sdp.boundary_margin:.3e}, "
             f"rotation2d={vio.status} witness_reproducible="
             f"{vio2.witness == vio.witness}, {elapsed:.1f}s")


def test_criterion_02_flat_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    c = Orthant(3)
    agreements = []
    for k in range(50):
        A = rng.uniform(0.0, 0.5, (3, 3))
        np.fill_diagonal(A, rng.uniform(-1.5, -0.5, 3))
        if k >= 25:  # flip one off-diagonal entry negative
            offs = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
            i, j = offs[rng.integers(0, 6)]
            A[i, j] = -rng.uniform(0.3, 1.0)
        s = linear_system(A, f"rand3x3_{k}")
        rep = positivity.flat_equivalence(s, c, pairs=200, T=1.0, seed=k)
        agreements.append(rep["agreement"])
    elapsed = time.monotonic() - t0
    ok = all(a == 1.0 for a in agreements) and elapsed < 60.0
    _acceptance_line(2, "flat equivalence", ok,
             f"50 systems, min agreement={min(agreements)}, {elapsed:.1f}s")


def test_criterion_03_hilbert_contraction(coop):
    # contraction is measured along the origin-equilibrium orbit, where the
    # tangent flow has spectral gap 1.0; generic orbits saturate at the
    # (s,s) gap of ~0.0285 and cannot reach 1e-3 by t=20
    rng = np.random.default_rng(3)
    k = 50
    A = rng.uniform(0.1, 1.0, (k, 2))
    B = rng.uniform(0.1, 1.0, (k, 2))
    times, dists, _, _ = pf.propagate_ray_pairs(
        coop, ORTHANT2, np.zeros(2), A, B, T=20.0)
    final_max = float(np.max(dists[-1]))
    worst_step = float(np.max(np.diff(dists, axis=0)))
    ok = final_max < 1e-3 and worst_step <= 1e-8
    _acceptance_line(3, "hilbert contraction", ok,
             f"50 ray pairs, max d(20)={final_max:.2e}, "
             f"worst step increase={worst_step:.2e}")


def test_criterion_04_equilibrium_eigenstructure(coop):
    target = np.ones(2) / np.sqrt(2.0)
    rhos = {}
    ok = True
    details = []
    for tau in (0.5, 1.0, 2.0):
        v, rho = pf.pf_at_equilibrium(coop, ORTHANT2, np.zeros(2), tau=tau)
        rhos[tau] = rho
        v_err = float(np.linalg.norm(v.vec - target))
        r_err = abs(rho - np.exp(1.5 * tau)) / np.exp(1.5 * tau)
        ok &= v_err < 1e-6 and r_err < 1e-6
        details.append(f"tau={tau}: v_err={v_err:.1e} rho_rel={r_err:.1e}")
    sq1 = abs(rhos[1.0] - rhos[0.5] ** 2) / rhos[1.0]
    sq2 = abs(rhos[2.0] - rhos[1.0] ** 2) / rhos[2.0]
    ok &= sq1 < 1e-6 and sq2 < 1e-6
    _acceptance_line(4, "eigen-structure", ok,
             "; ".join(details) + f"; squaring residuals {sq1:.1e}, {sq2:.1e}")


def test_criterion_05_generic_convergence(coop):
    t0 = time.monotonic()
    rep = experiments.generic_convergence(coop, ORTHANT2, box=3.0, N=1000,
                                          T=100.0, seed=0)
    frac = rep.converged_fraction
    n_eq = len(rep.per_equilibrium)

    # 10 random transects between samples with distinct limits
    singles = [r for r in rep.samples if r["outcome"] == "converged"]
    rng = np.random.default_rng(0)
    pairs = []
    while len(pairs) < 10:
        i, j = rng.integers(0, len(singles), 2)
        a, b = singles[i], singles[j]
        if np.linalg.norm(np.array(a["limit"]) - np.array(b["limit"])) > 0.5:
            pairs.append((np.array(a["x0"]), np.array(b["x0"])))
    eqs = [np.array(e["point"]) for e in rep.per_equilibrium]
    scan = experiments.basin_boundary_scan(coop, eqs, pairs, classify_T=50.0)
    elapsed = time.monotonic() - t0
    ok = (frac >= 0.99 and n_eq >= 2 and scan["max_width"] < 1e-3
          and elapsed < 120.0)
    _acceptance_line(5, "generic convergence", ok,
             f"fraction={frac:.3f} interval={rep.interval}, "
             f"{n_eq} attractors, boundary width={scan['max_width']:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_06_dichotomy(coop):
    rep = experiments.dichotomy_check(coop, ORTHANT2, pairs=200, T=100.0,
                                      seed=0)
    ok = (rep["violations"] == 0 and rep["cases"]["strict_order"] > 0
          and rep["cases"]["equal_singleton"] > 0)
    _acceptance_line(6, "dichotomy + intersection", ok,
             f"violations={rep['violations']}, cases={rep['cases']}, "
             f"excluded={rep['undetermined_excluded']}")


def test_criterion_07_convergence_criterion(coop):
    rep_a = experiments.convergence_criterion_check(
        coop, ORTHANT2, x_samples=60, T_scan=[0.5, 1.0, 2.0, 5.0], seed=0)
    bist = registry.get_system("bistable1d")
    rep_b = experiments.convergence_criterion_check(
        bist, ORTHANT1, x_samples=60, T_scan=[0.5, 1.0, 2.0, 5.0], seed=0,
        box=2.0)
    total = rep_a["triggered"] + rep_b["triggered"]
    ok = (rep_a["triggered"] == rep_a["confirmed"]
          and rep_b["triggered"] == rep_b["confirmed"]
          and total >= 50)
    _acceptance_line(7, "convergence criterion", ok,
             f"coop2d {rep_a['triggered']}/{rep_a['confirmed']}, "
             f"bistable1d {rep_b['triggered']}/{rep_b['confirmed']}, "
             f"total={total}")


def test_criterion_08_trichotomy(coop):
    bist = registry.get_system("bistable1d")
    runs = [
        experiments.trichotomy_check(coop, ORTHANT2, np.array([1.0, 1.0]),
                                     n_seq=8, T=100.0),
        experiments.trichotomy_check(coop, ORTHANT2, np.zeros(2),
                                     n_seq=8, T=100.0),
        experiments.trichotomy_check(bist, ORTHANT1, np.array([0.0]),
                                     n_seq=8, T=100.0),
    ]
    branches = [r["branch"] for r in runs]
    ok = branches == [2, 3, 3] and all(r["consistent"] for r in runs)
    _acceptance_line(8, "trichotomy", ok,
             f"branches={branches}, consistent={[r['consistent'] for r in runs]}")


def test_criterion_09_causal_order():
    p = np.zeros(2)
    region = ((0.0, 2.0), (-2.0, 2.0))
    analytic = order.minkowski_future(p, order.CAUSAL, region, 101)
    reached = order.reachable_grid(ConstantField(Lorentz(2)), p, region,
                                   101, 16)
    agreement = reached.agreement(analytic)
    qc = order.quasi_closed_probe(MinkowskiOracle(), 500, seed=0)
    pu = order.push_up_probe(1000, seed=0)
    ci = order.continuity_probe("inner", p, [np.array([-2.0, 0.0])], [0.5])
    co = order.continuity_probe("outer", p, [np.array([0.0, 3.0])], [0.5])
    ok = (agreement >= 0.99 and qc["violations"] == 0
          and pu["violations"] == 0
          and ci["max_delta_passing"] == 0.5
          and co["max_delta_passing"] == 0.5)
    _acceptance_line(9, "causal order", ok,
             f"grid agreement={agreement:.4f}, quasi-closed={qc['violations']}, "
             f"push-up={pu['violations']}, continuity deltas="
             f"({ci['max_delta_passing']}, {co['max_delta_passing']})")


def test_criterion_10_numerics(coop):
    # RK4 order under step halving on the linear test problem
    s = linear_system([[-1.0]])
    errs = []
    for dt in (0.02, 0.01):
        traj = flow.integrate(s, np.array([1.0]), T=1.0, dt=dt)
        errs.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
    factor = errs[0] / errs[1]

    # tangent flow vs finite differences
    x0 = np.array([0.4, -0.3])
    tf = flow.tangent_flow(coop, x0, T=1.0, dt=1e-3)
    h = 1e-5
    fd_err = 0.0
    base = flow.integrate(coop, x0, T=1.0, dt=1e-3).states[-1]
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        plus = flow.integrate(coop, x0 + e, T=1.0, dt=1e-3).states[-1]
        fd_err = max(fd_err,
                     float(np.linalg.norm(tf.phis[-1] @ (e / h) - (plus - base) / h)))

    # variational cocycle
    t, s_ = 1.3, 0.9
    full = flow.tangent_flow(coop, x0, T=t + s_, dt=1e-3, store_stride=10 ** 9)
    first = flow.tangent_flow(coop, x0, T=t, dt=1e-3, store_stride=10 ** 9)
    second = flow.tangent_flow(coop, first.states[-1], T=s_, dt=1e-3,
                               store_stride=10 ** 9)
    cocycle_err = float(np.max(np.abs(full.phis[-1]
                                      - second.phis[-1] @ first.phis[-1])))

    ok = (8.0 <= factor <= 40.0 and fd_err < 1e-4 and cocycle_err < 1e-6)
    _acceptance_line(10, "numerics", ok,
             f"rk4 halving factor={factor:.1f}, tangent-vs-fd={fd_err:.2e}, "
             f"cocycle={cocycle_err:.2e}")
