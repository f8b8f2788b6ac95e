import itertools
import json

import numpy as np
import pytest

from conedyn import experiments, flow, positivity, registry, reports
from conedyn.conefield import ConstantField, HomogeneousPSDField
from conedyn.cones import Orthant, PSDCone
from conedyn.errors import ProbeConstructionError
from conedyn.order import INC, STRICT, relations
from helpers import blowup_rotation, tanh_fixed_point

ORTHANT2 = ConstantField(Orthant(2))
ORTHANT1 = ConstantField(Orthant(1))


@pytest.fixture(scope="module")
def coop():
    return registry.get_system("coop2d")


@pytest.fixture(scope="module")
def coop_report(coop):
    return experiments.generic_convergence(coop, ORTHANT2, box=3.0, N=100,
                                           T=100.0, seed=0)


def test_generic_convergence_coop2d(coop_report):
    rep = coop_report
    assert rep.dp_status == positivity.SDP
    assert rep.converged == rep.total == 100
    assert rep.escapes == 0
    assert len(rep.per_equilibrium) >= 2
    assert sum(e["count"] for e in rep.per_equilibrium) == rep.converged
    total = (rep.converged + rep.nonsingleton + rep.undetermined + rep.escapes)
    assert total == rep.total
    lo, hi = rep.interval
    assert 0.0 <= lo <= rep.converged_fraction <= hi <= 1.0


def test_generic_convergence_rows_carry_residuals(coop_report):
    for row in coop_report.samples:
        if row["outcome"] == "converged":
            assert row["residual"] < 10 * flow.EQ_TOL


def test_generic_convergence_bistable():
    s = registry.get_system("bistable1d")
    rep = experiments.generic_convergence(s, ORTHANT1, box=2.0, N=100,
                                          T=100.0, seed=1)
    assert rep.converged / rep.total >= 0.99
    s1 = tanh_fixed_point(2.0)
    pts = sorted(e["point"][0] for e in rep.per_equilibrium)
    # the two outer roots attract everything; the middle root gets ~0 mass
    assert len(pts) == 2
    assert abs(pts[0] + s1) < 1e-6 and abs(pts[1] - s1) < 1e-6
    grid = flow.find_equilibria(s, [np.array([v]) for v in (-1.5, 0.0, 1.5)])
    assert len(grid) == 3  # the unstable middle equilibrium exists


def test_generic_convergence_rotation_flags_precondition():
    s = registry.get_system("rotation2d")
    rep = experiments.generic_convergence(s, ORTHANT2, box=3.0, N=20,
                                          T=50.0, seed=0)
    assert rep.dp_status == positivity.VIOLATED
    assert rep.converged == 0
    assert rep.nonsingleton == 20


def test_generic_convergence_undetermined_is_honest(coop):
    # horizon far too short: the classifier must admit it
    rep = experiments.generic_convergence(coop, ORTHANT2, box=3.0, N=20,
                                          T=2.0, seed=0, dp_check=False)
    assert rep.undetermined > 0
    assert (rep.converged + rep.nonsingleton + rep.undetermined
            + rep.escapes) == rep.total


def test_generic_convergence_determinism(coop):
    a = experiments.generic_convergence(coop, ORTHANT2, 3.0, 30, 60.0, seed=9)
    b = experiments.generic_convergence(coop, ORTHANT2, 3.0, 30, 60.0, seed=9)
    ja = json.dumps(reports.sanitize(a.__dict__), sort_keys=True)
    jb = json.dumps(reports.sanitize(b.__dict__), sort_keys=True)
    assert ja == jb


def test_ordered_omega_witnesses_match_the_pairwise_search(coop, monkeypatch):
    # crafted non-singleton tails on an SDP run: every ordered witness pair
    # is a finding, the first b for each a, as a double loop finds them
    rng = np.random.default_rng(3)
    tails = [np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -1.0], [0.5, 0.5],
                       [0.0, 0.0]]),
             np.array([[0.0, 0.0], [1.0, -1.0], [-1.0, 1.0]]),  # unordered
             rng.normal(size=(6, 2)),
             np.array([[0.0, 0.0], [1.0, 0.0]])]  # a boundary pair
    ests = [flow.OmegaEstimate(flow.NON_SINGLETON, witnesses=W) for W in tails]
    asked = []  # an SDP run reads the witnesses, so it asks for them
    monkeypatch.setattr(experiments, "_omega_batch",
                        lambda s, X0, T, dt, witnesses: asked.append(
                            witnesses) or ests + [None])
    rep = experiments.generic_convergence(coop, ORTHANT2, box=3.0, N=5,
                                          T=2.0, seed=0)
    assert rep.dp_status == positivity.SDP
    assert rep.nonsingleton == 4 and rep.escapes == 1
    want = []
    for i, W in enumerate(tails):
        for a in range(len(W)):
            for b in range(len(W)):
                if a != b and relations(Orthant(2), W[a], W[b]) != INC:
                    want.append({"kind": "ordered_omega_witnesses", "sample": i,
                                 "points": [W[a].tolist(), W[b].tolist()]})
                    break
    assert rep.findings == want
    assert {f["sample"] for f in want} == {0, 2, 3}
    assert asked == [True]


@pytest.mark.parametrize("name", ["coop2d", "spd_lyapunov"])
def test_sample_states_prefix_does_not_depend_on_N(name):
    s = registry.get_system(name)
    full = experiments.sample_states(s, 3.0, 50, 4)
    assert np.array_equal(full[:7], experiments.sample_states(s, 3.0, 7, 4))


def test_pair_directions_do_not_reuse_state_draws(coop):
    # direction 1 is a conic combination of e1 and e2; drawn from sample
    # 977's uniforms u, it would be parallel to the weights 0.1 + 0.9 u
    X, Y = experiments._sample_ordered_pairs(coop, Orthant(2), 1000, 0)
    d = (Y[1] - X[1]) / np.linalg.norm(Y[1] - X[1])
    w = 0.1 + 0.9 * (X[977] + 3.0) / 6.0
    assert not np.allclose(d, w / np.linalg.norm(w), rtol=0.0, atol=1e-6)


# ------------------------------------------------------------- basin scan


def test_basin_boundary_scan_localizes(coop):
    s_star = tanh_fixed_point(2.5)
    a_star = tanh_fixed_point(1.5)
    eqs = [np.array([s_star, s_star]), -np.array([s_star, s_star]),
           np.array([a_star, -a_star]), np.array([-a_star, a_star])]
    pairs = [(np.array([1.0, 1.0]), np.array([1.0, -1.5])),
             (np.array([-2.0, -1.0]), np.array([2.0, 1.0])),
             (np.array([0.5, 0.5]), np.array([-0.5, -0.5]))]
    scan = experiments.basin_boundary_scan(coop, eqs, pairs, classify_T=50.0)
    assert scan["max_width"] < 1e-3
    for tr in scan["transects"]:
        assert tr["labels"][0] != tr["labels"][1]


def test_basin_boundary_scan_rejects_same_basin(coop):
    s_star = tanh_fixed_point(2.5)
    eqs = [np.array([s_star, s_star]), -np.array([s_star, s_star])]
    with pytest.raises(ValueError):
        experiments.basin_boundary_scan(
            coop, eqs, [(np.array([1.0, 1.0]), np.array([2.0, 2.0]))])



def test_basin_boundary_scan_rejects_an_empty_transect_list(coop):
    s_star = tanh_fixed_point(2.5)
    eqs = [np.array([s_star, s_star]), -np.array([s_star, s_star])]
    with pytest.raises(ValueError, match="transect"):
        experiments.basin_boundary_scan(coop, eqs, [])


# -------------------------------------------------------------- dichotomy


def test_dichotomy_coop2d(coop):
    rep = experiments.dichotomy_check(coop, ORTHANT2, pairs=60, T=100.0, seed=0)
    assert rep["violations"] == 0
    assert rep["cases"]["strict_order"] > 0
    assert rep["cases"]["equal_singleton"] > 0


def test_dichotomy_metzler_all_equal():
    s = registry.get_system("metzler_linear")
    rep = experiments.dichotomy_check(s, ORTHANT2, pairs=60, T=60.0, seed=0)
    assert rep["violations"] == 0
    assert rep["cases"]["equal_singleton"] == 60 - rep["undetermined_excluded"]
    assert rep["cases"]["strict_order"] == 0


def test_pair_theorems_run_on_spd():
    # the transported PSD field's chart cone decides the Loewner order
    s, field = registry.get_system("spd_lyapunov"), HomogeneousPSDField(2)
    rep = experiments.dichotomy_check(s, field, pairs=30, T=2.0, seed=0)
    assert rep["violations"] == 0
    assert (sum(rep["cases"].values()) + rep["undetermined_excluded"]
            + rep["escapes"] + rep["nonsingleton_or_mixed"]) == 30
    rep = experiments.colimit_check(s, field, pairs=30, T=2.0, seed=0)
    assert rep["violations"] == 0 and 0 <= rep["checked_pairs"] <= 30
    rep = experiments.convergence_criterion_check(
        s, field, x_samples=30, T_scan=[0.5, 1.0], seed=0, omega_T=2.0)
    # ||e^{At}||_2 < 1 for t > 0, so phi_T(x) <= x triggers every sample
    assert rep["findings"] == [] and rep["triggered"] == 30
    assert (rep["confirmed"] + rep["undetermined_excluded"] + rep["escapes"]
            == rep["triggered"])
    rep = experiments.trichotomy_check(s, field, s.manifold.identity_point(),
                                       n_seq=4, T=2.0)
    assert rep["consistent"] in (None, True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_spd_pairs_stay_loewner_ordered_under_the_flow(seed):
    # spd_lyapunov's flow is the congruence P -> e^{At} P e^{A^T t}, which
    # preserves the Loewner order: every sampled pair X <= Y stays ordered
    s, c = registry.get_system("spd_lyapunov"), PSDCone(2)
    X, Y = experiments._sample_ordered_pairs(s, c, 300, seed)
    assert np.all(relations(c, X, Y) != INC)
    XT, YT = np.split(flow.states_at(s, np.vstack([X, Y]), [2.5, 5.0]), 2,
                      axis=1)
    assert np.all(relations(c, XT, YT) != INC)


# -------------------------------------------------------------- criterion


def test_criterion_coop2d_triggers_confirmed(coop):
    rep = experiments.convergence_criterion_check(
        coop, ORTHANT2, x_samples=60, T_scan=[0.5, 1.0, 2.0, 5.0], seed=0)
    assert rep["triggered"] == rep["confirmed"] > 0


def test_criterion_trigger_sign_oracle(coop):
    # f(0.1, 0.1) = (-0.1 + tanh(0.25), ...) points into the orthant,
    # so the forward comparison must trigger
    x = np.array([0.1, 0.1])
    assert -0.1 + np.tanh(0.25) > 0.0
    xt = flow.states_at(coop, x[None, :], [0.5])[0, 0]
    assert relations(Orthant(2), x, xt) == STRICT


def test_criterion_metzler_small_T_no_trigger():
    # A (1,1) = (1,-1) is outside both orthants, so tiny horizons cannot
    # trigger from x = (1,1)
    s = registry.get_system("metzler_linear")
    rep = experiments.convergence_criterion_check(
        s, ORTHANT2, x_samples=1, T_scan=[0.05, 0.1], seed=0, box=(1.0, 1.0 + 1e-9))
    assert rep["triggered"] == 0


def test_criterion_equilibrium_sample_trivially_confirmed(coop):
    rep = experiments.convergence_criterion_check(
        coop, ORTHANT2, x_samples=1, T_scan=[1.0], seed=0,
        box=(0.0, 1e-12))  # sample pinned (numerically) at the origin
    assert rep["triggered"] == 1
    assert rep["confirmed"] == 1


def test_criterion_bistable_all_trigger():
    s = registry.get_system("bistable1d")
    rep = experiments.convergence_criterion_check(
        s, ORTHANT1, x_samples=60, T_scan=[0.5, 1.0], seed=0, box=2.0)
    assert rep["triggered"] == 60  # scalar flow: always comparable in time
    assert rep["confirmed"] == 60


def _stub_estimates(monkeypatch, kinds):
    """Make every omega batch return one estimate per kind, cycled; None
    is an escape."""
    def batch(s, X0, T, dt):
        return [None if k is None
                else flow.OmegaEstimate(k, point=x, witnesses=x[None])
                for k, x in zip(itertools.cycle(kinds), X0)]
    monkeypatch.setattr(experiments, "_omega_batch", batch)


def test_criterion_counts_escapes_and_undetermined_apart(monkeypatch):
    s = registry.get_system("bistable1d")  # every sample triggers
    _stub_estimates(monkeypatch, [flow.SINGLETON, None, flow.UNDETERMINED,
                                  flow.NON_SINGLETON])
    rep = experiments.convergence_criterion_check(
        s, ORTHANT1, x_samples=8, T_scan=[0.5], seed=0, box=2.0)
    assert (rep["triggered"], rep["confirmed"], rep["escapes"],
            rep["undetermined_excluded"]) == (8, 2, 2, 2)
    assert [f["estimate"] for f in rep["findings"]] == [flow.NON_SINGLETON] * 2
    assert [f["sample"] for f in rep["findings"]] == [3, 7]


# -------------------------------------------------------------- trichotomy


@pytest.mark.parametrize("kind,consistent", [
    (None, None), (flow.UNDETERMINED, None), (flow.NON_SINGLETON, False)])
def test_trichotomy_undetermined_is_not_inconsistent(monkeypatch, coop, kind,
                                                     consistent):
    # one estimate of the chain (the last, omega(x0)) is not a singleton
    _stub_estimates(monkeypatch, [flow.SINGLETON] * 8 + [kind])
    rep = experiments.trichotomy_check(coop, ORTHANT2, np.array([1.0, 1.0]),
                                       n_seq=8, T=1.0)
    assert rep["branch"] is None and rep["consistent"] is consistent


def test_trichotomy_interior_of_basin(coop):
    rep = experiments.trichotomy_check(coop, ORTHANT2, np.array([1.0, 1.0]),
                                       n_seq=8, T=100.0)
    assert rep["branch"] == 2 and rep["consistent"]


def test_trichotomy_unstable_origin(coop):
    s_star = tanh_fixed_point(2.5)
    rep = experiments.trichotomy_check(coop, ORTHANT2, np.zeros(2),
                                       n_seq=8, T=100.0)
    assert rep["branch"] == 3 and rep["consistent"]
    assert np.allclose(rep["limits"][0], [-s_star, -s_star], atol=1e-6)
    assert np.allclose(rep["limit_x0"], [0.0, 0.0], atol=1e-9)


def test_trichotomy_bistable_origin():
    s = registry.get_system("bistable1d")
    s1 = tanh_fixed_point(2.0)
    rep = experiments.trichotomy_check(s, ORTHANT1, np.array([0.0]),
                                       n_seq=8, T=100.0)
    assert rep["branch"] == 3 and rep["consistent"]
    assert abs(rep["limits"][0][0] + s1) < 1e-6


# ---------------------------------------------------------------- colimit


def test_colimit_coop2d(coop):
    rep = experiments.colimit_check(coop, ORTHANT2, pairs=50, T=100.0, seed=0)
    assert rep["violations"] == 0
    assert 0 < rep["checked_pairs"] < 50  # distinct-limit pairs are excluded


def test_colimit_metzler_all_checked():
    s = registry.get_system("metzler_linear")
    rep = experiments.colimit_check(s, ORTHANT2, pairs=40, T=60.0, seed=0)
    assert rep["violations"] == 0
    assert rep["checked_pairs"] > 0


# ------------------------------------------- pair theorems against per-pair loops


def reference_dichotomy(s, c, ex, ey):
    """The limit-set dichotomy decided pair by pair, one ``relations``
    call per pair."""
    counts = {"violations": 0, "strict_order": 0, "equal_singleton": 0,
              "excluded": 0, "escapes": 0, "mixed": 0}
    findings = []

    def below(x, y):
        return relations(c, x, y) == STRICT

    for i, (a, b) in enumerate(zip(ex, ey)):
        if a is None or b is None:
            counts["escapes"] += 1
        elif flow.UNDETERMINED in (a.kind, b.kind):
            counts["excluded"] += 1
        elif a.kind == b.kind == flow.SINGLETON:
            if np.linalg.norm(a.point - b.point) < experiments.MATCH_TOL:
                counts["equal_singleton"] += 1
            elif below(a.point, b.point):
                counts["strict_order"] += 1
            else:
                findings.append({"kind": "unordered_distinct_limits",
                                 "pair": i, "px": a.point.tolist(),
                                 "py": b.point.tolist()})
        elif a.kind == b.kind:
            counts["mixed"] += 1
            for wa in a.witnesses:
                near = any(np.linalg.norm(wa - wb) < flow.CLUSTER_RADIUS
                           for wb in b.witnesses)
                res = float(np.linalg.norm(s.f(wa)))
                if near and res >= 10.0 * flow.EQ_TOL:
                    findings.append({"kind": "nonequilibrium_intersection",
                                     "pair": i, "point": wa.tolist(),
                                     "residual": res})
                    break
        else:
            counts["mixed"] += 1
            if a.kind == flow.SINGLETON:
                ok = all(below(a.point, w) for w in b.witnesses)
            else:
                ok = all(below(w, b.point) for w in a.witnesses)
            if ok:
                counts["strict_order"] += 1
            else:
                findings.append({"kind": "unordered_mixed_limits", "pair": i})
    counts["violations"] = len(findings)
    return counts, findings


def _single(p):
    return flow.OmegaEstimate(flow.SINGLETON, point=np.array(p, dtype=float))


def _multi(W):
    return flow.OmegaEstimate(flow.NON_SINGLETON,
                              witnesses=np.array(W, dtype=float))


# (x estimate, y estimate) pairs that reach every branch of the dichotomy
CRAFTED_PAIRS = [
    (None, _single([1.0, 1.0])),  # escape
    (_single([0.0, 0.0]), None),
    (flow.OmegaEstimate(flow.UNDETERMINED), _single([1.0, 1.0])),
    (_single([0.5, 0.5]), _single([0.5, 0.5 + 1e-5])),  # equal singletons
    (_single([0.0, 0.0]), _single([1.0, 2.0])),  # strictly ordered
    (_single([0.0, 0.0]), _single([1.0, -1.0])),  # unordered
    (_single([0.0, 0.0]), _single([1.0, 0.0])),  # only weakly ordered
    (_single([0.0, 0.0]), _multi([[1.0, 1.0], [2.0, 0.5]])),  # below all
    (_single([0.0, 0.0]), _multi([[1.0, 1.0], [-1.0, 2.0]])),  # one out
    (_multi([[0.0, 0.0], [-1.0, -2.0]]), _single([1.0, 1.0])),  # above all
    (_multi([[0.0, 0.0], [2.0, 0.5], [-1.0, -1.0]]), _single([1.0, 1.0])),
    # non-singleton pairs: intersecting off, and at, an equilibrium
    (_multi([[1.0, 2.0], [0.5, 0.5]]), _multi([[0.5, 0.5 + 1e-6], [3.0, 3.0]])),
    (_multi([[0.0, 0.0], [1.0, 1.0]]), _multi([[2.0, 2.0], [0.0, 0.0]])),
    (_multi([[0.0, 0.0], [1.0, 1.0]]), _multi([[2.0, 2.0], [3.0, 0.0]])),
    (_single([0.2, 0.1]), _single([0.3, 0.4])),
]


def test_dichotomy_findings_match_the_per_pair_reference(coop, monkeypatch):
    ex, ey = map(list, zip(*CRAFTED_PAIRS))
    monkeypatch.setattr(experiments, "_omega_batch",
                        lambda s, X0, T, dt: ex + ey)
    rep = experiments.dichotomy_check(coop, ORTHANT2, pairs=len(ex), T=1.0)
    counts, findings = reference_dichotomy(coop, Orthant(2), ex, ey)
    assert rep["findings"] == findings
    assert [f["pair"] for f in findings] == [5, 6, 8, 10, 11]
    assert rep["violations"] == counts["violations"] == 5
    assert rep["cases"] == {"strict_order": counts["strict_order"],
                            "equal_singleton": counts["equal_singleton"]}
    assert (rep["undetermined_excluded"], rep["escapes"],
            rep["nonsingleton_or_mixed"]) == (counts["excluded"],
                                              counts["escapes"],
                                              counts["mixed"])
    assert {f["kind"] for f in findings} == {
        "unordered_distinct_limits", "unordered_mixed_limits",
        "nonequilibrium_intersection"}


class _Section(ConstantField):
    """A constant field whose section is a chosen vector."""

    def __init__(self, cone, w):
        super().__init__(cone)
        self.w = np.array(w, dtype=float)

    def section(self, x):
        return self.w


def reference_chain_error(c, x0, w, n_seq):
    xs = [x0 - w / n for n in range(1, n_seq + 1)]
    for i in range(n_seq - 1):
        if relations(c, xs[i], xs[i + 1]) != STRICT:
            return "sequence is not strictly increasing"
    if relations(c, xs[-1], x0) != STRICT:
        return "sequence does not approach x0 from below"
    return None


@pytest.mark.parametrize("dim,x0,w,n_seq,message", [
    (2, [0.0, 0.0], [1.0, 0.0], 8, "is not strictly increasing"),  # boundary
    (2, [0.0, 0.0], [0.0, 0.0], 2, "is not strictly increasing"),
    (2, [1e300, 1e300], [0.5, 0.5], 8, "is not strictly increasing"),
    # 1 - 2^-53 is a double, 1 - 2^-54 rounds back to 1: x_1 < x_2 = x0
    (1, [1.0], [2.0 ** -53], 2, "does not approach x0 from below"),
], ids=["boundary-section", "zero-section", "huge-x0", "rounds-to-x0"])
def test_trichotomy_probe_errors_match_the_per_pair_reference(
        dim, x0, w, n_seq, message):
    s = registry.get_system("coop2d" if dim == 2 else "bistable1d")
    x0 = np.array(x0)
    want = reference_chain_error(Orthant(dim), x0, np.array(w), n_seq)
    assert want == "sequence " + message
    with pytest.raises(ProbeConstructionError, match=want):
        experiments.trichotomy_check(s, _Section(Orthant(dim), w), x0,
                                     n_seq=n_seq, T=1.0)


def reference_branch_flags(c, ps, p0, tol=experiments.MATCH_TOL):
    def eq(a, b):
        return np.linalg.norm(a - b) < tol

    def ll(a, b):
        return (not eq(a, b)) and relations(c, a, b) == STRICT

    b1 = (all(ll(ps[i], ps[i + 1]) for i in range(len(ps) - 1))
          and all(ll(p, p0) for p in ps))
    b2 = all(eq(p, p0) for p in ps)
    b3 = all(eq(p, ps[0]) for p in ps) and ll(ps[0], p0)
    return {"1": b1, "2": b2, "3": b3}


@pytest.mark.parametrize("limits", [
    [[0.0, 0.0], [0.1, 0.2], [0.3, 0.3], [1.0, 1.0]],  # branch 1
    [[1.0, 1.0], [1.0, 1.0 + 1e-4], [1.0, 1.0], [1.0, 1.0]],  # branch 2
    [[-1.0, -1.0], [-1.0, -1.0], [-1.0, -1.0], [0.0, 0.0]],  # branch 3
    [[-1.0, -1.0], [-1.0, -1.0], [-1.0, -1.0], [0.0, -1.0]],  # weak: none
    [[0.0, 0.0], [0.1, 0.2], [0.3, 0.1], [1.0, 1.0]],  # chain breaks
    [[0.0, 0.0], [0.1, 0.2], [0.3, 0.3], [0.2, 1.0]],  # not below p0
    [[0.0, 0.0], [0.1, 0.2], [1.0, 1.0], [1.0, 1.0]],  # equal to p0
])
def test_trichotomy_branch_flags_match_the_per_pair_reference(
        coop, monkeypatch, limits):
    ests = [_single(p) for p in limits]
    monkeypatch.setattr(experiments, "_omega_batch", lambda s, X0, T, dt: ests)
    rep = experiments.trichotomy_check(coop, ORTHANT2, np.zeros(2),
                                       n_seq=len(limits) - 1, T=1.0)
    ps, p0 = [np.array(p) for p in limits[:-1]], np.array(limits[-1])
    flags = reference_branch_flags(Orthant(2), ps, p0)
    assert rep["branch_flags"] == flags
    assert rep["consistent"] == (sum(flags.values()) == 1)
    assert rep["limits"] == limits[:-1] and rep["limit_x0"] == limits[-1]


def reference_basin_scan(s, eqs, transects, classify_T, dt, width_tol=1e-3,
                         snap_radius=0.05, max_rounds=40):
    """The basin scan with one label and one bisection step per row."""
    def label(row):
        if not np.all(np.isfinite(row)):
            return None
        d = [np.linalg.norm(row - e) for e in eqs]
        k = int(np.argmin(d))
        return k if d[k] < snap_radius else None

    def classify(P):
        final = flow.states_at(s, P, [classify_T], dt, on_failure="mask")[0]
        return [label(row) for row in final]

    lo = np.array([a for a, _ in transects], dtype=float)
    hi = np.array([b for _, b in transects], dtype=float)
    la, lb = classify(lo), classify(hi)
    rounds = 0
    widths = np.linalg.norm(hi - lo, axis=1)
    while np.max(widths) > width_tol and rounds < max_rounds:
        mid = 0.5 * (lo + hi)
        lm = classify(mid)
        for i in range(len(transects)):
            if widths[i] <= width_tol:
                continue
            if lm[i] == la[i]:
                lo[i] = mid[i]
            else:
                hi[i] = mid[i]
        widths = np.linalg.norm(hi - lo, axis=1)
        rounds += 1
    return lo, hi, list(zip(la, lb)), rounds


def test_basin_scan_matches_the_per_row_reference(coop):
    s_star, a_star = tanh_fixed_point(2.5), tanh_fixed_point(1.5)
    eqs = [np.array([s_star, s_star]), -np.array([s_star, s_star]),
           np.array([a_star, -a_star]), np.array([-a_star, a_star])]
    # the three lengths need 11, 12 and 13 halvings, so rows finish apart;
    # at T = 8 some midpoints near a boundary have not yet snapped
    pairs = [(np.array([1.0, 1.0]), np.array([1.0, -1.5])),
             (np.array([-2.0, -1.0]), np.array([2.0, 1.0])),
             (np.array([0.5, 0.5]), np.array([-0.5, -0.5]))]
    scan = experiments.basin_boundary_scan(coop, eqs, pairs, classify_T=8.0,
                                           dt=1e-2)
    lo, hi, labels, rounds = reference_basin_scan(coop, eqs, pairs, 8.0, 1e-2)
    assert scan["rounds"] == rounds == 13
    assert [tr["lo"] for tr in scan["transects"]] == lo.tolist()
    assert [tr["hi"] for tr in scan["transects"]] == hi.tolist()
    assert [tr["labels"] for tr in scan["transects"]] == labels


def test_basin_scan_refuses_an_escaping_endpoint():
    # r' = r^2: the origin stays, r = -1 reaches -1/2 at t = 1, and r = 2
    # blows up at t = 1/2
    s = blowup_rotation()
    eqs = [np.zeros(3), np.array([-0.5, 0.0, 0.0])]
    pairs = [(np.zeros(3), np.array([-1.0, 0.0, 0.0])),
             (np.zeros(3), np.array([2.0, 0.0, 0.0]))]
    with pytest.raises(ValueError, match="transect 1 does not straddle"):
        experiments.basin_boundary_scan(s, eqs, pairs, classify_T=1.0,
                                        dt=1e-2)


def test_wilson_interval_ends_are_exact():
    z2 = experiments._Z95 ** 2
    for n in range(1, 1001):
        lo, hi = experiments.wilson_interval(0, n)
        assert lo == 0.0
        assert hi == pytest.approx(z2 / (n + z2), rel=1e-15, abs=0.0)
        lo, hi = experiments.wilson_interval(n, n)
        assert hi == 1.0
        assert lo == pytest.approx(n / (n + z2), rel=1e-15, abs=0.0)
    assert experiments.wilson_interval(0, 0) == (0.0, 1.0)
