"""Tests of the benchmark itself: span arithmetic, oracles, tracer hygiene.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import copy
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import TIMED, WORKLOADS  # noqa: E402

COMMANDS = {c.name: c for cmds in WORKLOADS.values() for c in cmds}


def _trace(rows, names, inner=None, outer=None):
    """Trace from (name, start, end, parent, count) rows."""
    ids = {n: i for i, n in enumerate(names)}
    return spans.Trace(
        list(names),
        np.array([ids[r[0]] for r in rows], dtype=np.int32),
        np.array([r[1] for r in rows], dtype=float),
        np.array([r[2] for r in rows], dtype=float),
        np.array([r[3] for r in rows], dtype=np.int32),
        np.array([r[4] for r in rows], dtype=np.int64),
        inner, outer)


# --------------------------------------------------------- span arithmetic


def test_self_time_subtracts_direct_children_only():
    # A[0,10] > B[1,4] > C[2,3];  A > D[5,9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    np.testing.assert_allclose(spans.self_times(start, end, parent),
                               [3.0, 2.0, 1.0, 4.0])


def test_outermost_skips_nested_calls_of_the_same_kind():
    mask = [False, True, True, False, True]
    parent = [-1, 0, 1, 2, -1]
    assert spans.outermost(mask, parent).tolist() == [
        False, True, False, False, True]


def test_layer_metrics_partition_the_pass_and_count_work():
    names = ["cli.run", "experiments.generic_convergence",
             "flow.ensemble_tails", "registry.f", "flow.classify_tail",
             "registry.jac", "pf.propagate_ray_pairs",
             "cones.hilbert_distance.polyhedral", "cones.margin.polyhedral",
             "cones.margin.orthant", "positivity.check_dp"]
    rows = [
        ("cli.run", 0.0, 10.0, -1, 0),                          # 0
        ("experiments.generic_convergence", 0.5, 6.0, 0, 0),    # 1
        ("flow.ensemble_tails", 1.0, 4.0, 1, 0),                # 2
        ("registry.f", 1.5, 2.0, 2, 100),                       # 3
        ("registry.f", 2.5, 3.0, 2, 100),                       # 4
        ("flow.classify_tail", 4.0, 5.0, 1, 0),                 # 5
        ("registry.jac", 4.2, 4.4, 5, 1),                       # 6
        ("pf.propagate_ray_pairs", 6.0, 9.0, 0, 7),             # 7
        ("cones.hilbert_distance.polyhedral", 6.5, 8.0, 7, 0),  # 8
        ("cones.margin.polyhedral", 7.0, 7.5, 8, 0),            # 9
        ("cones.margin.orthant", 8.0, 8.25, 7, 0),              # 10
        ("positivity.check_dp", 9.0, 9.5, 0, 48),               # 11
    ]
    m = spans.layer_metrics(_trace(rows, names), wall_s=10.5)

    parts = sum(m[k] for k in spans.MODULE_SELF.values())
    assert m["trace.bookkeeping_s"] == 0.0 and m["trace.overhead_frac"] == 0.0
    assert parts + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(10.0 - 5.5 - 3.0 - 0.5)
    assert m["flow.step_self_s"] == pytest.approx(3.0 - 1.0)
    assert m["flow.classify_s"] == pytest.approx(1.0)  # inclusive of jac
    assert m["flow.self_s"] == pytest.approx(2.0 + 0.8)
    assert m["registry.f_rows"] == 200 and m["registry.jac_rows"] == 1
    assert m["registry.self_s"] == pytest.approx(1.2)
    # 200 f rows in the step = 50 row-steps over 2 s of stepping self time
    assert m["flow.row_step_ns"] == pytest.approx(2.0 / 50 * 1e9)
    # the margin inside the Hilbert distance belongs to the distance
    assert m["cones.hilbert_calls.polyhedral"] == 1
    assert m["cones.hilbert_s.polyhedral"] == pytest.approx(1.5)
    assert m["cones.margin_calls.polyhedral"] == 0
    assert m["cones.margin_calls.orthant"] == 1
    assert m["cones.margin_s.orthant"] == pytest.approx(0.25)
    assert m["cones.self_s"] == pytest.approx(1.0 + 0.5 + 0.25)
    assert m["pf.records"] == 7 and m["positivity.ray_checks"] == 48
    assert m["pf.self_s"] == pytest.approx(3.0 - 1.5 - 0.25)


def test_calibrated_tracing_cost_is_charged_to_the_tracer_not_the_caller():
    names = ["cli.run", "flow.integrate", "registry.f"]
    inner, outer = [0.1, 0.2, 0.05], [0.3, 0.4, 0.25]  # per span, by name
    rows = [
        ("cli.run", 0.0, 10.0, -1, 0),          # 0
        ("flow.integrate", 1.0, 6.0, 0, 0),     # 1
        ("registry.f", 2.0, 3.0, 1, 4),         # 2
        ("registry.f", 4.0, 5.0, 1, 4),         # 3
    ]
    tr = _trace(rows, names, inner, outer)
    own = spans.self_times(tr.start, tr.end, tr.parent,
                           tr.inner[tr.name_id], tr.outer[tr.name_id])
    # self less own inner cost and each direct child's outer cost
    np.testing.assert_allclose(own, [10 - 5 - 0.1 - 0.4,
                                     5 - 2 - 0.2 - 2 * 0.25,
                                     1 - 0.05, 1 - 0.05])
    # inclusive durations less every cost inside the window
    np.testing.assert_allclose(spans.subtree_sums(own, tr.parent)[:2],
                               [10 - 0.1 - 0.4 - 0.2 - 2 * 0.3,
                                5 - 0.2 - 2 * 0.3])

    m = spans.layer_metrics(tr, wall_s=11.0)
    assert m["trace.bookkeeping_s"] == pytest.approx(0.4 + 1.2)
    assert m["trace.span_cost_ns"] == pytest.approx(1.6 / 4 * 1e9)
    assert m["trace.overhead_frac"] == pytest.approx(1.6 / (11.0 - 1.6))
    # the top-level span's outer cost is outside every span
    assert m["trace.unattributed_s"] == pytest.approx(11.0 - 10.0 - 0.3)
    parts = sum(m[k] for k in spans.MODULE_SELF.values())
    assert parts + m["trace.bookkeeping_s"] + m["trace.unattributed_s"] == (
        pytest.approx(11.0))
    assert m["registry.f_s"] == pytest.approx(1.9)
    assert m["flow.step_self_s"] == pytest.approx(2.3)
    assert m["flow.row_step_ns"] == pytest.approx(2.3 / 2 * 1e9)


def test_a_span_outside_the_covered_modules_is_an_error():
    tr = _trace([("demos.run", 0.0, 1.0, -1, 0)], ["demos.run"])
    with pytest.raises(ValueError, match="demos"):
        spans.layer_metrics(tr, wall_s=1.0)


def test_calibration_prices_every_wrapper_kind():
    tracer = spans.Tracer()
    tracer.calibrate()
    assert set(tracer.cost) == set(spans.KINDS)
    for kind, (inner, outer) in tracer.cost.items():
        assert inner >= 0 and outer >= 0, kind
        assert 0 < inner + outer < 1e-4, kind  # well under 100 us a span
    assert tracer.trace().names == []  # calibration records no spans


def test_trace_round_trips_through_a_file(tmp_path):
    tr = _trace([("cli.run", 0.0, 1.0, -1, 3)], ["cli.run"], [1e-7], [2e-7])
    tr.pass_id = 4
    tr.save(tmp_path / "t.npz")
    back = spans.Trace.load(tmp_path / "t.npz")
    assert back.names == ["cli.run"] and back.pass_id == 4
    assert back.count.tolist() == [3] and back.end.tolist() == [1.0]
    assert back.inner.tolist() == [1e-7] and back.outer.tolist() == [2e-7]


# ---------------------------------------------------------------- oracles


def _tanh_root(gain):
    lo, hi = 0.5, 1.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - np.tanh(gain * mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _good_reports():
    u, v = _tanh_root(2.5), _tanh_root(1.5)
    eq = [[u, u], [-u, -u], [v, -v], [-v, v]]
    counts = {"total": 1000, "converged": 1000, "nonsingleton": 0,
              "undetermined": 0, "escapes": 0}
    csv_text = "index,x0_0,x0_1,outcome,limit_0,limit_1,residual\n" + "".join(
        f"{i},0,0,converged,0,0,0\n" for i in range(1000))
    return {
        "converge.coop2d": (0, {
            "exit_code": 0, "status": "SDP", "counts": dict(counts),
            "per_equilibrium": [{"point": p, "count": 250} for p in eq]},
            csv_text),
        "converge.rotation2d": (1, {
            "exit_code": 1, "status": "violated",
            "counts": dict(counts, converged=0, nonsingleton=1000)}, None),
        "converge.spd_lyapunov": (1, {
            "exit_code": 1, "status": "DP",
            "counts": dict(counts, converged=0, undetermined=1000)}, None),
        "check_dp.spd_lyapunov": (0, {
            "exit_code": 0, "status": "DP", "counts": {"x_samples": 400}},
            None),
        "check_dp.coop2d": (0, {
            "exit_code": 0, "status": "SDP", "counts": {"x_samples": 1000}},
            None),
        "pf.orthant": (0, {"exit_code": 0, "final_distance": 0.2808163156},
                       None),
        "pf.polyhedral": (0, {"exit_code": 0,
                              "final_distance": 0.2808163156 + 9e-13}, None),
        "order": (0, {"exit_code": 0, "status": "ok", "counts": {
            "violations": 0, "quasi_closed_violations": 0}}, None),
        "causal": (0, {"exit_code": 0, "status": "ok", "agreement": 1.0,
                       "counts": {"violations": 0}}, None),
    }


def _check(name, code, report, csv_text=None, error=None):
    good = _good_reports()
    reports = {k: r for k, (_, r, _) in good.items()}
    return oracles.check(COMMANDS[name], code, error, report,
                         {"csv": csv_text, "reports": reports})


def test_every_command_has_an_oracle_that_accepts_a_sound_report():
    good = _good_reports()
    assert set(good) == set(oracles.ORACLES) == set(COMMANDS)
    for name, (code, report, csv_text) in good.items():
        assert _check(name, code, report, csv_text) == [], name


_DROP = object()


def _set(path, value):
    """A doctoring step: set (or drop) the report entry at ``path``."""
    def mutate(report):
        *head, last = path
        for key in head:
            report = report[key]
        if value is _DROP:
            del report[last]
        else:
            report[last] = value
    return mutate


U = _tanh_root(2.5)
DOCTORED = {  # case -> (command, exit code, doctoring steps)
    "converge exits 1 with missing counts": (
        "converge.coop2d", 1,
        [_set(["exit_code"], 1), _set(["counts", "escapes"], _DROP)]),
    "converge equilibrium off by 1e-6": (
        "converge.coop2d", 0,
        [_set(["per_equilibrium", 0, "point"], [U + 1e-6, U])]),
    "converge under 99% converged": (
        "converge.coop2d", 0,
        [_set(["counts", "converged"], 980),
         _set(["counts", "undetermined"], 20)]),
    "rotation counts short of N": (
        "converge.rotation2d", 1, [_set(["counts", "nonsingleton"], 999)]),
    "spd escapes at T=5": (
        "converge.spd_lyapunov", 1,
        [_set(["counts", "undetermined"], 999), _set(["counts", "escapes"], 1)]),
    "check-dp spd claims SDP": (
        "check_dp.spd_lyapunov", 0, [_set(["status"], "SDP")]),
    "check-dp coop2d violated": (
        "check_dp.coop2d", 1,
        [_set(["status"], "violated"), _set(["exit_code"], 1)]),
    "pf orthant distance missing": (
        "pf.orthant", 0, [_set(["final_distance"], None)]),
    "polyhedral pf off by 1e-6": (
        "pf.polyhedral", 0, [_set(["final_distance"], 0.2808163156 + 1e-6)]),
    "order with a violation": (
        "order", 0,
        [_set(["counts", "violations"], 1),
         _set(["counts", "quasi_closed_violations"], 1)]),
    "causal grid agreement 0.98": (
        "causal", 0, [_set(["agreement"], 0.98)]),
    "exit 3 on a numeric failure": ("pf.orthant", 3, []),
}


@pytest.mark.parametrize("case", sorted(DOCTORED))
def test_each_oracle_rejects_a_doctored_report(case):
    name, code, steps = DOCTORED[case]
    _, report, csv_text = copy.deepcopy(_good_reports()[name])
    for step in steps:
        step(report)
    assert _check(name, code, report, csv_text) != []


def test_a_traceback_or_a_missing_report_fails():
    assert _check("order", None, None, error="Traceback...\nValueError: x")
    assert _check("order", 0, None)


def test_csv_outcomes_must_match_the_counts():
    code, report, csv_text = _good_reports()["converge.coop2d"]
    doctored = csv_text.replace("converged", "undetermined", 1)
    assert _check("converge.coop2d", code, report, doctored)
    assert _check("converge.coop2d", code, report, None)


# ------------------------------------------------------------------ tracer


def _public_attributes(package):
    """Every object install() may replace, keyed by its owner and name."""
    out = {}
    for owner in [getattr(package, m) for m in spans.MODULES] + [package]:
        for attr, obj in vars(owner).items():
            if attr.startswith("_"):
                continue
            out[(owner.__name__, attr)] = obj
            if inspect.isclass(obj):
                for a, o in vars(obj).items():
                    out[(f"{owner.__name__}.{attr}", a)] = o
    return out


def test_traced_run_records_spans_and_restores_every_original(tmp_path):
    import conedyn
    from conedyn import cli

    before = _public_attributes(conedyn)
    argv = ["check-dp", "--system", "coop2d", "--n", "4", "--T", "0.2"]
    assert cli.run(argv + ["--out", str(tmp_path / "plain.json")]) == 0

    tracer = spans.Tracer(pass_id=1)
    tracer.install(conedyn)
    try:
        assert cli.run is not before[("conedyn.cli", "run")]
        # a function imported by name is wrapped where it was imported too
        original = before[("conedyn.geometry", "metric_norm")]
        assert conedyn.pf.metric_norm is conedyn.geometry.metric_norm
        assert conedyn.pf.metric_norm is not original
        assert cli.run(argv + ["--out", str(tmp_path / "traced.json")]) == 0
    finally:
        tracer.uninstall()

    after = _public_attributes(conedyn)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert ((tmp_path / "plain.json").read_bytes()
            == (tmp_path / "traced.json").read_bytes())

    m = spans.layer_metrics(tracer.trace(), wall_s=1e9)
    # 4 samples x 8 rays x 2 times, and RK4 stepping of 4 rows to t=0.2
    assert m["positivity.ray_checks"] == 64
    assert m["cones.margin_calls.orthant"] >= 64
    assert m["registry.f_rows"] == m["registry.jac_rows"] == 4 * 4 * 200
    assert m["flow.row_step_ns"] > 0
    assert m["trace.bookkeeping_s"] > 0
    assert tracer.trace().pass_id == 1


def test_peak_rss_is_the_worker_s_own_not_its_parent_s():
    ballast = np.ones(100 * 2**20 // 8)  # 100 MiB held while spawning
    code = "import worker; print(worker.peak_rss_mb())"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                         capture_output=True, text=True, timeout=60)
    assert ballast.sum() > 0
    assert 0 < float(out.stdout) < 100


# ------------------------------------------------------------ the contract


def test_benchmark_json_names_what_the_benchmark_measures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "wall_s", "peak_rss_mb"} == {
        m["name"] for m in spec["end_to_end"]}
    traced = set(spans.layer_metrics(_trace([], []), 1.0))
    traced |= {f"cmd_s.{n}" for n in TIMED}
    assert {m["name"] for m in spec["per_layer"]} == traced


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orbit_cones",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
