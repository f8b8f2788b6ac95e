"""Outcome oracles: what each command's report must say, for any seed.

They compare verdicts and counts, never bytes, so a change that moves
limit digits within the program's equilibrium tolerance still passes.
Each oracle returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

COOP2D_A = np.array([[2.0, 0.5], [0.5, 2.0]])
EQ_RESIDUAL = 1e-9  # |f| at every reported coop2d equilibrium
CONVERGED_MIN = 0.99  # generic convergence: share of samples that settle
PF_TWIN_TOL = 1e-9  # the orthant and its polyhedral twin are one set
CAUSAL_AGREEMENT_MIN = 0.99
OUTCOMES = (("converged", "converged"), ("non_singleton", "nonsingleton"),
            ("undetermined", "undetermined"), ("escape", "escapes"))


def coop2d_f(x) -> np.ndarray:
    """coop2d's vector field -x + tanh(Ax), written out independently."""
    x = np.asarray(x, dtype=float)
    return -x + np.tanh(COOP2D_A @ x)


def _counts(report, n, problems) -> dict:
    counts = report.get("counts") or {}
    keys = [key for _, key in OUTCOMES]
    missing = [k for k in ["total"] + keys if not isinstance(counts.get(k), int)]
    if missing:
        problems.append(f"counts missing {missing}")
        return {}
    if counts["total"] != n or sum(counts[k] for k in keys) != n:
        problems.append(f"counts do not add up to N={n}: {counts}")
    return counts


def _status(report, want, problems) -> None:
    if report.get("status") != want:
        problems.append(f"status {report.get('status')!r}, want {want!r}")


def _converge_coop2d(cmd, report, ctx, problems):
    n = int(cmd.option("--n", 1000))
    _status(report, "SDP", problems)
    counts = _counts(report, n, problems)
    if counts:
        if counts["escapes"]:
            problems.append(f"{counts['escapes']} escapes")
        if counts["converged"] < CONVERGED_MIN * n:
            problems.append(f"only {counts['converged']}/{n} converged")
    per_eq = report.get("per_equilibrium") or []
    if counts and sum(e.get("count", 0) for e in per_eq) != counts["converged"]:
        problems.append("per_equilibrium counts do not sum to converged")
    for e in per_eq:
        res = float(np.linalg.norm(coop2d_f(e["point"])))
        if not res < EQ_RESIDUAL:
            problems.append(f"equilibrium {e['point']} has |f| = {res:.3e}")
    csv_text = ctx.get("csv")
    if csv_text is None:
        problems.append("no CSV written")
    elif counts:
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        tally = {key: sum(r["outcome"] == out for r in rows)
                 for out, key in OUTCOMES}
        if len(rows) != n or any(tally[k] != counts[k] for k in tally):
            problems.append(f"CSV outcomes {tally} disagree with counts")


def _converge_unsettled(status, escapes_allowed):
    def oracle(cmd, report, ctx, problems):
        _status(report, status, problems)
        counts = _counts(report, int(cmd.option("--n", 1000)), problems)
        if counts and not escapes_allowed and counts["escapes"]:
            problems.append(f"{counts['escapes']} escapes")
    return oracle


def _check_dp(status):
    def oracle(cmd, report, ctx, problems):
        _status(report, status, problems)
        n = int(cmd.option("--n", 1000))
        if (report.get("counts") or {}).get("x_samples") != n:
            problems.append(f"x_samples != {n}")
    return oracle


def _pf_distance(report, problems):
    d = report.get("final_distance")
    if not isinstance(d, (int, float)) or not math.isfinite(d) or d < 0:
        problems.append(f"final_distance {d!r} is not a finite distance")
        return None
    return float(d)


def _pf_orthant(cmd, report, ctx, problems):
    _pf_distance(report, problems)


def _pf_polyhedral(cmd, report, ctx, problems):
    d = _pf_distance(report, problems)
    twin = (ctx.get("reports") or {}).get("pf.orthant")
    if twin is None:
        problems.append("no pf.orthant report to compare with")
    elif d is not None:
        d0 = twin.get("final_distance")
        if not isinstance(d0, (int, float)) or not abs(d - d0) <= PF_TWIN_TOL:
            problems.append(f"polyhedral distance {d!r} != orthant {d0!r} "
                            f"within {PF_TWIN_TOL}")


def _no_violations(report, problems):
    counts = report.get("counts") or {}
    if counts.get("violations") != 0 or any(
            v != 0 for k, v in counts.items() if k.endswith("violations")):
        problems.append(f"violations: {counts}")
    _status(report, "ok", problems)


def _order(cmd, report, ctx, problems):
    _no_violations(report, problems)


def _causal(cmd, report, ctx, problems):
    _no_violations(report, problems)
    agreement = report.get("agreement")
    if not isinstance(agreement, (int, float)) or not (
            agreement >= CAUSAL_AGREEMENT_MIN):
        problems.append(f"grid agreement {agreement!r} < "
                        f"{CAUSAL_AGREEMENT_MIN}")


# name -> (expected exit code, oracle)
ORACLES = {
    "converge.coop2d": (0, _converge_coop2d),
    "converge.rotation2d": (1, _converge_unsettled("violated", True)),
    "converge.spd_lyapunov": (1, _converge_unsettled("DP", False)),
    "check_dp.spd_lyapunov": (0, _check_dp("DP")),
    "check_dp.coop2d": (0, _check_dp("SDP")),
    "pf.orthant": (0, _pf_orthant),
    "pf.polyhedral": (0, _pf_polyhedral),
    "order": (0, _order),
    "causal": (0, _causal),
}


def check(cmd, code, error, report, ctx=None) -> list:
    """Problems with one command's outcome; [] when it passes.

    ``code`` is the exit code (None if the command raised, with
    ``error`` its traceback), ``report`` the parsed JSON report or None,
    and ``ctx`` holds ``csv`` (the CSV text, if any) and ``reports`` (the
    other reports of the same pass, by command name).
    """
    ctx = ctx or {}
    if error is not None or code is None:
        return [f"raised: {(error or '').strip().splitlines()[-1:]}"]
    want, oracle = ORACLES[cmd.name]
    problems = []
    if code != want:
        problems.append(f"exit code {code}, want {want}")
    if report is None:
        return problems + ["no report"]
    if report.get("exit_code") != code:
        problems.append(f"report exit_code {report.get('exit_code')} != {code}")
    oracle(cmd, report, ctx, problems)
    return problems
