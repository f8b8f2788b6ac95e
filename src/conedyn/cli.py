"""Command-line front end: scenario parsing, dispatch, report emission.

Subcommands and the options each reads: ``COMMANDS``.  Reports go to --out
as JSON (stdout by default) and optionally to --csv as flat per-sample
rows.  Exit codes: 0 clean run, 1 positivity violation / property
violations, 2 usage or scenario error, 3 numeric failure or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import experiments, flow, order, pf, positivity, registry, reports
from .conefield import ConeField, ConstantField, parse_field_spec
from .cones import Lorentz, Orthant, finite_number
from .errors import (
    ConeConstructionError,
    ConedynError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    ScenarioError,
    UnsupportedInputError,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_MAX_STEPS = 10_000_000  # T/dt cap; the default plan is 1e5 steps
_ORDER_CONES = {"orthant": Orthant, "lorentz": Lorentz}


@dataclass
class Scenario:
    system: str | None = None
    experiment: str = "converge"
    field: object = None  # token string or field-spec dict; None -> default
    T: float = 100.0
    dt: float = 1e-3
    N: int = 1000
    seed: int = 0
    x0: list | None = None
    out: str | None = None
    csv: str | None = None


def validate_scenario(data: dict) -> Scenario:
    """Build a Scenario from raw dict data, collecting every violation."""
    problems = []
    if not isinstance(data, dict):
        raise ScenarioError(["scenario must be a JSON object"])
    experiment = data.get("experiment", "converge")
    if not isinstance(experiment, str) or experiment not in COMMANDS:
        problems.append(f"experiment: unknown experiment {experiment!r}")
    reads = () if problems else COMMANDS[experiment][1]
    for key in data:
        if key not in Scenario.__dataclass_fields__:
            problems.append(f"{key}: unknown key")
        elif key != "experiment" and reads and key not in reads:
            problems.append(f"{key}: not read by {experiment}")

    system = data.get("system")
    if system is not None and (not isinstance(system, str)
                               or system not in registry.SYSTEMS):
        problems.append(f"system: unknown system {system!r}")
    elif system is None and "system" in reads:
        problems.append("system: required for this experiment")

    def _pos(key, default, kind=float):
        # never coerced: float("nan") would crash the run, int(2.7) truncates
        val = data.get(key, default)
        if not finite_number(val) or (kind is int and not float(val).is_integer()):
            expected = "an integer" if kind is int else "a finite number"
            problems.append(f"{key}: expected {expected}")
            return None
        if val <= 0:
            problems.append(f"{key}: must be positive")
        return kind(val)

    T = _pos("T", 100.0)
    dt = _pos("dt", 1e-3)
    if T is not None and dt is not None and T > 0 and dt > 0:
        if T < dt:
            problems.append("dt: must be <= T")
        elif T / dt > _MAX_STEPS:  # the step plan must stay finite
            problems.append(f"dt: T/dt must be at most {_MAX_STEPS:,} steps")
    N = _pos("N", 1000, int)
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        problems.append("seed: must be a nonnegative integer")

    x0 = data.get("x0")
    if x0 is not None:
        if (not isinstance(x0, list) or not x0
                or not all(finite_number(v) for v in x0)):
            problems.append("x0: must be a nonempty list of finite numbers")
    fld = data.get("field")
    if fld is not None and not isinstance(fld, (str, dict)):
        problems.append("field: must be a token string or a field spec object")
    for key in ("out", "csv"):
        if data.get(key) is not None and not isinstance(data[key], str):
            problems.append(f"{key}: must be a string path")

    if problems:
        raise ScenarioError(problems)
    return Scenario(system=system, experiment=experiment, field=fld,
                    T=T, dt=dt, N=N, seed=seed, x0=x0,
                    out=data.get("out"), csv=data.get("csv"))


def _read_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ScenarioError(
            [f"{path}: JSON parse error at line {e.lineno} col {e.colno}: {e.msg}"])
    except OSError as e:
        raise ScenarioError([f"{path}: {e}"])
    if not isinstance(data, dict):
        raise ScenarioError(["scenario must be a JSON object"])
    return data


def load_scenario(path: str) -> Scenario:
    return validate_scenario(_read_scenario(path))


def save_scenario(s: Scenario, path: str) -> None:
    """Write the keys s's experiment reads, so the file loads back to s."""
    keep = COMMANDS[s.experiment][1] + ("experiment",)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in asdict(s).items()
                   if v is not None and k in keep},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def resolve_field(s: Scenario, system: flow.FlowSystem) -> ConeField:
    spec = s.field
    if spec is None:
        return registry.default_field(system)
    if isinstance(spec, str):
        token = spec.strip()
        if token in ("orthant", "lorentz"):
            spec = {"field": "constant",
                    "cone": {"type": token, "n": system.dim}}
        elif token in ("psd", "homogeneous_spd"):
            spec = {"field": "homogeneous_spd", "n": system.manifold.n}
        elif token.startswith("{"):
            try:
                spec = json.loads(token)
            except json.JSONDecodeError as e:
                raise UnsupportedInputError(
                    f"field: JSON parse error at col {e.colno}: {e.msg}")
        else:
            raise UnsupportedInputError(
                f"unknown field token {token!r}; use orthant|lorentz|psd or JSON")
    # checked before building: a large spec must not allocate first
    manifold, build = parse_field_spec(spec)
    if manifold.kind != system.manifold.kind:
        raise UnsupportedInputError(
            f"field: a cone field on {manifold.kind} space does not fit "
            f"system {system.name!r} on {system.manifold.kind} space")
    if manifold.dim != system.dim:
        raise UnsupportedInputError(
            f"field: dimension {manifold.dim} does not match system "
            f"{system.name!r} of dimension {system.dim}")
    return build()


def resolve_x0(s: Scenario, system: flow.FlowSystem) -> np.ndarray:
    """--x0, or the system's default start, as a point of its manifold."""
    if s.x0 is None:
        return registry.DEFAULT_X0[s.system]
    try:
        return system.manifold.check_point(s.x0)
    except NotPositiveDefiniteError as e:  # off the chart: a usage error
        raise UnsupportedInputError(f"x0: {e}")


# ------------------------------------------------------------------ handlers


def _cmd_list(scen: Scenario):
    lines = ["system          dim  description"]
    for name in sorted(registry.SYSTEMS):
        s = registry.get_system(name)
        lines.append(f"{name:<15} {s.dim:>4}  {registry.DESCRIPTIONS[name]}")
    text = "\n".join(lines) + "\n"
    if scen.out:
        with open(scen.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return None, None, EXIT_OK


def _cmd_check_dp(scen: Scenario, system, field):
    times = sorted({min(t, scen.T) for t in (0.1, 1.0, 5.0)})
    verdict = positivity.check_dp(system, field, x_samples=scen.N,
                                  ray_samples=8, times=times,
                                  seed=scen.seed, dt=scen.dt)
    report = reports.make_report(
        "check_dp", verdict.params, scen.seed,
        counts={"x_samples": scen.N, "ray_samples": 8, "times": len(times)},
        status=verdict.status, worst_margin=verdict.worst_margin,
        boundary_margin=verdict.boundary_margin, witness=verdict.witness)
    code = EXIT_VIOLATION if verdict.status == positivity.VIOLATED else EXIT_OK
    return report, None, code


def _cmd_pf(scen: Scenario, system, field):
    x0 = resolve_x0(scen, system)
    res = pf.pf_direction(system, field, x0, T=scen.T, dt=scen.dt)
    log = res.contraction_log
    report = reports.make_report(
        "pf", {"system": scen.system, "T": scen.T, "dt": scen.dt,
               "x0": x0.tolist()},
        scen.seed, counts={"stored_steps": len(log)},
        status="converged" if res.converged else "not_converged",
        converged=res.converged,
        final_distance=float(log[-1, 1]),
        direction=res.direction.vec.tolist(),
        base_point=res.direction.base.tolist(),
        contraction_log_tail=log[-5:].tolist())
    return report, None, EXIT_OK


def _cmd_converge(scen: Scenario, system, field):
    rep = experiments.generic_convergence(
        system, field, box=3.0, N=scen.N, T=scen.T, seed=scen.seed,
        dt=scen.dt)
    counts = {"total": rep.total, "converged": rep.converged,
              "nonsingleton": rep.nonsingleton,
              "undetermined": rep.undetermined, "escapes": rep.escapes,
              "certified": rep.certified}
    report = reports.make_report(
        "converge",
        {"system": scen.system, "N": scen.N, "T": scen.T, "dt": scen.dt,
         "box": 3.0},
        scen.seed, counts, interval=rep.interval, findings=rep.findings,
        status=rep.dp_status, per_equilibrium=rep.per_equilibrium,
        converged_fraction=rep.converged_fraction)
    ok = rep.dp_status == positivity.SDP and rep.escapes == 0
    return report, rep.samples, EXIT_OK if ok else EXIT_VIOLATION


def _status(violated, undecided) -> str:
    """A violation wins; a run that decided nothing is undetermined."""
    if violated:
        return "violations"
    return "undetermined" if undecided else "ok"


def _cmd_dichotomy(scen: Scenario, system, field):
    rep = experiments.dichotomy_check(system, field, pairs=scen.N, T=scen.T,
                                      seed=scen.seed, dt=scen.dt)
    report = reports.make_report(
        "dichotomy",
        {"system": scen.system, "pairs": scen.N, "T": scen.T, "dt": scen.dt},
        scen.seed,
        counts={"violations": rep["violations"], **rep["cases"],
                "undetermined_excluded": rep["undetermined_excluded"],
                "escapes": rep["escapes"]},
        findings=rep["findings"],
        status=_status(rep["violations"] > 0, rep["undetermined_excluded"]
                       + rep["escapes"] == rep["pairs"]))
    return report, None, EXIT_VIOLATION if rep["violations"] > 0 else EXIT_OK


def _cmd_criterion(scen: Scenario, system, field):
    t_scan = [t for t in (0.5, 1.0, 2.0, 5.0) if t <= scen.T] or [scen.T]
    rep = experiments.convergence_criterion_check(
        system, field, x_samples=scen.N, T_scan=t_scan, seed=scen.seed,
        dt=scen.dt, omega_T=scen.T)
    report = reports.make_report(
        "criterion",
        {"system": scen.system, "x_samples": scen.N, "T_scan": t_scan,
         "omega_T": scen.T, "dt": scen.dt},
        scen.seed,
        counts={"triggered": rep["triggered"], "confirmed": rep["confirmed"],
                "samples": rep["samples"],
                "undetermined_excluded": rep["undetermined_excluded"],
                "escapes": rep["escapes"]},
        findings=rep["findings"],
        status=_status(rep["findings"], rep["triggered"] > 0
                       and rep["confirmed"] == 0))
    return report, None, EXIT_VIOLATION if rep["findings"] else EXIT_OK


def _cmd_trichotomy(scen: Scenario, system, field):
    x0 = resolve_x0(scen, system)
    rep = experiments.trichotomy_check(system, field, x0, n_seq=8,
                                       T=scen.T, dt=scen.dt)
    # undetermined (consistent None) exits 0, as check-dp's inconclusive
    violated = rep["consistent"] is not None and not rep["consistent"]
    report = reports.make_report(
        "trichotomy",
        {"system": scen.system, "x0": x0.tolist(), "n_seq": 8, "T": scen.T,
         "dt": scen.dt},
        scen.seed,
        counts={"branch": rep["branch"] or 0,
                "consistent": int(bool(rep["consistent"]))},
        status=_status(violated, rep["consistent"] is None),
        branch=rep["branch"], detail=rep)
    return report, None, EXIT_VIOLATION if violated else EXIT_OK


def _cmd_order(scen: Scenario):
    token = "orthant" if scen.field is None else scen.field
    if not isinstance(token, str) or token.strip() not in _ORDER_CONES:
        raise UnsupportedInputError(
            "order checks the orthant and lorentz orders on R^2: "
            "--field must be orthant or lorentz")
    cone = _ORDER_CONES[token.strip()](2)
    oracle = order.FlatOrderOracle(cone)
    sequences = min(scen.N, 500)
    qc = order.quasi_closed_probe(oracle, sequences, scen.seed)
    props = order.flat_order_properties(cone, min(scen.N, 1000), scen.seed)
    violations = (qc["violations"] + props["antisymmetry_violations"]
                  + props["transitivity_violations"])
    report = reports.make_report(
        "order", {"cone": cone.name, "sequences": sequences},
        scen.seed,
        counts={"violations": violations,
                "quasi_closed_violations": qc["violations"],
                "antisymmetry_violations": props["antisymmetry_violations"],
                "transitivity_violations": props["transitivity_violations"]},
        status="ok" if violations == 0 else "violations")
    return report, None, EXIT_OK if violations == 0 else EXIT_VIOLATION


def _cmd_causal(scen: Scenario):
    p = np.array([0.0, 0.0])
    region = ((0.0, 2.0), (-2.0, 2.0))
    resolution = 101
    analytic = order.minkowski_future(p, order.CAUSAL, region, resolution)
    reached = order.reachable_grid(ConstantField(Lorentz(2)), p, region,
                                   resolution, 16)
    agreement = reached.agreement(analytic)
    qc = order.quasi_closed_probe(order.MinkowskiOracle(),
                                  min(scen.N, 500), scen.seed)
    pu = order.push_up_probe(1000, scen.seed)
    ci = order.continuity_probe("inner", p, [np.array([-2.0, 0.0])], [0.5])
    co = order.continuity_probe("outer", p, [np.array([0.0, 3.0])], [0.5])
    violations = qc["violations"] + pu["violations"]
    if agreement < 0.99:
        violations += 1
    if ci["max_delta_passing"] is None or co["max_delta_passing"] is None:
        violations += 1
    report = reports.make_report(
        "causal",
        {"region": [list(region[0]), list(region[1])],
         "resolution": resolution, "directions": 16},
        scen.seed,
        counts={"violations": violations,
                "quasi_closed_violations": qc["violations"],
                "push_up_violations": pu["violations"]},
        status="ok" if violations == 0 else "violations",
        agreement=agreement,
        continuity={"inner": ci, "outer": co})
    return report, None, EXIT_OK if violations == 0 else EXIT_VIOLATION


# ------------------------------------------------------------------ options


def _floats(text: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated floats")


# option -> (flag, type, help); every option but --scenario sets the
# scenario key of its name
OPTIONS = {
    "scenario": ("--scenario", None, "JSON scenario file"),
    "system": ("--system", None, "registry system key"),
    "field": ("--field", None, "cone field: orthant|lorentz|psd or JSON spec"),
    "seed": ("--seed", int, "base seed (default 0)"),
    "N": ("--n", int, "sample/pair count (default 1000)"),
    "T": ("--T", float, "horizon (default 100)"),
    "dt": ("--dt", float, "RK4 step (default 1e-3)"),
    "x0": ("--x0", _floats, "comma-separated start point"),
    "out": ("--out", None, "JSON report path (default stdout)"),
    "csv": ("--csv", None, "per-sample CSV path"),
}
_SAMPLED = ("scenario", "system", "field", "seed", "N", "T", "dt", "out")
_ORBIT = ("scenario", "system", "field", "seed", "T", "dt", "x0", "out")
# command -> (handler, the options it reads); a command refuses every other
# option, on the command line and as a scenario key
COMMANDS = {
    "check-dp": (_cmd_check_dp, _SAMPLED),
    "pf": (_cmd_pf, _ORBIT),
    "converge": (_cmd_converge, _SAMPLED + ("csv",)),
    "dichotomy": (_cmd_dichotomy, _SAMPLED),
    "trichotomy": (_cmd_trichotomy, _ORBIT),
    "criterion": (_cmd_criterion, _SAMPLED),
    "order": (_cmd_order, ("scenario", "field", "seed", "N", "out")),
    "causal": (_cmd_causal, ("scenario", "seed", "N", "out")),
    "list": (_cmd_list, ("out",)),
}


# ------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, not argparse's usage block
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conedyn",
        description="cone fields, positive flows, and conal-order checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads) in COMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} task")
        for key in reads:
            flag, kind, text = OPTIONS[key]
            if (name, key) == ("order", "field"):  # order runs two cones
                text = (f"cone order on R^2: {'|'.join(_ORDER_CONES)} "
                        "(default orthant)")
            p.add_argument(flag, dest=key, type=kind, help=text)
    return parser


def _scenario_from_args(args) -> Scenario:
    given = {k: v for k, v in vars(args).items() if v is not None}
    command, path = given.pop("command"), given.pop("scenario", None)
    data = _read_scenario(path) if path else {}
    if data.get("experiment", command) != command:
        raise ScenarioError(
            [f"experiment: the file is for {data['experiment']!r}, not {command}"])
    return validate_scenario({**data, **given, "experiment": command})


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        scen = _scenario_from_args(args)
    except ScenarioError as e:
        print("scenario error:", file=sys.stderr)
        for problem in e.problems:
            print(f"  {problem}", file=sys.stderr)
        return EXIT_USAGE

    try:
        handler, reads = COMMANDS[args.command]
        system = registry.get_system(scen.system) if "system" in reads else None
        given = () if system is None else (system, resolve_field(scen, system))
        report, rows, code = handler(scen, *given)
        if report is not None:
            report["exit_code"] = code
            reports.validate_report(report)
            reports.write_json(report, scen.out)
        if rows is not None and scen.csv:
            reports.sample_rows_to_csv(rows, scen.csv)
    except (ScenarioError, UnsupportedInputError, DimensionMismatchError,
            ConeConstructionError,  # raised only by cone constructors
            OSError) as e:  # OSError: an --out/--csv path cannot be written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ConedynError, np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as e:  # a crash must never read as a violation (1)
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
