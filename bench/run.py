"""conedyn benchmark: time to verdict of CLI workloads, with a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Each pass runs the workload's
commands (see ``workloads.py``) back to back through ``conedyn.cli.run``
in one fresh worker process, serial: ``CONEDYN_THREADS`` is unset and the
BLAS pools are pinned to one thread.  The seed reaches the program only as
the commands' ``--seed``.  Reports go to a scratch directory under
``.bench_tmp/`` that is removed at the end.

Both modes run untraced passes: at least two, and another only while it
would end within ``--seconds``.  ``--trace 0`` also starts ``SETUP_BATCH``
fresh interpreters that import conedyn and build every registry system
before each pass and after the last; ``setup_s`` is their median, so it
samples the machine over the whole run.  It reports the median pass wall
time and peak RSS.  ``--trace 1`` adds one traced pass and reports the
per-layer metrics of ``spans.layer_metrics`` (net of the calibrated
tracing cost) and, per command, the median time to verdict over the
untraced passes (``cmd_s.*``).

Every command's report is checked by its oracle (``oracles.py``), and
every pass's report bytes must equal the first pass's, traced or not.  A
command that fails either check, raises, or exits with an unexpected code
counts in ``failed``.  The last line of stdout is the JSON result; the
lines before it give every figure with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import TIMED, WORKLOADS  # noqa: E402

SETUP_BATCH = 5  # set-up probes before each pass and after the last
MIN_PASSES = 2  # the determinism check compares passes
RUN_LIMIT_S = 160  # no run outlives this, whatever the program does


class BenchError(Exception):
    """The benchmark itself could not measure (not a program verdict)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CONEDYN_THREADS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def left(deadline: float) -> float:
    """Seconds to ``deadline`` (a perf_counter reading), at least one."""
    return max(1.0, deadline - time.perf_counter())


def measure_setup(samples: int, deadline: float) -> list:
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT / "src")],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=left(deadline))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr[-2000:]}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def run_pass(commands, seed: int, tmp: Path, pass_id: int, trace: bool,
             deadline: float) -> dict:
    """One pass in a fresh worker; returns its result plus the reports."""
    pdir = tmp / f"pass{pass_id}"
    pdir.mkdir()
    spec = {"src": str(ROOT / "src"), "trace": trace, "pass_id": pass_id,
            "commands": [c.argv(seed, str(pdir)) for c in commands]}
    spec_path, result_path = pdir / "spec.json", pdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path),
         str(result_path)],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=left(deadline))
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"pass {pass_id} worker exited {proc.returncode}: "
                         f"{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["elapsed"] = elapsed
    result["reports"], result["csv"], result["digests"] = {}, {}, {}
    for c in commands:
        digest = hashlib.sha256()
        report = None
        path = pdir / f"{c.name}.json"
        if path.exists():
            raw = path.read_bytes()
            digest.update(raw)
            try:
                report = json.loads(raw)
            except ValueError:
                pass  # an unreadable report fails its oracle
        csv_path = pdir / f"{c.name}.csv"
        if csv_path.exists():
            raw = csv_path.read_bytes()
            digest.update(raw)
            result["csv"][c.name] = raw.decode("utf-8")
        result["reports"][c.name] = report
        result["digests"][c.name] = digest.hexdigest()
    return result


def judge(commands, passes) -> tuple:
    """(attempted, failed, problems) over every command of every pass."""
    attempted = failed = 0
    problems = []
    first = passes[0]
    for k, p in enumerate(passes):
        for i, c in enumerate(commands):
            r = p["commands"][i]
            found = oracles.check(
                c, r["code"], r["error"], p["reports"][c.name],
                {"csv": p["csv"].get(c.name), "reports": p["reports"]})
            if k > 0 and p["digests"][c.name] != first["digests"][c.name]:
                found.append("report bytes differ from pass 0")
            attempted += 1
            if found:
                failed += 1
                problems.append(f"pass {k} {c.name}: {'; '.join(found)}")
    return attempted, failed, problems


def untraced_passes(commands, seed, seconds, tmp, deadline,
                    before_each=lambda: None) -> list:
    """At least MIN_PASSES passes; another only while it ends in time."""
    passes = []
    t_start = time.perf_counter()
    while True:
        before_each()
        passes.append(run_pass(commands, seed, tmp, len(passes), False,
                               deadline))
        ends_at = time.perf_counter() - t_start + passes[-1]["elapsed"]
        # another pass like the last must leave room before the deadline
        if len(passes) >= MIN_PASSES and ends_at > min(seconds,
                                                       RUN_LIMIT_S / 2):
            return passes


def timed_run(commands, seed, seconds, tmp) -> tuple:
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup = []
    passes = untraced_passes(
        commands, seed, seconds, tmp, deadline,
        lambda: setup.extend(measure_setup(SETUP_BATCH, deadline)))
    setup += measure_setup(SETUP_BATCH, deadline)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    samples = {"setup_s": len(setup), "wall_s": len(passes),
               "peak_rss_mb": len(passes)}
    return values, samples, passes


def traced_run(commands, seed, seconds, tmp) -> tuple:
    deadline = time.perf_counter() + RUN_LIMIT_S
    passes = untraced_passes(commands, seed, seconds, tmp, deadline)
    traced = run_pass(commands, seed, tmp, len(passes), True, deadline)
    values = spans.layer_metrics(spans.Trace.load(traced["spans"]),
                                 traced["wall_s"])
    samples = {name: 1 for name in values}
    for name in TIMED:
        i = next((i for i, c in enumerate(commands) if c.name == name), None)
        values[f"cmd_s.{name}"] = 0.0 if i is None else statistics.median(
            p["commands"][i]["seconds"] for p in passes)
        samples[f"cmd_s.{name}"] = 0 if i is None else len(passes)
    return values, samples, passes + [traced]


def declared_metrics() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: figures, their sample counts and the verdicts."""
    commands = WORKLOADS[workload]
    seed %= 2**32  # the CLI takes a nonnegative seed
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        if trace:
            values, samples, passes = traced_run(commands, seed, seconds,
                                                 tmp)
        else:
            values, samples, passes = timed_run(commands, seed, seconds, tmp)
        attempted, failed, problems = judge(commands, passes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there
    return {"values": values, "samples": samples, "attempted": attempted,
            "failed": failed, "problems": problems}


def show(run: dict, units: dict) -> None:
    """Print every figure with its unit and sample count."""
    values, samples = run["values"], run["samples"]
    for name in sorted(values):
        print(f"{name:32s} {values[name]:>16.6g} {units.get(name, ''):6s}"
              f" (n={samples[name]})")
    print(f"{'failed_frac':32s} {run['failed'] / run['attempted']:>16.6g}"
          f"        ({run['failed']}/{run['attempted']} commands)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "conedyn" / "__init__.py").is_file():
        print(f"no conedyn source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = declared_metrics()
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1

    for line in run["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    show(run, {m["name"]: m["unit"]
               for m in spec["end_to_end"] + spec["per_layer"]})
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in run["values"]]
    if missing:
        print(f"benchmark error: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run["failed"] == 0, "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["values"][m["name"]],
                                "unit": m["unit"]} for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
