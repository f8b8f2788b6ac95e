"""The benchmark's workloads: which CLI commands one pass runs.

A pass runs its workload's commands back to back through
``conedyn.cli.run(argv)`` in one fresh worker process.  Every command gets
the benchmark's seed as ``--seed`` and writes its report to a scratch
directory with ``--out`` (and ``--csv`` where stated), so the oracles and
the determinism check can read them back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# The orthant's polyhedral twin: generators = facet normals = I_2.  It is
# the same set as the orthant, so pf must reach the same Hilbert distance;
# only the metric's algorithm differs (closed form vs bisection).
POLYHEDRAL_ORTHANT = json.dumps(
    {"field": "constant",
     "cone": {"type": "polyhedral",
              "generators": [[1.0, 0.0], [0.0, 1.0]],
              "facet_normals": [[1.0, 0.0], [0.0, 1.0]]}},
    separators=(",", ":"), sort_keys=True)


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``name`` keys its oracle and its cmd_s metric."""

    name: str
    args: tuple
    csv: bool = False

    def argv(self, seed: int, outdir: str) -> list:
        argv = list(self.args) + ["--seed", str(seed),
                                  "--out", f"{outdir}/{self.name}.json"]
        if self.csv:
            argv += ["--csv", f"{outdir}/{self.name}.csv"]
        return argv

    def option(self, flag: str, default=None):
        """Value of a CLI option in this command, as given (a string)."""
        if flag in self.args:
            return self.args[self.args.index(flag) + 1]
        return default


WORKLOADS = {
    "ensemble_settle": (
        Command("converge.coop2d",
                ("converge", "--system", "coop2d", "--n", "1000",
                 "--T", "100"), csv=True),
    ),
    "ensemble_unsettled": (
        Command("converge.rotation2d",
                ("converge", "--system", "rotation2d", "--n", "1000",
                 "--T", "40")),
        Command("converge.spd_lyapunov",
                ("converge", "--system", "spd_lyapunov", "--n", "1000",
                 "--T", "5")),
        Command("check_dp.spd_lyapunov",
                ("check-dp", "--system", "spd_lyapunov", "--n", "400")),
    ),
    "orbit_cones": (
        Command("pf.orthant", ("pf", "--system", "coop2d", "--T", "20",
                               "--field", "orthant")),
        Command("pf.polyhedral", ("pf", "--system", "coop2d", "--T", "20",
                                  "--field", POLYHEDRAL_ORTHANT)),
        Command("check_dp.coop2d", ("check-dp", "--system", "coop2d")),
        Command("order", ("order", "--n", "1000")),
        Command("causal", ("causal", "--n", "500")),
    ),
}

# Commands whose time to verdict is reported as cmd_s.<name>; order and
# causal (about 0.2 s together) only count in wall_s.
TIMED = ("converge.coop2d", "converge.rotation2d", "converge.spd_lyapunov",
         "check_dp.spd_lyapunov", "pf.orthant", "pf.polyhedral",
         "check_dp.coop2d")

# Which end-to-end figure each layer metric should move, on which workload.
LAYER_MOVES = {
    "registry.f_rows": "cmd_s.converge.coop2d on ensemble_settle (early "
                       "retirement cuts it there and not on ensemble_unsettled)",
    "registry.f_s": "cmd_s.converge.coop2d on ensemble_settle",
    "registry.jac_rows": "cmd_s.check_dp.coop2d and cmd_s.pf.* on orbit_cones",
    "registry.jac_s": "cmd_s.check_dp.coop2d and cmd_s.pf.* on orbit_cones",
    "flow.step_self_s": "cmd_s.converge.* on both ensemble workloads",
    "flow.row_step_ns": "cmd_s.converge.* on both ensemble workloads",
    "flow.classify_calls": "cmd_s.converge.coop2d (Newton polish) and "
                           "cmd_s.converge.rotation2d (recurrence)",
    "flow.classify_s": "cmd_s.converge.coop2d and cmd_s.converge.rotation2d",
    "cones.margin_*": "cmd_s.check_dp.* and cmd_s.pf.*",
    "cones.hilbert_*.polyhedral": "cmd_s.pf.polyhedral; a closed form must "
                                  "leave cmd_s.pf.orthant unchanged",
    "conefield.*": "cmd_s.check_dp.*",
    "positivity.*": "cmd_s.check_dp.*",
    "pf.*": "cmd_s.pf.*",
    "geometry.*": "cmd_s.check_dp.spd_lyapunov and cmd_s.converge.spd_lyapunov",
    "experiments.*": "cmd_s.converge.* (predicted under 1 %)",
    "order.*": "wall_s on orbit_cones only",
    "reports.s": "every cmd_s.*",
    "cli.self_s": "every cmd_s.*",
    "trace.*": "none: the calibrated tracing cost, and the pass time no "
               "span covers",
    "cmd_s.*": "time to verdict of one command: the median over the traced "
               "run's untraced passes; 0 where the workload lacks the command",
}
