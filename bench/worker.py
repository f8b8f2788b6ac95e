"""One pass of a workload, in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json RESULT.json

SPEC holds the source directory, the argv lists to run and whether to
trace.  The worker imports conedyn from that source directory, runs each
argv through ``conedyn.cli.run`` back to back, and writes RESULT with each
command's exit code, time to verdict and traceback (if it raised), the
pass wall time and the process's peak RSS.  A traced pass also writes its
spans next to RESULT.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space, in MiB.

    ``ru_maxrss`` also carries the parent's high-water mark across the
    spawn (vfork + exec), so prefer the kernel's VmHWM where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import conedyn
    from conedyn import cli

    if not Path(conedyn.__file__).resolve().is_relative_to(src):
        print(f"conedyn imported from {conedyn.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer(spec["pass_id"])
        tracer.install(conedyn)

    commands = []
    t_pass = time.perf_counter()
    try:
        for argv in spec["commands"]:
            error = None
            t0 = time.perf_counter()
            try:
                code = cli.run(argv)
            except Exception:  # a traceback is a failed command, not a crash
                code = None
                error = traceback.format_exc()
            commands.append({"code": code, "seconds": time.perf_counter() - t0,
                             "error": error})
        wall = time.perf_counter() - t_pass
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {"commands": commands, "wall_s": wall,
              "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        spans_path = Path(result_path).with_suffix(".spans.npz")
        tracer.trace().save(spans_path)
        result["spans"] = str(spans_path)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
