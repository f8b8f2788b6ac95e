"""Report envelopes, JSON/CSV emission, and schema validation.

Every CLI-facing report is a JSON object with the core envelope keys
report_type / params / seed / counts (plus optional interval, findings,
status) and validates against the shipped schema file at
``conedyn/data/report_schema.json``.  The validator implements the small
JSON-schema subset that file uses, so no external dependency is needed.

CSV output is flat, one row per sample: index, the x0 components, the
outcome, the limit components (blank when absent), the residual, and
certified_at (the time a contraction certificate retired the row; blank
for rows that ran to T).
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

SCHEMA_PATH = Path(__file__).parent / "data" / "report_schema.json"


def sanitize(obj):
    """Make an object JSON-serializable: numpy -> python, nan/inf -> None."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def make_report(report_type: str, params: dict, seed, counts: dict,
                interval=None, findings=None, status=None, **extra) -> dict:
    report = {
        "report_type": report_type,
        "params": sanitize(params),
        "seed": None if seed is None else int(seed),
        "counts": sanitize(counts),
        "interval": sanitize(list(interval)) if interval is not None else None,
        "findings": sanitize(findings or []),
        "status": status,
    }
    report.update(sanitize(extra))
    return report


def load_schema() -> dict:
    with open(SCHEMA_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, tname: str) -> bool:
    if tname == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if tname == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[tname])


def schema_problems(instance, schema: dict | None = None, path: str = "$") -> list:
    """Validate against the subset of JSON schema the shipped file uses."""
    if schema is None:
        schema = load_schema()
    problems = []
    stype = schema.get("type")
    if stype is not None:
        allowed = stype if isinstance(stype, list) else [stype]
        if not any(_type_ok(instance, t) for t in allowed):
            problems.append(f"{path}: expected type {allowed}, "
                            f"got {type(instance).__name__}")
            return problems
    if "enum" in schema and instance not in schema["enum"]:
        problems.append(f"{path}: {instance!r} not in enum")
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                problems.append(f"{path}.{key}: required key missing")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in instance:
                problems.extend(schema_problems(instance[key], sub,
                                                f"{path}.{key}"))
        if schema.get("additionalProperties") is False:
            for key in instance:
                if key not in props:
                    problems.append(f"{path}.{key}: additional key not allowed")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            problems.extend(schema_problems(item, schema["items"],
                                            f"{path}[{i}]"))
    return problems


def validate_report(report: dict) -> None:
    problems = schema_problems(report)
    if problems:
        raise ValueError("report fails schema: " + "; ".join(problems))


def dumps(report: dict) -> str:
    return json.dumps(sanitize(report), indent=2, sort_keys=True) + "\n"


def write_json(report: dict, path: str | None = None) -> None:
    text = dumps(report)
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def sample_rows_to_csv(rows: list, path: str) -> None:
    """Write per-sample rows (index, x0..., outcome, limit..., residual,
    certified_at)."""
    if not rows:
        Path(path).write_text("", encoding="utf-8")
        return
    dim = max(len(r.get("x0") or []) for r in rows)
    ldim = max(len(r.get("limit") or []) for r in rows)
    fields = (["index"]
              + [f"x0_{i}" for i in range(dim)]
              + ["outcome"]
              + [f"limit_{i}" for i in range(ldim)]
              + ["residual", "certified_at"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for r in rows:
            row = {"index": r["index"], "outcome": r["outcome"]}
            for key in ("residual", "certified_at"):
                row[key] = "" if r.get(key) is None else r[key]
            for i, v in enumerate(r.get("x0") or []):
                row[f"x0_{i}"] = v
            lim = r.get("limit") or []
            for i in range(ldim):
                row[f"limit_{i}"] = lim[i] if i < len(lim) else ""
            writer.writerow(row)
