"""Canonical JSON rendering for CLI reports.

Reports are plain dicts assembled in a fixed insertion order; rendering is
deterministic, so identical invocations (including the seed) produce byte
identical output.  Rationals are rendered as "p/q" strings, dimension
vectors as integer arrays, and free-algebra elements as canonical
expression strings.
"""

from __future__ import annotations

import json
from fractions import Fraction


def jsonable(obj):
    """Recursively convert package values into JSON-safe primitives."""
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return str(obj.numerator)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


def render(report: dict, pretty: bool = False) -> str:
    payload = jsonable(report)
    if pretty:
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    return json.dumps(payload, separators=(",", ":"), sort_keys=False) + "\n"


def build_report(command: str, inputs: dict, results: dict, passed: bool,
                 version: str, seed=None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "pass": bool(passed),
        "versions": {"linemod": version},
        "seed": seed,
    }
