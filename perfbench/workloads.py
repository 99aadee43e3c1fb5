"""The benchmark's workloads: how each turns a seed into CLI invocations,
and the known answer every invocation's output is checked against.

Each workload gives most of its time to one layer and almost none to the
layers the other two stress:

* ``verify-sl2``   -- the sl2 verification suite; the filtered route
  (``filtered_cyclic_dims`` -> ``FilteredModel.ideal_echelon`` ->
  ``SparseEchelon``), run as 125 admissibility queries that each re-build
  a small echelon.  The slc and sl11 suites have the same profile and
  also exercise ``modules``, but take about 15 s and 8 s an invocation:
  too long for the reference measured between invocations (see
  ``reference.py``) to cancel the host's drift.
* ``oracle-sl21``  -- the brute-force oracle of the nine-generator algebra;
  one large echelon over 6561 columns in which most rows are dependent.
* ``certify-slcH`` -- a line-module certificate over the color
  homogenization; rewrite normal forms (``_nf_dict``).

Inputs come from a fixed pool per workload so that every report can be
compared byte for byte with the report the pool produced when the
benchmark was defined (``known_answers.json``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

KNOWN_ANSWERS = Path(__file__).resolve().parent / "known_answers.json"

# CLI seeds the verify-sl2 workload draws from
SUITE_SEEDS = tuple(range(24))

# constants c of the slc admissible functionals: family (a) takes
# phi = (c, 0), family (b) takes phi = (mu/2, c)
COLOR_CONSTANTS = tuple(Fraction(c) for c in ("0", "1", "-1", "2", "-3", "1/2", "-1/2", "5/3"))


@dataclass(frozen=True)
class Invocation:
    """One ``linemod`` command line, the key of its known answer, and any
    environment variables set for that child only."""

    key: str
    args: tuple
    env: dict = field(default_factory=dict)


def _a4_term(c: Fraction) -> str:
    if c == 0:
        return ""
    sign = "-" if c > 0 else "+"
    mag = abs(c)
    return f" {sign} a4" if mag == 1 else f" {sign} {mag}*a4"


def color_pair(i: int, mu: int, family: str, c: Fraction) -> tuple:
    """The two generators of the line module attached to the color
    subalgebra span(a_i, a_j + mu a_k) (0-based i) and an admissible
    functional of the given family."""
    j, k = [m for m in range(3) if m != i]
    phi = (c, Fraction(0)) if family == "a" else (Fraction(mu, 2), c)
    g1 = f"a{i + 1}" + _a4_term(phi[0])
    g2 = f"a{j + 1} {'+' if mu == 1 else '-'} a{k + 1}" + _a4_term(phi[1])
    return g1, g2


def _sl2(cli_seed: int) -> Invocation:
    return Invocation(str(cli_seed), ("verify-paper", "--suite", "sl2", "--samples", "500",
                                      "--seed", str(cli_seed)))


def _certify(g1: str, g2: str) -> Invocation:
    return Invocation(f"{g1}|{g2}", ("certify-line", "--algebra", "slc_H", "--gen", g1,
                                     "--gen", g2, "--max-degree", "9"))


ORACLE = Invocation("fixed", ("hilbert", "--algebra", "sl21_Hhat", "--max-degree", "8",
                              "--oracle-degree", "4"), {"LINEMOD_ORACLE_CAP": "6561"})

COLOR_MEMBERS = tuple((i, mu) for i in range(3) for mu in (1, -1))
COLOR_CASES = tuple((i, mu, family) for i, mu in COLOR_MEMBERS for family in "ab")


def all_invocations(workload: str) -> list:
    """Every input the workload can draw, in a fixed order."""
    if workload == "verify-sl2":
        return [_sl2(s) for s in SUITE_SEEDS]
    if workload == "oracle-sl21":
        return [ORACLE]
    if workload == "certify-slcH":
        return [_certify(*color_pair(i, mu, family, c))
                for i, mu, family in COLOR_CASES for c in COLOR_CONSTANTS]
    raise ValueError(f"unknown workload {workload!r}")


def invocations(workload: str, seed: int, count: int) -> list:
    """The first ``count`` inputs of a run with the given seed."""
    rng = Random(f"{workload}:{seed}")
    if workload == "verify-sl2":
        order = rng.sample(SUITE_SEEDS, len(SUITE_SEEDS))
        return [_sl2(order[n % len(order)]) for n in range(count)]
    if workload == "oracle-sl21":
        return [ORACLE] * count
    if workload == "certify-slcH":
        # pair cost depends on the member and the family, so every round of
        # twelve visits each (member, family) once; the seed draws the order
        # and the constant
        out = []
        while len(out) < count:
            for i, mu, family in rng.sample(COLOR_CASES, len(COLOR_CASES)):
                out.append(_certify(*color_pair(i, mu, family, rng.choice(COLOR_CONSTANTS))))
        return out[:count]
    raise ValueError(f"unknown workload {workload!r}")


# presets each workload's CLI command builds, for the set-up probe
SETUP_PRESETS = {
    "verify-sl2": ("sl2_table", "sl2_A", "sl2_U"),
    "oracle-sl21": ("sl21_Hhat",),
    "certify-slcH": ("slc_H",),
}

WORKLOADS = tuple(SETUP_PRESETS)

SL21_ORACLE_ROUTE = [1, 9, 45, 161, 459]


def semantic_check(workload: str, report: dict) -> str | None:
    """The workload's known answer; returns why the report misses it, or None."""
    results = report.get("results", {})
    if workload == "verify-sl2":
        failed = [c.get("name") for c in results.get("checks", []) if c.get("pass") is not True]
        if failed or not results.get("checks"):
            return f"checks not passing: {failed}"
    elif workload == "oracle-sl21":
        oracle = results.get("oracle_route")
        if oracle != SL21_ORACLE_ROUTE or results.get("rewrite_route", [])[:5] != oracle:
            return f"oracle route {oracle}, rewrite route {results.get('rewrite_route')}"
    elif workload == "certify-slcH":
        if results.get("dims") != list(range(1, 11)):
            return f"dims {results.get('dims')}"
    if report.get("pass") is not True:
        return "report pass flag is not true"
    return None


def load_known_answers() -> dict:
    return json.loads(KNOWN_ANSWERS.read_text())


def check_output(workload: str, inv: Invocation, exit_code: int, stdout: bytes,
                 known: dict) -> str | None:
    """Why an invocation's output is wrong, or None when it is right."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    digest = hashlib.sha256(stdout).hexdigest()
    expected = known.get(workload, {}).get(inv.key)
    if digest != expected:
        return f"report sha256 {digest[:16]} differs from the known {str(expected)[:16]}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    return semantic_check(workload, report)
