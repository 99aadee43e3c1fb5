"""linemod benchmark: real CLI invocations, one fresh child process at a time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verify-sl2, oracle-sl21, certify-slcH, or ``all`` to run
the three in turn.  The load is a closed loop with one client: the next
invocation starts when the previous one has exited.  Every invocation is a
fresh interpreter, because the package's module-level caches would
otherwise make repeats warm in a way no CLI user sees.

``--trace 0`` measures for S seconds and reports the end-to-end metrics.
``wall_ref`` and ``cpu_ref`` are per-invocation medians of wall time and
CPU time, each divided by the time of a fixed reference kernel
(``reference.py``) run on the same CPU just before and just after the
invocation: the host's speed drifts by tens of percent within minutes
and moves raw times with it, and the ratio cancels that drift.  Raw wall
and CPU medians are printed too, outside the result line.
``peak_rss_mb`` is the per-invocation median of peak RSS.  Wall time,
CPU time and RSS are read with ``os.wait4`` on the child's own pid.
``setup_s`` is the median time a fresh interpreter takes to import
``linemod.cli`` and build the workload's presets.  The benchmark and
every child it starts are pinned to one CPU.

``--trace 1`` alternates untraced and traced (``traced_cli.py``)
invocations of the seed's first input for S seconds and reports the
per-layer metrics; ``trace.overhead_s`` is the median traced wall time
minus the median untraced one.  End-to-end metrics come only from
untraced runs.

Every output is checked: exit status 0, the workload's known answer, and
a SHA-256 equal to the report the benchmark's defining commit produced.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import CALL_S_MIN, reference_s  # noqa: E402
from workloads import (  # noqa: E402
    SETUP_PRESETS,
    WORKLOADS,
    check_output,
    invocations,
    load_known_answers,
)

ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150.0
SETUP_SAMPLES = 15   # set-up probes per run
REF_SHARE = 0.1      # reference kernel time per gap, as a share of an invocation

SETUP_CODE = (
    "import sys\n"
    "import linemod.cli\n"
    "from linemod.presets import preset\n"
    "for name in sys.argv[1:]:\n"
    "    preset(name)\n"
)

# per-layer metric -> (span name, field).  A field is a span aggregate
# (calls, total_s, self_s), "rows" (echelon rows added directly inside the
# span), "counter:<name>", or "ratio:<name>" (that counter over the calls)
PER_LAYER = {
    "linalg.echelon_add.calls": ("linalg.SparseEchelon.add", "calls"),
    "linalg.echelon_add.self_s": ("linalg.SparseEchelon.add", "self_s"),
    "linalg.echelon_add.dependent_ratio": ("linalg.SparseEchelon.add", "ratio:dependent"),
    "linalg.echelon_reduce.calls": ("linalg.SparseEchelon.reduce", "calls"),
    "linalg.echelon_reduce.self_s": ("linalg.SparseEchelon.reduce", "self_s"),
    "hilbert.filtered_cyclic_dims.calls": ("hilbert.filtered_cyclic_dims", "calls"),
    "hilbert.filtered_cyclic_dims.total_s": ("hilbert.filtered_cyclic_dims", "total_s"),
    "hilbert.filtered_cyclic_dims.self_s": ("hilbert.filtered_cyclic_dims", "self_s"),
    "hilbert.ideal_echelon.calls": ("hilbert.FilteredModel.ideal_echelon", "calls"),
    "hilbert.ideal_echelon.total_s": ("hilbert.FilteredModel.ideal_echelon", "total_s"),
    "hilbert.ideal_echelon.self_s": ("hilbert.FilteredModel.ideal_echelon", "self_s"),
    "hilbert.ideal_echelon.rows": ("hilbert.FilteredModel.ideal_echelon", "rows"),
    "hilbert.filtered_model.calls": ("hilbert.filtered_model", "calls"),
    "hilbert.filtered_model.hit_ratio": ("hilbert.filtered_model", "ratio:hits"),
    "hilbert.oracle_graded_dims.calls": ("hilbert.oracle_graded_dims", "calls"),
    "hilbert.oracle_graded_dims.total_s": ("hilbert.oracle_graded_dims", "total_s"),
    "hilbert.oracle_graded_dims.self_s": ("hilbert.oracle_graded_dims", "self_s"),
    "hilbert.oracle_graded_dims.rows": ("hilbert.oracle_graded_dims", "rows"),
    "hilbert.cyclic_module_model.calls": ("hilbert.cyclic_module_model", "calls"),
    "hilbert.cyclic_module_model.total_s": ("hilbert.cyclic_module_model", "total_s"),
    "hilbert.cyclic_module_model.self_s": ("hilbert.cyclic_module_model", "self_s"),
    "hilbert.hilbert_algebra.total_s": ("hilbert.hilbert_algebra", "total_s"),
    "rewrite.complete.calls": ("rewrite.complete", "calls"),
    "rewrite.complete.total_s": ("rewrite.complete", "total_s"),
    "rewrite.complete.rules": ("rewrite.complete", "counter:rules"),
    "liealg.admissible_functional.calls": ("liealg.admissible_functional", "calls"),
    "liealg.admissible_functional.total_s": ("liealg.admissible_functional", "total_s"),
    "liealg.admissible_functional.self_s": ("liealg.admissible_functional", "self_s"),
    "liealg.admissible_functional.admissible_ratio":
        ("liealg.admissible_functional", "ratio:admissible"),
    "liealg.closed_form_admissible.total_s": ("liealg.closed_form_admissible", "total_s"),
    "liealg.classify_2dim_subalgebras.total_s":
        ("liealg.classify_2dim_subalgebras", "total_s"),
    "geometry.line_on_quadric.total_s": ("geometry.line_on_quadric", "total_s"),
    "suites.run_suite.total_s": ("suites.run_suite", "total_s"),
    "reports.render.total_s": ("reports.render", "total_s"),
}


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[1]
    return "s" if last.endswith("_s") else "ratio" if last.endswith("_ratio") else "count"


@dataclass
class ChildResult:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list, env: dict) -> ChildResult:
    """Run one child to completion through ``spawn.py``, which reads its
    resources with ``os.wait4`` on the child's own pid."""
    proc = subprocess.run([sys.executable, "-I", "-S", str(HERE / "spawn.py"),
                           str(CHILD_TIMEOUT_S), *argv],
                          cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True)
    stderr, _, last = proc.stderr.rstrip(b"\n").rpartition(b"\n")
    fields = last.split()
    if len(fields) != 4 or fields[0] != b"RUSAGE":
        raise RuntimeError("spawn.py reported no resources: " + proc.stderr.decode(errors="replace"))
    return ChildResult(proc.returncode, proc.stdout, stderr, float(fields[1]), float(fields[2]),
                       int(fields[3]) / 1024.0)


def child_env(extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LINEMOD_ORACLE_CAP"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def cli_argv(inv) -> list:
    return [sys.executable, "-m", "linemod.cli", *inv.args]


class Tally:
    def __init__(self, workload: str, known: dict):
        self.workload = workload
        self.known = known
        self.attempted = 0
        self.failures = []

    def record(self, inv, res: ChildResult):
        self.attempted += 1
        why = check_output(self.workload, inv, res.exit_code, res.stdout, self.known)
        if why is not None:
            tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{inv.key}: {why} {' '.join(tail)}".strip())
        print(f"  run {self.attempted:3d}: wall {res.wall_s:8.3f} s  cpu {res.cpu_s:8.3f} s  "
              f"rss {res.peak_rss_mb:7.2f} MB  {'ok' if why is None else 'FAILED'}  {inv.key}")


def setup_probe(workload: str) -> float:
    """Wall time of a fresh interpreter that imports ``linemod.cli`` and
    builds the workload's presets."""
    res = run_child([sys.executable, "-c", SETUP_CODE, *SETUP_PRESETS[workload]], child_env({}))
    if res.exit_code != 0:
        raise RuntimeError("set-up probe failed: " + res.stderr.decode(errors="replace"))
    return res.wall_s


def run_untraced(workload: str, seed: int, seconds: float, tally: Tally) -> tuple:
    setup_probe(workload)   # only warms the bytecode and file caches
    reference_s()           # and the reference kernel
    # set-up probes are due at even steps over the run and run between
    # invocations, so they sample the machine over the whole run rather
    # than in one burst.  The reference kernel runs in every gap between
    # invocations, for a tenth of a typical invocation or at least
    # CALL_S_MIN; each invocation is divided by the mean of the kernel
    # times in the gaps before and after it.
    setup, runs, rounds, refs = [], [], [], []
    start = time.perf_counter()
    for inv in invocations(workload, seed, 10_000):
        t0 = time.perf_counter()
        while len(setup) < SETUP_SAMPLES and t0 - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_probe(workload))
        refs.append(reference_s(ref_stretch(runs)))
        res = run_child(cli_argv(inv), child_env(inv.env))
        tally.record(inv, res)
        runs.append(res)
        rounds.append(time.perf_counter() - t0)
        # start another invocation only if at least half a typical round
        # still fits, so that a run lasts about ``seconds`` on average even
        # when one invocation takes a large part of it
        if time.perf_counter() - start + statistics.median(rounds) / 2 > seconds:
            break
    refs.append(reference_s(ref_stretch(runs)))
    setup += [setup_probe(workload) for _ in range(SETUP_SAMPLES - len(setup))]
    around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    metrics = {
        "wall_ref": (statistics.median(r.wall_s / t for r, t in zip(runs, around)), "ref"),
        "cpu_ref": (statistics.median(r.cpu_s / t for r, t in zip(runs, around)), "ref"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    raw = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "reference_s": statistics.median(refs),
    }
    return metrics, raw, len(runs), len(setup)


def ref_stretch(runs: list) -> float:
    """How long to run the reference kernel in the next gap."""
    return max(CALL_S_MIN, REF_SHARE * statistics.median(r.wall_s for r in runs)) \
        if runs else CALL_S_MIN


def layer_value(trace: dict, span: str, field: str):
    agg = trace["spans"].get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    if field in agg:
        return agg[field]
    kind, _, name = field.partition(":")
    counters = trace["counters"].get(span, {})
    if kind == "ratio":
        return counters.get(name, 0) / agg["calls"] if agg["calls"] else 0.0
    if kind == "counter":
        return counters.get(name, 0)
    if kind == "rows":
        # echelon rows added directly inside the span
        return sum(c for p, n, c in trace["edges"]
                   if p == span and n == "linalg.SparseEchelon.add")
    raise ValueError(f"unknown field {field!r}")


def run_traced(workload: str, seed: int, seconds: float, tally: Tally) -> tuple:
    """Alternate untraced and traced invocations of the seed's first input
    for ``seconds``; per-layer values are medians over the traced ones."""
    inv = invocations(workload, seed, 1)[0]
    env = child_env(inv.env)
    traced_argv = [sys.executable, str(HERE / "traced_cli.py"), str(SRC), *inv.args]
    plain_walls, traced_walls, layers = [], [], []
    start = time.perf_counter()
    while True:
        plain = run_child(cli_argv(inv), env)
        tally.record(inv, plain)
        traced = run_child(traced_argv, env)
        tally.record(inv, traced)
        lines = [ln for ln in traced.stderr.decode(errors="replace").splitlines()
                 if ln.startswith("TRACE ")]
        if not lines:
            raise RuntimeError("traced run wrote no trace")
        trace = json.loads(lines[-1][len("TRACE "):])
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        layers.append({m: layer_value(trace, span, field) for m, (span, field) in PER_LAYER.items()})
        pair = statistics.median(plain_walls) + statistics.median(traced_walls)
        if time.perf_counter() - start + pair > seconds:
            break
    metrics = {m: (statistics.median(lv[m] for lv in layers), unit_of(m)) for m in PER_LAYER}
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, trace, traced.wall_s, len(layers)


def print_route_split(trace: dict, traced_wall: float):
    """Where the traced time went: the three routes and the top self times."""
    spans = trace["spans"]
    total = lambda n: spans.get(n, {}).get("total_s", 0.0)  # noqa: E731
    self_ = lambda n: spans.get(n, {}).get("self_s", 0.0)  # noqa: E731
    routes = {
        "filtered route (filtered_cyclic_dims total)": total("hilbert.filtered_cyclic_dims"),
        "oracle route (oracle_graded_dims total)": total("hilbert.oracle_graded_dims"),
        "rewrite normal forms (cyclic_module_model + torsion_free_on self, normal_form total)":
            self_("hilbert.cyclic_module_model") + self_("modules.torsion_free_on")
            + total("rewrite.normal_form"),
    }
    print(f"  traced wall {traced_wall:.3f} s; route split:")
    for name, t in routes.items():
        print(f"    {t:9.3f} s  {100 * t / traced_wall:5.1f}%  {name}")
    print("  largest self times:")
    for name, agg in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:6]:
        print(f"    {agg['self_s']:9.3f} s  {agg['calls']:8d} calls  {name}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, known: dict) -> tuple:
    tally = Tally(workload, known)
    print(f"workload {workload} seed {seed} trace {int(trace)}: closed loop, one client")
    if trace:
        metrics, spans, traced_wall, samples = run_traced(workload, seed, seconds, tally)
        print(f"  {samples} untraced/traced pairs; per-layer values are medians over "
              f"the traced runs")
        print_route_split(spans, traced_wall)
    else:
        metrics, raw, samples, setup_samples = run_untraced(workload, seed, seconds, tally)
        print(f"  {samples} invocations; set-up probed {setup_samples} times")
        for name, value in raw.items():
            print(f"  {name:48s} {value:14.6f} s (median, not normalised)")
    failed = len(tally.failures)
    print(f"  fail_ratio {failed}/{tally.attempted} = {failed / tally.attempted:.3f}")
    for why in tally.failures:
        print(f"  FAILED {why}")
    for name, (value, unit) in metrics.items():
        note = f" (median of {samples})" if name in ("wall_ref", "cpu_ref", "peak_rss_mb") else ""
        shown = f"{value:14.6f}" if isinstance(value, float) else f"{value:14d}"
        print(f"  {name:48s} {shown} {unit}{note}")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linemod" / "cli.py").is_file():
        sys.stderr.write(f"error: no linemod sources under {SRC}; run from a checkout\n")
        return 2
    # the reference kernel must run on the CPU the invocations run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    known = load_known_answers()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    out = {}
    for name in names:
        tally, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace), known)
        attempted += tally.attempted
        failed += len(tally.failures)
        prefix = "" if len(names) == 1 else name + "."
        out.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
