"""Write known_answers.json: the SHA-256 of the report every pooled input
produces at the current checkout.

Usage: python3 perfbench/known_answers.py [WORKLOAD ...]

With workload names, only those workloads' entries are rewritten.

Run it only on the commit that defines the benchmark's reference reports;
later commits must reproduce these bytes.  Each report is also checked
against its workload's known answer before it is recorded.  Two inputs
run at a time.
"""

from __future__ import annotations

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor

sys.dont_write_bytecode = True
import run  # noqa: E402
from workloads import KNOWN_ANSWERS, WORKLOADS, all_invocations, semantic_check  # noqa: E402


def answer(workload, inv):
    res = run.run_child(run.cli_argv(inv), run.child_env(inv.env))
    why = "exit code %d" % res.exit_code if res.exit_code else \
        semantic_check(workload, json.loads(res.stdout))
    if why is not None:
        raise SystemExit(f"{workload} {inv.key}: {why}")
    return hashlib.sha256(res.stdout).hexdigest()


def main() -> int:
    names = sys.argv[1:] or WORKLOADS
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workloads: {sorted(unknown)}")
    jobs = [(w, inv) for w in names for inv in all_invocations(w)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        digests = list(pool.map(lambda job: answer(*job), jobs))
    table = json.loads(KNOWN_ANSWERS.read_text()) if KNOWN_ANSWERS.is_file() else {}
    table.update({w: {} for w in names})
    for (w, inv), digest in zip(jobs, digests):
        table[w][inv.key] = digest
    KNOWN_ANSWERS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(jobs)} known answers to {KNOWN_ANSWERS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
