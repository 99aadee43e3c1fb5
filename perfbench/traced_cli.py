"""Run one ``linemod`` CLI invocation with the public functions of the
measured layers wrapped in timing spans.

Usage: python3 traced_cli.py SRC_DIR CLI_ARGS...

The report goes to stdout exactly as the untraced CLI writes it.  When the
command ends, one line ``TRACE <json>`` goes to stderr: per span name the
call count, the total time of outermost activations and the self time (the
span minus its child spans), the number of calls per (parent, child) edge,
and per-span counters taken from return values.  Nothing in ``src/`` is
edited; functions are replaced in every module namespace (and module-level
dict) that holds them, and methods are replaced on their classes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("linalg", "hilbert", "rewrite", "liealg", "modules", "geometry", "suites", "reports")


class Tracer:
    def __init__(self):
        self.stack = []      # open spans: [name, time covered by children]
        self.depth = {}      # name -> open activations, so recursion is not counted twice
        self.spans = {}      # name -> [calls, total_s, self_s]
        self.edges = {}      # (parent, name) -> calls
        self.counters = {}   # name -> {counter: value}

    def wrap(self, name, fn, on_result=None):
        stack, depth, edges = self.stack, self.depth, self.edges
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            d = depth.get(name, 0)
            depth[name] = d + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[name] = d
                agg[0] += 1
                agg[2] += dur - frame[1]
                if d == 0:
                    agg[1] += dur
                if stack:
                    stack[-1][1] += dur
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1
            if on_result is not None:
                on_result(result)
            return result

        return span

    def counter(self, name):
        return self.counters.setdefault(name, {})

    def dump(self) -> dict:
        return {
            "spans": {n: {"calls": c, "total_s": t, "self_s": s}
                      for n, (c, t, s) in self.spans.items()},
            "edges": [[p, n, c] for (p, n), c in self.edges.items()],
            "counters": self.counters,
        }


def _result_hooks(tracer: Tracer) -> dict:
    """Counters read from return values, keyed by span name."""
    dependent = tracer.counter("linalg.SparseEchelon.add")
    admissible = tracer.counter("liealg.admissible_functional")
    cache = tracer.counter("hilbert.filtered_model")
    rules = tracer.counter("rewrite.complete")
    seen_models = []   # keeps returned models alive so identity stays meaningful

    def on_add(pivot):
        if pivot is None:
            dependent["dependent"] = dependent.get("dependent", 0) + 1

    def on_admissible(ok):
        if ok:
            admissible["admissible"] = admissible.get("admissible", 0) + 1

    def on_model(model):
        # a hit returns a model an earlier call already returned
        if any(model is m for m in seen_models):
            cache["hits"] = cache.get("hits", 0) + 1
        else:
            seen_models.append(model)

    def on_complete(system):
        rules["rules"] = max(rules.get("rules", 0), len(system.rules))

    return {
        "linalg.SparseEchelon.add": on_add,
        "liealg.admissible_functional": on_admissible,
        "hilbert.filtered_model": on_model,
        "rewrite.complete": on_complete,
    }


def install(tracer: Tracer):
    """Wrap the layers' public functions and methods."""
    hooks = _result_hooks(tracer)
    replaced = {}   # original function -> wrapper
    for layer in LAYERS:
        mod = sys.modules[f"linemod.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                replaced[obj] = tracer.wrap(name, obj, hooks.get(name))
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    name = f"{layer}.{attr}.{mname}"
                    if inspect.isfunction(member):
                        setattr(obj, mname, tracer.wrap(name, member, hooks.get(name)))
                    elif isinstance(member, (staticmethod, classmethod)):
                        wrapped = tracer.wrap(name, member.__func__, hooks.get(name))
                        setattr(obj, mname, type(member)(wrapped))
    # rebind every name and module-level dict entry that holds an original,
    # so `from .hilbert import ...` call sites are traced as well
    for modname, mod in list(sys.modules.items()):
        if modname != "linemod" and not modname.startswith("linemod."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if inspect.isfunction(v) and v in replaced:
                        obj[k] = replaced[v]


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import linemod.cli

    tracer = Tracer()
    install(tracer)
    try:
        code = linemod.cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        sys.stderr.write("TRACE " + json.dumps(tracer.dump()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
