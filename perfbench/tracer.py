"""Per-layer spans recorded from outside the program.

The tracer replaces every module binding of the public functions listed in
LAYERS with a wrapper that records a span (name, start, end, parent span, op
id) and per-function call counts, self time and work counts.  Self time is
a span's duration minus the time its child spans cover.  ``expr`` is not
wrapped: its evaluators recurse per expression node, so wrapping them would
swamp the measurement; interpreter time shows up as ``compiler.eval_*`` self
time.  Names that no longer exist are skipped.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = {
    "cli": ("main",),
    "model": ("model_from_json_dict", "validate"),
    "compiler": ("compile_model", "add_anchors", "eval_residuals", "eval_jacobian"),
    "numeric": ("rank_analyze", "newton_solve", "optimize_solve"),
    "witness": ("generate_witness", "compute_dor", "motion_basis", "characterize",
                "characterize_at"),
    "structural": ("build_graphs", "counting_state", "max_matching", "dm_decompose",
                   "scc_plan"),
    "detect": ("is_well_part", "greedy_dependency_groups", "greedy_well_parts",
               "oracle_min_dependent_sets", "oracle_max_well_part"),
    "decompose": ("bottom_up", "top_down", "solve_tree"),
}


def _max_node_id(tree) -> int:
    stack, best = list(tree.roots), 0
    while stack:
        node = stack.pop()
        best = max(best, node.node_id)
        stack.extend(node.children)
    return best


# Work counts taken from a function's result: name -> (counter suffix, getter).
RESULT_COUNTS = {
    "compiler.eval_residuals": (("rows", len),),
    "compiler.eval_jacobian": (("rows", lambda r: r.shape[0]),),
    "numeric.rank_analyze": (("cells", lambda r: r.shape[0] * r.shape[1]),),
    "numeric.newton_solve": (("iterations", lambda r: r.iterations),
                             ("converged", lambda r: int(r.converged))),
    "numeric.optimize_solve": (("iterations", lambda r: r.iterations),),
    "witness.generate_witness": (("attempts", lambda r: r.attempts),),
    "detect.is_well_part": (("true", lambda r: int(bool(r))),),
    "decompose.bottom_up": (("nodes", _max_node_id),),
}

# Derived ratios: metric suffix -> (numerator, denominator) counter names.
RATIOS = {
    "numeric.newton_solve": ("converged_ratio", "converged", "calls"),
    "witness.generate_witness": ("accept_ratio", "calls", "attempts"),
    "detect.is_well_part": ("true_ratio", "true", "calls"),
}

SPAN_CAP = 100_000


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer, funcs in LAYERS.items():
        for fn in funcs:
            name = f"{layer}.{fn}"
            out.append((f"{name}.calls", "count", "lower"))
            out.append((f"{name}.self_s", "s", "lower"))
            for suffix, _ in RESULT_COUNTS.get(name, ()):
                if suffix not in ("converged", "true"):
                    out.append((f"{name}.{suffix}", "count", "lower"))
            if name in RATIOS:
                out.append((f"{name}.{RATIOS[name][0]}", "1", "higher"))
    out.append(("trace.overhead_ratio", "1", "lower"))
    return out


class Tracer:
    """Spans and counters for one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.op = None          # id of the op being run; spans of one op share it
        self.group = None       # "corpus" or "ladder"
        self.counts: dict[tuple[str, str], dict[str, float]] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def install(self, package: str = "gcskernel") -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for layer, funcs in LAYERS.items():
            mod = sys.modules.get(f"{package}.{layer}")
            for fn_name in funcs:
                original = getattr(mod, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _bump(self, name: str, key: str, amount: float) -> None:
        bucket = self.counts.setdefault((self.group, name), {})
        bucket[key] = bucket.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        stack = self._stack
        getters = RESULT_COUNTS.get(name, ())
        signature = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]  # child time, span id
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "witness.generate_witness":
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self._bump(name, "attempts", bound.arguments["max_attempts"])
                raise
            else:
                for key, get in getters:
                    self._bump(name, key, get(result))
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self._bump(name, "calls", 1)
                self._bump(name, "self_s", duration - frame[0])
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, self.op, name, start, end))

        return wrapper

    def totals(self, group: str | None = None) -> dict[str, dict[str, float]]:
        """Counters per function name, summed over groups (or for one group)."""
        out: dict[str, dict[str, float]] = {}
        for (g, name), bucket in self.counts.items():
            if group is None or g == group:
                agg = out.setdefault(name, {})
                for k, v in bucket.items():
                    agg[k] = agg.get(k, 0) + v
        return out

    def metrics(self, passes: dict[str, int], overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics: counts and times of one corpus pass plus one ladder pass."""
        totals: dict[str, dict[str, float]] = {}
        for group, n in passes.items():
            for name, bucket in self.totals(group).items():
                agg = totals.setdefault(name, {})
                for k, v in bucket.items():
                    agg[k] = agg.get(k, 0) + v / n
        out = {}
        for metric, _, _ in metric_names():
            name, _, key = metric.rpartition(".")
            if metric == "trace.overhead_ratio":
                out[metric] = overhead_ratio
            elif name in RATIOS and key == RATIOS[name][0]:
                _, num, den = RATIOS[name]
                bucket = totals.get(name, {})
                out[metric] = bucket.get(num, 0) / bucket[den] if bucket.get(den) else 0.0
            else:
                out[metric] = totals.get(name, {}).get(key, 0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")
