"""One workload process: import gcskernel, warm up, then run the op lists.

Run by run.py in a fresh interpreter from the root of a checkout:

    python3 perfbench/worker.py OPS_JSON MODE SECONDS [SPANS_PATH]

MODE is "probe" (set-up only), "measure" (untraced passes) or "trace" (one
untraced ladder pass, then traced passes).  Passes over the corpus ops and
over the ladder ops alternate for SECONDS, with at least one of each.  Then
the known failures run once each, untimed.  The last line of standard output
is a JSON object with the raw samples.

Times are reported twice: as measured, and scaled to a nominal machine speed.
The shared machine's speed drifts by tens of percent within a minute, as other
tenants come and go.  A fixed reference loop that does not touch the program
is timed before every op and after every pass.  Each corpus op's time is
multiplied by REFERENCE_S over the median of the six reference times around
it.  Each ladder op's time is multiplied by REFERENCE_S over the median of
the reference times taken from LADDER_WINDOW_S before it starts to
LADDER_WINDOW_S after it ends, which include those of the neighbouring corpus
passes.  ladder_s is the sum over ladder ops of their median scaled time.
The set-up time is multiplied by REFERENCE_S over the median of
SETUP_REFERENCES reference times taken right after it.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracer as tracing
import workloads

ROOT = os.getcwd()
REFERENCE_S = 0.002  # the reference loop's time at nominal speed
LIGHT_S = 0.1  # corpus ops slower than this in the first pass run only in that pass
LADDER_WINDOW_S = 0.5  # reach of the reference times that scale a ladder op
SETUP_REFERENCES = 10  # reference runs after the set-up, to scale it
clock = time.perf_counter


def blas_info(np) -> dict:
    """OpenBLAS version string and thread count, read from the loaded library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"openblas": config().decode(), "blas_threads": threads()}
    return {"openblas": None, "blas_threads": None}


class Reference:
    """Fixed interpreter and small-SVD work, independent of the program."""

    def __init__(self, np):
        self.np = np
        self.matrix = np.random.default_rng(0).standard_normal((24, 24))

    def __call__(self) -> float:
        start = clock()
        table: dict = {}
        acc = 0.0
        for i in range(2000):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
            acc += table[i % 97] ** 0.5
        for _ in range(8):
            self.np.linalg.svd(self.matrix)
        return clock() - start


class Runner:
    def __init__(self, gk, np):
        self.gk = gk
        self.reference = Reference(np)
        self.refs: list = []  # (clock at start, seconds) of every reference run
        self.models: dict = {}
        self.tracer = None

    def ref(self) -> float:
        start = clock()
        seconds = self.reference()
        self.refs.append((start, seconds))
        return seconds

    def ladder_s(self, spans: dict, scaled: bool) -> float:
        """Sum over ladder ops of the median over passes of each op's time."""
        starts = [t for t, _ in self.refs]
        total = 0.0
        for times in spans.values():
            values = []
            for start, elapsed in times:
                scale = 1.0
                if scaled:
                    lo = bisect.bisect_left(starts, start - LADDER_WINDOW_S)
                    hi = bisect.bisect_right(starts, start + elapsed + LADDER_WINDOW_S)
                    scale = REFERENCE_S / statistics.median(s for _, s in self.refs[lo:hi])
                values.append(elapsed * scale)
            total += statistics.median(values)
        return total

    def run_op(self, op: dict) -> tuple[float, dict]:
        """Run one op; return (seconds, output).  Exceptions are recorded, not raised."""
        gk = self.gk
        if op["kind"] == "cli":
            stdout, stderr = io.StringIO(), io.StringIO()
            code, exc = None, None
            start = clock()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = gk.cli.main(op["argv"])
                except SystemExit as err:
                    code = err.code
                except Exception as err:  # an uncaught program error is a failed op
                    exc = f"{type(err).__name__}: {err}"
            elapsed = clock() - start
            return elapsed, {"code": code, "stdout": stdout.getvalue(),
                             "stderr": stderr.getvalue(), "exc": exc}
        start = clock()
        try:
            model = gk.load_model(op["model"])
            if op["kind"] == "bottom-up":
                tree = gk.bottom_up(model, seed=op["seed"])
            else:
                tree = gk.top_down(model)
            _, solution, cert = gk.solve_tree(model, tree)
        except Exception as err:
            return clock() - start, {"exc": f"{type(err).__name__}: {err}"}
        elapsed = clock() - start
        return elapsed, {"exc": None, "status": cert.status, "roots": len(tree.roots),
                         "entities": {k: [float(x) for x in v] for k, v in solution.items()}}

    def run_pass(self, ops: list, tag: str, log: dict, keep_outputs: bool = False) -> float:
        """Run and verify ops in order; record latencies and failures in log.

        The reference loop runs before each op and after the pass.  Corpus
        ops are scaled by the six reference times around them; ladder ops
        are recorded with their start, to be scaled at the end of the run.
        Returns the pass's measured total seconds.
        """
        corpus = bool(ops) and ops[0]["group"] == "corpus"
        measured, refs = [], []
        for index, op in enumerate(ops):
            if self.tracer is not None:
                self.tracer.op = f"{tag}:{index}"
                self.tracer.group = op["group"]
            refs.append(self.ref())
            op_start = clock()
            elapsed, out = self.run_op(op)
            measured.append(elapsed)
            if tag.startswith("ladder"):
                log["ladder_spans"].setdefault(op["label"], []).append((op_start, elapsed))
            reason = workloads.verify(op, out, self.models)
            log["attempted"] += 1
            if reason is not None:
                log["failures"].append({"label": op["label"], "reason": reason})
            if keep_outputs:
                log["outputs"].append(out)
        refs.append(self.ref())
        if corpus:
            for i, (op, t) in enumerate(zip(ops, measured)):
                scale = REFERENCE_S / statistics.median(refs[max(0, i - 2):i + 4])
                log["corpus_ms"].setdefault(op["label"], []).append(t * scale * 1e3)
                log["corpus_measured_ms"].setdefault(op["label"], []).append(t * 1e3)
        if tag in ("corpus0", "ladder0"):
            log["ops"].extend({"label": op["label"], "ms": round(t * 1e3, 3)}
                              for op, t in zip(ops, measured))
        return sum(measured)


def main(argv: list[str]) -> int:
    ops_path, mode, seconds = argv[0], argv[1], float(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    with open(ops_path, "r", encoding="utf-8") as fh:
        ops = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    start = clock()
    import gcskernel
    import gcskernel.cli  # noqa: F401
    import_s = clock() - start
    if not os.path.abspath(gcskernel.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"gcskernel imported from {gcskernel.__file__}, not this checkout", file=sys.stderr)
        return 2
    import numpy as np
    runner = Runner(gcskernel, np)
    warm_start = clock()
    for op in ops["warmup"]:
        runner.run_op(op)
    setup_measured = import_s + (clock() - warm_start)
    # set-up runs once per process, so its speed is read right after it
    speed = statistics.median(runner.reference() for _ in range(SETUP_REFERENCES))
    result = {"setup_s": setup_measured * REFERENCE_S / speed,
              "setup_measured_s": setup_measured}
    if mode == "probe":
        print(json.dumps(result))
        return 0

    log = {"attempted": 0, "failures": [], "corpus_ms": {}, "corpus_measured_ms": {},
           "ladder_spans": {}, "ops": [], "outputs": []}
    keep = ops.get("keep_outputs", False)
    t0 = clock()
    untraced = None
    if mode == "trace":
        untraced = runner.run_pass(ops["ladder"], "untraced", log)
        runner.tracer = tracing.Tracer()
        runner.tracer.install("gcskernel")
    # Corpus and ladder passes alternate so that each gets about half of the
    # time; a pass that would overrun is skipped.  The first corpus pass runs
    # every op; later ones skip the few heavy ops (over LIGHT_S), so that the
    # ops near the median and the p90 get many samples.
    spent = {"corpus": 0.0, "ladder": 0.0}
    last = dict(spent)
    passes = {"corpus": 0, "ladder": 0}
    ladder = []
    light = ops["corpus"]
    while True:
        order = (["ladder", "corpus"] if spent["ladder"] < spent["corpus"]
                 else ["corpus", "ladder"])
        if passes["corpus"] and passes["ladder"]:
            order = [g for g in order if clock() - t0 + last[g] <= seconds]
            if not order:
                break
        group = order[0]
        start_pass = clock()
        first = not passes[group]
        total = runner.run_pass(ops[group] if group == "ladder" or first else light,
                                f"{group}{passes[group]}", log, keep and first)
        passes[group] += 1
        last[group] = clock() - start_pass
        if group == "ladder":
            ladder.append(total)
        elif first and mode == "measure":  # traced counts are those of full passes
            first_ms = {op["label"]: log["corpus_measured_ms"][op["label"]][0]
                        for op in ops["corpus"]}
            light = [op for op in ops["corpus"] if first_ms[op["label"]] < LIGHT_S * 1e3]
            # the heavy ops run only once: plan and share the time as if the
            # first pass had been a light one
            last[group] -= sum(ms for ms in first_ms.values() if ms >= LIGHT_S * 1e3) / 1e3
        spent[group] += last[group]
    if runner.tracer is not None:
        runner.tracer.uninstall()
        overhead = statistics.median(ladder) / untraced
        result["per_layer"] = runner.tracer.metrics(passes, overhead)
        result["shares"] = {g: {name: bucket["self_s"] / passes[g]
                                for name, bucket in runner.tracer.totals(g).items()}
                            for g in passes}
        corpus_s = sum(sum(v) for v in log["corpus_measured_ms"].values()) / 1e3
        result["group_s"] = {"corpus": corpus_s / passes["corpus"],
                             "ladder": sum(ladder) / passes["ladder"]}
        if spans_path:
            runner.tracer.write_spans(spans_path)
    for _ in range(6):  # reference times after the last pass
        runner.ref()
    # The known failures run once, untimed and untraced, outside the counts.
    known = []
    for op in ops.get("known", []):
        _, out = runner.run_op(op)
        known.append({"label": op["label"], "listed": op["known"],
                      "reason": workloads.verify(op, out, runner.models)})
    spans = log.pop("ladder_spans")
    result.update(
        passes=passes, measured_s=clock() - t0,
        distinct_ops=len(ops["corpus"]) + len(ops["ladder"]) + len(known), known=known,
        ladder_s=runner.ladder_s(spans, True), ladder_measured_s=runner.ladder_s(spans, False),
        reference_ms=[s * 1e3 for _, s in runner.refs],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env={"python": platform.python_version(), "numpy": np.__version__, **blas_info(np)},
        **log)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
