"""gcskernel benchmark: closed-loop workloads driven through `gcs` and the library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check|solve|decompose --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

One client runs one op at a time in one worker process (closed loop).  With
--trace 0 the last output line reports the end-to-end metrics; with --trace 1
it reports the per-layer metrics of a traced run.  Every op's output is
checked (see workloads.verify).  Ops listed in workloads.KNOWN_FAILURES fail at
the commit that introduced this benchmark; they run once per run outside the
timed loop and outside "attempted" and "failed", and lower ok_ratio while
they fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
WORK = os.path.join(HERE, ".work")
SETUP_PROBES = 4
DEADLINE_S = 170  # every run ends within this, set-up included

END_TO_END = {
    "corpus_p50_ms": "ms",
    "corpus_p90_ms": "ms",
    "ladder_s": "s",
    "ok_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def commit_of(root: str) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(root: str) -> str:
    """sha256 over the program's source files, so a result names the code it ran."""
    digest = hashlib.sha256()
    base = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("GCS_SEED", None)  # it would override the seeds the ops pass
    env.pop("PYTHONPATH", None)
    # one single-threaded BLAS process: steadier on a small shared machine
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_worker(ops_path: str, mode: str, seconds: float, deadline: float,
               spans_path: str | None = None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), ops_path, mode, str(seconds)]
    if spans_path:
        argv.append(spans_path)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the worker started")
    proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) * n samples lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def failset(result: dict) -> list[str]:
    """Labels of the distinct ops that failed: timed ops and known failures."""
    return sorted({f["label"] for f in result["failures"]}
                  | {k["label"] for k in result["known"] if k["reason"] is not None})


def end_to_end(result: dict, setups: list[dict], measured: bool = False) -> dict[str, float]:
    """The end-to-end metrics; speed-scaled times unless measured is set."""
    suffix = "_measured" if measured else ""
    # one value per corpus op: its median over the passes, so that a short
    # stall of the shared machine during one pass does not move the tail
    corpus = [statistics.median(v) for v in result[f"corpus{suffix}_ms"].values()]
    failing = failset(result)
    return {
        "corpus_p50_ms": statistics.median(corpus),
        "corpus_p90_ms": percentile(corpus, 0.9),
        "ladder_s": result[f"ladder{suffix}_s"],
        "ok_ratio": 1.0 - len(failing) / result["distinct_ops"],
        "setup_s": statistics.median(p[f"setup{suffix}_s"] for p in setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def prepare(workload: str, seed: int, ops_override=None) -> tuple[str, dict]:
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    ops = workloads.build(workload, seed, workdir)
    if ops_override:
        ops = ops_override(ops)
    path = os.path.join(workdir, "ops.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    return workdir, ops


def report(args, result: dict, setups: list[dict], ops: dict) -> dict:
    """Print the human-readable report; return the final JSON object."""
    env = {"commit": commit_of(ROOT), "src_sha256": src_digest(ROOT), **result["env"],
           "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"ops per pass: {len(ops['corpus'])} corpus, {len(ops['ladder'])} ladder; passes "
          f"{result['passes']}; measured {result['measured_s']:.2f} s")
    failures = result["failures"]
    reasons = {f["label"]: f["reason"] for f in failures}
    print("first pass, measured times:")
    for op in result["ops"]:
        reason = reasons.get(op["label"])
        print(f"  {'ok  ' if reason is None else 'FAIL'} {op['ms']:10.3f} ms  {op['label']}"
              + ("" if reason is None else f"  -- {reason}"))
    print(f"failed {len(failures)} of {result['attempted']} timed op runs")
    for f in {f["label"]: f for f in failures}.values():
        print(f"  UNEXPECTED: {f['label']}: {f['reason']}")
    print(f"known failures, run once each outside the timed ops: {len(result['known'])}")
    for k in result["known"]:
        status = "still fails" if k["reason"] is not None else "NOW PASSES"
        print(f"  {status}: {k['label']}: {k['reason'] or k['listed']}")
    print("failset " + json.dumps(failset(result)))
    if args.trace:
        metrics = result["per_layer"]
        units = {name: unit for name, unit, _ in tracer.metric_names()}
        shares = {}
        for group in ("corpus", "ladder"):
            total = result["group_s"][group]
            ranked = sorted(result["shares"][group].items(), key=lambda kv: -kv[1])
            shares[group] = {name: self_s / total for name, self_s in ranked}
            print(f"self-time shares of the {group} ops ({total:.3f} s per pass, measured):")
            for name, self_s in ranked[:12]:
                print(f"  {self_s / total:7.1%}  {self_s:9.4f} s  {name}")
        print("shares " + json.dumps(shares))
    else:
        metrics = end_to_end(result, setups)
        units = END_TO_END
        counts = sorted(len(v) for v in result["corpus_ms"].values())
        print(f"samples: {len(counts)} corpus ops, {sum(counts)} op runs ({counts[0]} to "
              f"{counts[-1]} per op) in {result['passes']['corpus']} passes; "
              f"{result['passes']['ladder']} ladder passes; {len(setups)} set-ups")
        measured = end_to_end(result, setups, measured=True)
        print(f"reference loop median {statistics.median(result['reference_ms']):.3f} ms "
              f"(nominal {worker.REFERENCE_S * 1e3:g} ms); measured, unscaled: "
              + ", ".join(f"{k} {measured[k]:.6g}" for k in ("corpus_p50_ms", "corpus_p90_ms",
                                                            "ladder_s", "setup_s")))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    return {"correct": not failures and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    workdir, ops = prepare(args.workload, args.seed)
    try:
        ops_path = os.path.join(workdir, "ops.json")
        probes = [run_worker(ops_path, "probe", 0, deadline)
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        spans = None
        if args.trace:
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        result = run_worker(ops_path, "trace" if args.trace else "measure", args.seconds,
                            deadline, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes.append(result)
    final = report(args, result, probes, ops)
    print(json.dumps(final))
    return 0


# ---------------------------------------------------------------------------
# self-test


def require(condition, context) -> None:
    """A self-test check that, unlike assert, also runs under python -O."""
    if not condition:
        raise AssertionError(f"self-test failed: {context}")


def _signature(op: dict) -> str:
    if op["kind"] != "cli":
        return op["kind"]
    words = [a for a in op["argv"]
             if not a.startswith("-") and not a.endswith(".json") and not a.isdigit()]
    return " ".join(w for w in words if w != "json")


def _one_of_each(ops: dict) -> dict:
    picked = {"warmup": ops["warmup"][:1], "corpus": [], "ladder": [], "keep_outputs": True}
    for group in ("corpus", "ladder"):
        seen = set()
        for op in ops[group]:
            if _signature(op) not in seen:
                seen.add(_signature(op))
                picked[group].append(op)
    return picked


def _tamper_solutions(ops: list, outputs: list) -> int:
    """Move one coordinate of every correct converged solution; each must be
    rejected.  Returns how many were tampered with."""
    count = 0
    for op, out in zip(ops, outputs):
        if workloads.verify(op, out, {}) is not None:
            continue
        report = json.loads(out["stdout"]) if out.get("stdout") else out
        if report.get("status") != "converged":
            continue
        model = workloads.load_json(op["model"])
        moved = model["constraints"][0]["entities"][0]
        entities = {k: list(v) for k, v in report["entities"].items()}
        entities[moved][0] += 1e-3
        if "stdout" in out:
            tampered = dict(out, stdout=json.dumps(dict(report, entities=entities)))
        else:
            tampered = dict(out, entities=entities)
        require(workloads.verify(op, tampered, {}) is not None, op["label"])
        count += 1
    return count


def _tamper_verdicts(ops: list, outputs: list) -> int:
    """Flip the verdict of every correct verdict report; each must be rejected."""
    count = 0
    for op, out in zip(ops, outputs):
        if op["expect"].get("verdict") and workloads.verify(op, out, {}) is None:
            report = json.loads(out["stdout"])
            report["verdict"] = "under" if report["verdict"] != "under" else "well"
            tampered = dict(out, stdout=json.dumps(report))
            require(workloads.verify(op, tampered, {}) is not None, op["label"])
            count += 1
    return count


def self_test() -> int:
    """One op of each kind per workload, every metric with its unit, and a
    checker that rejects tampered outputs; then the same failure set on two seeds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    units = {n: u for n, u, _ in tracer.metric_names()}
    deadline = time.monotonic() + 3600
    for workload in workloads.WORKLOADS:
        workdir, ops = prepare(workload, 1, _one_of_each)
        try:
            ops_path = os.path.join(workdir, "ops.json")
            result = run_worker(ops_path, "measure", 0, deadline)
            metrics = end_to_end(result, [result])
            require({k: END_TO_END[k] for k in metrics} == want_e2e, workload)
            traced = run_worker(ops_path, "trace", 0, deadline)
            require({k: units[k] for k in traced["per_layer"]} == want_layer, workload)
            run_ops = ops["corpus"] + ops["ladder"]
            require(not result["failures"], result["failures"])
            solutions = _tamper_solutions(run_ops, result["outputs"])
            verdicts = _tamper_verdicts(run_ops, result["outputs"])
            require(solutions + verdicts > 0, workload)
            print(f"self-test {workload}: ran {sorted({_signature(op) for op in run_ops})}; "
                  f"{len(metrics)} end-to-end and {len(traced['per_layer'])} per-layer metrics "
                  f"with units; checker rejected {solutions} tampered solutions and "
                  f"{verdicts} flipped verdicts")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

        def small(ops_: dict) -> dict:
            return dict(ops_, ladder=[op for op in ops_["ladder"] if op.get("size", 0) <= 48])

        failsets = []
        for seed in (1, 2):
            workdir, _ = prepare(workload, seed, small)
            try:
                result = run_worker(os.path.join(workdir, "ops.json"), "measure", 0, deadline)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            failsets.append(failset(result))
        require(failsets[0] == failsets[1], failsets)
        print(f"self-test {workload}: seeds 1 and 2 fail the same ops {failsets[0]}")
    print("self-test passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (os.path.isfile(os.path.join(ROOT, "src", "gcskernel", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, workloads.CORPUS_DIR))):
        return fail(f"{ROOT} is not a gcskernel checkout (needs src/gcskernel and corpus/)")
    if args.self_test:
        return self_test()
    if args.workload is None:
        return fail("--workload is required")
    try:
        return run(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        return fail(str(err))


if __name__ == "__main__":
    sys.exit(main())
