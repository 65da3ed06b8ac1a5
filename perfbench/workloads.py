"""Workload definitions: generated models, op lists, expected outcomes and the
output checker.

Nothing here imports gcskernel, so the inputs and the checks stay independent
of the program under test.  Every op is a plain JSON-able dict:

    {"label": str, "group": "corpus" | "ladder",
     "kind": "cli" | "bottom-up" | "top-down",
     "argv": [...] (cli), "model": path, "seed": int (library ops),
     "expect": {...}, "known": str (only on listed known failures)}

Ops listed in KNOWN_FAILURES are kept apart from the timed ops (see build).

Labels do not contain the workload seed, so the pass/fail sets of two seeds
compare directly.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random

WORKLOADS = ("check", "solve", "decompose")
CORPUS_DIR = "corpus"
EXIT = {"well": 0, "under": 3, "over": 4, "over-and-under": 5}
LINEAR = ("lindep1", "lindep2")
PROBES = {"probe-12": 7, "probe-13": 8}  # name -> pendant points on the chain
# Strip sizes.  strip(200) is left out of the check and top-down ladders: its
# check takes 10-15 s, so a 30 s run held one ladder pass, and one stall of
# the shared machine moved ladder_s by 25 %.  The direct solve of strip(200)
# takes 0.3 s and stays.
LADDER = (12, 24, 48, 100)
SOLVE_LADDER = LADDER + (200,)
BOTTOM_UP_LADDER = (3, 4, 5, 6, 7)
WITNESS_SEEDS = 4
JITTERS = 5

# Expected verdicts of every corpus model and probe:
# name -> (witness verdict, structural counting state, free motions, source).
# "seed-output" marks values nothing in the tests, README or ROADMAP pins; they
# are the program's own output at the commit that introduced this benchmark.
EXPECT = {
    "braced-quad": ("well", "well", 0, "zoo docstring (well); tests/test_cli.py decompose/detect"),
    "double-banana": ("over-and-under", "well", 1, "tests/test_cli.py::test_check_3d_models"),
    "inconsistent": ("well", "well", 0, "seed-output (generic rank; no real solution)"),
    "k4": ("over", "over", 0, "tests/test_cli.py::test_check_under_and_over_exits"),
    "lindep1": ("over", None, 0, "README dependency-group example (5 rows, 3 unknowns)"),
    "lindep2": ("over", None, 0, "README; tests/test_cli.py::test_detect_lindep2"),
    "parallel-lines": ("under", "under", 1,
                       "tests/test_cli.py::test_check_parallel_lines_mismatch; structural seed-output"),
    "plane-prism": ("well", "over", 0, "zoo docstring (rank 11, DOR 5); structural seed-output"),
    "seed-demo": ("well", "well", 0, "zoo docstring (rigid)"),
    "solve-braced-quad": ("well", "well", 0, "zoo.solve_corpus (well-constrained sweep)"),
    "solve-equilateral": ("well", "well", 0, "zoo.solve_corpus; tests/test_cli.py"),
    "solve-kite": ("well", "well", 0, "zoo.solve_corpus"),
    "solve-pentagon-fan": ("well", "well", 0, "zoo.solve_corpus"),
    "solve-right-triangle": ("well", "well", 0, "zoo.solve_corpus"),
    "solve-scalene": ("well", "well", 0, "zoo.solve_corpus"),
    "solve-seed-demo": ("well", "well", 0, "zoo.solve_corpus"),
    "solve-strip3": ("well", "well", 0, "zoo.solve_corpus"),
    "solve-strip4": ("well", "well", 0, "zoo.solve_corpus"),
    "solve-strip5": ("well", "well", 0, "zoo.solve_corpus"),
    "square4": ("under", "under", 1, "tests/test_cli.py::test_check_under_and_over_exits"),
    "tetrahedron": ("well", "well", 0, "tests/test_cli.py::test_check_3d_models"),
    "three-distances": ("well", "well", 0, "zoo docstring; Laman count"),
    "three-lines-three-angles": ("over-and-under", "well", 1,
                                 "tests/test_cli.py::test_check_three_lines_over"),
    "triangle": ("well", "well", 0, "tests/test_cli.py::test_check_triangle_well"),
    "two-triangles-bridge": ("under", "under", 1,
                             "tests/test_cli.py::test_detect_bridge_parts_and_free_motion"),
    "two-triangles-distance": ("under", "under", 2, "zoo docstring (under); free motions seed-output"),
    "probe-12": ("over-and-under", "over", 7, "ROADMAP open item (counting probe)"),
    "probe-13": ("over-and-under", "over", 8, "ROADMAP open item (counting probe)"),
}

# Extra fields of the `gcs check --format json` report pinned by the tests.
CHECK_PINS = {
    "triangle": {"report.witness.rank": 7, "report.witness.dor": 3},
    "parallel-lines": {"report.witness.columns": 12, "report.witness.rank": 5,
                       "report.witness.dor": 6},
    "double-banana": {"report.structural.advisory": True, "report.witness.freeMotions": 1},
    "three-lines-three-angles": {"report.witness.dependentGroups": [[0, 1, 2]]},
    "probe-12": {"report.structural.violatingSubgraph": ["P1", "P2", "P3", "P4", "P5"]},
}

DETECT_PINS = {
    "lindep2": {"greedy.dependencyGroups": [[0, 1, 2, 3], [0, 1, 2, 4]],
                "oracle.dependencyGroups contains": [3, 4]},
    "braced-quad": {"summary": "no ill-constrained parts", "greedy.dependencyGroups": []},
    "two-triangles-bridge": {"greedy.wellParts": [["P1", "P2", "P3"], ["P4", "P5"]]},
}

# Root counts of `gcs decompose` trees (None: the strategy refuses the model in
# the report's "error" field).  Pinned by tests/test_cli.py for braced-quad
# (bottom-up), solve-equilateral (bottom-up) and k4 (top-down); the rest are
# seed-output.  A well-constrained 2D model must assemble into one root.
DECOMPOSE_ROOTS = {
    "braced-quad": (1, 1), "double-banana": (2, None), "inconsistent": (1, 1),
    "k4": (4, 1), "parallel-lines": (0, None), "plane-prism": (3, None),
    "seed-demo": (1, 1), "square4": (4, 1), "tetrahedron": (1, None),
    "three-distances": (1, 1), "three-lines-three-angles": (3, None),
    "triangle": (1, None), "two-triangles-bridge": (2, 1), "two-triangles-distance": (3, 1),
}

# Ops that fail at the commit that introduced this benchmark, by label prefix.
KNOWN_FAILURES = {
    "solve --strategy decomposed inconsistent":
        "uncaught AlignmentError (closure circles do not intersect): a traceback, no exit code",
    "check probe-13":
        "structural state reads 'under' (sampled counting above 12 entities); correct is 'over'",
}


def corpus_names() -> list[str]:
    return sorted(f[:-5] for f in os.listdir(CORPUS_DIR) if f.endswith(".json"))


def geometric_names() -> list[str]:
    return [n for n in corpus_names() if n not in LINEAR]


def corpus_path(name: str) -> str:
    return f"{CORPUS_DIR}/{name}.json"


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# generated models


def _distance(cid: str, a: str, b: str, coords: dict) -> dict:
    return {"id": cid, "kind": "distance-pp", "entities": [a, b],
            "value": math.dist(coords[a], coords[b])}


def strip_model(n: int, step: float = 4.0) -> dict:
    """Triangle strip: n + 2 points, 2n + 1 distances, minimally rigid (Laman)."""
    coords = {f"P{i + 1}": ((i // 2) * step + (i % 2) * step / 2.0, (i % 2) * step)
              for i in range(n + 2)}
    edges = []
    for i in range(n):
        a, b, c = f"P{i + 1}", f"P{i + 2}", f"P{i + 3}"
        if i == 0:
            edges.append((a, b))
        edges.extend([(b, c), (a, c)])
    return {
        "dimension": 2,
        "entities": [{"id": k, "kind": "point2", "params": list(coords[k])}
                     for k in sorted(coords)],
        "constraints": [_distance(f"e{i}", a, b, coords)
                        for i, (a, b) in enumerate(edges, start=1)],
    }


def probe_model(pendants: int) -> dict:
    """Braced pentagon plus the surplus bar P2-P5, with a pendant chain off P3.

    Over-constrained on P1..P5 and under-constrained along the chain.
    """
    data = load_json(corpus_path("solve-pentagon-fan"))
    coords = {e["id"]: tuple(e["params"]) for e in data["entities"]}
    data["constraints"].append(_distance("s1", "P2", "P5", coords))
    prev = "P3"
    for i in range(1, pendants + 1):
        x, y = coords[prev]
        qid = f"Q{i}"
        coords[qid] = (x + 2.0, y + 0.5 * (-1) ** i)
        data["entities"].append({"id": qid, "kind": "point2", "params": list(coords[qid])})
        data["constraints"].append(_distance(f"q{i}", prev, qid, coords))
        prev = qid
    return data


def jitter_model(data: dict, rng: random.Random, rel: float = 0.01,
                 angular: float = 0.01) -> dict:
    """Perturb the initial-guess params: positions by rel times the median
    distance value (the model's length scale), angles and directions by angular.

    At rel = 0.03 the direct solve of a strip takes 4 or 5 Newton iterations
    depending on the seed, which spreads the solve ladder's time by 10 %; at
    0.01 it takes 4 on every seed tried.
    """
    out = copy.deepcopy(data)
    lengths = sorted(c["value"] for c in out["constraints"] if c["kind"].startswith("distance"))
    extent = lengths[len(lengths) // 2] if lengths else 1.0
    for e in out["entities"]:
        kind, params = e["kind"], e["params"]
        if kind == "line2":  # (phi, rho)
            scales = (angular, rel * extent)
        elif kind == "line3":  # point, direction
            scales = (rel * extent,) * 3 + (angular,) * 3
        elif kind == "plane3" and e.get("representation") == "hessian":  # normal, offset
            scales = (angular,) * 3 + (rel * extent,)
        elif kind == "plane3":  # point, normal
            scales = (rel * extent,) * 3 + (angular,) * 3
        else:
            scales = (rel * extent,) * len(params)
        e["params"] = [p + rng.gauss(0.0, s) for p, s in zip(params, scales)]
    return out


# ---------------------------------------------------------------------------
# op lists


def _cli(label, group, argv, model, expect) -> dict:
    op = {"label": label, "group": group, "kind": "cli",
          "argv": ["--format", "json"] + argv, "model": model, "expect": expect}
    for prefix, why in KNOWN_FAILURES.items():
        if label == prefix or label.startswith(prefix + " "):
            op["known"] = why
    return op


def _check_expect(name: str, seed: int) -> dict:
    verdict, structural, _, _ = EXPECT[name]
    pins = dict(CHECK_PINS.get(name, {}))
    if name not in LINEAR:
        pins["report.witness.seeds"] = [seed, seed + 1, seed + 2]
    return {"cmd": "check", "exit": EXIT[verdict], "verdict": verdict,
            "structural": structural, "pins": pins}


def _solve_expect(name: str) -> dict:
    # inconsistent: tests/test_cli.py::test_solve_inconsistent_exit_4;
    # three-lines-three-angles: seed-output
    if name in ("inconsistent", "three-lines-three-angles"):
        return {"cmd": "solve", "exit": 4, "status": "inconsistent"}
    return {"cmd": "solve", "exit": 0, "status": "converged"}


def _decomposed_expect(name: str, data: dict) -> dict:
    verdict = EXPECT[name][0]
    roots = DECOMPOSE_ROOTS.get(name, (1, 1))[0]
    if (name != "inconsistent" and data["dimension"] == 2 and verdict == "well"
            and roots == 1):
        return {"cmd": "solve", "exit": 0, "status": "converged"}
    # out of scope (3D, or a tree that does not assemble) or unsolvable
    return {"cmd": "refuse-or-solve"}


def build(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's generated models under workdir; return its ops.

    Returns {"warmup": [...], "corpus": [...], "ladder": [...], "known": [...]},
    where "known" holds the ops listed in KNOWN_FAILURES.  Inputs depend only
    on the workload, the seed and the corpus.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    names = corpus_names()
    geometric = geometric_names()
    probes = {name: write_json(os.path.join(workdir, f"{name}.json"), probe_model(k))
              for name, k in PROBES.items()}

    def strip(n, jitter_rng=None):
        data = strip_model(n)
        if jitter_rng is not None:
            data = jitter_model(data, jitter_rng)
        return write_json(os.path.join(workdir, f"strip{n}.json"), data)

    corpus, ladder = [], []
    if workload == "check":
        wseeds = [rng.randrange(1, 2 ** 30) for _ in range(WITNESS_SEEDS)]
        warmup = [_cli(f"check {n}", "warmup", ["--seed", str(wseeds[0]), "check", corpus_path(n)],
                       corpus_path(n), _check_expect(n, wseeds[0])) for n in names]
        for k, ws in enumerate(wseeds):
            for n in names:
                corpus.append(_cli(f"check {n} w{k}", "corpus",
                                   ["--seed", str(ws), "check", corpus_path(n)],
                                   corpus_path(n), _check_expect(n, ws)))
            for n, path in probes.items():
                corpus.append(_cli(f"check {n} w{k}", "corpus", ["--seed", str(ws), "check", path],
                                   path, _check_expect(n, ws)))
        for n in LADDER:
            path = strip(n)
            ladder.append(_cli(f"check strip-{n}", "ladder",
                               ["--seed", str(wseeds[0]), "check", path], path,
                               {"cmd": "check", "exit": 0, "verdict": "well",
                                "structural": "well", "pins": {}}))  # Laman count
            ladder[-1]["size"] = n
    elif workload == "solve":
        warmup = [_cli(f"solve {n}", "warmup", ["solve", corpus_path(n)], corpus_path(n),
                       _solve_expect(n)) for n in geometric]
        for n in geometric:
            base = load_json(corpus_path(n))
            for j in range(JITTERS):
                path = write_json(os.path.join(workdir, f"{n}-j{j}.json"), jitter_model(base, rng))
                corpus.append(_cli(f"solve {n} j{j}", "corpus", ["solve", path], path,
                                   _solve_expect(n)))
        for n in SOLVE_LADDER:
            path = strip(n, rng)
            ladder.append(_cli(f"solve strip-{n}", "ladder", ["solve", path], path,
                               {"cmd": "solve", "exit": 0, "status": "converged"}))
            ladder[-1]["size"] = n
    else:
        dseed = rng.randrange(1, 2 ** 30)
        seed_arg = ["--seed", str(dseed)]

        def detect(n, path, group):
            verdict, _, free, _ = EXPECT[n]
            expect = {"cmd": "detect", "exit": 0, "pins": dict(DETECT_PINS.get(n, {}))}
            if n not in LINEAR:
                expect.update(verdict=verdict, free=free)
            return _cli(f"detect {n}", group, seed_arg + ["detect", path], path, expect)

        warmup = [detect(n, corpus_path(n), "warmup") for n in names]
        for n in geometric:
            path = corpus_path(n)
            verdict = EXPECT[n][0]
            bu, td = DECOMPOSE_ROOTS.get(n, (1, 1))
            corpus.append(detect(n, path, "corpus"))
            for strategy, roots in (("bottom-up", bu), ("top-down", td)):
                corpus.append(_cli(
                    f"decompose --strategy {strategy} {n}", "corpus",
                    seed_arg + ["decompose", path, "--strategy", strategy], path,
                    {"cmd": "decompose", "exit": EXIT[verdict], "verdict": verdict,
                     "roots": roots}))
            corpus.append(_cli(f"solve --strategy decomposed {n}", "corpus",
                               seed_arg + ["solve", path, "--strategy", "decomposed"], path,
                               _decomposed_expect(n, load_json(path))))
        for n in LINEAR:
            corpus.append(detect(n, corpus_path(n), "corpus"))
        for n, path in probes.items():
            corpus.append(detect(n, path, "corpus"))
        for strategy, sizes in (("bottom-up", BOTTOM_UP_LADDER), ("top-down", LADDER)):
            for n in sizes:
                ladder.append({"label": f"{strategy}+solve_tree strip-{n}", "group": "ladder",
                               "kind": strategy, "model": strip(n), "seed": dseed, "size": n,
                               "expect": {"cmd": "tree-solve"}})
    # Known failures leave the timed loop, so that every timed op completes;
    # each still runs once per run, untimed, and its outcome is reported.
    known = [op for op in corpus if op.get("known")]
    corpus = [op for op in corpus if not op.get("known")]
    return {"warmup": warmup, "corpus": corpus, "ladder": ladder, "known": known}


# ---------------------------------------------------------------------------
# output checks


def _norm(v) -> float:
    return math.sqrt(sum(c * c for c in v))


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _direction(entity: dict, p) -> tuple:
    if entity["kind"] == "plane3" and entity.get("representation") == "hessian":
        return tuple(p[0:3])
    return tuple(p[3:6])


def residuals(model: dict, params: dict) -> list[tuple[str, float]]:
    """Geometric residual of every constraint and normalization, recomputed
    from entity params in the units of the constraint value.

    Conventions follow the README and compiler docs: a 2D line is (phi, rho) in
    Hesse normal form, and a 2D angle-ll of value v holds when the normal
    angles differ by pi - v.
    """
    dim = model["dimension"]
    ents = {e["id"]: e for e in model["entities"]}
    out = []
    for c in model["constraints"]:
        kind, ids, v = c["kind"], c["entities"], c.get("value")
        a = params[ids[0]]
        b = params[ids[1]] if len(ids) > 1 else None
        if kind == "distance-pp":
            r = math.dist(a[:dim], b[:dim]) - v
        elif kind == "point-on-line" and dim == 2:
            r = a[0] * math.cos(b[0]) + a[1] * math.sin(b[0]) - b[1]
        elif kind == "angle-ll" and dim == 2:
            r = abs(a[0] - b[0]) - (math.pi - v)
        elif kind == "parallel" and dim == 3:
            u1, u2 = _direction(ents[ids[0]], a), _direction(ents[ids[1]], b)
            r = _norm(_cross(u1, u2)) / (_norm(u1) * _norm(u2))
        elif kind == "distance-ll" and dim == 3:
            d1 = a[3:6]
            rel = [b[i] - a[i] for i in range(3)]
            r = _norm(_cross(rel, d1)) / _norm(d1) - v
        elif (kind in ("angle-planeplane", "distance-planeplane")
              and all(ents[i].get("representation") == "hessian" for i in ids)):
            n1, n2 = a[0:3], b[0:3]
            cos12 = sum(x * y for x, y in zip(n1, n2)) / (_norm(n1) * _norm(n2))
            if kind == "angle-planeplane":
                r = cos12 - math.cos(v)
            else:
                r = abs(a[3] - cos12 * b[3]) - v
        else:
            raise ValueError(f"no independent residual for {kind!r} in {dim}D")
        out.append((c["id"], r / max(1.0, abs(v or 0.0))))
    for e in model["entities"]:
        if e["kind"] == "line3" or (e["kind"] == "plane3" and e.get("representation") == "hessian"):
            out.append((f"unit:{e['id']}", _norm(_direction(e, params[e["id"]])) - 1.0))
    return out


RESIDUAL_TOL = 1e-7


def _max_residual(model: dict, entities: dict) -> tuple[float, str]:
    missing = [e["id"] for e in model["entities"]
               if len(entities.get(e["id"], ())) != len(e["params"])]
    if missing:
        raise ValueError(f"missing or malformed params for {missing}")
    worst = max(residuals(model, entities), key=lambda item: abs(item[1]), default=("-", 0.0))
    return abs(worst[1]), worst[0]


def _lookup(data, dotted: str):
    for key in dotted.split("."):
        data = data[key]
    return data


def _check_solution(model: dict, status: str, entities: dict) -> str | None:
    worst, cid = _max_residual(model, entities)
    if status == "converged" and worst > RESIDUAL_TOL:
        return f"reported converged but residual of {cid} is {worst:.3g}"
    if status != "converged" and worst <= RESIDUAL_TOL:
        return f"reported {status} but the printed params satisfy every constraint"
    return None


def verify(op: dict, out: dict, models: dict) -> str | None:
    """Return None if the op's output is correct, else the reason it is not.

    ``out`` holds "code", "stdout", "stderr" and "exc" (an uncaught exception,
    or None); library ops carry "status", "entities" and "roots" instead of
    stdout.  ``models`` caches parsed model files by path.
    """
    if out.get("exc"):
        return f"uncaught {out['exc']}"
    exp = op["expect"]
    cmd = exp["cmd"]
    if op["model"] not in models:
        models[op["model"]] = load_json(op["model"])
    model = models[op["model"]]
    try:
        if cmd == "tree-solve":
            if out["roots"] != 1:
                return f"tree has {out['roots']} roots; a rigid strip assembles into one"
            return _check_solution(model, out["status"], out["entities"]) or (
                None if out["status"] == "converged" else f"status {out['status']}")
        if cmd == "refuse-or-solve":
            # a message-only refusal counts as completed, whatever its exit
            # code; a solve report must agree with its own params
            if not out["stdout"].strip() and out["stderr"].strip():
                return None
            report = json.loads(out["stdout"])
            return _check_solution(model, report["status"], report["entities"])
        if out["code"] != exp["exit"]:
            return f"exit code {out['code']}, expected {exp['exit']}"
        report = json.loads(out["stdout"])
        if "verdict" in exp and report.get("verdict") != exp["verdict"]:
            return f"verdict {report.get('verdict')!r}, expected {exp['verdict']!r}"
        if cmd == "check":
            if report["report"]["witness"]["verdict"] != exp["verdict"]:
                return f"witness verdict {report['report']['witness']['verdict']!r}"
            state = report["report"].get("structural", {}).get("state")
            if state != exp["structural"]:
                return f"structural state {state!r}, expected {exp['structural']!r}"
        elif cmd == "detect":
            if "free" in exp and report["freeMotions"] != exp["free"]:
                return f"free motions {report['freeMotions']}, expected {exp['free']}"
        elif cmd == "decompose":
            if ("advice" in report) != (exp["verdict"] != "well"):
                return "advice present iff the model is not well-constrained"
            if exp["roots"] is None:
                if "error" not in report:
                    return "expected the strategy to refuse the model"
            else:
                roots = report["tree"]["roots"]
                if len(roots) != exp["roots"]:
                    return f"{len(roots)} roots, expected {exp['roots']}"
                if len(roots) == 1 and exp["verdict"] == "well" and (
                        sorted(roots[0]["entities"]) != sorted(e["id"] for e in model["entities"])):
                    return "the single root does not cover every entity"
        elif cmd == "solve":
            if report["status"] != exp["status"]:
                return f"status {report['status']!r}, expected {exp['status']!r}"
            return _check_solution(model, report["status"], report["entities"])
        for key, want in exp.get("pins", {}).items():
            if key.endswith(" contains"):
                if want not in _lookup(report, key[:-len(" contains")]):
                    return f"{key} {want} fails"
            elif _lookup(report, key) != want:
                return f"{key} is {_lookup(report, key)!r}, expected {want!r}"
    except (KeyError, TypeError, ValueError, IndexError) as err:
        return f"malformed output: {type(err).__name__}: {err}"
    return None
