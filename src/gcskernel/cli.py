"""Command-line front end: check | detect | decompose | solve.

Exit codes: 0 well, 1 parse/validation error, 3 under, 4 over,
5 over-and-under, 6 unstable, 7 no witness sample could be drawn (the
projection onto the singular rows did not converge), or a decomposed solve
refused (no 2D cluster tree, or a cluster failed to solve or align).
Reports are deterministic for a fixed model and configuration;
JSON output is byte-stable (sorted keys, fixed separators).  The environment variable GCS_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .compiler import (
    AnchorError,
    CompileError,
    add_anchors,
    assignment_from_params,
    compile_model,
    eval_jacobian,
    linear_system,
    params_from_assignment,
)
from .decompose import (
    AlignmentError,
    DecompositionError,
    bottom_up,
    bottom_up_at,
    require_2d,
    solve_tree,
    top_down,
)
from .detect import (
    CapExceeded,
    detection_report,
    greedy_dependency_groups,
    greedy_well_parts,
    oracle_max_well_part,
    oracle_min_dependent_sets,
)
from .model import Model, model_from_json_dict
from .numeric import RANK_REL_TOL, RESIDUAL_TOL, solve
from .structural import build_graphs, counting_state
from .witness import WitnessError, characterize, characterize_at

EXIT = {"well": 0, "under": 3, "over": 4, "over-and-under": 5, "unstable": 6}
EXIT_REFUSED = 7  # no witness sample could be drawn, or a decomposed solve refused


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_json_text(payload) + "\n")
        return
    # an explicit stack of (text line | container, indent): a report may nest
    # deeper than the recursion limit
    stack: list = [(payload, 0)]
    while stack:
        obj, indent = stack.pop()
        if isinstance(obj, str):
            sys.stdout.write(obj)
            continue
        pad = "  " * indent
        todo: list = []
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    todo += [(f"{pad}{k}:\n", 0), (v, indent + 1)]
                else:
                    todo.append((f"{pad}{k}: {v}\n", 0))
        elif isinstance(obj, list):
            # a container item opens with its own marker line, its contents
            # indented under it
            for v in obj:
                if isinstance(v, (dict, list)):
                    todo += [(f"{pad}-\n", 0), (v, indent + 1)]
                else:
                    todo.append((f"{pad}- {v}\n", 0))
        stack.extend(reversed(todo))


def _json_text(payload) -> str:
    """``json.dumps`` with sorted keys and compact separators.  Its encoder
    takes one interpreter recursion level per nested container, so a report
    nested deeper than the recursion limit (the cluster tree of a long strip)
    goes to :func:`_json_text_deep`, which writes the same text."""
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except RecursionError:
        return _json_text_deep(payload)


def _json_text_deep(payload) -> str:
    """The text of :func:`_json_text` from an explicit stack of (items, closing
    bracket); each item is (the text before the value, the value).  Keys are
    strings, as in every report."""
    parts: list[str] = []
    stack = [(iter((("", payload),)), "")]
    while stack:
        items, closer = stack[-1]
        item = next(items, None)
        if item is None:
            stack.pop()
            parts.append(closer)
            continue
        before, value = item
        parts.append(before)
        if isinstance(value, dict):
            parts.append("{")
            pairs = ((("," if k else "") + json.dumps(key) + ":", v)
                     for k, (key, v) in enumerate(sorted(value.items())))
            stack.append((pairs, "}"))
        elif isinstance(value, (list, tuple)):
            parts.append("[")
            elements = (("," if k else "", v) for k, v in enumerate(value))
            stack.append((elements, "]"))
        else:
            parts.append(json.dumps(value))
    return "".join(parts)


def _load(path: str):
    """Load either a geometric model or a raw linear-system JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExitError(1, f"cannot read {path}: {err}")
    try:
        if "equations" in data:
            rows = [eq["coeffs"] for eq in data["equations"]]
            rhs = [eq.get("rhs", 0.0) for eq in data["equations"]]
            return None, linear_system(rows, rhs, data.get("variables"))
        model = model_from_json_dict(data)
    except (KeyError, TypeError, ValueError) as err:
        raise SystemExitError(1, f"malformed model {path}: {err}")
    try:
        return model, compile_model(model)
    except CompileError as err:
        raise SystemExitError(1, f"model {path} does not validate: {err}")


class SystemExitError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _raw_sample(system, seed: int) -> np.ndarray:
    """The assignment a raw equation system is ranked at: uniform in [-1, 1]^n."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=system.n_variables)


def _characterize(model: Model, system, args) -> dict:
    report = {}
    verdict = "well"
    if model is None:
        # raw equation system: witness analysis degenerates to a rank check at
        # a random assignment, structural analysis is not applicable
        wr = characterize_at(system, _raw_sample(system, args.seed), 0, rank_tol=args.rank_tol)
        report["witness"] = wr.to_json_dict()
        return {"verdict": wr.verdict, "report": report}
    if args.mode in ("structural", "both"):
        _, cg = build_graphs(system, model)
        cv = counting_state(cg)
        report["structural"] = {
            "state": cv.state,
            "deficit": cv.deficit,
            "advisory": cv.advisory,
            "violatingSubgraph": list(cv.witness_subgraph) if cv.witness_subgraph else None,
        }
        verdict = cv.state
    if args.mode in ("witness", "both"):
        wr = characterize(system, model, seed=args.seed, votes=args.witnesses,
                          rank_tol=args.rank_tol)
        report["witness"] = wr.to_json_dict()
        verdict = wr.verdict
    return {"verdict": verdict, "report": report}


def cmd_check(args) -> int:
    model, system = _load(args.model)
    out = _characterize(model, system, args)
    payload = {"command": "check", "model": args.model, **out}
    _emit(payload, args.format)
    return EXIT.get(out["verdict"], 6)


def cmd_detect(args) -> int:
    model, system = _load(args.model)
    # the searches read the Jacobian (and, for a model, the motion basis) at
    # the witness of the verdict's first vote, which is drawn at --seed
    if model is None:
        if args.seed_entity is not None:
            raise SystemExitError(1, "--seed-entity needs a geometric model")
        J = eval_jacobian(system, _raw_sample(system, args.seed))
    else:
        wr = characterize(system, model, seed=args.seed, votes=args.witnesses,
                          rank_tol=args.rank_tol)
        J, M = wr.witness.jacobian, wr.witness.motions
    try:
        greedy = greedy_dependency_groups(J, seed_row=args.seed_row, rank_tol=args.rank_tol)
        parts = [] if model is None else greedy_well_parts(
            model, system, J, M, seed_entity=args.seed_entity, rank_tol=args.rank_tol)
    except ValueError as err:  # a seed row or seed entity the system does not have
        raise SystemExitError(1, str(err))
    payload = {
        "command": "detect",
        "model": args.model,
        "greedy": detection_report(greedy, "greedy", args.seed, parts),
    }
    try:
        oracle = oracle_min_dependent_sets(J, rank_tol=args.rank_tol)
        payload["oracle"] = detection_report(oracle, "oracle", args.seed)
    except CapExceeded as err:
        payload["oracle"] = {"skipped": str(err)}
    if model is not None:
        try:
            best = oracle_max_well_part(model, system, J, M, rank_tol=args.rank_tol)
            payload["oracle"]["maxWellPart"] = sorted(best.entities)
        except CapExceeded as err:
            payload["oracle"]["maxWellPart"] = f"skipped: {err}"
        payload["freeMotions"] = wr.free_motions
        payload["verdict"] = wr.verdict
        ill = not greedy and wr.verdict == "well"
        payload["summary"] = ("no ill-constrained parts" if ill
                              else "ill-constrained parts listed")
    _emit(payload, args.format)
    return 0


def cmd_decompose(args) -> int:
    model, system = _load(args.model)
    if model is None:
        raise SystemExitError(1, "decompose needs a geometric model")
    wr = characterize(system, model, seed=args.seed, votes=args.witnesses,
                      rank_tol=args.rank_tol)
    payload = {"command": "decompose", "model": args.model, "strategy": args.strategy,
               "verdict": wr.verdict}
    try:
        # bottom-up's merge checks read the verdict's first witness and the
        # dependent groups of its Jacobian
        tree = bottom_up_at(model, system, wr.witness, wr.witness_groups(), args.rank_tol) \
            if args.strategy == "bottom-up" else top_down(model)
        payload["tree"] = tree.to_json_dict()
    except DecompositionError as err:
        payload["error"] = str(err)
    if wr.verdict != "well":
        payload["advice"] = "model is not well-constrained; run detect first"
    _emit(payload, args.format)
    return EXIT.get(wr.verdict, 6)


def cmd_solve(args) -> int:
    model, system = _load(args.model)
    if model is None:
        raise SystemExitError(1, "solve needs a geometric model")
    try:
        start = assignment_from_params(model, system)
    except ValueError as err:
        raise SystemExitError(1, str(err))

    if args.strategy == "decomposed":
        try:
            require_2d(model)  # refuse before the merge search, not after it
            tree = bottom_up(model, seed=args.seed, rank_tol=args.rank_tol, system=system)
            plan, solution, cert = solve_tree(model, tree, max_iter=args.max_iter,
                                              tol=args.tolerance, system=system)
        except (DecompositionError, AlignmentError) as err:
            raise SystemExitError(EXIT_REFUSED, f"decomposed solve failed: {err}")
        result = cert
        params = solution
    else:
        try:
            anchored = add_anchors(system, model)
        except AnchorError:
            anchored = system  # no frame to pin; least-squares steps cope
        result = solve(anchored, start, max_iter=args.max_iter, tol=args.tolerance)
        params = params_from_assignment(model, anchored, result.assignment)

    payload = {
        "command": "solve",
        "model": args.model,
        "strategy": args.strategy,
        "status": result.status,
        "iterations": result.iterations,
        "residualMax": result.residual_norm,
        "entities": {k: list(v) for k, v in sorted(params.items())},
    }
    _emit(payload, args.format)
    return {"converged": 0, "inconsistent": 4}.get(result.status, 6)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcs",
        description="Geometric constraint system characterization, detection, "
                    "decomposition and solving.")
    parser.add_argument("--tolerance", type=float, default=RESIDUAL_TOL,
                        help="residual tolerance (default 1e-9)")
    parser.add_argument("--rank-tol", type=float, default=RANK_REL_TOL,
                        help="relative rank tolerance (default 1e-8)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--witnesses", type=int, default=3,
                        help="witness votes per characterization; drawing stops once a "
                             "majority agrees (default 3)")
    parser.add_argument("--mode", choices=["structural", "witness", "both"],
                        default="both")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--max-iter", type=int, default=100)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="characterize the constraint state")
    p.add_argument("model")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("detect", help="locate over/under-constrained parts")
    p.add_argument("model")
    p.add_argument("--seed-row", type=int, default=0)
    p.add_argument("--seed-entity", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("decompose", help="split a well-constrained model into clusters")
    p.add_argument("model")
    p.add_argument("--strategy", choices=["bottom-up", "top-down"], default="bottom-up")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("solve", help="solve and print entity parameters")
    p.add_argument("model")
    p.add_argument("--strategy", choices=["direct", "decomposed"], default="direct")
    p.set_defaults(func=cmd_solve)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: every parse makes a fresh
    namespace from the defaults, so one parser serves every call of main."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if "GCS_SEED" in os.environ:
        try:
            args.seed = int(os.environ["GCS_SEED"])
        except ValueError:
            print("GCS_SEED must be an integer", file=sys.stderr)
            return 1
    if args.seed < 0:
        print("seed must be >= 0", file=sys.stderr)
        return 1
    if args.tolerance <= 0 or args.rank_tol <= 0:
        print("tolerances must be positive", file=sys.stderr)
        return 1
    if args.witnesses < 1:
        print("witness count must be >= 1", file=sys.stderr)
        return 1
    if args.max_iter < 0:
        print("max-iter must be >= 0", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except SystemExitError as err:
        print(str(err), file=sys.stderr)
        return err.code
    except WitnessError as err:
        print(str(err), file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
