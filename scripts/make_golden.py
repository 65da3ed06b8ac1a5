"""Record the gcs JSON reports on the corpus and library recombination results.

Usage, from the root of the repository:

    PYTHONPATH=src python scripts/make_golden.py [DIR]

DIR defaults to tests/golden.  Four files are written there.  A second
argument, or a DIR that starts with ``-``, is refused with a usage line and
exit code 2, before anything is written.

``cli.json``: each case runs ``gcs --format json <command> corpus/<name>.json``
in-process, with GCS_SEED unset, and records its standard output and exit
code.  The commands are ``check``, ``detect``, ``decompose`` with both
strategies and ``solve`` with both strategies.

``solve_tree.json``: each case builds a cluster tree with ``top_down`` or
``bottom_up`` (seed 0) and recombines it with ``solve_tree``: top-down on
triangle strips 12, 24, 48, 100 and 200, bottom-up on strips 3-6, and both
strategies on every 2D corpus model and every model of ``zoo.solve_corpus``.
The exact sketches converge at iteration 0, so the solve-corpus models (both
strategies) and top-down strip 12 run again with the sketch moved off the
solution (``jittered``, seeds 1 and 2) and their clusters take Newton steps.
Each case records the solution and placement floats as ``float.hex``
strings, the certificate status and residual, or the type and message of the
refusal.

``equations.json``: each case records the ``dump_equations`` listing of one
compiled system: every corpus file as ``gcs`` loads it (the raw linear
systems included), a 2D and a 3D model that hold every constraint kind on
every entity signature and plane representation, the ``compiler.full_cross``
system of every 3D model (what a witness is projected onto), the anchored
``zoo.triangle_strip(12)``, and that strip with virtual distance bonds added.
Together they hold every row shape the compiler emits.

``tables.txt``: the standard output of ``scripts/run_tables.py`` at its
default seed, which prints only integers and verdicts.

tests/test_golden.py replays every case and compares the results byte for
byte and bit for bit, and tests/test_scripts.py compares the tables, so
regenerate the files only for an intended change of output, and say which
results changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from gcskernel import zoo
from gcskernel.cli import _load
from gcskernel.cli import main as gcs_main
from gcskernel.compiler import (
    add_anchors,
    add_constraints,
    compile_model,
    dump_equations,
    full_cross,
)
from gcskernel.decompose import (
    AlignmentError,
    DecompositionError,
    bottom_up,
    solve_tree,
    top_down,
)
from gcskernel.model import Constraint, Entity, Model, model_from_json_dict

COMMANDS = (
    ["check"],
    ["detect"],
    ["decompose", "--strategy", "bottom-up"],
    ["decompose", "--strategy", "top-down"],
    ["solve", "--strategy", "direct"],
    ["solve", "--strategy", "decomposed"],
)
DEFAULT_DIR = os.path.join("tests", "golden")
RUN_TABLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run_tables.py")
STRATEGIES = {"top-down": top_down, "bottom-up": bottom_up}


def cases(corpus_dir: str = "corpus") -> list[list[str]]:
    """argv of every case: each command on each corpus file, in sorted order."""
    names = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".json"))
    return [["--format", "json", cmd[0], f"{corpus_dir}/{name}", *cmd[1:]]
            for cmd in COMMANDS for name in names]


def run(argv: list[str]) -> tuple[str, int]:
    """Standard output and exit code of one in-process gcs run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gcs_main(argv)
    return out.getvalue(), code


def solve_tree_cases(corpus_dir: str = "corpus") -> list[tuple[str, str, object]]:
    """(strategy, model label, model) of every recombination case, in order."""
    out = [("top-down", f"strip-{n}", zoo.triangle_strip(n))
           for n in (12, 24, 48, 100, 200)]
    out += [("bottom-up", f"strip-{n}", zoo.triangle_strip(n)) for n in (3, 4, 5, 6)]
    models = []
    for name in sorted(f for f in os.listdir(corpus_dir) if f.endswith(".json")):
        with open(os.path.join(corpus_dir, name), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("dimension") == 2:  # raw linear systems have none
            models.append((f"corpus/{name}", model_from_json_dict(data)))
    models += [(f"zoo/{name}", m) for name, m in zoo.solve_corpus().items()]
    out += [(strategy, label, m) for label, m in models for strategy in STRATEGIES]
    for seed in (1, 2):
        out.append(("top-down", f"jittered-{seed}/strip-12",
                    jittered(zoo.triangle_strip(12), 0.03, seed)))
        out += [(strategy, f"jittered-{seed}/zoo/{name}", jittered(m, 0.03, seed))
                for name, m in zoo.solve_corpus().items() for strategy in STRATEGIES]
    return out


def jittered(model: Model, rel: float, seed: int) -> Model:
    """The model with every sketch parameter moved by rel times its largest distance."""
    rng = np.random.default_rng(seed)
    scale = rel * max(c.value for c in model.constraints if c.kind == "distance-pp")
    return Model(model.dimension, tuple(
        Entity(e.id, e.kind, tuple(p + scale * rng.normal() for p in e.params),
               e.representation) for e in model.entities), model.constraints)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def solve_tree_record(strategy: str, model) -> dict:
    """Recombination result of one case, floats as hex strings."""
    try:
        plan, solution, cert = solve_tree(model, STRATEGIES[strategy](model))
    except (DecompositionError, AlignmentError) as err:
        return {"refused": {"type": type(err).__name__, "message": str(err)}}
    return {
        "solution": {eid: _hex(params) for eid, params in sorted(solution.items())},
        "placements": [
            {"node": p.node_id, "entities": sorted(p.entities),
             "rotation": _hex(p.rotation.ravel()), "translation": _hex(p.translation)}
            for p in plan.placements],
        "status": cert.status,
        "residual": float(cert.residual_norm).hex(),
    }


def every_kind_models() -> list[tuple[str, Model]]:
    """A 2D and a 3D model holding every constraint kind on every entity
    signature, the 3D one on planes of both representations."""
    plane = "plane3"
    flat = Model(2, (
        Entity("P1", "point2", (0.0, 0.0)), Entity("P2", "point2", (3.0, 0.0)),
        Entity("P3", "point2", (1.0, 2.0)), Entity("L1", "line2", (0.3, 1.0)),
        Entity("L2", "line2", (1.2, -0.5)),
    ), (
        Constraint("dpp", "distance-pp", ("P1", "P2"), 3.0),
        Constraint("dpl", "distance-pl", ("P3", "L1"), 0.5),
        Constraint("dll", "distance-ll", ("L1", "L2"), 1.5),
        Constraint("all", "angle-ll", ("L1", "L2"), 1.0),
        Constraint("pol", "point-on-line", ("P1", "L1")),
        Constraint("par", "parallel", ("L1", "L2")),
        Constraint("perp", "perpendicular", ("L1", "L2")),
        Constraint("coi", "coincident", ("P2", "P3")),
        Constraint("fix", "fix", ("P1",)),
    ))
    solid = Model(3, (
        Entity("P1", "point3", (0.0, 0.0, 0.0)), Entity("P2", "point3", (1.0, 2.0, 3.0)),
        Entity("P3", "point3", (0.5, -1.0, 2.0)),
        Entity("L1", "line3", (0.0, 0.0, 0.0, 0.2, 1.0, 0.1)),
        Entity("L2", "line3", (1.0, 0.0, 0.0, 1.0, 0.3, 0.2)),
        Entity("H1", plane, (0.0, 0.0, 1.0, -1.0), "hessian"),
        Entity("H2", plane, (0.1, 1.0, 0.0, 2.0), "hessian"),
        Entity("N1", plane, (0.0, 0.0, 1.0, 1.0, 0.2, 0.1), "point-normal"),
        Entity("N2", plane, (1.0, 1.0, 1.0, 0.0, 0.3, 1.0), "point-normal"),
    ), (
        Constraint("dpp", "distance-pp", ("P1", "P2"), 2.0),
        Constraint("dpl", "distance-pl", ("P3", "L1"), 0.5),
        Constraint("dpH", "distance-pplane", ("P1", "H1"), 1.0),
        Constraint("dpN", "distance-pplane", ("P2", "N1"), 1.0),
        Constraint("dll", "distance-ll", ("L1", "L2"), 1.0),
        Constraint("dHH", "distance-planeplane", ("H1", "H2"), 1.0),
        Constraint("dNN", "distance-planeplane", ("N1", "N2"), 2.0),
        Constraint("dHN", "distance-planeplane", ("H1", "N1"), 0.5),
        Constraint("all", "angle-ll", ("L1", "L2"), 1.0),
        Constraint("aHN", "angle-planeplane", ("H1", "N2"), 1.2),
        Constraint("pol", "point-on-line", ("P1", "L2")),
        Constraint("poH", "point-on-plane", ("P3", "H2")),
        Constraint("poN", "point-on-plane", ("P1", "N2")),
        Constraint("parL", "parallel", ("L1", "L2")),
        Constraint("parP", "parallel", ("H2", "N1")),
        Constraint("perpL", "perpendicular", ("L1", "L2")),
        Constraint("perpP", "perpendicular", ("H1", "H2")),
        Constraint("coi", "coincident", ("P2", "P3")),
        Constraint("fix", "fix", ("P1",)),
    ))
    return [("every-kind-2d", flat), ("every-kind-3d", solid)]


def equations_cases(corpus_dir: str = "corpus") -> list[tuple[str, object]]:
    """(label, system) of every equation listing case, in order."""
    out = []
    models = []
    for name in sorted(f for f in os.listdir(corpus_dir) if f.endswith(".json")):
        model, system = _load(f"{corpus_dir}/{name}")
        out.append((f"corpus/{name}", system))
        if model is not None:
            models.append((f"corpus/{name}", model))
    for label, model in every_kind_models():
        out.append((label, compile_model(model)))
        models.append((label, model))
    out += [(f"full-cross/{label}", full_cross(compile_model(model), model))
            for label, model in models if model.dimension == 3]
    strip = zoo.triangle_strip(12)
    system = compile_model(strip)
    out.append(("anchored/strip-12", add_anchors(system, strip)))
    bonds = [Constraint(f"vbond:{a}-{b}", "distance-pp", (a, b), 1.5)
             for a, b in (("P1", "P4"), ("P3", "P7"))]
    out.append(("bonded/strip-12", add_constraints(system, strip, bonds)))
    return out


def tables() -> str:
    """Standard output of ``run_tables.py`` at its default seed."""
    return subprocess.run([sys.executable, RUN_TABLES], capture_output=True, text=True,
                          check=True).stdout


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv and argv[0].startswith("-"):
        print("usage: PYTHONPATH=src python scripts/make_golden.py [DIR]", file=sys.stderr)
        return 2
    directory = argv[0] if argv else DEFAULT_DIR
    if "GCS_SEED" in os.environ:
        print("unset GCS_SEED: the golden reports use the default seed", file=sys.stderr)
        return 1
    records = []
    for case in cases():
        stdout, code = run(case)
        records.append({"argv": case, "exit": code, "stdout": stdout})
    trees = [{"strategy": strategy, "model": label, **solve_tree_record(strategy, m)}
             for strategy, label, m in solve_tree_cases()]
    equations = [{"system": label, "equations": dump_equations(system)}
                 for label, system in equations_cases()]
    os.makedirs(directory, exist_ok=True)
    for name, payload in (("cli.json", records), ("solve_tree.json", trees),
                          ("equations.json", equations)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump({"cases": payload}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    with open(os.path.join(directory, "tables.txt"), "w", encoding="utf-8") as fh:
        fh.write(tables())
    print(f"wrote {len(records)} cli cases, {len(trees)} solve_tree cases, "
          f"{len(equations)} equation listings and the tables to {directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
