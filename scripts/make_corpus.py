#!/usr/bin/env python3
"""Regenerate the JSON model corpus under corpus/ from the built-in zoo.

Usage: python3 scripts/make_corpus.py

It takes no argument; any argument is refused with a usage line and exit
code 2, before anything is written.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gcskernel import save_model  # noqa: E402
from gcskernel import zoo  # noqa: E402


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python3 scripts/make_corpus.py", file=sys.stderr)
        return 2
    out = Path(__file__).resolve().parents[1] / "corpus"
    out.mkdir(exist_ok=True)
    models = {
        "triangle": zoo.triangle_model(),
        "three-distances": zoo.three_distances_model(10, 10, 10),
        "inconsistent": zoo.three_distances_model(1.0, 1.0, 10.0),
        "square4": zoo.square_four_distances(),
        "braced-quad": zoo.braced_quad_model(),
        "k4": zoo.k4_model(),
        "three-lines-three-angles": zoo.three_lines_three_angles(),
        "double-banana": zoo.double_banana_model(),
        "two-triangles-bridge": zoo.two_triangles_shared_vertex(),
        "two-triangles-distance": zoo.two_triangles_bridge(),
        "seed-demo": zoo.seed_demo_model(),
        "parallel-lines": zoo.parallel_lines_model(),
        "plane-prism": zoo.plane_prism_model(),
        "tetrahedron": zoo.tetrahedron_model(),
    }
    for name, model in sorted(zoo.solve_corpus().items()):
        models[f"solve-{name}"] = model
    for name, model in sorted(models.items()):
        save_model(model, out / f"{name}.json")
        print(f"wrote corpus/{name}.json")
    for which in (1, 2):
        path = out / f"lindep{which}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(zoo.lindep_json_dict(which), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote corpus/lindep{which}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
