#!/usr/bin/env python3
"""Reproduce the headline tables on the built-in example models.

Prints, in order: structural-vs-witness verdicts across the corpus, the
degree-of-rigidity examples, the representation-sensitivity table for the
line/plane examples, greedy-vs-exhaustive dependency groups on the two linear
systems, and the seed dependence of greedy well-part detection.

Usage: python3 scripts/run_tables.py [seed]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from gcskernel import (  # noqa: E402
    assignment_from_params,
    build_graphs,
    characterize,
    compile_model,
    compute_dor,
    counting_state,
    eval_jacobian,
    generate_witness,
    greedy_dependency_groups,
    greedy_well_parts,
    oracle_max_well_part,
    oracle_min_dependent_sets,
    representation_sensitivity,
)
from gcskernel import zoo  # noqa: E402


def header(title):
    print()
    print(title)
    print("-" * len(title))


def verdict_table(seed):
    header("Constraint-state verdicts (structural counting vs witness method)")
    models = {
        "triangle (carrier lines)": zoo.triangle_model(),
        "equilateral (3 distances)": zoo.three_distances_model(),
        "4 points / 4 distances": zoo.square_four_distances(),
        "4 points / 5 distances": zoo.braced_quad_model(),
        "4 points / 6 distances": zoo.k4_model(),
        "3 lines / 3 angles": zoo.three_lines_three_angles(),
        "double banana (3D)": zoo.double_banana_model(),
        "two triangles + bridge": zoo.two_triangles_bridge(),
    }
    print(f"{'model':26s} {'counting':10s} {'witness':16s} rank/rows  free")
    for name, m in models.items():
        s = compile_model(m)
        _, cg = build_graphs(s, m)
        cv = counting_state(cg)
        wr = characterize(s, m, seed=seed)
        print(f"{name:26s} {cv.state:10s} {wr.verdict:16s} "
              f"{wr.rank}/{wr.rows:<8d} {wr.free_motions}")


def dor_table():
    header("Degree of rigidity (rank of the rigid-motion basis)")
    cases = {
        "3 non-collinear 2D points": zoo.points_distances_model(
            {"A": (0, 0), "B": (4, 0), "C": (1, 3)}, []),
        "3 distinct collinear 2D points": zoo.collinear_points_model(3, 2),
        "3 coincident 2D points": None,
        "two 3D points + distance": zoo.point_pair_distance_3d(),
        "single 3D point": zoo.single_point_3d(),
        "3 collinear 3D points": zoo.collinear_points_model(3, 3),
    }
    from gcskernel.model import Entity, Model
    cases["3 coincident 2D points"] = Model(
        2, tuple(Entity(f"P{i}", "point2", (0.5, -0.25)) for i in range(3)), ())
    for name, m in cases.items():
        s = compile_model(m)
        d = compute_dor(m, s, assignment_from_params(m, s))
        print(f"{name:32s} -> {d}")


def representation_table(seed):
    header("Representation sensitivity (columns / rank / DOR / matched)")
    line = zoo.parallel_lines_model()
    plane = zoo.plane_prism_model()
    rows = [("line example", r) for r in
            representation_sensitivity(line, ["point-direction"], seed=seed)]
    rows += [("plane example", r) for r in
             representation_sensitivity(plane, ["hessian", "point-normal"], seed=seed)]
    for name, r in rows:
        mark = "yes" if r.matched else "NO"
        print(f"{name:14s} {r.scheme:16s} {r.columns:3d} {r.rank:3d} {r.dor:2d}  {mark}")


def dependency_tables():
    header("Greedy vs exhaustive dependency groups (seed row E1)")
    for label, system in (("system 1", zoo.lindep1_system()),
                          ("system 2", zoo.lindep2_system())):
        J = eval_jacobian(system, np.zeros(3))
        greedy = greedy_dependency_groups(J, seed_row=0)
        oracle = oracle_min_dependent_sets(J)

        def fmt(groups):
            return ", ".join(
                "{" + ",".join(system.residuals[i].name for i in sorted(g.rows)) + "}"
                for g in groups)

        print(f"{label}: greedy  {fmt(greedy)}")
        print(f"{'':9s} minimal {fmt(oracle)}")


def well_part_table(seed):
    header("Greedy well parts vs seed entity (brace-chain demo)")
    m = zoo.seed_demo_model()
    s = compile_model(m)
    w = generate_witness(s, m, seed=seed)
    for entity in sorted(e.id for e in m.entities):
        parts = greedy_well_parts(m, s, w.jacobian, w.motions, seed_entity=entity)
        shown = " + ".join("{" + ",".join(sorted(p.entities)) + "}" for p in parts)
        print(f"seed {entity}: {shown}")
    best = oracle_max_well_part(m, s, w.jacobian, w.motions)
    print("exhaustive maximum part: {" + ",".join(sorted(best.entities)) + "}")


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    verdict_table(seed)
    dor_table()
    representation_table(seed)
    dependency_tables()
    well_part_table(seed)


if __name__ == "__main__":
    main()
