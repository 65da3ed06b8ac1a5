"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run ``pytest tests/test_acceptance.py -s``
to see them inline).  Criterion 5 contains one entry that is knowingly red:
it pins the degree of rigidity of three *distinct* collinear 2D points at 2,
but the rigid-motion basis of such a configuration provably has rank 3 (two
translations plus an independent rotation velocity), which is what the
implementation computes.  See README "Known deviations".
"""

from contextlib import contextmanager

import numpy as np
import pytest

from gcskernel import (
    add_anchors,
    assignment_from_params,
    bottom_up,
    build_graphs,
    characterize,
    characterize_at,
    compile_model,
    compute_dor,
    counting_state,
    dm_decompose,
    eval_jacobian,
    generate_witness,
    greedy_dependency_groups,
    newton_solve,
    oracle_min_dependent_sets,
    params_from_assignment,
    rank_of,
    representation_sensitivity,
    solve_tree,
    top_down,
)
from gcskernel import geometry, zoo

from test_structural import random_graph, shuffled_matching


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{label}]: PASS")


def test_criterion_01_triangle_pipeline():
    with criterion(1, "triangle pipeline"):
        m = zoo.triangle_model()
        system = compile_model(m)
        assert system.n_residuals == 7 and system.n_variables == 10

        anchored = add_anchors(system, m)
        rng = np.random.default_rng(0)
        start = assignment_from_params(m, anchored)
        res = newton_solve(anchored, start + 0.05 * rng.normal(size=start.shape))
        assert res.converged and res.residual_norm <= 1e-9
        solved = params_from_assignment(m, anchored, res.assignment)
        oracle = zoo.triangle_construction()
        assert solved["P3"][0] == pytest.approx(oracle["P3"][0], abs=1e-7)
        assert solved["P3"][1] == pytest.approx(oracle["P3"][1], abs=1e-7)

        report = characterize(system, m, seed=0)
        assert report.verdict == "well"
        assert report.rank == 7 and report.dor == 3


def test_criterion_02_singular_configuration():
    with criterion(2, "singular configuration detection"):
        m = zoo.three_distances_model(10, 10, 10)
        anchored = add_anchors(compile_model(m), m)
        collinear = np.array([0.0, 0.0, 10.0, 0.0, 20.0, 0.0])
        assert rank_of(eval_jacobian(anchored, collinear)) == 5

        base = compile_model(m)
        wit = generate_witness(base, m, seed=0)
        generic = np.concatenate([wit.assignment, np.zeros(0)])
        anchored_at_generic = eval_jacobian(anchored, generic)
        assert rank_of(anchored_at_generic) == 6

        # the verdict flips between the degenerate and the generic witness
        dor_col = compute_dor(m, base, collinear)
        at_collinear = characterize_at(base, collinear, dor_col)
        assert at_collinear.verdict != "well"
        dor_gen = compute_dor(m, base, wit.assignment)
        at_generic = characterize_at(base, wit.assignment, dor_gen)
        assert at_generic.verdict == "well"

        # and the 3-witness vote settles on well
        assert characterize(base, m, seed=0, votes=3).verdict == "well"


def test_criterion_03_laman_counting():
    with criterion(3, "Laman counting"):
        cases = [
            (zoo.square_four_distances(), "under"),
            (zoo.braced_quad_model(), "well"),
            (zoo.k4_model(), "over"),
        ]
        for model, expected in cases:
            _, cg = build_graphs(compile_model(model), model)
            assert counting_state(cg).state == expected


def test_criterion_04_structural_vs_numerical_disagreement():
    with criterion(4, "structural vs numerical disagreement"):
        m = zoo.three_lines_three_angles()
        s = compile_model(m)
        _, cg = build_graphs(s, m)
        assert counting_state(cg).state == "well"
        report = characterize(s, m, seed=0)
        assert report.over  # the implicit angle-sum dependency

        banana = zoo.double_banana_model()
        sb = compile_model(banana)
        _, cgb = build_graphs(sb, banana)
        assert counting_state(cgb).state == "well"
        rb = characterize(sb, banana, seed=0)
        assert rb.under and rb.free_motions >= 1


def test_criterion_05_dor_table():
    with criterion(5, "DOR table"):
        def dor_of(model):
            s = compile_model(model)
            return compute_dor(model, s, assignment_from_params(model, s))

        assert dor_of(zoo.points_distances_model(
            {"A": (0, 0), "B": (4, 0), "C": (1, 3)}, [])) == 3
        assert dor_of(zoo.point_pair_distance_3d()) == 5
        assert dor_of(zoo.single_point_3d()) == 3
        # knowingly red: the motion basis of distinct collinear 2D points has
        # rank 3; this asserts the stated value 2 anyway
        assert dor_of(zoo.collinear_points_model(3, 2)) == 2


def test_criterion_06_greedy_vs_oracle_groups():
    with criterion(6, "minimal over-constrained part detection"):
        for which, system in ((1, zoo.lindep1_system()), (2, zoo.lindep2_system())):
            x = np.zeros(3)
            groups = greedy_dependency_groups(eval_jacobian(system, x), seed_row=0)
            named = [tuple(system.residuals[i].name for i in sorted(g.rows))
                     for g in groups]
            assert named == [("E1", "E2", "E3", "E4"), ("E1", "E2", "E3", "E5")]
            oracle = {
                tuple(system.residuals[i].name for i in sorted(g.rows))
                for g in oracle_min_dependent_sets(eval_jacobian(system, x))
            }
            if which == 2:
                assert ("E4", "E5") in oracle
            else:
                assert ("E4", "E5") not in oracle


def test_criterion_07_representation_sensitivity():
    with criterion(7, "representation sensitivity"):
        line = zoo.parallel_lines_model()
        row = representation_sensitivity(line, ["point-direction"], seed=0)[0]
        assert (row.columns, row.rank, row.dor) == (12, 5, 6)
        assert not row.matched

        # plane rows on the reconstructed prism configuration, which lands
        # exactly on the expected hessian numbers
        plane = zoo.plane_prism_model()
        hess, pn = representation_sensitivity(plane, ["hessian", "point-normal"], seed=0)
        assert (hess.columns, hess.rank, hess.dor, hess.matched) == (16, 11, 5, True)
        assert (pn.columns, pn.dor, pn.matched) == (24, 6, False)


def test_criterion_08_dm_partition_laws():
    with criterion(8, "Dulmage-Mendelsohn partition laws"):
        checked = 0
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            g = random_graph(rng, max_side=8)
            dm = dm_decompose(g)
            eq_parts = (dm.over_equations, dm.well_equations, dm.under_equations)
            var_parts = (dm.over_variables, dm.well_variables, dm.under_variables)
            assert sum(map(len, eq_parts)) == g.n_equations
            assert sum(map(len, var_parts)) == g.n_variables
            for i in range(3):
                for j in range(i + 1, 3):
                    assert not (eq_parts[i] & eq_parts[j])
                    assert not (var_parts[i] & var_parts[j])
            if dm.over_equations:
                assert len(dm.over_equations) > len(dm.over_variables)
            if dm.under_variables:
                assert len(dm.under_variables) > len(dm.under_equations)
            well_match = {e: v for e, v in dm.matching.items()
                          if e in dm.well_equations}
            assert len(well_match) == len(dm.well_equations)
            assert set(well_match.values()) == set(dm.well_variables)
            other = shuffled_matching(g, np.random.default_rng(2000 + seed))
            dm2 = dm_decompose(g, other)
            assert (dm2.over_equations, dm2.well_equations, dm2.under_equations) == \
                (dm.over_equations, dm.well_equations, dm.under_equations)
            checked += 1
        assert checked == 200


def test_criterion_09_decompose_solve_equivalence():
    with criterion(9, "decompose/solve equivalence"):
        corpus = zoo.solve_corpus()
        assert len(corpus) >= 10
        for name, m in corpus.items():
            assert len(m.entities) <= 12
            anchored = add_anchors(compile_model(m), m)
            direct = newton_solve(anchored, assignment_from_params(m, anchored))
            assert direct.converged, name
            dsol = params_from_assignment(m, anchored, direct.assignment)
            for strategy in (bottom_up, top_down):
                tree = strategy(m)
                _, tsol, cert = solve_tree(m, tree)
                assert cert.converged, (name, strategy.__name__)
                pts = [e.id for e in m.entities]
                A = np.array([dsol[p][:2] for p in pts])
                B = np.array([tsol[p][:2] for p in pts])
                R, t = geometry.fit_rigid_2d(B, A)
                dev = float(np.max(np.abs((B @ R.T) + t - A)))
                assert dev <= 1e-7, (name, strategy.__name__, dev)


def test_criterion_10_numerical_hygiene():
    with criterion(10, "numerical hygiene"):
        models = [zoo.triangle_model(), zoo.three_distances_model(),
                  zoo.braced_quad_model(), zoo.parallel_lines_model(),
                  zoo.plane_prism_model(), zoo.double_banana_model()]
        h = 1e-6
        for m in models:
            s = compile_model(m)
            rng = np.random.default_rng(99)
            for _ in range(100):
                x = rng.uniform(-1.0, 1.0, size=s.n_variables)
                J = eval_jacobian(s, x)
                F = np.zeros_like(J)
                for j in range(s.n_variables):
                    step = np.zeros_like(x)
                    step[j] = h
                    from gcskernel import eval_residuals
                    F[:, j] = (eval_residuals(s, x + step)
                               - eval_residuals(s, x - step)) / (2 * h)
                scale = np.maximum(1.0, np.abs(J))
                assert np.max(np.abs(J - F) / scale) <= 1e-6

        rng = np.random.default_rng(7)
        for _ in range(100):
            mm = int(rng.integers(1, 9))
            nn = int(rng.integers(1, 9))
            J = rng.normal(size=(mm, nn))
            base = rank_of(J)
            P = rng.permutation(np.eye(mm))
            Q = rng.permutation(np.eye(nn))
            assert rank_of(P @ J @ Q) == base
            assert rank_of(float(rng.uniform(0.1, 10.0)) * J) == base
