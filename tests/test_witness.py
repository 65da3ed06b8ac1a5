import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcskernel import (
    Model,
    WitnessError,
    add_anchors,
    assignment_from_params,
    characterize,
    cokernel_groups,
    compile_model,
    compute_dor,
    eval_jacobian,
    eval_residuals,
    full_cross,
    generate_witness,
    motion_basis,
    params_from_assignment,
    rank_of,
    representation_sensitivity,
)
from gcskernel import cli, geometry, numeric, witness, zoo
from gcskernel.model import Constraint, Entity
from gcskernel.witness import SchemeRow, WcmReport

from conftest import (
    CORPUS,
    cross_product_models,
    lines_through_two_points,
    parallel_and_perpendicular_lines,
    triangle_with_coincident_point,
)


# --- witness generation -------------------------------------------------------

def test_witness_satisfies_incidences():
    m = zoo.triangle_model()
    s = compile_model(m)
    for seed in range(10):
        wit = generate_witness(s, m, seed=seed)
        r = eval_residuals(s.select(wit.satisfied_rows), wit.assignment)
        assert np.max(np.abs(r)) <= 1e-9 if r.size else True


def test_witness_without_singular_constraints_is_immediate():
    m = zoo.three_distances_model()
    s = compile_model(m)
    wit = generate_witness(s, m, seed=0)
    assert wit.attempts == 1


def test_witness_projection_is_cheap_on_corpus():
    models = [zoo.triangle_model(), zoo.parallel_lines_model(),
              zoo.plane_prism_model(), zoo.double_banana_model()]
    for m in models:
        s = compile_model(m)
        wit = generate_witness(s, m, seed=0)
        assert wit.attempts == 1


@pytest.mark.parametrize("m", cross_product_models())
def test_witness_satisfies_every_cross_product_component(m):
    # the projection runs on the full-cross compile, so a witness never sits
    # on the reduced system's spurious branch where only the dropped
    # component is violated
    s = compile_model(m)
    full = full_cross(s, m)
    cross = {c.id for c in m.constraints if c.kind in ("parallel", "point-on-line")}
    rows = [r.index for r in full.residuals if r.source in cross]
    assert len(rows) == 3 * len(cross)
    for seed in range(50):
        x = generate_witness(s, m, seed=seed).assignment
        assert np.max(np.abs(eval_residuals(full.select(rows), x))) <= 1e-9


def test_witness_carries_its_jacobian_and_motion_basis():
    m = zoo.triangle_model()
    s = compile_model(m)
    anchored = add_anchors(s, m)
    wit = generate_witness(anchored, m, seed=3)
    assert np.array_equal(wit.jacobian, eval_jacobian(s, wit.assignment))
    assert np.array_equal(wit.motions, motion_basis(m, s, wit.assignment))


def test_characterize_keeps_the_witness_of_vote_zero():
    m = zoo.plane_prism_model()
    s = compile_model(m)
    report = characterize(s, m, seed=5, votes=3)
    alone = generate_witness(s, m, seed=5)
    assert report.witness.seed == 5
    assert np.array_equal(report.witness.assignment, alone.assignment)
    assert np.array_equal(report.witness.jacobian, alone.jacobian)
    assert np.array_equal(report.witness.motions, alone.motions)
    assert set(report.to_json_dict()) == {
        "columns", "rows", "rank", "dor", "verdict", "dependentGroups", "freeMotions", "seeds"}


def test_an_unstable_report_keeps_the_witness_of_vote_zero(monkeypatch):
    # every vote reads a different degree of rigidity, so no two agree
    dors = iter(range(10))
    monkeypatch.setattr(witness, "rank_of", lambda *args: next(dors))
    m = zoo.triangle_model()
    s = compile_model(m)
    report = characterize(s, m, seed=4, votes=3)
    assert report.verdict == "unstable" and report.seeds == (4, 5, 6)
    assert np.array_equal(report.witness.assignment, generate_witness(s, m, seed=4).assignment)
    assert all(r.witness is None for r in report.sub_reports)


# --- the vote stops at its majority -------------------------------------------

def reference_characterize(system, model, seed, votes, witnesses):
    """The all-votes majority rule: rank every vote of the ballot, then report
    the first vote whose (rank, dor) key at least ``needed`` votes share, with
    the witness of vote 0, or an unstable report of every vote."""
    if system.without_anchors().n_variables == 0:
        votes = 1
    seeds = tuple(range(seed, seed + votes))
    reports = []
    for s in seeds:
        J = witnesses[s].jacobian
        m, n = J.shape
        rank = rank_of(J)
        reports.append(WcmReport(n, m, rank, rank_of(witnesses[s].motions),
                                 cokernel_groups(J, rank), (s,)))
    keys = [(r.rank, r.dor) for r in reports]
    needed = 1 if votes == 1 else max(2, votes // 2 + 1)
    for i, key in enumerate(keys):
        if keys.count(key) >= needed:
            return dataclasses.replace(reports[i], seeds=seeds)
    return WcmReport(reports[0].columns, reports[0].rows, -1, -1, (), seeds, tuple(reports))


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.json")))
def test_early_stopping_matches_the_all_votes_rule(name, corpus_dir):
    model, system = cli._load(str(corpus_dir / name))
    if model is None:  # a raw system takes no vote
        return
    witnesses = [generate_witness(system, model, seed=s) for s in range(9)]
    for votes in range(1, 6):
        for seed in range(5):
            report = characterize(system, model, seed=seed, votes=votes)
            ref = reference_characterize(system, model, seed, votes, witnesses)
            label = (name, votes, seed)
            # equality compares the counts, the dependent groups, the seeds
            # and the sub-reports
            assert report == ref, label
            assert report.to_json_dict() == ref.to_json_dict(), label
            assert np.array_equal(report.witness.assignment, witnesses[seed].assignment), label


def counting_draws(monkeypatch):
    """Record the seed of every witness draw."""
    seeds = []
    real = witness.generate_witness

    def draw(system, model, seed=0, **kwargs):
        seeds.append(seed)
        return real(system, model, seed=seed, **kwargs)

    monkeypatch.setattr(witness, "generate_witness", draw)
    return seeds


def ranks_read(monkeypatch, keys):
    """Make the votes read the (rank, dor) keys given, in vote order."""
    values = iter([v for key in keys for v in key])
    monkeypatch.setattr(witness, "rank_of", lambda *args: next(values))


def test_a_well_model_draws_two_witnesses(monkeypatch):
    m = zoo.triangle_model()
    s = compile_model(m)
    seeds = counting_draws(monkeypatch)
    report = characterize(s, m, seed=4)
    assert seeds == [4, 5]
    assert report.verdict == "well" and report.seeds == (4, 5, 6)


@pytest.mark.parametrize("winner", [0, 1])
def test_a_split_first_pair_draws_the_third_witness(winner, monkeypatch):
    # votes 0 and 1 disagree; vote 2 sides with vote ``winner``, whose
    # report is kept, with the witness of vote 0; only the kept vote names
    # its dependent rows
    m = zoo.triangle_model()
    s = compile_model(m)
    expected = characterize(s, m, seed=4)
    key = (expected.rank, expected.dor)
    other = (expected.rank - 1, expected.dor)
    seeds = counting_draws(monkeypatch)
    ranks_read(monkeypatch, [key, other, key] if winner == 0 else [other, key, key])
    named = []
    monkeypatch.setattr(witness, "cokernel_groups",
                        lambda J, rank: named.append(J) or numeric.cokernel_groups(J, rank))
    report = characterize(s, m, seed=4)
    assert seeds == [4, 5, 6]
    assert report == expected and report.to_json_dict() == expected.to_json_dict()
    assert report.witness.seed == 4
    assert len(named) == 1
    assert np.array_equal(named[0], generate_witness(s, m, seed=4 + winner).jacobian)


@pytest.mark.parametrize("votes", [2, 3, 4, 5])
def test_an_unstable_run_draws_and_keeps_every_vote(votes, monkeypatch):
    m = zoo.triangle_model()
    s = compile_model(m)
    seeds = counting_draws(monkeypatch)
    ranks_read(monkeypatch, [(7, d) for d in range(votes)])
    report = characterize(s, m, seed=2, votes=votes)
    assert seeds == list(range(2, 2 + votes))
    assert report.verdict == "unstable" and report.seeds == tuple(seeds)
    assert [(r.rank, r.dor, r.seeds) for r in report.sub_reports] \
        == [(7, d, (2 + d,)) for d in range(votes)]


def test_witness_generation_failure():
    # two lines both parallel and perpendicular: the projection never converges
    m = parallel_and_perpendicular_lines()
    s = compile_model(m)
    with pytest.raises(WitnessError, match=r"after 3 attempts \(seed 0\): "
                                           "singular subsystem projection: inconsistent"):
        generate_witness(s, m, seed=0, max_attempts=3)


def test_a_coincidence_the_incidences_force_is_a_witness():
    # P and Q on both L1 and L2: a sample lands with P = Q or with L1 = L2,
    # each at its first attempt, and both components rank alike
    m = lines_through_two_points()
    s = compile_model(m)
    landed = set()
    for seed in range(20):
        w = generate_witness(s, m, seed=seed)
        p = params_from_assignment(m, s, w.assignment)
        together = {pair for pair in (("P", "Q"), ("L1", "L2"))
                    if np.allclose(p[pair[0]], p[pair[1]], rtol=0.0, atol=1e-6)}
        assert w.attempts == 1 and len(together) == 1, (seed, p)
        assert (rank_of(w.jacobian), rank_of(w.motions)) == (4, 3), seed
        landed |= together
    assert landed == {("P", "Q"), ("L1", "L2")}


@pytest.mark.parametrize("m, rank, dor", [
    (Model(2, (Entity("P1", "point2"), Entity("P2", "point2")),
           (Constraint("c", "coincident", ("P1", "P2")),)), 2, 2),
    (triangle_with_coincident_point(), 5, 3),
    (Model(3, (Entity("A", "point3"), Entity("B", "point3"), Entity("C", "point3")),
           (Constraint("c", "coincident", ("A", "B")),
            Constraint("d", "distance-pp", ("B", "C"), 3.0))), 4, 5),
])
def test_entities_tied_by_coincident_constraints_are_one_entity(m, rank, dor):
    # the projection puts tied entities on one point, at the first attempt,
    # and they rank as one entity
    s = compile_model(m)
    for seed in range(5):
        assert generate_witness(s, m, seed=seed).attempts == 1
    report = characterize(s, m)
    assert (report.verdict, report.rank, report.dor) == ("well", rank, dor)


# --- degree of rigidity ---------------------------------------------------------

def dor_of(model) -> int:
    s = compile_model(model)
    x = assignment_from_params(model, s)
    return compute_dor(model, s, x)


def test_dor_values():
    assert dor_of(zoo.collinear_points_model(3, 2)) == 3  # see test_acceptance note
    assert dor_of(zoo.points_distances_model(
        {"A": (0, 0), "B": (4, 0), "C": (1, 3)}, [])) == 3
    assert dor_of(zoo.point_pair_distance_3d()) == 5
    assert dor_of(zoo.single_point_3d()) == 3
    # the 3D analog of the degenerate case: rotations about the common line
    # act trivially
    assert dor_of(zoo.collinear_points_model(3, 3)) == 5
    # fully coincident 2D points: rotation velocity is a translation combo
    m = Model(2, tuple(Entity(f"P{i}", "point2", (0.5, -0.25)) for i in range(3)), ())
    assert dor_of(m) == 2


def test_dor_bounds_and_monotonicity():
    rng = np.random.default_rng(0)
    for n in range(1, 5):
        coords = {f"P{i}": tuple(rng.normal(size=2)) for i in range(n)}
        m = zoo.points_distances_model(coords, [])
        assert 0 <= dor_of(m) <= 3
    base = zoo.point_pair_distance_3d()
    assert dor_of(base) == 5
    grown = Model(3, base.entities + (Entity("P3", "point3", (1.0, 2.0, 0.5)),),
                  base.constraints)
    assert dor_of(grown) >= dor_of(base)


def test_motion_basis_matches_finite_differences():
    m = Model(3, (
        Entity("P", "point3", (0.3, -0.7, 1.1)),
        Entity("L", "line3", (0.2, 0.4, -0.1, 0.0, 0.6, 0.8)),
        Entity("F", "plane3", (0.6, 0.0, 0.8, -0.5), "hessian"),
        Entity("G", "plane3", (0.1, 0.2, 0.3, 0.0, 0.6, 0.8), "point-normal"),
    ), ())
    s = compile_model(m)
    x = assignment_from_params(m, s)
    M = motion_basis(m, s, x)
    h = 1e-7
    generators = []
    eye = np.eye(3)
    for i in range(3):
        generators.append((np.eye(3), h * eye[i]))
    for i in range(3):
        generators.append((geometry.rotation_3d(eye[i], h), np.zeros(3)))
    for k, (R, t) in enumerate(generators):
        fd = np.zeros(s.n_variables)
        for e in m.entities:
            cols = s.columns_of([e.id])
            p0 = np.asarray(e.params, dtype=float)
            moved = geometry.apply_rigid(e, p0, R, t)
            fd[cols] = (np.asarray(moved) - p0) / h
        assert np.max(np.abs(M[k] - fd)) <= 1e-6


def per_entity_motion_basis(model, system, x):
    """Reference: one ``geometry.motion_rows`` call per entity."""
    M = np.zeros((geometry.generator_count(model.dimension), system.n_variables))
    for e in model.entities:
        s = system.entity_slice(e.id)
        M[:, s] = geometry.motion_rows(e, x[s])
    return M


ZOO_MODELS = [zoo.triangle_model, zoo.double_banana_model, zoo.parallel_lines_model,
              zoo.plane_prism_model, zoo.tetrahedron_model, zoo.seed_demo_model,
              zoo.single_point_3d, lambda: zoo.collinear_points_model(3, 3),
              lambda: zoo.triangle_strip(12)]


def motion_basis_cases():
    for path in sorted(CORPUS.glob("*.json")):
        model, system = cli._load(str(path))
        if model is not None:  # a raw system has no motions
            yield path.name, model, system
    for k, make in enumerate(ZOO_MODELS):
        model = make()
        yield f"zoo{k}", model, compile_model(model)


def test_motion_basis_matches_the_per_entity_reference():
    # points are filled by array slices, lines and planes by motion_rows; the
    # result is bit-identical, including the sign of every zero
    dimensions = set()
    for label, model, system in motion_basis_cases():
        dimensions.add(model.dimension)
        for seed in range(3):
            x = np.random.default_rng(seed).uniform(-2.0, 2.0, system.n_variables)
            M = motion_basis(model, system, x)
            assert M.tobytes() == per_entity_motion_basis(model, system, x).tobytes(), label
    assert dimensions == {2, 3}


def test_dor_pivot_independence():
    # rotating about any pivot only adds translation-row combinations
    m = zoo.points_distances_model(
        {"A": (3, 1), "B": (7, -2), "C": (4, 4)}, [])
    s = compile_model(m)
    x = assignment_from_params(m, s)
    M = motion_basis(m, s, x)
    rng = np.random.default_rng(1)
    for _ in range(5):
        pivot = rng.normal(size=2)
        shifted = M.copy()
        # velocity about pivot p = velocity about origin - rotation of p
        shifted[2] = M[2] + pivot[1] * M[0] - pivot[0] * M[1]
        assert rank_of(shifted) == rank_of(M)


# --- characterization -----------------------------------------------------------

def test_triangle_characterization():
    m = zoo.triangle_model()
    s = compile_model(m)
    r = characterize(s, m, seed=0)
    assert (r.columns, r.rank, r.dor) == (10, 7, 3)
    assert r.verdict == "well"
    assert r.free_motions == 0


def test_three_lines_over():
    m = zoo.three_lines_three_angles()
    s = compile_model(m)
    r = characterize(s, m, seed=0)
    assert r.rank == 2 and r.rows == 3
    assert r.over
    assert r.dependent_groups  # kernel(J^T) certificate present


def test_double_banana_under():
    m = zoo.double_banana_model()
    s = compile_model(m)
    r = characterize(s, m, seed=0)
    assert r.under
    assert r.columns - r.rank > r.dor == 6
    assert r.free_motions >= 1


def test_dependency_certificate_quality():
    m = zoo.three_lines_three_angles()
    s = compile_model(m)
    wit = generate_witness(s, m, seed=0)
    J = eval_jacobian(s, wit.assignment)
    groups = cokernel_groups(J, rank_of(J))
    assert groups
    for g in groups:  # each group is a dependent row set
        assert rank_of(J[list(g)]) < len(g)


@pytest.mark.parametrize("votes", [0, -1])
def test_characterize_refuses_fewer_than_one_vote(votes):
    m = zoo.triangle_model()
    with pytest.raises(ValueError, match="votes must be >= 1"):
        characterize(compile_model(m), m, votes=votes)


def test_verdict_stable_across_seeds():
    cases = [
        (zoo.triangle_model(), "well"),
        (zoo.three_lines_three_angles(), "over-and-under"),
        (zoo.braced_quad_model(), "well"),
        (zoo.parallel_lines_model(), "under"),
    ]
    for m, expected in cases:
        s = compile_model(m)
        for seed in range(10):
            assert characterize(s, m, seed=seed).verdict == expected


def test_anchored_vs_unanchored_kernel_crosscheck():
    for m in [zoo.triangle_model(), zoo.braced_quad_model()]:
        s = compile_model(m)
        wit = generate_witness(s, m, seed=0)
        dor = compute_dor(m, s, wit.assignment)
        free = s.n_variables - rank_of(eval_jacobian(s, wit.assignment))
        assert free == dor
        anchored = add_anchors(s, m)
        x = assignment_from_params(m, anchored)
        assert anchored.n_variables - rank_of(eval_jacobian(anchored, x)) == 0


def test_unstable_when_witnesses_disagree(monkeypatch):
    # force three witnesses with pairwise different ranks; the vote must give
    # up and attach the individual reports
    m = zoo.three_distances_model()
    s = compile_model(m)
    generic = generate_witness(s, m, seed=0).assignment
    collinear = np.array([0.0, 0.0, 10.0, 0.0, 20.0, 0.0])
    all_coincident = np.zeros(6)
    fakes = iter([generic, collinear, all_coincident])

    import gcskernel.witness as w

    def fake_generate(system, model, seed=0, max_attempts=10, projection=None):
        x = next(fakes)
        return w.WitnessConfiguration(x, (), seed, 1, eval_jacobian(system, x),
                                      motion_basis(model, system, x))

    monkeypatch.setattr(w, "generate_witness", fake_generate)
    report = w.characterize(s, m, seed=0)
    assert report.verdict == "unstable"
    assert len(report.sub_reports) == 3
    assert len({(r.rank, r.dor) for r in report.sub_reports}) == 3


def test_dor_dimension_bounds_3d():
    rng = np.random.default_rng(2)
    for n in range(1, 5):
        coords = {f"P{i}": tuple(rng.normal(size=3)) for i in range(n)}
        ents = tuple(Entity(k, "point3", v) for k, v in sorted(coords.items()))
        m = Model(3, ents, ())
        assert 0 <= dor_of(m) <= 6
    assert dor_of(zoo.plane_prism_model()) <= 6


def test_characterize_empty_system():
    m = Model(2, (), ())
    s = compile_model(m)
    r = characterize(s, m, seed=0)
    assert r.verdict == "well" and r.columns == 0


def test_report_json_shape():
    m = zoo.triangle_model()
    s = compile_model(m)
    d = characterize(s, m, seed=0).to_json_dict()
    assert set(d) == {"columns", "rows", "rank", "dor", "verdict",
                      "dependentGroups", "freeMotions", "seeds"}
    assert d["seeds"] == [0, 1, 2]


def reference_judgments(columns, rows, rank, dor, unstable):
    """(verdict, over, under, free motions) by the branch chain a report was
    built with before its judgments were read off its counts."""
    if unstable:
        return "unstable", False, False, 0
    over = rank < rows
    under = (columns - rank) > dor
    if over and under:
        verdict = "over-and-under"
    elif over:
        verdict = "over"
    elif under:
        verdict = "under"
    else:
        verdict = "well"
    return verdict, over, under, max(0, (columns - rank) - dor)


@st.composite
def report_counts(draw):
    columns = draw(st.integers(0, 30))
    rows = draw(st.integers(0, 30))
    return (columns, rows, draw(st.integers(0, min(rows, columns))),
            draw(st.integers(0, 6)), draw(st.booleans()))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(report_counts())
def test_report_judgments_are_read_off_the_counts(counts):
    columns, rows, rank, dor, unstable = counts
    vote = WcmReport(columns, rows, rank, dor, ())
    report = WcmReport(columns, rows, -1, -1, (), (0, 1, 2), (vote,) * 3) if unstable else vote
    assert (report.verdict, report.over, report.under, report.free_motions) == \
        reference_judgments(columns, rows, rank, dor, unstable)
    assert SchemeRow("hessian", columns, rank, dor, vote.verdict).matched == \
        (columns - rank == dor)


def test_reports_store_no_judgment():
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert fields(WcmReport) == ["columns", "rows", "rank", "dor", "dependent_groups",
                                 "seeds", "sub_reports", "witness", "witness_key"]
    assert fields(SchemeRow) == ["scheme", "columns", "rank", "dor", "verdict"]


def test_a_dense_vote_records_whether_its_rows_are_independent_with_margin(monkeypatch):
    # the gapped rank is the plain one unless declined; the witness records
    # whether it is the row count.  A certified vote ranks no dense J and a
    # bare draw ranks nothing, so both leave the flag undecided (None); a
    # declined J is ranked again without the gap.
    for model, independent in [(zoo.triangle_strip(6), True), (zoo.k4_model(), False),
                               (zoo.triangle_strip(48), None)]:
        s = compile_model(model)
        assert characterize(s, model).witness.independent is independent
        assert generate_witness(s, model).independent is None
    m = zoo.triangle_strip(6)
    expected = characterize(compile_model(m), m)
    ranks = []
    real = witness.rank_of

    def declining(A, rel_tol, gap=1.0):
        ranks.append(gap)
        return -1 if gap != 1.0 else real(A, rel_tol)

    monkeypatch.setattr(witness, "rank_of", declining)
    report = characterize(compile_model(m), m)
    assert report == expected and report.witness.independent is False
    # two votes, each: the declined gapped rank of J, J again, the motions
    assert ranks == [numeric.RANK_GAP, 1.0, 1.0] * 2


# --- representation sensitivity ----------------------------------------------

def test_line_example_row():
    m = zoo.parallel_lines_model()
    rows = representation_sensitivity(m, ["point-direction"], seed=0)
    row = rows[0]
    assert (row.columns, row.rank, row.dor) == (12, 5, 6)
    assert not row.matched


def test_plane_example_rows():
    m = zoo.plane_prism_model()
    rows = representation_sensitivity(m, ["hessian", "point-normal"], seed=0)
    hess, pn = rows
    assert (hess.columns, hess.rank, hess.dor) == (16, 11, 5)
    assert hess.matched and hess.verdict == "well"
    assert pn.columns == 24 and pn.dor == 6
    assert not pn.matched


def test_scheme_errors_and_empty():
    with pytest.raises(ValueError):
        representation_sensitivity(zoo.plane_prism_model(), ["spherical"])
    with pytest.raises(ValueError):
        representation_sensitivity(zoo.triangle_model(), ["hessian"])
    rows = representation_sensitivity(Model(3, (), ()), ["hessian"])
    assert rows[0].columns == 0 and rows[0].matched


def test_plane_scheme_conversion_consistency():
    m = zoo.plane_prism_model()
    from gcskernel.witness import _convert_entity
    for e in m.entities:
        pn = _convert_entity(e, "point-normal")
        back = _convert_entity(pn, "hessian")
        n0 = np.asarray(e.params[:3])
        n1 = np.asarray(back.params[:3])
        sign = 1.0 if n0 @ n1 > 0 else -1.0
        assert np.allclose(n0, sign * n1, atol=1e-12)
        assert e.params[3] == pytest.approx(sign * back.params[3], abs=1e-12)


# --- rank decisions: margins on the corpus, an exact generic-rank oracle --------

def default_run_matrices(model, system):
    """The matrices a default ``gcs check`` ranks: per vote (seeds 0-2, one
    vote for a model without variables) the witness Jacobian and motion
    basis; for a raw system (``model`` None), its Jacobian at the seed-0
    sample."""
    if model is None:
        return [("J", eval_jacobian(system, cli._raw_sample(system, 0)))]
    votes = 1 if system.without_anchors().n_variables == 0 else 3
    out = []
    for seed in range(votes):
        w = generate_witness(system, model, seed=seed)
        out += [(f"J{seed}", w.jacobian), (f"M{seed}", w.motions)]
    return out


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.json"))
                         + ["lines_through_two_points"])
def test_corpus_rank_decisions_sit_far_from_the_threshold(name, corpus_dir):
    # tau = RANK_REL_TOL * sigma_max: every kept singular value is at least
    # 10 tau and every dropped one at most tau / 10, so the values-only and
    # the full-SVD LAPACK drivers, which may differ in the last bits, decide
    # the same rank.  The corpus models, plus a probe whose samples land on
    # either of two components of its incidence variety.
    if name == "lines_through_two_points":
        model = lines_through_two_points()
        loaded = model, compile_model(model)
    else:
        loaded = cli._load(str(corpus_dir / name))
    for label, X in default_run_matrices(*loaded):
        if X.size == 0:
            continue
        s = np.linalg.svd(X, compute_uv=False)
        tau = numeric._rank_tolerance(s[0], numeric.RANK_REL_TOL)
        kept, dropped = s[s > tau], s[s <= tau]
        if kept.size:
            assert kept.min() >= 10.0 * tau, (label, kept.min() / tau)
        if dropped.size:
            assert 10.0 * dropped.max() <= tau, (label, tau / dropped.max())
        full = np.linalg.svd(X)[1]
        assert np.count_nonzero(full > numeric._rank_tolerance(full[0], numeric.RANK_REL_TOL)) \
            == kept.size == rank_of(X), label


GF_P = 2**31 - 1  # prime; a product of two residues fits in int64


def gf_rank(A) -> int:
    """Rank over GF(GF_P) of an integer matrix, by Gaussian elimination in int64."""
    A = np.array(A, dtype=np.int64) % GF_P
    rank = 0
    for c in range(A.shape[1]):
        nonzero = np.flatnonzero(A[rank:, c])
        if not nonzero.size:
            continue
        pivot = rank + nonzero[0]
        A[[rank, pivot]] = A[[pivot, rank]]
        A[rank] = A[rank] * pow(int(A[rank, c]), GF_P - 2, GF_P) % GF_P
        A[rank + 1:] = (A[rank + 1:] - A[rank + 1:, c:c + 1] * A[rank] % GF_P) % GF_P
        rank += 1
        if rank == A.shape[0]:
            break
    return rank


def gf_generic_rank(model, seed=0) -> int:
    """The generic rank of a distance-pp framework's rigidity matrix: its
    rank over GF(p) at uniform random coordinates mod p.  The rank drops
    below the generic one only on the zero set of a nonzero minor of degree
    at most the rank, so a draw errs with probability at most rank / p
    (Schwartz-Zippel)."""
    d = model.dimension
    index = {e.id: k for k, e in enumerate(model.entities)}
    X = np.random.default_rng(seed).integers(0, GF_P, size=(len(index), d))
    R = np.zeros((len(model.constraints), d * len(index)), dtype=np.int64)
    for i, c in enumerate(model.constraints):
        a, b = (index[e] for e in c.entities)
        R[i, d * a:d * a + d] = X[a] - X[b]
        R[i, d * b:d * b + d] = X[b] - X[a]
    return gf_rank(R)


@st.composite
def distance_frameworks(draw):
    """A 2D or 3D framework of 2-10 points with any set of distance bars, so
    flexible and over-braced frameworks occur."""
    d, n = draw(st.sampled_from([2, 3])), draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    coords = {f"P{i}": tuple(rng.uniform(-5.0, 5.0, size=d)) for i in range(n)}
    pairs = list(combinations(sorted(coords), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    kind = f"point{d}"
    return Model(d, tuple(Entity(k, kind, coords[k]) for k in sorted(coords)),
                 tuple(Constraint(f"e{i}", "distance-pp", (a, b), math.dist(coords[a], coords[b]))
                       for i, (a, b) in enumerate(edges, start=1)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(distance_frameworks())
def test_witness_rank_is_the_exact_generic_rank(model):
    assert characterize(compile_model(model), model).rank == gf_generic_rank(model)


def test_gf_rank_of_the_double_banana():
    # 18 bars of rank 17: the two rigid bananas still turn about the T1-T2 axis
    m = zoo.double_banana_model()
    assert gf_generic_rank(m) == 17 == characterize(compile_model(m), m).rank
    assert gf_rank([[1, 2], [2, 4]]) == 1 and gf_rank([[0, 1], [1, 0]]) == 2


# --- full row rank certified from the block-triangular form ---------------------

def certificate_at(model, seed=0):
    """Whether the block certificate, called without the row gate, passes the
    witness Jacobian of ``model`` at ``seed``, and that Jacobian."""
    system = compile_model(model)
    w = generate_witness(system, model, seed=seed)
    dor = rank_of(w.motions)
    m, n = w.jacobian.shape
    assert m + dor == n
    return witness.full_row_rank_certificate(system, w.motions, dor)(w.jacobian), w.jacobian


def dense_margin(J) -> float:
    """The smallest of J's m singular values over J's rank_of threshold."""
    s = np.linalg.svd(J, compute_uv=False)
    return s[J.shape[0] - 1] / numeric._rank_tolerance(s[0], numeric.RANK_REL_TOL)


@st.composite
def henneberg_frameworks(draw):
    """A 2D or 3D bar framework with rows + DOR = columns: Henneberg-I steps
    from a bar (2D) or a triangle (3D), each a new point with d bars to
    earlier points, then 0-3 swaps of a bar for a missing one, which often
    leave a flexible part beside an over-braced one."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(d, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    bars = set(combinations(range(d), 2))
    for i in range(d, n):
        bars.update((int(j), i) for j in rng.choice(i, size=d, replace=False))
    for _ in range(draw(st.integers(0, 3))):
        missing = sorted(set(combinations(range(n), 2)) - bars)
        if missing:
            bars.remove(sorted(bars)[rng.integers(len(bars))])
            bars.add(missing[rng.integers(len(missing))])
    coords = rng.uniform(-5.0, 5.0, size=(n, d))
    kind = f"point{d}"
    return Model(d, tuple(Entity(f"P{i}", kind, tuple(coords[i])) for i in range(n)),
                 tuple(Constraint(f"e{k}", "distance-pp", (f"P{a}", f"P{b}"),
                                  math.dist(coords[a], coords[b]))
                       for k, (a, b) in enumerate(sorted(bars))))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(henneberg_frameworks(), st.integers(0, 19))
def test_the_block_certificate_agrees_with_the_generic_rank(model, seed):
    passed, J = certificate_at(model, seed)
    m = J.shape[0]
    if gf_generic_rank(model) < m:  # a flexible framework is never certified
        assert not passed
    if passed:  # and a certified one is of full row rank by the dense rule too
        assert rank_of(J) == m or dense_margin(J) < numeric.RANK_GAP


def test_the_double_banana_is_never_certified():
    # 18 bars and 6 rigid motions on 24 columns, but the generic rank is 17
    for seed in range(10):
        assert not certificate_at(zoo.double_banana_model(), seed)[0]


def test_strips_are_certified():
    for n in range(3, 49):
        model = zoo.triangle_strip(n)
        for seed in range(20):
            assert certificate_at(model, seed)[0], (n, seed)


def reference_certificate(system, motions, dor, J) -> bool:
    """The block certificate's decision by one np.linalg.svd per diagonal
    block: J finite, and every block's smallest singular value above RANK_GAP
    times its threshold 1e-8 * sigma_max."""
    cols = np.setdiff1d(np.arange(system.n_variables), witness._frame(system, motions, dor))
    if not np.isfinite(J).all():
        return False
    for eqs, vs in numeric._block_step(system, cols).blocks:
        s = np.linalg.svd(J[np.ix_(eqs, cols[list(vs)])], compute_uv=False)
        if not s[-1] > numeric.RANK_GAP * (numeric.RANK_REL_TOL * s[0]):
            return False
    return True


def thinned(system, motions, dor, J, multiple):
    """J with its middle 2 x 2 diagonal block's smallest singular value set
    at ``multiple`` times that block's threshold."""
    cols = np.setdiff1d(np.arange(system.n_variables), witness._frame(system, motions, dor))
    pairs = [(eqs, vs) for eqs, vs in numeric._block_step(system, cols).blocks if len(vs) == 2]
    eqs, vs = pairs[len(pairs) // 2]
    where = np.ix_(eqs, cols[list(vs)])
    U, s, Vt = np.linalg.svd(J[where])
    s[-1] = multiple * numeric.RANK_REL_TOL * s[0]
    out = J.copy()
    out[where] = (U * s) @ Vt
    return out


@pytest.mark.parametrize("n", [24, 48, 100, 200])
def test_the_certificate_decides_as_a_per_block_reference(n):
    # each witness Jacobian, copies with one block's smallest singular value
    # just inside and just outside both edges of the gap band, and copies
    # with a non-finite entry on a block and off every block (a frame column)
    model = zoo.triangle_strip(n)
    system = compile_model(model)
    gap = numeric.RANK_GAP
    decisions = []
    for seed in range(6):
        w = generate_witness(system, model, seed=seed)
        dor = rank_of(w.motions)
        certificate = witness.full_row_rank_certificate(system, w.motions, dor)
        variants = [w.jacobian] + [thinned(system, w.motions, dor, w.jacobian, f)
                                   for f in (1.01 * gap, 0.99 * gap, 1.01 / gap, 0.99 / gap)]
        frame = witness._frame(system, w.motions, dor)
        for row, col, bad in ((0, 0, np.nan), (0, frame[0], np.inf)):
            variants.append(w.jacobian.copy())
            variants[-1][row, col] = bad
        for J in variants:
            decisions.append(certificate(J))
            assert decisions[-1] == reference_certificate(system, w.motions, dor, J), seed
    assert decisions.count(True) == 2 * 6  # the witness and the thin block outside the band
