import json
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from gcskernel import (
    CapExceeded,
    WellPart,
    compile_model,
    eval_jacobian,
    generate_witness,
    greedy_dependency_groups,
    greedy_well_parts,
    is_well_part,
    linear_system,
    motion_basis,
    oracle_max_well_part,
    oracle_min_dependent_sets,
    rank_of,
    well_parts,
)
from gcskernel import detect, zoo
from gcskernel.compiler import induced, rows_of
from gcskernel.detect import detection_report
from gcskernel.model import Entity, Model, model_from_json_dict


def names(system, rows):
    return tuple(system.residuals[i].name for i in sorted(rows))


def jacobian(system):
    """The Jacobian of a linear system, the same at every assignment."""
    return eval_jacobian(system, np.zeros(system.n_variables))


def rank_of_rows(J, rows):
    return rank_of(J[sorted(rows)])


# --- dependency groups -----------------------------------------------------

def test_greedy_groups_lindep1():
    s = zoo.lindep1_system()
    groups = greedy_dependency_groups(jacobian(s), seed_row=0)
    assert [names(s, g.rows) for g in groups] == [
        ("E1", "E2", "E3", "E4"), ("E1", "E2", "E3", "E5")]
    # E4 = 4 E1 - E3 exactly: its numerical support excludes E2
    assert names(s, groups[0].support) == ("E1", "E3", "E4")
    assert names(s, groups[1].support) == ("E1", "E2", "E3", "E5")


def test_greedy_groups_lindep2_documented_failure():
    s = zoo.lindep2_system()
    groups = greedy_dependency_groups(jacobian(s), seed_row=0)
    assert [names(s, g.rows) for g in groups] == [
        ("E1", "E2", "E3", "E4"), ("E1", "E2", "E3", "E5")]
    oracle = oracle_min_dependent_sets(jacobian(s))
    sizes = sorted(len(g.rows) for g in oracle)
    assert min(sizes) == 2 < min(len(g.rows) for g in groups)


def test_greedy_alternative_seed():
    s = zoo.lindep2_system()
    groups = greedy_dependency_groups(jacobian(s), seed_row=3)
    # seeded at E4, E5's numerical support shrinks to the proportional pair
    e5 = [g for g in groups if s.residuals[g.excluded_row].name == "E5"][0]
    assert names(s, e5.support) == ("E4", "E5")


def test_greedy_full_rank_no_groups():
    s = linear_system(np.eye(3), np.zeros(3))
    assert greedy_dependency_groups(jacobian(s)) == []
    with pytest.raises(ValueError):
        greedy_dependency_groups(jacobian(s), seed_row=7)


def test_oracle_lindep1_and_lindep2():
    s1, s2 = zoo.lindep1_system(), zoo.lindep2_system()
    o1 = sorted(names(s1, g.rows) for g in oracle_min_dependent_sets(jacobian(s1)))
    o2 = sorted(names(s2, g.rows) for g in oracle_min_dependent_sets(jacobian(s2)))
    assert o1 == [("E1", "E2", "E3", "E5"), ("E1", "E2", "E4", "E5"),
                  ("E1", "E3", "E4"), ("E2", "E3", "E4", "E5")]
    assert o2 == [("E1", "E3", "E4"), ("E1", "E3", "E5"), ("E4", "E5")]
    assert ("E4", "E5") in o2 and ("E4", "E5") not in o1


def test_oracle_identity_rows_empty():
    s = linear_system(np.eye(3), np.zeros(3))
    assert oracle_min_dependent_sets(jacobian(s)) == []


def test_oracle_cap():
    s = linear_system(np.ones((13, 2)), np.zeros(13))
    with pytest.raises(CapExceeded):
        oracle_min_dependent_sets(jacobian(s), size_cap=12)


def test_group_invariants():
    for sys_ in (zoo.lindep1_system(), zoo.lindep2_system()):
        J = jacobian(sys_)
        for g in greedy_dependency_groups(J):
            assert rank_of_rows(J, g.rows) < len(g.rows)
        for g in oracle_min_dependent_sets(J):
            rows = sorted(g.rows)
            assert rank_of_rows(J, rows) < len(rows)
            for drop in rows:
                sub = [r for r in rows if r != drop]
                if sub:
                    assert rank_of_rows(J, sub) == len(sub)


def test_determinism():
    J = jacobian(zoo.lindep2_system())
    a = greedy_dependency_groups(J, seed_row=0)
    b = greedy_dependency_groups(J, seed_row=0)
    assert [g.rows for g in a] == [g.rows for g in b]


# --- well parts ---------------------------------------------------------------

def witness_for(m):
    """The compiled model and the Jacobian and motion basis of its seed-0 witness."""
    s = compile_model(m)
    w = generate_witness(s, m, seed=0)
    return s, w.jacobian, w.motions


def test_two_triangle_bridge_parts():
    m = zoo.two_triangles_bridge()
    s, J, M = witness_for(m)
    parts = greedy_well_parts(m, s, J, M, seed_entity="P1")
    assert sorted(sorted(p.entities) for p in parts) == [
        ["P1", "P2", "P3"], ["P4", "P5", "P6"]]
    # the bridge constraint belongs to neither part
    for p in parts:
        assert "e7" not in p.constraints


def test_well_whole_single_part():
    m = zoo.three_distances_model()
    s, J, M = witness_for(m)
    parts = greedy_well_parts(m, s, J, M)
    assert len(parts) == 1
    assert parts[0].entities == frozenset({"P1", "P2", "P3"})


def test_single_pass_order_dependence_on_braced_quad():
    # the ascending scan meets P3 before P4 and can never come back: the
    # classical greedy blind spot
    m = zoo.braced_quad_model()
    s, J, M = witness_for(m)
    parts = greedy_well_parts(m, s, J, M, seed_entity="P1")
    assert sorted(sorted(p.entities) for p in parts) == [["P1", "P2", "P4"]]
    best = oracle_max_well_part(m, s, J, M)
    assert best.entities == frozenset({"P1", "P2", "P3", "P4"})


def test_seed_dependence_demo():
    m = zoo.seed_demo_model()
    s, J, M = witness_for(m)
    sizes = {}
    for seed in ["A", "B", "C", "D", "E"]:
        parts = greedy_well_parts(m, s, J, M, seed_entity=seed)
        sizes[seed] = sorted(len(p.entities) for p in parts)
    assert sizes["B"] == [5]
    assert sizes["E"] == [2, 3]
    assert len(set(map(tuple, sizes.values()))) > 1
    best = oracle_max_well_part(m, s, J, M)
    assert len(best.entities) == 5
    worst = max(len(p.entities) for p in greedy_well_parts(m, s, J, M, seed_entity="E"))
    assert len(best.entities) > worst


@pytest.mark.parametrize("n", [9, 20])
def test_greedy_grows_in_natural_id_order_on_a_strip(n):
    # P10 comes after P9: in string order a part seeded at P1 tried P10 and
    # P11 first, before it could hold them, and the rigid strip(9) split
    # into parts of 9 and 2 entities
    m = zoo.triangle_strip(n)
    s, J, M = witness_for(m)
    parts = greedy_well_parts(m, s, J, M)
    assert [p.entities for p in parts] == [frozenset(e.id for e in m.entities)]
    assert parts[0].constraints == frozenset(c.id for c in m.constraints)


def test_parts_disjoint_and_well():
    m = zoo.two_triangles_shared_vertex()
    s, J, M = witness_for(m)
    parts = greedy_well_parts(m, s, J, M)
    seen = set()
    for p in parts:
        assert not (p.entities & seen)
        seen |= p.entities
        assert is_well_part(m, s, J, M, p.entities)


def test_lone_entity_is_not_well():
    m = Model(2, (Entity("P1", "point2", (0.0, 0.0)),), ())
    s = compile_model(m)
    x = np.zeros(2)
    J, M = eval_jacobian(s, x), motion_basis(m, s, x)
    assert not is_well_part(m, s, J, M, {"P1"})
    best = oracle_max_well_part(m, s, J, M)
    assert best.entities == frozenset()


def test_oracle_full_set_when_well():
    m = zoo.braced_quad_model()
    s, J, M = witness_for(m)
    best = oracle_max_well_part(m, s, J, M)
    assert best.entities == frozenset({"P1", "P2", "P3", "P4"})


def test_oracle_entity_cap():
    m = zoo.seed_demo_model()
    s, J, M = witness_for(m)
    with pytest.raises(CapExceeded):
        oracle_max_well_part(m, s, J, M, entity_cap=3)


def test_detection_report_shape():
    groups = greedy_dependency_groups(jacobian(zoo.lindep2_system()))
    rep = detection_report(groups, "greedy", seed=0)
    assert rep["method"] == "greedy" and rep["seed"] == 0
    assert rep["dependencyGroups"] == [[0, 1, 2, 3], [0, 1, 2, 4]]
    assert rep["wellParts"] == []
    parts = [WellPart(frozenset({"P3"}), frozenset()), WellPart(frozenset({"P2", "P1"}), frozenset())]
    assert detection_report(groups, "greedy", 0, parts)["wellParts"] == [["P1", "P2"], ["P3"]]


# --- rank-only decisions against full rank analyses ---------------------------

def corpus_systems(corpus_dir):
    """(name, model or None, system, Jacobian, motion basis or None) per corpus
    file: at the seed-0 witness for a model, for a raw linear system its
    Jacobian and no motion basis."""
    for path in sorted(corpus_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "equations" in data:
            s = linear_system([eq["coeffs"] for eq in data["equations"]],
                              [eq.get("rhs", 0.0) for eq in data["equations"]])
            yield path.stem, None, s, jacobian(s), None
        else:
            m = model_from_json_dict(data)
            yield path.stem, m, *witness_for(m)


def entity_subsets(model):
    ids = sorted(e.id for e in model.entities)
    for k in range(1, len(ids) + 1):
        yield from combinations(ids, k)


def reference_is_well_part(model, system, J, M, subset):
    """The rigidity test as two full rank analyses, with no counting shortcut."""
    constraints, rows = induced(model, system, subset)
    if not constraints:
        return False
    columns = system.columns_of(subset)
    rank = rank_of(J[np.ix_(rows, columns)])
    dor = rank_of(M[:, columns])
    return rank == len(rows) and len(columns) - rank <= dor


def small_corpus_models(corpus_dir, max_entities=8):
    for name, m, s, J, M in corpus_systems(corpus_dir):
        if m is not None and len(m.entities) <= max_entities:
            yield name, m, s, (J, M)


def test_is_well_part_matches_full_rank_analyses_on_corpus(corpus_dir):
    verdicts = []
    for name, m, s, (J, M) in small_corpus_models(corpus_dir):
        for subset in entity_subsets(m):
            verdicts.append(is_well_part(m, s, J, M, subset))
            assert verdicts[-1] == reference_is_well_part(m, s, J, M, subset), (name, subset)
    assert 0 < sum(verdicts) < len(verdicts)


def test_well_parts_in_one_batch_match_full_rank_analyses_on_corpus(corpus_dir,
                                                                    recording_svd):
    # every entity subset of a model decided in one call, each record's counts
    # against a scan of its subset; the Jacobian blocks of one shape (r, c)
    # take one SVD, and so do the motion blocks of c columns
    verdicts = []
    for name, m, s, (J, M) in small_corpus_models(corpus_dir):
        subsets = list(entity_subsets(m))
        recording_svd.clear()
        parts = well_parts(m, s, J, M, subsets)
        k = M.shape[0]
        shapes = {(len(rows), len(s.columns_of(subset))) for subset in subsets
                  for constraints, rows in [induced(m, s, subset)] if constraints}
        shapes = {(r, c) for r, c in shapes if c - k <= r <= c}
        assert len(recording_svd) <= len(shapes) + len({c for _, c in shapes}), name
        for subset, part in zip(subsets, parts):
            verdicts.append(part is not None)
            assert verdicts[-1] == reference_is_well_part(m, s, J, M, subset), (name, subset)
            if part is not None:
                constraints, rows = induced(m, s, subset)
                columns = s.columns_of(subset)
                assert (part.entities, part.constraints) == (frozenset(subset), constraints)
                assert (part.rows, part.columns) == (len(rows), len(columns))
                assert part.motion_rank == rank_of(M[:, columns])
                assert part.fixed == any(m.constraint(c).kind == "fix" for c in constraints)
    assert 0 < sum(verdicts) < len(verdicts)


def test_well_parts_builds_index_lists_only_for_the_sets_counting_keeps(corpus_dir,
                                                                       monkeypatch):
    # a set of r rows on c columns is counted from its constraints' and
    # entities' row and column counts; only a set with c - k <= r <= c gets
    # its row list built
    built = []
    monkeypatch.setattr(detect, "rows_of", lambda system, constraints, entities: (
        built.append(frozenset(entities)) or rows_of(system, constraints, entities)))
    for name, m, s, (J, M) in small_corpus_models(corpus_dir):
        subsets = [frozenset(subset) for subset in entity_subsets(m)]
        built.clear()
        well_parts(m, s, J, M, subsets)
        k = M.shape[0]
        kept = [subset for subset in subsets for constraints, rows in [induced(m, s, subset)]
                if constraints and 0 <= len(s.columns_of(subset)) - len(rows) <= k]
        assert Counter(built) == Counter(kept), name
        assert len(kept) < len(subsets), name


def test_is_well_part_counts_before_any_svd(corpus_dir, monkeypatch):
    # a part of r rows on c columns is refused without an SVD unless
    # c - k <= r <= c (k rigid motions); the motion block of c columns is
    # ranked only after an r x c Jacobian block of full row rank, r == c
    # too, since the part's record carries its motion rank
    cases = []  # (model, system, J, M, subset, expected SVD shapes)
    refused_by_count = 0
    for name, m, s, (J, M) in small_corpus_models(corpus_dir):
        k = M.shape[0]
        for subset in entity_subsets(m):
            constraints, rows = induced(m, s, subset)
            columns = s.columns_of(subset)
            r, c = len(rows), len(columns)
            if not constraints:
                shapes = []
            elif not c - k <= r <= c:
                shapes = []
                refused_by_count += 1
            elif rank_of(J[np.ix_(rows, columns)]) < r:
                shapes = [(r, c)]
            else:
                shapes = [(r, c), (k, c)]
            cases.append((m, s, J, M, subset, shapes))
    svd = np.linalg.svd
    seen = []

    def counting_svd(a, *args, **kwargs):
        seen.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for m, s, J, M, subset, shapes in cases:
        seen.clear()
        is_well_part(m, s, J, M, subset)
        assert seen == shapes, subset
    assert 0 < refused_by_count < len(cases)
    assert any(len(case[-1]) == 2 for case in cases)


def test_greedy_well_parts_tests_each_set_once(corpus_dir, monkeypatch):
    # a part that grew is the set its last addition tested; only a seed that
    # took no entity is tested again, alone, after the pass
    tested = []
    real = detect.well_parts

    def counting(*args):
        tested.extend(frozenset(c) for c in args[4])
        return real(*args)

    monkeypatch.setattr(detect, "well_parts", counting)
    total = 0
    for name, m, s, J, M in corpus_systems(corpus_dir):
        if m is None:
            continue
        tested.clear()
        for part in greedy_well_parts(m, s, J, M):
            assert reference_is_well_part(m, s, J, M, part.entities), (name, part)
            assert part.constraints == induced(m, s, part.entities)[0], (name, part)
        assert len(tested) == len(set(tested)), name
        total += len(tested)
    assert total == 95  # 122 when every part was tested again


@pytest.mark.parametrize("chunk", [1, 3, detect.ORACLE_CHUNK])
def test_stacked_max_well_part_is_the_first_well_subset_on_corpus(chunk, corpus_dir,
                                                                  monkeypatch):
    # the largest subsets first, each size in lexicographic order, whatever
    # the stacks it is decided in
    monkeypatch.setattr(detect, "ORACLE_CHUNK", chunk)
    checked = 0
    for name, m, s, (J, M) in small_corpus_models(corpus_dir):
        ids = sorted(e.id for e in m.entities)
        expected = next((frozenset(combo) for k in range(len(ids), 0, -1)
                         for combo in combinations(ids, k)
                         if reference_is_well_part(m, s, J, M, combo)), frozenset())
        best = oracle_max_well_part(m, s, J, M)
        assert best.entities == expected, name
        assert best.constraints == induced(m, s, expected)[0], name
        checked += len(expected) < len(ids)
    assert checked >= 3  # some models are not well as a whole


def reference_min_dependent_sets(J):
    """The oracle's enumeration with one full rank analysis per subset."""
    found = []
    for k in range(1, J.shape[0] + 1):
        for combo in combinations(range(J.shape[0]), k):
            s = frozenset(combo)
            if any(prev <= s for prev in found):
                continue
            if rank_of(J[list(combo)]) < k:
                found.append(s)
    return found


def test_stacked_oracle_matches_per_subset_enumeration_on_corpus(corpus_dir):
    checked = 0
    for name, _, s, J, _ in corpus_systems(corpus_dir):
        if s.n_residuals <= 12:
            got = [g.rows for g in oracle_min_dependent_sets(J)]
            assert got == reference_min_dependent_sets(J), name
            checked += 1
    assert checked >= 10


def test_stacked_oracle_crosses_chunks_on_a_drawn_system(monkeypatch):
    # 8 generic rows and 6 rows each a combination of 2-4 earlier rows: minimal
    # dependent sets of several sizes, and more unpruned subsets of one size
    # than one stack holds
    rng = np.random.default_rng(14)
    A = list(rng.normal(size=(8, 8)))
    for _ in range(6):
        picks = rng.choice(len(A), size=rng.integers(2, 5), replace=False)
        A.append(rng.normal(size=len(picks)) @ np.array([A[i] for i in picks]))
    s = linear_system(np.array(A), np.zeros(14))
    stacks = []
    rank_of = detect.rank_of

    def counting_rank_of(matrices, *args):
        stacks.append(matrices.shape[:2])
        return rank_of(matrices, *args)

    monkeypatch.setattr(detect, "rank_of", counting_rank_of)
    got = [g.rows for g in oracle_min_dependent_sets(jacobian(s), size_cap=14)]
    assert got == reference_min_dependent_sets(np.array(A))
    assert len({len(g) for g in got}) > 1
    assert max(count for count, _ in stacks) == detect.ORACLE_CHUNK
    assert len(stacks) > len({k for _, k in stacks})  # some size took several stacks
