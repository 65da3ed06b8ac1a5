import hashlib
import json
import math
import sys
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gcskernel import (
    AlignmentError,
    DecompositionError,
    add_anchors,
    assignment_from_params,
    bottom_up,
    bottom_up_at,
    compile_model,
    eval_jacobian,
    eval_residuals,
    newton_solve,
    params_from_assignment,
    solve_tree,
    top_down,
)
from gcskernel import cli, compiler, decompose, expr, geometry, numeric, structural, witness, zoo
from gcskernel.bodies import Bodies
from gcskernel.compiler import induced
from gcskernel.decompose import ClusterNode, ClusterTree, _fit
from gcskernel.detect import is_well_part
from gcskernel.model import (
    Constraint, Entity, Model, load_model, model_from_json_dict, model_to_json_dict)
from gcskernel.numeric import solve
from gcskernel.witness import characterize, characterize_at, generate_witness

from conftest import CORPUS


def direct_solution(m):
    s = add_anchors(compile_model(m), m)
    res = newton_solve(s, assignment_from_params(m, s))
    assert res.converged
    return params_from_assignment(m, s, res.assignment)


def aligned_max_deviation(m, a, b):
    pts = [e.id for e in m.entities if e.kind == "point2"]
    A = np.array([a[p][:2] for p in pts])
    B = np.array([b[p][:2] for p in pts])
    R, t = geometry.fit_rigid_2d(B, A)
    return float(np.max(np.abs((B @ R.T) + t - A)))


def all_nodes(node):
    yield node
    for c in node.children:
        yield from all_nodes(c)


# --- bottom-up ------------------------------------------------------------------

def test_bottom_up_braced_quad_triangle_plus_two_bars():
    # the triangle P1P2P4 retires its seeds; the bars P2P3 and P3P4 close the
    # quad in one ternary merge, and the triangle, which holds the earliest
    # seed, is the first child
    tree = bottom_up(zoo.braced_quad_model())
    assert tree.assembled
    root = tree.roots[0]
    assert root.kind == "merge"
    assert [sorted(c.entities) for c in root.children] == [
        ["P1", "P2", "P4"], ["P2", "P3"], ["P3", "P4"]]
    assert [c.kind for c in root.children] == ["merge", "seed", "seed"]
    assert not tree.redundant_constraints and not tree.free_entities


def test_bottom_up_triangle_single_cluster():
    tree = bottom_up(zoo.three_distances_model())
    assert tree.assembled
    assert tree.roots[0].entities == frozenset({"P1", "P2", "P3"})
    assert all(c.kind == "seed" for c in tree.roots[0].children)


def test_bottom_up_reports_redundant_extra_edge():
    m = zoo.braced_quad_model()
    diag = math.dist((0, 0), (7, 3))
    extra = Model(2, m.entities,
                  m.constraints + (Constraint("diag", "distance-pp", ("P1", "P3"), diag),))
    tree = bottom_up(extra)
    assert "diag" in tree.redundant_constraints
    assert not tree.assembled  # the whole never merges rigidly


def test_bottom_up_rejects_three_lines_three_angles():
    tree = bottom_up(zoo.three_lines_three_angles())
    # every pair is a rigid seed, but the ternary merge is not rigid
    assert all(r.kind == "seed" for r in tree.roots)
    assert len(tree.roots) == 3


def test_bottom_up_under_constrained_bridge():
    tree = bottom_up(zoo.two_triangles_bridge())
    sizes = sorted(len(r.entities) for r in tree.roots)
    assert sizes == [2, 3, 3]  # two triangles + the bridge pair
    assert not tree.free_entities


def test_bottom_up_with_carrier_lines():
    m = zoo.triangle_model()
    tree = bottom_up(m)
    assert tree.assembled
    assert tree.roots[0].entities == frozenset({"P1", "P2", "P3", "L1", "L2"})


def test_tree_json_shape():
    d = bottom_up(zoo.braced_quad_model()).to_json_dict()
    assert d["strategy"] == "bottom-up"
    assert d["roots"][0]["kind"] == "merge"
    assert sorted(d["roots"][0]["entities"]) == ["P1", "P2", "P3", "P4"]


def restart_scan_bottom_up(model, seed=0):
    """Reference bottom-up: after every merge, rebuild all candidate groups,
    sort them and rescan from the top (the loop the worklist replaced)."""
    system = compile_model(model)
    witness = generate_witness(system, model, seed=seed)
    counter = [0]

    def new_node(kind, entities, children=(), shared=()):
        counter[0] += 1
        ents = frozenset(entities)
        return ClusterNode(counter[0], kind, ents, induced(model, system, ents)[0],
                           tuple(children), tuple(shared))

    def rigid(entity_set):
        return is_well_part(model, system, witness, entity_set)

    active = []
    ids = sorted(e.id for e in model.entities)
    for single in ids:
        if induced(model, system, (single,))[0] and rigid((single,)):
            active.append(new_node("seed", (single,)))
    for a, b in combinations(ids, 2):
        if induced(model, system, (a, b))[0] and rigid((a, b)):
            active.append(new_node("seed", (a, b)))

    def candidates():
        out = [(c1, c2) for c1, c2 in combinations(active, 2)
               if len(c1.entities & c2.entities) >= 2]
        out += [(c1, c2, c3) for c1, c2, c3 in combinations(active, 3)
                if c1.entities & c2.entities and c2.entities & c3.entities
                and c1.entities & c3.entities]
        out.sort(key=lambda grp: (
            len(frozenset().union(*(c.entities for c in grp))),
            len(grp),
            tuple(sorted(frozenset().union(*(c.entities for c in grp)))),
            tuple(sorted(tuple(sorted(c.entities)) for c in grp)),
        ))
        return out

    redundant, rejected = set(), set()
    merged = True
    while merged:
        merged = False
        for group in candidates():
            union = frozenset().union(*(c.entities for c in group))
            key = tuple(sorted(tuple(sorted(c.entities)) for c in group))
            if key in rejected or any(union <= c.entities for c in active):
                continue
            if rigid(union):
                shared = tuple(tuple(sorted(p.entities & q.entities))
                               for p, q in combinations(group, 2))
                active.append(new_node("merge", union, children=group, shared=shared))
                merged = True
                break
            rejected.add(key)
            held = frozenset().union(*(c.constraints for c in group))
            redundant |= induced(model, system, union)[0] - held

    maximal = [c for c in active
               if not any(c is not o and c.entities < o.entities for o in active)]
    roots = tuple(sorted(maximal, key=lambda c: (-len(c.entities), sorted(c.entities))))
    covered_e = frozenset().union(*(r.entities for r in roots))
    covered_c = frozenset().union(*(r.constraints for r in roots))
    leftover = {c.id for c in model.constraints} - covered_c
    return ClusterTree("bottom-up", roots, tuple(sorted(redundant | leftover)),
                       tuple(sorted(set(ids) - covered_e)))


def corpus_2d_models(corpus_dir):
    for path in sorted(corpus_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("dimension") == 2:
            yield path.name, model_from_json_dict(data)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bottom_up_at_the_verdicts_witness_is_bottom_up(seed, corpus_dir):
    # gcs decompose hands bottom_up_at the sample of characterize's first
    # vote; bottom_up draws it at the same seed
    files = [(path.name, json.loads(path.read_text(encoding="utf-8")))
             for path in sorted(corpus_dir.glob("*.json"))]
    models = [(name, model_from_json_dict(data)) for name, data in files if "dimension" in data]
    models += [(f"strip{n}", zoo.triangle_strip(n)) for n in range(3, 13)]
    assert len(models) == 34
    for name, m in models:
        s = compile_model(m)
        report = characterize(s, m, seed=seed)
        at = bottom_up_at(m, s, report.witness, report.witness_groups())
        assert at.to_json_dict() == bottom_up(m, seed=seed, system=s).to_json_dict(), name


def test_bottom_up_of_a_certified_strip_ranks_no_whole_jacobian(tmp_path, capsys, monkeypatch,
                                                               recording_svd):
    # strip(48)'s vote is certified from its blocks, and its unions are
    # decided on their children's body coefficients, so its 97 x 100
    # Jacobian is never ranked.  A dense vote ranks it once.
    m = zoo.triangle_strip(48)
    path = tmp_path / "strip48.json"
    path.write_text(json.dumps(model_to_json_dict(m)), encoding="utf-8")
    tree = bottom_up(m).to_json_dict()
    assert recording_svd.count(((97, 100), False)) == 0
    recording_svd.clear()
    assert cli.main(["solve", "--strategy", "decomposed", str(path)]) == 0
    capsys.readouterr()
    assert recording_svd.count(((97, 100), False)) == 0
    recording_svd.clear()
    monkeypatch.setattr(witness, "BLOCK_STEP_MIN_ROWS", math.inf)
    assert bottom_up(m).to_json_dict() == tree
    assert recording_svd.count(((97, 100), False)) == 1


def roots_and_free(tree):
    return sorted(sorted(r.entities) for r in tree.roots), tree.free_entities


# The restart scan keeps covered clusters and so builds other internal nodes;
# retiring them must leave the root entity sets and the free entities as they are.

def test_worklist_matches_restart_scan_on_corpus(corpus_dir):
    for name, m in corpus_2d_models(corpus_dir):
        assert roots_and_free(bottom_up(m)) == roots_and_free(restart_scan_bottom_up(m)), name


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_worklist_matches_restart_scan_on_strips(n):
    m = zoo.triangle_strip(n)
    for seed in (0, 1, 7):
        expected = roots_and_free(restart_scan_bottom_up(m, seed))
        assert roots_and_free(bottom_up(m, seed=seed)) == expected, seed


@st.composite
def small_bar_frameworks(draw, max_edges=lambda n: 2 * n):
    """2D point-distance models: 2-8 points in general position, any edge set
    of at most ``max_edges(n)`` bars (2n allows over-braced frameworks)."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    coords = {f"P{i}": tuple(rng.uniform(-5.0, 5.0, size=2)) for i in range(n)}
    edges = draw(st.lists(st.sampled_from(list(combinations(sorted(coords), 2))),
                          unique=True, max_size=max_edges(n)))
    return zoo.points_distances_model(coords, edges)


def is_independent(model, seed=0):
    """Whether no row of the model's witness Jacobian takes part in a dependency."""
    system = compile_model(model)
    J = generate_witness(system, model, seed=seed).jacobian
    return not numeric.cokernel_groups(J, numeric.rank_of(J))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_bar_frameworks())
@example(zoo.points_distances_model(  # K4: every row is in the one dependency
    {"P0": (0.0, 0.0), "P1": (4.0, 0.3), "P2": (1.1, 3.7), "P3": (3.2, 2.9)},
    list(combinations(["P0", "P1", "P2", "P3"], 2))))
def test_worklist_matches_restart_scan_on_bar_frameworks(model):
    assert roots_and_free(bottom_up(model)) == roots_and_free(restart_scan_bottom_up(model))


def reachable_ids(tree):
    return [n.node_id for r in tree.roots for n in all_nodes(r)]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_bar_frameworks(max_edges=lambda n: 2 * n - 3))
def test_independent_frameworks_flag_only_unheld_constraints(model):
    assume(is_independent(model))
    tree = bottom_up(model)
    held = frozenset().union(*(r.constraints for r in tree.roots))
    assert set(tree.redundant_constraints) == {c.id for c in model.constraints} - held
    ids = reachable_ids(tree)
    assert len(ids) == len(set(ids))  # every merge retired its children


@pytest.mark.parametrize("n", [3, 7, 12, 48])
def test_bottom_up_strip_is_a_tree(n):
    ids = reachable_ids(bottom_up(zoo.triangle_strip(n)))
    assert len(ids) == len(set(ids))


def rigidity_checks(model, monkeypatch):
    """Bottom-up's rigidity decisions: one per seed candidate, one per union."""
    calls = [0]
    seeds, union = decompose.well_parts, Bodies.union

    def counting_seeds(*args, **kwargs):
        calls[0] += len(args[3])
        return seeds(*args, **kwargs)

    def counting_union(self, *args):
        calls[0] += 1
        return union(self, *args)

    monkeypatch.setattr(decompose, "well_parts", counting_seeds)
    monkeypatch.setattr(Bodies, "union", counting_union)
    bottom_up(model)
    return calls[0]


def test_bottom_up_rigidity_check_count_on_strip7(monkeypatch):
    # a merge retires the clusters it covers, so the checks grow linearly
    assert rigidity_checks(zoo.triangle_strip(7), monkeypatch) == 23


def test_bottom_up_rigidity_check_count_on_strip48(monkeypatch):
    assert rigidity_checks(zoo.triangle_strip(48), monkeypatch) == 152


@pytest.mark.parametrize("make, checks", [(zoo.k4_model, 11), (zoo.double_banana_model, 137)])
def test_bottom_up_tests_each_union_at_most_once(make, checks, monkeypatch):
    # in a guarded region nothing retires, so many queued groups share one
    # union; a union found not rigid is not tested again
    assert rigidity_checks(make(), monkeypatch) == checks


def test_bottom_up_flags_only_dependent_constraints(corpus_dir):
    # the flagged constraints are those whose rows take part in a row
    # dependency of the witness Jacobian; a flexible part flags nothing
    expected = {
        "seed-demo": [], "solve-seed-demo": [], "solve-strip3": [], "solve-strip4": [],
        "solve-strip5": [], "solve-pentagon-fan": [], "triangle": [],
        "two-triangles-bridge": [], "two-triangles-distance": [],
        "three-lines-three-angles": ["a12", "a13", "a23"],
        "k4": ["e1", "e2", "e3", "e4", "e5", "e6"],
    }
    for name, want in expected.items():
        data = json.loads((corpus_dir / f"{name}.json").read_text(encoding="utf-8"))
        tree = bottom_up(model_from_json_dict(data))
        assert list(tree.redundant_constraints) == want, name


def dependent_sources(system, groups):
    """The constraints whose rows lie in one of the cokernel ``groups``."""
    return {system.residuals[r].source for g in groups for r in g
            if system.residuals[r].kind == "constraint"}


def test_bottom_up_flags_a_dependency_across_clusters():
    # two rigid 4-point strips joined by four bars: the one dependency runs
    # through all 14 rows, but no tested union holds both strips, so a rule
    # that looks only inside failed unions flagged nothing
    coords = {"P1": (0.0, 0.0), "P2": (1.1, 1.9), "P3": (2.3, -0.2), "P4": (3.2, 2.1),
              "P5": (0.4, 5.3), "P6": (1.7, 7.2), "P7": (2.9, 4.8), "P8": (4.1, 7.6)}
    strip = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    edges = ([(f"P{a + 1}", f"P{b + 1}") for a, b in strip]
             + [(f"P{a + 5}", f"P{b + 5}") for a, b in strip]
             + [(f"P{i}", f"P{i + 4}") for i in range(1, 5)])
    m = zoo.points_distances_model(coords, edges)
    system = compile_model(m)
    report = characterize(system, m)
    assert report.verdict == "over"
    tree = bottom_up(m)
    assert tree.redundant_constraints
    assert set(tree.redundant_constraints) == dependent_sources(system, report.dependent_groups)
    assert set(tree.redundant_constraints) == {c.id for c in m.constraints}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_bar_frameworks())
def test_bottom_up_flags_the_witness_cokernel_support(model):
    system = compile_model(model)
    witness = generate_witness(system, model, seed=0)
    # the degree of rigidity does not enter the cokernel
    groups = characterize_at(system, witness.assignment, 0).dependent_groups
    tree = bottom_up(model, seed=0)
    held = frozenset().union(*(r.constraints for r in tree.roots))
    unheld = {c.id for c in model.constraints} - held
    assert set(tree.redundant_constraints) == dependent_sources(system, groups) | unheld


def _with_fixes(m, *points):
    fixes = tuple(Constraint(f"f{p[1:]}", "fix", (p,)) for p in points)
    return Model(m.dimension, m.entities, m.constraints + fixes)


@pytest.mark.parametrize("m, fixed", [
    # a fix makes P7 rigid on its own, so without the rule P7 paired with any
    # rigid point (P1) passed the rigidity test and the solve could not align
    (_with_fixes(zoo.triangle_strip(5), "P7"), ("P7",)),
    # two fixed points make a rigid pair that no constraint links; the model
    # assembles only if that pair is seeded
    (_with_fixes(zoo.points_distances_model(
        {"P1": (0, 0), "P2": (4, 0), "P3": (1.5, 3)}, [("P1", "P3"), ("P2", "P3")]),
        "P1", "P2"), ("P1", "P2")),
], ids=["strip5-fix-P7", "two-anchor-triangle"])
def test_bottom_up_pair_seeds_share_a_constraint(m, fixed):
    tree = bottom_up(m)
    seeds = [n for r in tree.roots for n in all_nodes(r) if n.kind == "seed"]
    for s in seeds:
        named = set().union(*(m.constraint(c).entities for c in s.constraints))
        assert named == s.entities, sorted(s.entities)
    assert tree.assembled
    plan, solution, cert = solve_tree(m, tree)
    assert cert.converged
    for p in fixed:
        assert solution[p] == pytest.approx(m.entity(p).params, abs=1e-9)


# --- top-down -------------------------------------------------------------------

def test_top_down_braced_quad_split():
    tree = top_down(zoo.braced_quad_model())
    root = tree.roots[0]
    assert root.kind == "split"
    assert root.pair == ("P2", "P4")
    kinds = [c.kind for c in root.children]
    assert kinds == ["triangle", "triangle"]
    assert root.children[0].virtual_bonds == ()
    assert root.children[1].virtual_bonds == (("P2", "P4"),)


def test_top_down_triangle_base_case():
    tree = top_down(zoo.three_distances_model())
    assert tree.roots[0].kind == "triangle"
    assert not tree.roots[0].children


def test_a_model_without_entities_has_no_roots_either_way():
    # as bottom-up, top-down gives an empty model no node, so the
    # decomposed solve refuses both trees alike
    m = Model(2, (), ())
    for tree in (top_down(m), bottom_up(m)):
        assert tree.roots == () and not tree.assembled
        with pytest.raises(DecompositionError, match="0 roots"):
            solve_tree(m, tree)


def test_top_down_k4_irreducible():
    tree = top_down(zoo.k4_model())
    assert tree.roots[0].kind == "irreducible"


def test_top_down_scope_errors():
    with pytest.raises(DecompositionError):
        top_down(zoo.triangle_model())  # carrier lines out of scope
    with pytest.raises(DecompositionError):
        top_down(zoo.tetrahedron_model())


def test_top_down_strip_recursion():
    tree = top_down(zoo.triangle_strip(4))
    root = tree.roots[0]
    assert root.kind == "split"
    # recursion bottoms out in triangles only
    def leaves(node):
        if not node.children:
            yield node
        for c in node.children:
            yield from leaves(c)
    assert all(leaf.kind == "triangle" for leaf in leaves(root))



def test_top_down_model_constraint_named_like_a_virtual_bond():
    # virtual bonds are flagged in the edges, not told apart by their id
    m = zoo.braced_quad_model()
    renamed = Model(m.dimension, m.entities, tuple(
        Constraint("vbond:e1" if c.id == "e1" else c.id, c.kind, c.entities, c.value)
        for c in m.constraints))

    def rename(node):
        node = dict(node)
        node["constraints"] = sorted(
            "vbond:e1" if cid == "e1" else cid for cid in node["constraints"])
        if "children" in node:
            node["children"] = [rename(c) for c in node["children"]]
        return node

    expected = top_down(m).to_json_dict()
    expected["roots"] = [rename(r) for r in expected["roots"]]
    tree = top_down(renamed)
    assert tree.to_json_dict() == expected
    plan, solution, cert = solve_tree(renamed, tree)
    assert cert.converged


def pair_scan_top_down(model):
    """Reference top-down: try every entity pair of a node in sorted order and
    search the rest of the graph for each (the scan that a per-level low-link
    pass, and then one inherited triconnected decomposition, replaced)."""
    counter = [0]

    def new_node(kind, entities, constraints, children=(), pair=None, bonds=()):
        counter[0] += 1
        return ClusterNode(counter[0], kind, frozenset(entities), frozenset(constraints),
                           tuple(children), pair=pair, virtual_bonds=tuple(bonds))

    def components(nodes, adj):
        seen, comps = set(), []
        for start in sorted(nodes):
            if start in seen:
                continue
            comp, frontier = {start}, [start]
            seen.add(start)
            while frontier:
                for nb in adj[frontier.pop()]:
                    if nb in nodes and nb not in seen:
                        seen.add(nb)
                        comp.add(nb)
                        frontier.append(nb)
            comps.append(comp)
        return comps

    def split(entities, edges):
        cons = {eid for eid, _ in edges if not eid.startswith("vbond:")}
        bonds_here = tuple(
            tuple(sorted(epair)) for eid, epair in edges if eid.startswith("vbond:"))
        if len(entities) <= 3:
            kind = "triangle" if len(edges) >= 2 * len(entities) - 3 else "under"
            return new_node(kind, entities, cons, bonds=bonds_here)
        adj = {e: set() for e in entities}
        for _, epair in edges:
            a, b = sorted(epair)
            adj[a].add(b)
            adj[b].add(a)
        for a, b in combinations(sorted(entities), 2):
            comps = components(set(entities) - {a, b}, adj)
            if len(comps) < 2:
                continue
            assigned, jobs = set(), []
            for cs in (frozenset(comp | {a, b}) for comp in comps):
                mine = []
                for eid, epair in edges:
                    if epair <= cs and eid not in assigned:
                        mine.append((eid, epair))
                        assigned.add(eid)
                needs_bond = (2 * len(cs) - len(mine) > 3
                              and not any(ep == frozenset((a, b)) for _, ep in mine))
                jobs.append((needs_bond, cs, mine))
            jobs.sort(key=lambda j: (j[0], sorted(j[1])))
            children, node_bonds = [], []
            for needs_bond, cs, mine in jobs:
                if needs_bond:
                    mine = mine + [(f"vbond:{a}-{b}", frozenset((a, b)))]
                    node_bonds.append((a, b))
                children.append(split(cs, mine))
            return new_node("split", entities, cons, children=children,
                            pair=(a, b), bonds=tuple(node_bonds))
        return new_node("irreducible", entities, cons, bonds=bonds_here)

    root = split(frozenset(e.id for e in model.entities),
                 [(c.id, frozenset(c.entities)) for c in model.constraints])
    return ClusterTree("top-down", (root,), (), ())


@st.composite
def small_distance_graphs(draw):
    """2D point-distance models on 1-9 points; edges may repeat a pair."""
    n = draw(st.integers(1, 9))
    coords = {f"P{i}": (float(i), float(i * i % 7)) for i in range(n)}
    pairs = list(combinations(sorted(coords), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    return zoo.points_distances_model(coords, edges)


def graph(n, edges):
    return zoo.points_distances_model(
        {f"P{i}": (float(i), float(i * i % 7)) for i in range(n)},
        [(f"P{a}", f"P{b}") for a, b in edges])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_distance_graphs())
# two triangles apart, a triangle with two isolated points, two triangles on a
# cut vertex, G - P0 split into a singleton and a triangle, and a braced quad
# with its brace doubled
@example(graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
@example(graph(5, [(2, 3), (3, 4), (2, 4)]))
@example(graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]))
@example(graph(5, [(0, 1), (0, 2), (0, 3), (2, 3), (2, 4), (3, 4)]))
@example(graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (1, 3)]))
def test_low_link_split_matches_pair_scan(model):
    assert top_down(model).to_json_dict() == pair_scan_top_down(model).to_json_dict()


@st.composite
def henneberg_graphs(draw, edits=2):
    """Henneberg-I graphs of 6-14 points (each new point barred to two earlier
    ones), labelled so that sorted order differs from build order, with 0 to
    ``edits`` bars then added or removed.  Their split trees run several
    levels deep."""
    n = draw(st.integers(6, 14))
    labels = draw(st.permutations([f"P{i}" for i in range(n)]))
    bars = [(0, 1)]
    for k in range(2, n):
        bars += [(i, k) for i in draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                                                unique=True))]
    for _ in range(draw(st.integers(0, edits))):
        if draw(st.booleans()):
            bars.pop(draw(st.integers(0, len(bars) - 1)))
        else:
            bars.append(tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                            unique=True))))
    return zoo.points_distances_model(
        {labels[i]: (float(i), float(i * i % 7)) for i in range(n)},
        [(labels[i], labels[j]) for i, j in bars])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(henneberg_graphs())
# split at (P0, P1): the child {P0, P1, P2, P3} holds neither the edge P0-P1
# nor a bond (five bars fix it), and (P2, P3) separates it but not its
# parent; a triangle and a braced quad on the cut vertex P2; an unbraced
# 4-cycle
@example(graph(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)]))
@example(graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 2), (3, 5)]))
@example(graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
# P0 has no partner, so the first pair starts at P1: P0 isolated beside a K4,
# and P0 hanging from one vertex of it; then three components
@example(graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]))
@example(graph(5, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]))
@example(graph(6, [(1, 2), (3, 4), (4, 5), (3, 5)]))
def test_inherited_split_matches_pair_scan_on_deep_trees(model):
    assert top_down(model).to_json_dict() == pair_scan_top_down(model).to_json_dict()


# top_down(zoo.triangle_strip(400)) as the per-level low-link pass built it
STRIP_400_TREE_SHA256 = "787beb4572cf9fe2d5cbfc77eaf53b1ee496b66e847d2bc8fee5ed7a477bb115"


def test_top_down_strip_400_tree_is_unchanged():
    tree = top_down(zoo.triangle_strip(400)).to_json_dict()
    digest = hashlib.sha256(json.dumps(tree, sort_keys=True).encode()).hexdigest()
    assert digest == STRIP_400_TREE_SHA256


# bottom_up(zoo.triangle_strip(400)) as is_well_part decided every union
BOTTOM_UP_STRIP_400_TREE_SHA256 = (
    "ce2589ec8b3309f0fdf6ea07a1c3a265156ec011dd06f7167e6387682fb007dc")


def test_bottom_up_strip_400_tree_is_unchanged():
    tree = bottom_up(zoo.triangle_strip(400)).to_json_dict()
    digest = hashlib.sha256(json.dumps(tree, sort_keys=True).encode()).hexdigest()
    assert digest == BOTTOM_UP_STRIP_400_TREE_SHA256


def infinitesimally_rigid(model):
    """The Jacobian at the sketch has full row rank: the solutions near it
    are isolated up to a rigid motion."""
    system = compile_model(model)
    jacobian = eval_jacobian(system, assignment_from_params(model, system))
    return np.linalg.matrix_rank(jacobian) == system.n_residuals


@settings(derandomize=True, deadline=None, max_examples=60)
@given(henneberg_graphs(edits=0))
def test_solve_tree_of_henneberg_frameworks_matches_the_direct_solve(model):
    # minimally rigid frameworks whose split trees run several levels deep;
    # a sketch with collinear triples is flexible to first order, so its
    # solutions near the sketch are not isolated and it is left out.  The
    # rigid fit admits no reflection, so a match with the sketch, which
    # holds every distance, keeps its chirality
    assume(infinitesimally_rigid(model))
    _, solution, cert = solve_tree(model, top_down(model))
    assert cert.converged
    assert aligned_max_deviation(model, direct_solution(model), solution) <= 1e-9
    sketch = {e.id: e.params for e in model.entities}
    assert aligned_max_deviation(model, sketch, solution) <= 1e-9


def solve_tree_digest(m, tree):
    """sha256 of the float-hexed solution, placements and certificate of
    one solve_tree."""
    def hexes(values):
        return [float(v).hex() for v in values]
    plan, solution, cert = solve_tree(m, tree)
    record = {
        "solution": {eid: hexes(params) for eid, params in sorted(solution.items())},
        "placements": [{"node": p.node_id, "entities": sorted(p.entities),
                        "rotation": hexes(p.rotation.ravel()),
                        "translation": hexes(p.translation)} for p in plan.placements],
        "certificate": {"status": cert.status, "residual": float(cert.residual_norm).hex(),
                        "residuals": hexes(cert.residuals),
                        "assignment": hexes(cert.assignment)}}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def test_solve_tree_bits_at_sizes_the_golden_file_lacks():
    # recorded before recombination was split into a schedule and a sweep
    strip_7 = zoo.triangle_strip(7)
    assert solve_tree_digest(strip_7, bottom_up(strip_7)) == (
        "c99d59e3eeb4888a3e58bf118500e5d2453cad945fe34611d6e0757497778a82")
    strip_400 = zoo.triangle_strip(400)
    assert solve_tree_digest(strip_400, top_down(strip_400)) == (
        "6fc6f7d318b3245e4b38f12cd6671a912f2a34efe773ae78187a27059ad22d36")
    sketch = jittered(zoo.triangle_strip(48), 0.01, 1)
    assert solve_tree_digest(sketch, top_down(sketch)) == (
        "1b556fd48e94fc5455df1a1c533a3a9a00f3259e2eb62e55efb2c6ad6b3933f6")


@pytest.mark.parametrize(
    "source", ["strip-200", *sorted(p.name for p in CORPUS.glob("solve-strip*.json"))])
def test_top_down_decomposes_a_strip_once(monkeypatch, source):
    # every child of a strip inherits its separation pairs
    model = (zoo.triangle_strip(200) if source == "strip-200"
             else load_model(CORPUS / source))
    calls = []
    decompose_graph = structural.triconnectivity
    monkeypatch.setattr(structural, "triconnectivity",
                        lambda *args: calls.append(args) or decompose_graph(*args))
    top_down(model)
    assert len(calls) == 1


# --- solve/recombine -------------------------------------------------------------

@pytest.mark.parametrize("strategy", [bottom_up, top_down])
def test_solve_tree_matches_direct(strategy):
    for name, m in zoo.solve_corpus().items():
        tree = strategy(m)
        plan, solution, cert = solve_tree(m, tree)
        assert cert.status == "converged", name
        assert cert.residual_norm <= 1e-9
        dev = aligned_max_deviation(m, direct_solution(m), solution)
        assert dev <= 1e-7, (name, dev)


def triangle_with_a_line_on_its_base():
    """Triangle P0, P1, P2 (three distance-pp) and a line L through P1 and
    P2, on a sketch off the solution: the root merge places L with its
    child, as a non-point entity, and completes."""
    sketch = {"P0": (0.9264, -3.6958), "P1": (4.1594, -0.2595), "P2": (0.8085, 1.0560)}
    return Model(2, tuple(Entity(p, "point2", xy) for p, xy in sketch.items())
                 + (Entity("L", "line2", (-1.9449, -1.2784)),), (
        Constraint("d01", "distance-pp", ("P0", "P1"), 5.0),
        Constraint("d02", "distance-pp", ("P0", "P2"), 5.0),
        Constraint("d12", "distance-pp", ("P1", "P2"), 3.6),
        Constraint("on1", "point-on-line", ("P1", "L")),
        Constraint("on2", "point-on-line", ("P2", "L")),
    ))


def test_a_complete_merge_places_a_line(monkeypatch):
    m = triangle_with_a_line_on_its_base()
    tree = bottom_up(m)
    assert tree.assembled
    assembled = []
    assemble = decompose._assemble_merge

    def recording(model, merge, bodies, placements):
        body = assemble(model, merge, bodies, placements)
        assembled.append((merge, body))
        return body

    monkeypatch.setattr(decompose, "_assemble_merge", recording)
    plan, solution, cert = solve_tree(m, tree)
    # a complete merge's step carries L among its non-point entities, and
    # its body keeps the coordinates the motion gave L
    line = [(merge, body) for merge, body in assembled
            if any(e.id == "L" for step in merge.steps for e in step[4])]
    assert line and all(merge.complete and "L" in body.coords for merge, body in line)
    assert cert.converged and cert.residual_norm <= numeric.RESIDUAL_TOL
    assert aligned_max_deviation(m, direct_solution(m), solution) <= 1e-9


def jittered(m, rel, seed):
    """The model with every sketch parameter moved by rel times its largest distance."""
    rng = np.random.default_rng(seed)
    scale = rel * max(c.value for c in m.constraints if c.kind == "distance-pp")
    return Model(m.dimension, tuple(
        Entity(e.id, e.kind, tuple(p + scale * rng.normal() for p in e.params),
               e.representation) for e in m.entities), m.constraints)


@pytest.mark.parametrize("strategy", [bottom_up, top_down])
def test_solve_tree_from_jittered_sketch_keeps_chirality(strategy):
    # the leaves start off the solution: the solve must converge to the
    # sketch's branch, not its mirror (the rigid fit below admits no reflection)
    models = zoo.solve_corpus()
    if strategy is bottom_up:  # top-down takes points and distances only
        models["carrier"] = zoo.triangle_model()
    for name, m in models.items():
        for seed in (1, 2):
            sketch = jittered(m, 0.03, seed)
            plan, solution, cert = solve_tree(sketch, strategy(sketch))
            assert cert.status == "converged", (name, seed)
            assert cert.residual_norm <= 1e-9
            dev = aligned_max_deviation(m, direct_solution(m), solution)
            assert dev <= 1e-7, (name, seed, dev)


def test_one_cluster_tree_identity_placement():
    m = zoo.three_distances_model()
    plan, solution, cert = solve_tree(m, bottom_up(m))
    placements = [p for p in plan.placements]
    assert cert.converged
    # the root assembly places the first child with the identity transform
    first = placements[0]
    assert np.allclose(first.rotation, np.eye(2))
    assert np.allclose(first.translation, 0.0)


def test_virtual_bond_value_flows_from_rigid_sibling():
    m = zoo.braced_quad_model()
    tree = top_down(m)
    plan, solution, cert = solve_tree(m, tree)
    assert cert.converged
    gap = math.dist(solution["P2"][:2], solution["P4"][:2])
    direct = direct_solution(m)
    assert gap == pytest.approx(math.dist(direct["P2"][:2], direct["P4"][:2]), abs=1e-7)


def test_final_assignment_satisfies_all_constraints():
    m = zoo.braced_quad_model()
    tree = bottom_up(m)
    plan, solution, cert = solve_tree(m, tree)
    root = tree.roots[0]
    assert root.shared and all(set(s) <= solution.keys() for s in root.shared)
    s = compile_model(m)
    x = np.zeros(s.n_variables)
    for v in s.variables:
        x[v.index] = solution[v.entity_id][v.component]
    assert np.max(np.abs(eval_residuals(s, x))) <= 1e-9


def test_alignment_error_on_corrupted_local_solution():
    placed = {"P2": np.array([0.0, 0.0]), "P4": np.array([0.0, 4.0])}
    good_child = {"P2": np.array([1.0, 1.0]), "P4": np.array([1.0, 5.0]),
                  "P3": np.array([3.0, 3.0])}
    R, t = _fit(placed, good_child, ["P2", "P4"]).arrays()
    assert np.allclose(R @ good_child["P2"] + t, (0.0, 0.0), atol=1e-12)
    corrupted = dict(good_child, P4=np.array([1.0, 5.5]))  # stretch the shared pair
    with pytest.raises(AlignmentError):
        _fit(placed, corrupted, ["P2", "P4"])


def test_solve_tree_refuses_forest():
    m = zoo.two_triangles_bridge()
    tree = bottom_up(m)
    with pytest.raises(DecompositionError):
        solve_tree(m, tree)


def test_solve_tree_refuses_free_entities():
    m = zoo.three_distances_model()
    m = Model(m.dimension, m.entities + (Entity("Q", "point2", (2.0, 8.0)),), m.constraints)
    tree = bottom_up(m)
    assert tree.assembled and tree.free_entities == ("Q",)
    with pytest.raises(DecompositionError, match=r"leaves entities \['Q'\] free"):
        solve_tree(m, tree)


def test_solve_tree_refuses_a_leaf_that_cannot_be_rigid():
    # top-down splits at (P1, P2) into the triangle and a three-point leaf
    # {P1, P2, Q} that holds only the virtual bond P1-P2: 1 row for 6 columns
    m = zoo.three_distances_model()
    m = Model(m.dimension, m.entities + (Entity("Q", "point2", (2.0, 8.0)),), m.constraints)
    tree = top_down(m)
    leaves = [c for c in tree.roots[0].children if not c.children]
    assert {"P1", "P2", "Q"} in [set(c.entities) for c in leaves]
    with pytest.raises(DecompositionError,
                       match=r"cluster \['P1', 'P2', 'Q'\] cannot be rigid: 1 rows for 6 columns"):
        solve_tree(m, tree)


def test_top_down_labels_an_under_counted_leaf():
    # {P1, P2, Q} holds only the virtual bond P1-P2: 1 row where a rigid
    # three-point cluster needs 2 * 3 - 3
    m = zoo.three_distances_model()
    m = Model(m.dimension, m.entities + (Entity("Q", "point2", (2.0, 8.0)),), m.constraints)
    kinds = {frozenset(c.entities): c.kind for c in top_down(m).roots[0].children}
    assert kinds == {frozenset({"P1", "P2", "P3"}): "triangle",
                     frozenset({"P1", "P2", "Q"}): "under"}


def reversed_strip(n):
    """``zoo.triangle_strip(n)`` with its entities, so its columns, in reverse."""
    m = zoo.triangle_strip(n)
    return Model(m.dimension, tuple(reversed(m.entities)), m.constraints)


@pytest.mark.parametrize("n", [6, 24])
@pytest.mark.parametrize("strategy", [bottom_up, top_down])
def test_exact_leaves_start_in_the_frame_their_anchors_pin(n, strategy, monkeypatch):
    # the anchors would pin a leaf's first two points in column order, here
    # the reverse of id order; a constructed leaf puts the same two points at
    # the origin and on the +x axis, so an exact leaf is the sketch
    # re-expressed in that frame, and no leaf takes a Newton step
    m = reversed_strip(n)
    system = compile_model(m)
    built, solves, in_leaf = [], [], [False]
    real_leaf, real_solve = decompose._solve_leaf, decompose.solve

    def leaf(*args):
        in_leaf[0] = True
        try:
            coords = real_leaf(*args)
        finally:
            in_leaf[0] = False
        built.append((args[3].node, coords))
        return coords

    def counting_solve(*args, **kwargs):
        if in_leaf[0]:
            solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(decompose, "_solve_leaf", leaf)
    monkeypatch.setattr(decompose, "solve", counting_solve)
    tree = strategy(m)
    assert solve_tree(m, tree)[2].converged
    assert not solves
    leaves = [node for node in all_nodes(tree.roots[0]) if not node.children]
    assert [node.node_id for node, _ in built] == [node.node_id for node in leaves]
    for node, coords in built:
        p0, p1 = (np.asarray(m.entity(p).params) for p in compiler.points_of(
            system, m, node.entities)[:2])
        R = geometry.rotation_2d(-math.atan2(p1[1] - p0[1], p1[0] - p0[0]))
        for eid in node.entities:
            framed = R @ (np.asarray(m.entity(eid).params) - p0)
            assert np.allclose(coords[eid], framed, rtol=0, atol=1e-12), (node.node_id, eid)


@pytest.mark.parametrize("n", [6, 24])
@pytest.mark.parametrize("strategy", [bottom_up, top_down])
def test_reversed_strip_from_jittered_sketch_matches_direct(n, strategy):
    m = reversed_strip(n)
    direct = direct_solution(m)
    for seed in (1, 2):
        sketch = jittered(m, 0.03, seed)
        _, solution, cert = solve_tree(sketch, strategy(sketch))
        assert cert.converged, seed
        # the rigid fit admits no reflection: the sketch's chirality is kept
        dev = aligned_max_deviation(m, direct, solution)
        assert dev <= 1e-9, (seed, dev)


def test_solve_tree_leaf_with_fix_keeps_the_fixed_point():
    # a leaf holding a fix gets no anchors: they would pin its first point at
    # the origin while the fix pins it at its sketch coordinates
    m = zoo.triangle_strip(3)
    m = Model(m.dimension, tuple(
        Entity(e.id, e.kind, (0.3, 0.3) if e.id == "P1" else e.params, e.representation)
        for e in m.entities), m.constraints + (Constraint("f1", "fix", ("P1",)),))
    tree = bottom_up(m)
    assert len(tree.roots) == 1
    plan, solution, cert = solve_tree(m, tree)
    assert cert.converged
    assert solution["P1"] == pytest.approx((0.3, 0.3), abs=1e-9)


def test_solve_tree_with_carrier_lines():
    m = zoo.triangle_model()
    tree = bottom_up(m)
    plan, solution, cert = solve_tree(m, tree)
    assert cert.converged
    dev = aligned_max_deviation(m, direct_solution(m), solution)
    assert dev <= 1e-7


# --- one compiled system per solve_tree ------------------------------------------
#
# Reference: the per-node solve before the slicing, which built a sub-model
# from explicit entity and constraint ids (re-framed for anchored leaves),
# compiled it and solved it.  Kept here to pin the slices against it.

def reference_submodel(model, entities, constraint_ids, params, extra=()):
    return Model(
        model.dimension,
        tuple(Entity(e.id, e.kind, params[e.id], e.representation)
              for e in model.entities if e.id in entities),
        tuple(c for c in model.constraints if c.id in constraint_ids) + tuple(extra))


def reference_solve_subsystem(model, entities, constraint_ids, start_solution):
    sub = reference_submodel(model, entities, constraint_ids, start_solution)
    system = compile_model(sub)
    result = solve(system, assignment_from_params(sub, system))
    assert result.converged
    return params_from_assignment(sub, system, result.assignment)


def reference_solve_leaf(model, node, bond_values):
    extra = [Constraint(f"vbond:{a}-{b}", "distance-pp", (a, b), bond_values[(a, b)])
             for a, b in node.virtual_bonds]
    sketch = {eid: tuple(float(v) for v in model.entity(eid).params) for eid in node.entities}
    sub = reference_submodel(model, node.entities, node.constraints, sketch, extra)
    system = compile_model(sub)
    points = sorted(e for e in node.entities if sub.entity(e).kind == "point2")
    if len(points) >= 2:
        anchored = add_anchors(system, sub)
        p0 = np.asarray(sub.entity(points[0]).params[:2])
        p1 = np.asarray(sub.entity(points[1]).params[:2])
        R = geometry.rotation_2d(-math.atan2(p1[1] - p0[1], p1[0] - p0[0]))
        t = -(R @ p0)
        framed = Model(sub.dimension, tuple(
            Entity(e.id, e.kind, tuple(geometry.apply_rigid(e, e.params, R, t)),
                   e.representation) for e in sub.entities), sub.constraints)
        solve_sys, start = anchored, assignment_from_params(framed, anchored)
    else:
        solve_sys, start = system, assignment_from_params(sub, system)
    result = solve(solve_sys, start)
    assert result.converged
    return params_from_assignment(sub, solve_sys, result.assignment)


@pytest.fixture(scope="module")
def slice_trees():
    # the trees do not depend on the sketch, so the jittered copy, whose
    # clusters start off their solutions and take Newton steps, reuses them
    out = []
    for name, m in (("braced-quad", zoo.braced_quad_model()),
                    ("strip-12", zoo.triangle_strip(12))):
        for strategy in (bottom_up, top_down):
            tree = strategy(m)
            out += [(name, m, tree), (f"{name} jittered", jittered(m, 0.03, 1), tree)]
    # carrier lines: leaves that are not triangles or bars take Newton steps
    m = zoo.triangle_model()
    tree = bottom_up(m)
    out += [("carrier", m, tree), ("carrier jittered", jittered(m, 0.03, 1), tree)]
    return out


def node_params(model, system, entities, x):
    """Per-entity parameters of ``entities`` in the assignment ``x``, in model order."""
    return {e.id: tuple(float(v) for v in x[system.columns_of((e.id,))])
            for e in model.entities if e.id in entities}


def hexed(solution):
    return {eid: [float(v).hex() for v in params] for eid, params in solution.items()}


def body_params(model, entities, body):
    """Per-entity parameters of ``entities`` in the frame of a cluster body, in model order."""
    params = body.params(model)
    return {e.id: params[e.id] for e in model.entities if e.id in entities}


def test_every_cluster_slice_matches_submodel_solve(slice_trees, monkeypatch):
    # every leaf that is not constructed, and every node whose open rows are
    # off after placement, solves its slice bit for bit like the submodel; a
    # constructed leaf takes no Newton step and matches the submodel solve to
    # its tolerance; every other node returns its aligned start bit for bit
    real_leaf, real_cluster = decompose._solve_leaf, decompose._solve_cluster
    real_assemble, real_solve = decompose._assemble_merge, decompose.solve
    for name, m, tree in slice_trees:
        solved, iterations, starts, results = [], [], {}, {}

        def counting_solve(*args, **kwargs):
            result = real_solve(*args, **kwargs)
            iterations.append(result.iterations)
            return result

        def leaf(model, system, sketch, recipe, bonds, max_iter, tol):
            before = len(iterations)
            got = real_leaf(model, system, sketch, recipe, bonds, max_iter, tol)
            constructed = len(iterations) == before
            node = recipe.node
            expected = reference_solve_leaf(m, node, dict(zip(node.virtual_bonds, bonds)))
            got_params = body_params(m, node.entities, decompose._Body(got))
            assert list(got_params) == list(expected), (name, node.node_id)
            if constructed:
                deviation = max(abs(a - b) for eid in got_params
                                for a, b in zip(got_params[eid], expected[eid]))
                assert deviation <= 1e-9, (name, node.node_id, deviation)
            else:
                assert got_params == expected, (name, node.node_id)
                assert "carrier" in name, (name, node.node_id)
                if "jittered" in name:
                    assert iterations[-1] > 0, (name, node.node_id)
            solved.append(node.node_id)
            return got

        def cluster(system, solve_sys, node, start, max_iter, tol):
            got = real_cluster(system, solve_sys, node, start, max_iter, tol)
            if node.children:
                expected = reference_solve_subsystem(
                    m, node.entities, node.constraints,
                    node_params(m, system, node.entities, start))
                got_params = node_params(m, system, node.entities, got)
                assert list(got_params.items()) == list(expected.items()), (name, node.node_id)
                solved.append(node.node_id)
            return got

        def assemble(model, merge, bodies, placements):
            node = merge.node
            results.update((c.node_id, body_params(m, c.entities, body))
                           for c, body in zip(node.children, bodies))
            start = real_assemble(model, merge, bodies, placements)
            starts[node.node_id] = (None if start is None
                                    else body_params(m, node.entities, start))
            return start

        monkeypatch.setattr(decompose, "solve", counting_solve)
        monkeypatch.setattr(decompose, "_solve_leaf", leaf)
        monkeypatch.setattr(decompose, "_solve_cluster", cluster)
        monkeypatch.setattr(decompose, "_assemble_merge", assemble)
        _, solution, cert = solve_tree(m, tree)
        assert cert.converged, name
        root = tree.roots[0]
        results[root.node_id] = solution
        skipped = [n.node_id for n in all_nodes(root) if n.node_id not in solved]
        for nid in skipped:
            assert starts[nid] is not None, (name, nid)
            assert hexed(results[nid]) == hexed(starts[nid]), (name, nid)
        assert len(set(solved)) == len(solved), name
        assert sorted(solved + skipped) == sorted(n.node_id for n in all_nodes(root)), name
        if name in ("braced-quad", "strip-12"):
            assert skipped, name


def leaf_model(lengths, extra=()):
    """Points A, B, C sketched near a thin triangle, with a distance-pp on
    each named pair (``lengths``: pair -> value) and the ``extra``
    constraints."""
    sketch = {"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (0.5, 0.02)}
    return Model(2, tuple(Entity(p, "point2", xy) for p, xy in sketch.items()), tuple(
        Constraint(f"d{a}{b}".lower(), "distance-pp", (a, b), v)
        for (a, b), v in lengths.items()) + tuple(extra))


def solving_leaf(monkeypatch, m, node, bonds, tol=numeric.RESIDUAL_TOL):
    """The recipe of a leaf ``node`` of ``m``, the nodes whose slice
    ``_solve_leaf`` then solved, and what it returned (or raised)."""
    s = compile_model(m)
    leaf = decompose._leaf_recipe(m, s, node, frozenset(node.entities), None)
    solved = []
    real = decompose._solve_cluster

    def cluster(system, solve_sys, node, *args):
        solved.append(node)
        return real(system, solve_sys, node, *args)

    monkeypatch.setattr(decompose, "_solve_cluster", cluster)
    try:
        out = decompose._solve_leaf(m, s, assignment_from_params(m, s), leaf, bonds, 100, tol)
    except DecompositionError as err:
        out = err
    return leaf, solved, out


def test_a_leaf_with_a_zero_base_is_solved(monkeypatch):
    # a bar whose virtual bond measured 0 has no base to construct on
    m = leaf_model({})
    node = ClusterNode(1, "split", frozenset("AB"), frozenset(), virtual_bonds=(("A", "B"),))
    leaf, solved, coords = solving_leaf(monkeypatch, m, node, (0.0,))
    assert leaf.points == ("A", "B") and leaf.lengths == (0.0,)
    assert decompose._construct_leaf(leaf, (0.0,), numeric.RESIDUAL_TOL) is None
    assert solved == [node]
    assert math.dist(coords["A"], coords["B"]) ** 2 <= numeric.RESIDUAL_TOL


def test_a_leaf_with_a_row_above_tol_falls_back_to_its_solve(monkeypatch):
    # |AB| = |AC| + |BC| + 8e-10: the circles meet within their slack, but
    # the constructed point leaves rows AC and BC 4e-10 off.  The slice has
    # no exact solution either, so its solve is refused, not the
    # construction returned
    m = leaf_model({("A", "B"): 1.0, ("A", "C"): 0.5, ("B", "C"): 0.5 - 8e-10})
    node = ClusterNode(1, "seed", frozenset("ABC"), frozenset({"dab", "dac", "dbc"}))
    leaf, solved, err = solving_leaf(monkeypatch, m, node, (), tol=3e-10)
    assert leaf.points == ("A", "B", "C")
    assert decompose._construct_leaf(leaf, (), 3e-10) is None
    assert decompose._construct_leaf(leaf, (), 1e-9) is not None
    assert solved == [node]
    assert isinstance(err, DecompositionError)
    assert str(err) == "cluster ['A', 'B', 'C'] failed to solve: inconsistent"


NEAR_ONE = 1.0 + 2.0**-40  # a length that agrees with 1.0 to rounding


@pytest.mark.parametrize("lengths, extra, constraints, bonds", [
    # a constraint that is not a distance-pp
    ({}, (Constraint("c", "coincident", ("A", "B")),), ("c",), ()),
    # two rows on one pair: two constraints, then a constraint and a bond
    ({("A", "B"): 1.0, ("B", "C"): 0.5},
     (Constraint("dab2", "distance-pp", ("A", "B"), NEAR_ONE),), ("dab", "dab2", "dbc"), ()),
    ({("A", "B"): 1.0, ("B", "C"): 0.5}, (), ("dab", "dbc"), (("A", "B"),)),
], ids=["coincident", "pair-twice", "pair-and-bond"])
def test_a_leaf_the_recipe_refuses_solves_its_slice(lengths, extra, constraints, bonds,
                                                    monkeypatch):
    m = leaf_model(lengths, extra)
    entities = frozenset(e for cid in constraints for e in m.constraint(cid).entities)
    node = ClusterNode(1, "seed", entities, frozenset(constraints), virtual_bonds=bonds)
    values = (NEAR_ONE,) * len(bonds)
    leaf, solved, coords = solving_leaf(monkeypatch, m, node, values)
    assert leaf.points == ()
    assert solved == [node]
    assert coords == reference_solve_leaf(m, node, dict(zip(bonds, values)))


def strip_solve_counts(n, monkeypatch, batches=None):
    """Nodes that reach _solve_cluster, residual rows evaluated (whole
    systems, such as the certificate and Newton's, and open-row blocks) and
    leaves solved by one solve_tree of top-down triangle_strip(n).
    ``batches``, when given, receives the row blocks of each evaluation of
    open rows: one for the batched check, one per merge in a second sweep."""
    clustered, rows, leaves = [], [0], []
    real_cluster, real_eval = decompose._solve_cluster, compiler.eval_residuals
    real_leaf, real_blocks = decompose._solve_leaf, compiler.eval_blocks

    def cluster(system, solve_sys, node, start, max_iter, tol):
        clustered.append(node)
        return real_cluster(system, solve_sys, node, start, max_iter, tol)

    def leaf(*args):
        leaves.append(args[3].node)
        return real_leaf(*args)

    def evaluate(*args, **kwargs):
        out = real_eval(*args, **kwargs)
        rows[0] += len(out)
        return out

    def evaluate_blocks(system, blocks):
        if batches is not None:
            batches.append([list(block_rows) for block_rows, *_ in blocks])
        out = real_blocks(system, blocks)
        rows[0] += len(out)
        return out

    monkeypatch.setattr(decompose, "_solve_cluster", cluster)
    monkeypatch.setattr(decompose, "_solve_leaf", leaf)
    monkeypatch.setattr(decompose, "eval_residuals", evaluate)
    monkeypatch.setattr(decompose, "eval_blocks", evaluate_blocks)
    monkeypatch.setattr(numeric, "eval_residuals", evaluate)
    m = zoo.triangle_strip(n)
    tree = top_down(m)
    assert solve_tree(m, tree)[2].converged
    return tree, clustered, rows[0], leaves


def test_exact_strip_solves_each_leaf_once_and_no_split_node(monkeypatch):
    # every leaf is a triangle, built once; no leaf and no split node
    # reaches a Newton solve
    tree, clustered, _, solved = strip_solve_counts(48, monkeypatch)
    leaves = [n for n in all_nodes(tree.roots[0]) if not n.children]
    assert sorted(n.node_id for n in solved) == sorted(n.node_id for n in leaves)
    assert clustered == []
    assert any(n.kind == "split" for n in all_nodes(tree.roots[0]))


def open_rows_reference(m, system, node):
    """The rows of a merge that placing its solved children can leave off,
    from the tree and the model alone: its constraints that no child holds,
    those that name an entity two children share, every fix, and the
    normalizations of the shared entities; in system order."""
    held = Counter(e for child in node.children for e in child.entities)
    shared = {e for e, k in held.items() if k >= 2}
    opened = {c.id for c in m.constraints if c.id in node.constraints and (
        c.kind == "fix" or shared.intersection(c.entities)
        or not any(c.id in child.constraints for child in node.children))}
    return [r.index for r in system.residuals
            if (r.kind, r.source in opened, r.source in shared) in (
                ("constraint", True, False), ("normalization", False, True))]


def test_open_rows_reference_sees_fixes_unheld_constraints_and_normalizations():
    # a merge of two children sharing the 3D line L: the fix on P, the angle
    # on L (it names the shared line), the distance no child holds and L's
    # normalization are open, and the distance inside one child is not; the
    # merge's recipe opens the same rows
    m = model_from_json_dict({
        "dimension": 3,
        "entities": [{"id": "P", "kind": "point3", "params": [0, 0, 0]},
                     {"id": "Q", "kind": "point3", "params": [1, 0, 0]},
                     {"id": "R", "kind": "point3", "params": [0, 1, 0]},
                     {"id": "L", "kind": "line3", "params": [0, 0, 0, 1, 0, 0]},
                     {"id": "K", "kind": "line3", "params": [0, 1, 0, 0, 1, 0]}],
        "constraints": [{"id": "fixP", "kind": "fix", "entities": ["P"]},
                        {"id": "near", "kind": "distance-pp", "entities": ["P", "Q"],
                         "value": 1.0},
                        {"id": "angle", "kind": "angle-ll", "entities": ["L", "K"],
                         "value": 1.0},
                        {"id": "far", "kind": "distance-pp", "entities": ["Q", "R"],
                         "value": 1.0}]})
    system = compile_model(m)
    left = ClusterNode(1, "seed", frozenset("PQL"), frozenset({"fixP", "near"}))
    right = ClusterNode(2, "seed", frozenset("RLK"), frozenset({"angle"}))
    merge = ClusterNode(3, "merge", frozenset("PQRLK"),
                        frozenset({"fixP", "near", "angle", "far"}), (left, right))
    rows = open_rows_reference(m, system, merge)
    assert [system.residuals[r].name for r in rows] == [
        "fixP[0]", "fixP[1]", "fixP[2]", "angle", "far", "unit:L"]
    recipe, _ = decompose._merge_recipe(m, system, merge, (), ["fixP"], frozenset(), None)
    assert recipe.rows == rows


def test_exact_strip_checks_every_merge_in_one_batched_evaluation(monkeypatch):
    # one batched call evaluates each merge's open rows once, in the order
    # the sweep places the merges; the certificate adds the system's rows,
    # and no merge evaluates its rows on its own, so no second sweep runs
    batches = []
    tree, clustered, rows, solved = strip_solve_counts(48, monkeypatch, batches)
    m = zoo.triangle_strip(48)
    system = compile_model(m)
    post_order, stack = [], [(tree.roots[0], False)]
    while stack:
        node, done = stack.pop()
        if done:
            post_order.append(node)
        elif node.children:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children))
    opened = [open_rows_reference(m, system, node) for node in post_order]
    assert len(batches) == 1
    assert batches[0] == [r for r in opened if r]
    assert rows == sum(map(len, opened)) + system.n_residuals
    assert len(solved) == len({n.node_id for n in solved}) == 48  # each triangle once
    assert clustered == []


def test_strip_solve_rows_grow_linearly(monkeypatch):
    # a split node that re-solved its whole entity set would make the count
    # quadratic: about four times as many rows on the strip twice as long
    rows = {n: strip_solve_counts(n, monkeypatch)[2] for n in (24, 48)}
    assert rows[48] <= 2.2 * rows[24], rows


def moved_copy_solve(m, tree, moved, point, monkeypatch, offset=1e-7, builds=None):
    """solve_tree of ``tree`` when the leaf numbered ``moved`` places its
    copy of ``point`` ``offset`` away along x: the ids of the nodes that
    reach _solve_cluster, in order, and the sha256 of the hexed solution.
    ``builds``, when given, receives each leaf built, as (node id, the
    values of its virtual bonds)."""
    real_leaf, real_cluster = decompose._solve_leaf, decompose._solve_cluster
    clustered = []

    def leaf(model, system, sketch, recipe, bonds, max_iter, tol):
        if builds is not None:
            builds.append((recipe.node.node_id, tuple(bonds)))
        got = real_leaf(model, system, sketch, recipe, bonds, max_iter, tol)
        if recipe.node.node_id == moved:
            got = dict(got)
            got[point] = got[point] + np.array([offset, 0.0])
        return got

    def cluster(system, solve_sys, node, start, max_iter, tol):
        clustered.append(node.node_id)
        return real_cluster(system, solve_sys, node, start, max_iter, tol)

    with monkeypatch.context() as patched:
        patched.setattr(decompose, "_solve_leaf", leaf)
        patched.setattr(decompose, "_solve_cluster", cluster)
        _, solution, cert = solve_tree(m, tree)
    assert cert.converged
    digest = hashlib.sha256(json.dumps(hexed(solution), sort_keys=True).encode()).hexdigest()
    return clustered, digest


def test_shared_point_moved_by_its_child_forces_the_parent_to_re_solve(monkeypatch):
    # the second child places its copy of a shared point 1e-7 away: within the
    # alignment tolerance, so placement passes, but the child's rows that name
    # the point are off by more than tol, and only the shared-entity rule sees it
    m = zoo.braced_quad_model()
    tree = top_down(m)
    root = tree.roots[0]
    assert root.kind == "split" and len(root.children) == 2
    shared = sorted(root.children[0].entities & root.children[1].entities)[-1]
    clustered, digest = moved_copy_solve(m, tree, root.children[1].node_id, shared, monkeypatch)
    assert clustered == [root.node_id]
    # the nodes that re-solve and the solution's bits are those the check of
    # each merge in turn gave, recorded before the open rows were batched:
    # here, at a split node deep inside a strip, and at a bottom-up merge
    assert digest == "810b183cea0c27ae37e87a5c58086229bdae050d94c4dbfb4e3ebd885119cac6"
    strip = zoo.triangle_strip(12)
    tree = top_down(strip)
    deep = {n.node_id: n for n in all_nodes(tree.roots[0])}[8]
    assert deep.kind == "split" and deep.pair == ("P6", "P7") and deep is not tree.roots[0]
    assert deep.children[1].node_id == 7
    assert moved_copy_solve(strip, tree, 7, "P6", monkeypatch) == (
        [8], "344d36e6551c44fc0f06e908158dfc4146003191522cf84e3f9fc45357a47500")
    # P5 moved by 1.0: only node 8's rows see it, and the bond of its
    # parent's other child is measured on it, so every node above 8 is off
    # until 8 re-solves
    assert moved_copy_solve(strip, tree, 7, "P5", monkeypatch, offset=1.0) == (
        [8], "9a528abf65ea208055e34ba8bb1ba0d381ec9a45a1410b3fa993a0d6a5d305f8")
    tree = bottom_up(m)
    merge = tree.roots[0].children[0]
    assert merge.kind == "merge" and [c.node_id for c in merge.children] == [1, 2, 4]
    assert moved_copy_solve(m, tree, 4, "P4", monkeypatch) == (
        [6], "f65a3699b9c35355ba6ce96784655ceffd15ebaa7c1ea9ac92553417e41702a2")


def test_a_sweep_that_fails_after_an_off_merge_runs_again_per_merge(monkeypatch):
    # the root of bottom-up braced-quad refuses a first child that was placed
    # rather than re-solved.  When that child's rows are off (its seed 4
    # moved P4 by 1e-7), a check at each merge re-solves it first, so the
    # root succeeds as it did with that check; when every row holds, the
    # failure is the root's own and is raised
    m = zoo.braced_quad_model()
    tree = bottom_up(m)
    root = tree.roots[0]
    real_assemble = decompose._assemble_merge

    def assemble(model, merge, bodies, placements):
        if merge.node is root and bodies[0].parts:
            raise AlignmentError("placed first child")
        return real_assemble(model, merge, bodies, placements)

    monkeypatch.setattr(decompose, "_assemble_merge", assemble)
    assert moved_copy_solve(m, tree, 4, "P4", monkeypatch) == (
        [6], "f65a3699b9c35355ba6ce96784655ceffd15ebaa7c1ea9ac92553417e41702a2")
    with pytest.raises(AlignmentError, match="placed first child"):
        solve_tree(m, tree)


def test_a_second_sweep_rebuilds_only_leaves_whose_bonds_changed(monkeypatch):
    # leaf 7 of top-down strip(12) moves its copy of P6 by 1e-7, so node 8
    # re-solves in the second sweep; a leaf is built again only when the
    # values of its virtual bonds differ from the first sweep's, and the
    # solution keeps its bits
    strip = zoo.triangle_strip(12)
    tree = top_down(strip)
    leaves = {n.node_id for n in all_nodes(tree.roots[0]) if not n.children}
    assert len(leaves) == 12
    builds = []
    assert moved_copy_solve(strip, tree, 7, "P6", monkeypatch, builds=builds) == (
        [8], "344d36e6551c44fc0f06e908158dfc4146003191522cf84e3f9fc45357a47500")
    first: dict[int, tuple] = {}
    changed = set()
    for nid, bonds in builds:
        if nid in first:
            assert nid not in changed and bonds != first[nid], nid
            changed.add(nid)
        first[nid] = bonds
    assert set(first) == leaves
    assert len(builds) <= 12 + len(changed) < 24


def test_solve_tree_compiles_the_model_once(slice_trees, monkeypatch):
    calls = []
    real = decompose.compile_model

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(decompose, "compile_model", counting)
    for name, m, tree in slice_trees:
        del calls[:]
        assert solve_tree(m, tree)[2].converged, name
        assert len(calls) == 1, (name, tree.strategy, len(calls))


@pytest.mark.parametrize("strategy", [bottom_up, top_down])
def test_solve_tree_refuses_entity_without_sketch_parameters(strategy):
    m = zoo.braced_quad_model()
    m = Model(m.dimension, tuple(
        Entity(e.id, e.kind, None if e.id == "P3" else e.params, e.representation)
        for e in m.entities), m.constraints)
    with pytest.raises(DecompositionError, match="'P3' has no sketch parameters"):
        solve_tree(m, strategy(m))


def test_solve_tree_tolerance_and_iteration_cap_reach_every_cluster():
    m = jittered(zoo.braced_quad_model(), 0.03, 1)
    tree = bottom_up(m)
    assert solve_tree(m, tree)[2].converged
    # its leaves are bars, constructed, and its merges place them exactly:
    # no cluster takes a Newton step, so no iteration cap stops it
    assert solve_tree(m, tree, max_iter=0)[2].converged
    # carrier lines: leaves that are not triangles or bars take Newton steps
    carrier = jittered(zoo.triangle_model(), 0.03, 1)
    assert solve_tree(carrier, bottom_up(carrier))[2].converged
    with pytest.raises(DecompositionError, match="failed to solve: max-iterations"):
        solve_tree(carrier, bottom_up(carrier), max_iter=1)
    with pytest.raises(DecompositionError, match="failed to solve"):
        solve_tree(m, tree, tol=1e-20)
    # the certificate applies the same tolerance as the cluster solves
    loose = solve_tree(carrier, bottom_up(carrier), tol=1e-2)[2]
    assert loose.converged and loose.residual_norm > 1e-9


# --- constructive recombination ----------------------------------------------------

@pytest.mark.parametrize("strategy, n", [(top_down, 48), (bottom_up, 6)])
def test_exact_strip_leaves_derive_no_system_and_take_no_newton_step(strategy, n, monkeypatch):
    # triangles and bars are built by ruler and compass, and their placements
    # leave every open row within tol, so no cluster reaches Newton
    m = zoo.triangle_strip(n)
    tree = strategy(m)
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module, name in ((decompose, "add_constraints"), (decompose, "add_anchors"),
                         (numeric, "newton_solve")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    _, _, cert = solve_tree(m, tree)
    assert cert.converged
    assert calls == []


def triangle_orientations(params, n):
    """The sign of each triangle (P_i, P_i+1, P_i+2) of triangle_strip(n)."""
    signs = []
    for i in range(1, n + 1):
        (ax, ay), (bx, by), (cx, cy) = (params[f"P{i + k}"][:2] for k in range(3))
        signs.append((bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0)
    return signs


@pytest.mark.parametrize("rel", [0.3, 0.5])
def test_decomposed_solve_from_poor_starts_keeps_every_triangle(rel):
    # strip(48) from sketches moved by rel times its largest distance, 20
    # seeds: the top-down decomposed solve converges at least as often as the
    # direct anchored solve, and keeps every triangle on its sketch's side
    m = zoo.triangle_strip(48)
    tree = top_down(m)
    direct_ok = decomposed_ok = 0
    for seed in range(1, 21):
        sketch = jittered(m, rel, seed)
        anchored = add_anchors(compile_model(sketch), sketch)
        direct_ok += solve(anchored, assignment_from_params(sketch, anchored)).converged
        try:
            _, solution, cert = solve_tree(sketch, tree)
        except (DecompositionError, AlignmentError):
            continue
        if cert.converged:
            decomposed_ok += 1
            sides = {e.id: e.params for e in sketch.entities}
            assert triangle_orientations(solution, 48) == triangle_orientations(sides, 48), seed
    assert decomposed_ok >= direct_ok, (decomposed_ok, direct_ok)
    assert decomposed_ok == 20


def coordinate_writes(n, monkeypatch):
    """Entity parameters moved into a frame by one solve_tree of top-down
    strip(n): every point moved, and every other entity."""
    m = zoo.triangle_strip(n)
    tree = top_down(m)
    count = [0]
    real_point, real_apply = decompose._Motion.apply_point, decompose._Motion.apply

    def point(self, x, y):
        count[0] += 1
        return real_point(self, x, y)

    def apply(self, entity, params):
        # a point is moved, and counted, by apply_point
        count[0] += entity.kind != "point2"
        return real_apply(self, entity, params)

    monkeypatch.setattr(decompose._Motion, "apply_point", point)
    monkeypatch.setattr(decompose._Motion, "apply", apply)
    assert solve_tree(m, tree)[2].converged
    return count[0]


def test_recombination_writes_grow_linearly(monkeypatch):
    # moving every entity of a child at every level would grow as n^2: 16
    # times as many writes on a strip four times as long
    writes = {n: coordinate_writes(n, monkeypatch) for n in (100, 400)}
    assert writes[400] <= 4.5 * writes[100], writes


def batched_assignment_size(n, monkeypatch):
    """Length of the assignment the batched open-row check of one solve_tree
    of top-down strip(n) evaluates on."""
    sizes = []
    real_blocks, real_values = decompose.eval_blocks, expr.Plan.values

    def values(plan, x):
        sizes.append(len(x))
        return real_values(plan, x)

    def blocks(*args):
        with monkeypatch.context() as inner:
            inner.setattr(expr.Plan, "values", values)
            return real_blocks(*args)

    with monkeypatch.context() as patched:
        patched.setattr(decompose, "eval_blocks", blocks)
        m = zoo.triangle_strip(n)
        assert solve_tree(m, top_down(m))[2].converged
    assert len(sizes) == 1
    return sizes[0]


def test_batched_check_memory_grows_linearly(monkeypatch):
    # a stack of one assignment per merge would grow as n^2: 16 times as
    # long on a strip four times as long
    sizes = {n: batched_assignment_size(n, monkeypatch) for n in (100, 400)}
    assert 0 < sizes[400] <= 4.5 * sizes[100], sizes


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def tree_depth(node):
    depth, stack = 0, [(node, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in node.children)
    return depth


def test_tree_walks_take_no_frame_per_level(tmp_path, capsys):
    # the top-down tree of strip(200) is more than 100 levels deep; with the
    # recursion limit 100 frames above the current depth, a walk that takes a
    # frame per level fails
    m = zoo.triangle_strip(200)
    path = tmp_path / "strip200.json"
    path.write_text(json.dumps({"dimension": 2, "entities": [
        {"id": e.id, "kind": e.kind, "params": list(e.params)} for e in m.entities],
        "constraints": [{"id": c.id, "kind": c.kind, "entities": list(c.entities),
                         "value": c.value} for c in m.constraints]}), encoding="utf-8")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        tree = top_down(m)
        report = tree.to_json_dict()
        _, _, cert = solve_tree(m, tree)
        code = cli.main(["--format", "json", "decompose", str(path), "--strategy", "top-down"])
    finally:
        sys.setrecursionlimit(limit)
    assert tree_depth(tree.roots[0]) > 100
    assert cert.converged
    assert code == 0
    assert json.loads(capsys.readouterr().out)["tree"] == report
