import dataclasses
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcskernel import (
    EquationGraph,
    add_anchors,
    build_graphs,
    characterize,
    compile_model,
    counting_state,
    dm_decompose,
    linear_system,
    max_matching,
    scc_plan,
)
from gcskernel import structural, zoo
from gcskernel.structural import CountingVerdict, pieces_apart, triconnectivity
from gcskernel.model import CONSTRAINT_KINDS, Constraint, Entity, Model, load_model

from conftest import row_ops, row_variables


def graph_of(system) -> EquationGraph:
    return EquationGraph(
        system.n_residuals, system.n_variables,
        tuple(tuple(sorted(row_variables(row_ops(system, r.index)))) for r in system.residuals))


def random_graph(rng, max_side=8) -> EquationGraph:
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    adj = tuple(
        tuple(sorted(int(v) for v in np.flatnonzero(rng.random(n) < 0.4)))
        for _ in range(m))
    return EquationGraph(m, n, adj)


def brute_force_matching_size(g: EquationGraph) -> int:
    best = [0]

    def grow(e, used, count):
        if e == g.n_equations:
            best[0] = max(best[0], count)
            return
        if count + (g.n_equations - e) <= best[0]:
            return
        grow(e + 1, used, count)
        for v in g.adjacency[e]:
            if v not in used:
                grow(e + 1, used | {v}, count + 1)

    grow(0, frozenset(), 0)
    return best[0]


def shuffled_matching(g: EquationGraph, rng) -> dict[int, int]:
    """Another maximum matching, found with a randomized augmenting order."""
    order = list(range(g.n_equations))
    rng.shuffle(order)
    match_var: dict[int, int] = {}
    match_eq: dict[int, int] = {}

    def augment(e, seen):
        neighbors = list(g.adjacency[e])
        rng.shuffle(neighbors)
        for v in neighbors:
            if v in seen:
                continue
            seen.add(v)
            owner = match_var.get(v)
            if owner is None or augment(owner, seen):
                match_var[v] = e
                match_eq[e] = v
                return True
        return False

    for e in order:
        augment(e, set())
    return match_eq


# --- graphs ----------------------------------------------------------------

def test_triangle_equation_graph_shape():
    m = zoo.triangle_model()
    s = compile_model(m)
    eg, cg = build_graphs(s, m)
    assert eg.n_equations == 7
    assert eg.n_variables == 10
    assert cg.entity_ids == ("P1", "P2", "P3", "L1", "L2")
    assert cg.entity_dof["L1"] == 2


def test_empty_graphs():
    m = Model(2, (), ())
    s = compile_model(m)
    eg, cg = build_graphs(s, m)
    assert eg.n_equations == 0 and eg.n_variables == 0
    assert cg.entity_ids == ()


def test_three_distance_anchored_graph_edges():
    m = zoo.three_distances_model()
    s = add_anchors(compile_model(m), m)
    eg, _ = build_graphs(s, m)
    assert eg.n_equations == 6 and eg.n_variables == 6
    # occurrence-based edges: 4 + 4 + 4 per distance row, 1 + 1 + 2 anchors
    assert sum(len(vs) for vs in eg.adjacency) == 16


# --- matching ----------------------------------------------------------------

def test_matching_three_distance_perfect():
    m = zoo.three_distances_model()
    s = add_anchors(compile_model(m), m)
    eg, _ = build_graphs(s, m)
    match = max_matching(eg)
    assert len(match) == 6


def test_matching_empty_graph():
    assert max_matching(EquationGraph(0, 0, ())) == {}


def test_matching_with_duplicated_equation():
    m = zoo.three_distances_model()
    s = add_anchors(compile_model(m), m)
    eg, _ = build_graphs(s, m)
    adj = eg.adjacency + (eg.adjacency[0],)  # duplicate one distance row
    bigger = EquationGraph(7, 6, adj)
    match = max_matching(bigger)
    assert len(match) == 6
    unmatched = set(range(7)) - set(match)
    assert len(unmatched) == 1


@pytest.mark.parametrize("last", [(0,), (0, 1)])
def test_matching_augments_along_a_path_as_long_as_the_graph(last):
    # equations i -> (i, i+1) and a last one on the first variables: the
    # perfect matching shifts every equation, and with ``(0, 1)`` the greedy
    # pass leaves the last equation to an augmenting path through all 5000
    n = 5000
    g = EquationGraph(n, n, tuple((i, i + 1) for i in range(n - 1)) + (last,))
    match = max_matching(g)
    assert len(match) == n and len(set(match.values())) == n


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_matching_is_maximum(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng)
    assert len(max_matching(g)) == brute_force_matching_size(g)


# --- Dulmage-Mendelsohn -------------------------------------------------------

def test_dm_well_constrained_triangle():
    m = zoo.triangle_model()
    s = add_anchors(compile_model(m), m)
    eg, _ = build_graphs(s, m)
    dm = dm_decompose(eg)
    assert not dm.over_equations and not dm.under_equations
    assert len(dm.well_equations) == 10 and len(dm.well_variables) == 10


def test_dm_mixed_example():
    s = linear_system([[1, 0, 0], [1, 0, 0], [0, 1, 1]], [0, 1, 1])
    dm = dm_decompose(graph_of(s))
    assert dm.over_equations == {0, 1} and dm.over_variables == {0}
    assert dm.under_equations == {2} and dm.under_variables == {1, 2}
    assert not dm.well_equations


def test_dm_saturation_criterion():
    # only unsaturated equations -> everything lands in the over part
    g = EquationGraph(3, 1, ((0,), (0,), (0,)))
    dm = dm_decompose(g)
    assert dm.over_equations == {0, 1, 2} and dm.over_variables == {0}
    # only unsaturated variables -> everything lands in the under part
    g = EquationGraph(1, 3, ((0, 1, 2),))
    dm = dm_decompose(g)
    assert dm.under_variables == {0, 1, 2} and dm.under_equations == {0}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_dm_partition_laws(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng)
    dm = dm_decompose(g)
    eqs = [dm.over_equations, dm.well_equations, dm.under_equations]
    vars_ = [dm.over_variables, dm.well_variables, dm.under_variables]
    assert sum(len(s) for s in eqs) == g.n_equations
    assert sum(len(s) for s in vars_) == g.n_variables
    assert not (dm.over_equations & dm.under_equations)
    if dm.over_equations:
        assert len(dm.over_equations) > len(dm.over_variables)
    if dm.under_variables:
        assert len(dm.under_variables) > len(dm.under_equations)
    well_match = {e: v for e, v in dm.matching.items() if e in dm.well_equations}
    assert len(well_match) == len(dm.well_equations)
    assert set(well_match.values()) == set(dm.well_variables)
    # canonical: a different maximum matching gives the identical partition
    other = shuffled_matching(g, np.random.default_rng(seed + 1))
    assert len(other) == len(dm.matching)
    dm2 = dm_decompose(g, other)
    assert dm2.over_equations == dm.over_equations
    assert dm2.under_variables == dm.under_variables
    assert dm2.well_equations == dm.well_equations


# --- solve plan ----------------------------------------------------------------

def test_scc_plan_anchored_three_distances():
    m = zoo.three_distances_model()
    s = add_anchors(compile_model(m), m)
    eg, _ = build_graphs(s, m)
    plan = scc_plan(eg, max_matching(eg))
    # anchors come first as univariate blocks covering x1, y1, y2
    first_vars = set()
    for eqs, vs in plan.blocks[:3]:
        assert len(eqs) == 1 and len(vs) == 1
        first_vars |= set(vs)
    assert first_vars == {0, 1, 3}  # P1.x, P1.y, P2.y
    # the last block couples the two remaining coordinates of P3
    assert plan.blocks[-1][0] == (1, 2)
    assert plan.blocks[-1][1] == (4, 5)


def test_scc_plan_single_equation():
    s = linear_system([[1.0]], [5.0])
    g = graph_of(s)
    plan = scc_plan(g, max_matching(g))
    assert plan.blocks == (((0,), (0,)),)


def test_scc_plan_coupled_block():
    s = linear_system([[1, 1], [1, -1]], [1, 0])
    g = graph_of(s)
    plan = scc_plan(g, max_matching(g))
    assert len(plan.blocks) == 1
    assert plan.blocks[0] == ((0, 1), (0, 1))


def test_scc_plan_requires_perfect_matching():
    g = EquationGraph(2, 1, ((0,), (0,)))
    with pytest.raises(ValueError):
        scc_plan(g, max_matching(g))


def test_plan_respects_dependencies():
    # triangular by construction: x0 = 1; x1 = x0 + 1; x2 = x1 + x0
    A = [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
    s = linear_system(A, [1, 2, 4])
    g = graph_of(s)
    plan = scc_plan(g, max_matching(g))
    solved: set[int] = set()
    x = np.zeros(3)
    for eqs, vs in plan.blocks:
        for e in eqs:
            reads = set(g.adjacency[e]) - set(vs)
            assert reads <= solved, "block reads a variable solved later"
        sub = np.array([[A[e][v] for v in vs] for e in eqs], dtype=float)
        rhs = np.array([[1, 2, 4][e] - sum(A[e][u] * x[u] for u in solved) for e in eqs])
        x[list(vs)] = np.linalg.solve(sub, rhs)
        solved |= set(vs)
    assert x == pytest.approx([1.0, 1.0, 2.0])
    # violating the precedence fails: solving the last block first with
    # unsolved inputs gives the wrong answer
    eqs, vs = plan.blocks[-1]
    wrong = np.zeros(3)
    sub = np.array([[A[e][v] for v in vs] for e in eqs], dtype=float)
    rhs = np.array([[1, 2, 4][e] for e in eqs])
    wrong[list(vs)] = np.linalg.solve(sub, rhs)
    assert wrong[list(vs)] != pytest.approx(x[list(vs)])


# --- counting ----------------------------------------------------------------

def counting_of(model):
    s = compile_model(model)
    _, cg = build_graphs(s, model)
    return counting_state(cg)


def test_laman_triple():
    assert counting_of(zoo.square_four_distances()).state == "under"
    assert counting_of(zoo.braced_quad_model()).state == "well"
    verdict = counting_of(zoo.k4_model())
    assert verdict.state == "over"
    assert verdict.witness_subgraph == ("P1", "P2", "P3", "P4")


def test_double_banana_counting_well_but_advisory():
    verdict = counting_of(zoo.double_banana_model())
    assert verdict.state == "well"
    assert verdict.advisory


def test_three_lines_counting_well():
    assert counting_of(zoo.three_lines_three_angles()).state == "well"


def test_counting_isomorphism_invariance():
    m = zoo.braced_quad_model()
    rng = np.random.default_rng(5)
    ids = [e.id for e in m.entities]
    for _ in range(10):
        perm = {old: f"Q{i}" for i, old in enumerate(rng.permutation(ids))}
        from gcskernel.model import Constraint, Entity
        renamed = Model(
            m.dimension,
            tuple(Entity(perm[e.id], e.kind, e.params, e.representation)
                  for e in m.entities),
            tuple(Constraint(c.id, c.kind, tuple(perm[x] for x in c.entities), c.value)
                  for c in m.constraints))
        assert counting_of(renamed).state == counting_of(m).state


def test_counting_long_chain_and_doubled_edge():
    # a 14-point chain is under; a doubled edge makes its two points a
    # violating subset
    coords = {f"P{i:02d}": (float(i), 0.3 * (i % 2)) for i in range(14)}
    edges = [(f"P{i:02d}", f"P{i+1:02d}") for i in range(13)]
    chain = zoo.points_distances_model(coords, edges)
    assert counting_of(chain).state == "under"
    from gcskernel.model import Constraint
    doubled = Model(2, chain.entities,
                    chain.constraints + (Constraint(
                        "dup", "distance-pp", ("P00", "P01"), 2.0),))
    verdict = counting_of(doubled)
    assert verdict.state == "over"
    assert verdict.witness_subgraph == ("P00", "P01")


def test_counting_large_strip_is_well():
    verdict = counting_of(zoo.triangle_strip(100))
    assert verdict.state == "well"
    assert verdict.deficit == 0


def pendant_probe(corpus_dir, pendants: int) -> Model:
    """Braced pentagon plus the surplus bar P2-P5 and a pendant chain off P3."""
    base = load_model(corpus_dir / "solve-pentagon-fan.json")
    entities = list(base.entities)
    constraints = list(base.constraints) + [Constraint("s1", "distance-pp", ("P2", "P5"), 3.0)]
    prev = "P3"
    for i in range(1, pendants + 1):
        entities.append(Entity(f"Q{i}", "point2", (float(i), 0.5 * (-1) ** i)))
        constraints.append(Constraint(f"q{i}", "distance-pp", (prev, f"Q{i}"), 1.0))
        prev = f"Q{i}"
    return Model(2, tuple(entities), tuple(constraints))


@pytest.mark.parametrize("pendants", [7, 8])
def test_counting_pendant_probe_over_at_any_size(corpus_dir, pendants):
    # 12 and 13 entities: the verdict must not flip with model size
    model = pendant_probe(corpus_dir, pendants)
    assert len(model.entities) == 5 + pendants
    verdict = counting_of(model)
    assert verdict.state == "over"
    assert verdict.witness_subgraph == ("P1", "P2", "P3", "P4", "P5")


# --- counting against a brute-force oracle -----------------------------------

def brute_force_counting(cg, dimension):
    """The fixed-D rules checked on every connected subset; returns the state and
    the predicate "connected subset that violates the subset condition"."""
    D, min_sub = (3, 2) if dimension == 2 else (6, 3)
    adj = cg.neighbors()

    def violating(sub) -> bool:
        sub = set(sub)
        seen, frontier = set(), [next(iter(sub))]
        while frontier:
            e = frontier.pop()
            if e not in seen:
                seen.add(e)
                frontier.extend(adj[e] & sub)
        dof, doc, _ = cg.induced(sub)
        return len(sub) >= min_sub and seen == sub and dof >= D and dof - doc < D

    ids = cg.entity_ids
    dof, doc, _ = cg.induced(ids)
    deficit = dof - doc - D
    if deficit < 0 or any(violating(s) for k in range(min_sub, len(ids) + 1)
                          for s in combinations(ids, k)):
        return "over", violating
    if dof < D or deficit > 0:
        return "under", violating
    return "well", violating


ENTITY_KINDS = {
    2: (("point2", None), ("line2", None)),
    3: (("point3", None), ("line3", None), ("plane3", "hessian"), ("plane3", "point-normal")),
}


@st.composite
def mixed_models(draw, dimension):
    """Random valid models of at most 8 entities over every constraint kind."""
    kinds = draw(st.lists(st.sampled_from(ENTITY_KINDS[dimension]), min_size=1, max_size=8))
    entities = []
    for i, (kind, rep) in enumerate(kinds):
        size = Entity("x", kind, representation=rep).spec.raw_size
        entities.append(Entity(f"E{i}", kind, tuple(0.1 * (i + j + 1) for j in range(size)), rep))
    tag = {e.id: e.kind for e in entities}
    options = [
        (spec.tag, ents)
        for spec in CONSTRAINT_KINDS.values()
        for sig in spec.signatures.get(dimension, ())
        for ents in permutations(tag, len(sig))
        if tuple(tag[e] for e in ents) == sig
    ]
    picks = draw(st.lists(st.sampled_from(options), max_size=3 * len(entities))) if options else []
    constraints, payloads = [], set()
    for i, (kind, ents) in enumerate(picks):
        value = 0.5 + 0.1 * i if CONSTRAINT_KINDS[kind].has_value else None
        if (kind, frozenset(ents), value) not in payloads:
            payloads.add((kind, frozenset(ents), value))
            constraints.append(Constraint(f"c{i}", kind, ents, value))
    return Model(dimension, tuple(entities), tuple(constraints))


def assert_counting_matches_oracle(model):
    _, cg = build_graphs(compile_model(model), model)
    verdict = counting_state(cg)
    expected, violating = brute_force_counting(cg, model.dimension)
    assert verdict.state == expected
    witness = verdict.witness_subgraph
    if verdict.state == "over" and violating(witness):
        assert not any(violating(s) for k in range(1, len(witness))
                       for s in combinations(witness, k))
    elif verdict.state == "over":
        # only the whole model violates, through its own deficit
        assert set(witness) == set(cg.entity_ids) and verdict.deficit < 0


@settings(derandomize=True, deadline=None, max_examples=150)
@given(mixed_models(2))
def test_counting_matches_brute_force_2d(model):
    assert_counting_matches_oracle(model)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mixed_models(3))
def test_counting_matches_brute_force_3d(model):
    assert_counting_matches_oracle(model)


def test_counting_pair_overfixed_beyond_its_pebbles():
    # After a distance and a fix, the points P, Q keep 2 free pebbles, too few
    # to cover the coincidence (DOC 3).  The pair is below the 3D subset size;
    # the violating set is the pair plus its neighbour X, while the whole
    # model has spare freedom (deficit 1)
    P, Q = (Entity(e, "point3", (float(i), 1.0, 2.0)) for i, e in enumerate("PQ"))
    X, Y = (Entity(e, "line3", (float(i), 0.0, 0.0, 1.0, 0.0, 0.0)) for i, e in enumerate("XY"))
    model = Model(3, (P, Q, X, Y), (
        Constraint("d", "distance-pp", ("P", "Q"), 1.0),
        Constraint("f", "fix", ("P",)),
        Constraint("c", "coincident", ("P", "Q")),
        Constraint("px", "distance-pl", ("P", "X"), 1.0),
        Constraint("xy", "distance-ll", ("X", "Y"), 1.0),
    ))
    verdict = counting_of(model)
    assert verdict.deficit == 1
    assert verdict.witness_subgraph == ("P", "Q", "X")
    assert_counting_matches_oracle(model)


@st.composite
def bar_frameworks(draw):
    """Generic 2D bar frameworks: 2-8 points, any simple edge set."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    coords = {f"P{i}": tuple(rng.uniform(-5.0, 5.0, size=2)) for i in range(n)}
    edges = draw(st.lists(st.sampled_from(list(combinations(sorted(coords), 2))),
                          unique=True, max_size=2 * n))
    return zoo.points_distances_model(coords, edges)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(bar_frameworks())
def test_counting_agrees_with_witness_on_bar_frameworks(model):
    # Laman's theorem: on generic 2D bar frameworks exact counting decides
    # rigidity and independence, so it must agree with the witness verdict
    state = counting_of(model).state
    verdict = characterize(compile_model(model), model).verdict
    if state == "over":
        assert verdict in ("over", "over-and-under")
    else:
        assert verdict == state


def reference_state(deficit, subgraph, doc, dimension):
    """The state by the returns ``counting_state`` chose it with before it was
    read off the verdict's counts, dof = deficit + doc + D.  The empty
    model's return (well, deficit 0, no subgraph) is the deficit-0 branch."""
    D = 3 if dimension == 2 else 6
    if subgraph is not None:
        return "over"
    if deficit + doc + D < D:
        return "under"
    if deficit == 0:
        return "well"
    return "under"


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(-20, 20), st.booleans(), st.integers(0, 40), st.sampled_from([2, 3]))
def test_counting_state_is_read_off_the_counts(deficit, named, doc, dimension):
    # counting_state names the whole model as the subgraph when the deficit
    # is negative and no smaller subset violates
    subgraph = ("P", "Q") if named or deficit < 0 else None
    verdict = CountingVerdict(deficit, subgraph, dimension == 3)
    assert verdict.state == reference_state(deficit, subgraph, doc, dimension)


def test_counting_verdict_stores_no_state():
    assert [f.name for f in dataclasses.fields(CountingVerdict)] == \
        ["deficit", "witness_subgraph", "advisory"]


# --- triconnectivity ----------------------------------------------------------------

def pieces_without(vertices, edges, removed):
    """The components of the graph minus ``removed``, by plain search: the
    reference every separation-pair test below is checked against."""
    adj = {v: set() for v in vertices if v not in removed}
    for a, b in edges:
        if a in adj and b in adj and a != b:
            adj[a].add(b)
            adj[b].add(a)
    seen, out = set(), []
    for start in adj:
        if start not in seen:
            piece, frontier = {start}, [start]
            while frontier:
                for w in adj[frontier.pop()] - piece:
                    piece.add(w)
                    frontier.append(w)
            seen |= piece
            out.append(piece)
    return out


def separation_pairs(vertices, edges):
    return {frozenset(p) for p in combinations(vertices, 2)
            if len(pieces_without(vertices, edges, set(p))) >= 2}


@st.composite
def multigraphs(draw, min_size=1, max_size=10):
    """Labelled multigraphs (edges may repeat) whose label order is not their
    build order."""
    n = draw(st.integers(min_size, max_size))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    return vertices, [(vertices[a], vertices[b]) for a, b in edges]


@st.composite
def biconnected_graphs(draw, max_size=12):
    """2-connected multigraphs of 4 or more vertices: a cycle, then ears
    (paths between two vertices already placed), then repeated or new chords."""
    n = draw(st.integers(4, max_size))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    k = draw(st.integers(3, n))
    edges = [(i, (i + 1) % k) for i in range(k)]
    while k < n:
        a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        inner = list(range(k, k + draw(st.integers(1, min(3, n - k)))))
        path = [a, *inner, b]
        edges += list(zip(path, path[1:]))
        k += len(inner)
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]), max_size=n))
    return vertices, [(vertices[a], vertices[b]) for a, b in edges]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(multigraphs())
def test_triconnectivity_finds_the_first_pair_a_search_splits(graph):
    vertices, edges = graph
    tri = triconnectivity(vertices, edges)
    components = pieces_without(vertices, edges, set())
    assert sorted(map(components.index, (c for r in tri.roots for c in components if r in c))) \
        == list(range(len(components)))
    assert tri.biconnected == (len(components) == 1 and all(
        len(pieces_without(vertices, edges, {v})) <= 1 for v in vertices))
    splits = [(a, b) for a, b in combinations(vertices, 2)
              if len(pieces_without(vertices, edges, {a, b})) >= 2]
    assert tri.first == (None if tri.biconnected or not splits else splits[0])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(multigraphs(min_size=4))
def test_triconnectivity_searches_a_graph_at_most_twice(graph):
    # one search from the first vertex, and one from the second when the
    # graph is not 2-connected and the first vertex has no partner
    searches = []
    palm = structural._Palm
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structural, "_Palm", lambda *args: searches.append(args) or palm(*args))
        tri = triconnectivity(*graph)
    assert len(searches) <= (1 if tri.biconnected else 2)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(biconnected_graphs(max_size=16))
def test_triconnected_components_name_every_separation_pair(graph):
    # a 2-connected graph's pairs are its explicit pairs, plus every two
    # vertices not next to each other on a polygon
    vertices, edges = graph
    tri = triconnectivity(vertices, edges)
    assert tri.biconnected
    found = set(tri.pairs)
    for ring in tri.polygons:
        for i, j in combinations(range(len(ring)), 2):
            if (j - i) % len(ring) not in (1, len(ring) - 1):
                found.add(frozenset((ring[i], ring[j])))
    assert found == separation_pairs(vertices, edges)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(biconnected_graphs())
def test_a_child_with_the_split_edge_inherits_its_parents_pairs(graph):
    # the rule top-down splitting relies on, checked by the reference search
    # alone: split a 2-connected graph at any separation pair (a, b); a piece
    # plus a and b, with the edge ab (held or a virtual bond), has exactly its
    # parent's pairs inside it, minus (a, b)
    vertices, edges = graph
    pairs = separation_pairs(vertices, edges)
    for pair in pairs:
        for piece in pieces_without(vertices, edges, pair):
            inside = piece | pair
            child = [e for e in edges if set(e) <= inside and set(e) != pair] + [tuple(pair)]
            assert separation_pairs(sorted(inside), child) == {
                p for p in pairs if p <= inside} - {pair}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(multigraphs(min_size=3), st.data())
def test_pieces_apart_takes_out_all_components_but_the_last(graph, data):
    vertices, edges = graph
    a, b = data.draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=2, unique=True))
    adj = {v: {} for v in vertices}
    for k, (u, v) in enumerate(edges):
        adj[v][u] = adj[u].setdefault(v, [])
        adj[u][v].append(k)
    done, growing = pieces_apart(adj, a, b, [v for v in vertices if v not in (a, b)])
    components = pieces_without(vertices, edges, {a, b})
    assert len(done) == len(components) - growing
    for members, own, taken in done:
        assert set(members) in components
        assert set(own) == set(members) | {a, b}
        assert not set(members) & set(adj)
        assert sorted(taken) == [k for k, e in enumerate(edges) if set(e) & set(members)]
