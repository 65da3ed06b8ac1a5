"""Bottom-up's rigidity decisions on bodies against the dense rigidity test."""

import json
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gcskernel import bodies, bottom_up, bottom_up_at, characterize, compile_model, decompose, zoo
from gcskernel.bodies import Bodies
from gcskernel.compiler import induced
from gcskernel.model import Constraint, Entity, Model, model_from_json_dict
from gcskernel.numeric import RANK_GAP, RANK_REL_TOL, rank_of

from test_detect import reference_is_well_part


def checked_bottom_up(model, seed=0):
    """``bottom_up`` with every seed and union decision checked against
    ``reference_is_well_part`` on its entity set, and every well body's rows,
    columns, constraints and motion rank against a scan of that set.
    Returns the tree, the union decisions and the fallbacks."""
    seeds, union = decompose.well_parts, Bodies.union
    counts = {"unions": 0, "fallbacks": 0}

    def check(model, system, witness, entities, body):
        J, M = witness.jacobian, witness.motions
        assert (body is not None) == reference_is_well_part(
            model, system, J, M, entities), sorted(entities)
        if body is not None:
            constraints, rows = induced(model, system, entities)
            columns = system.columns_of(entities)
            assert (body.entities, body.constraints) == (frozenset(entities), constraints)
            assert (body.rows, body.columns) == (len(rows), len(columns))
            assert body.motion_rank == rank_of(M[:, columns])
            assert body.fixed == any(model.constraint(c).kind == "fix" for c in constraints)

    def checking_seeds(model, system, witness, candidates, rank_tol):
        out = seeds(model, system, witness, candidates, rank_tol)
        for cand, body in zip(candidates, out):
            check(model, system, witness, cand, body)
        return out

    def checking_union(self, group, entities):
        before = self.fallbacks
        body = union(self, group, entities)
        counts["unions"] += 1
        counts["fallbacks"] += self.fallbacks - before
        check(self.model, self.system, self.witness, entities, body)
        return body

    with mock.patch.object(decompose, "well_parts", checking_seeds), \
            mock.patch.object(Bodies, "union", checking_union):
        tree = bottom_up(model, seed=seed)
    return tree, counts["unions"], counts["fallbacks"]


def geometric_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "dimension" in data:
            yield path.name, model_from_json_dict(data)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_body_decisions_match_is_well_part_on_corpus_and_strips(seed, corpus_dir):
    models = list(geometric_corpus(corpus_dir))
    assert len(models) == 24
    models += [(f"strip{n}", zoo.triangle_strip(n)) for n in (*range(3, 13), 30, 100)]
    total = 0
    for name, m in models:
        _, unions, fallbacks = checked_bottom_up(m, seed)
        fixed = any(c.kind == "fix" for c in m.constraints)
        assert fixed or fallbacks == 0, name
        total += unions
    assert total > 300


@st.composite
def body_frameworks(draw):
    """2D and 3D point-distance frameworks built by Henneberg steps (each
    new point barred to ``dimension`` earlier points), then up to two bars
    swapped and up to two extra bars added; optionally two lines, each through
    two of the points (``point-on-line``) and at an angle to each other
    (``angle-ll``), and one ``fix``."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(dim + 1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    coords = {f"P{i}": tuple(float(v) for v in rng.uniform(-5.0, 5.0, size=dim))
              for i in range(n)}
    names = list(coords)
    bars = set(combinations(names[:dim], 2))
    for k in range(dim, n):
        for i in draw(st.lists(st.integers(0, k - 1), min_size=dim, max_size=dim,
                               unique=True)):
            bars.add((names[i], names[k]))
    pairs = list(combinations(names, 2))
    for _ in range(draw(st.integers(0, 2))):  # swap a bar for another
        bars.discard(sorted(bars)[draw(st.integers(0, len(bars) - 1))])
        bars.add(pairs[draw(st.integers(0, len(pairs) - 1))])
    for _ in range(draw(st.integers(0, 2))):  # an extra bar
        bars.add(pairs[draw(st.integers(0, len(pairs) - 1))])
    kind = f"point{dim}"
    entities = [Entity(p, kind, xy) for p, xy in coords.items()]
    constraints = [Constraint(f"d{i}", "distance-pp", (a, b), math.dist(coords[a], coords[b]))
                   for i, (a, b) in enumerate(sorted(bars))]
    if draw(st.booleans()):
        for j in range(2):
            a, b = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
            line = f"L{j}"
            if dim == 2:
                params = (float(rng.uniform(0.0, math.pi)), float(rng.uniform(-3.0, 3.0)))
            else:
                params = (*coords[a], *(np.subtract(coords[b], coords[a])
                                         / math.dist(coords[a], coords[b])))
            entities.append(Entity(line, f"line{dim}", tuple(float(v) for v in params)))
            constraints += [Constraint(f"i{j}a", "point-on-line", (a, line)),
                            Constraint(f"i{j}b", "point-on-line", (b, line))]
        constraints.append(Constraint("ang", "angle-ll", ("L0", "L1"), 1.1))
    if draw(st.booleans()):
        constraints.append(Constraint("fx", "fix", (draw(st.sampled_from(names)),)))
    return Model(dim, tuple(entities), tuple(constraints))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(body_frameworks())
@example(zoo.double_banana_model())
@example(zoo.k4_model())
def test_body_decisions_match_is_well_part_on_drawn_frameworks(model):
    # a union with a fixed child is decided by detect.well_parts itself; every
    # decision agrees with the dense reference, and none sits near the threshold
    _, _, fallbacks = checked_bottom_up(model)
    assert fallbacks == 0 or any(c.kind == "fix" for c in model.constraints)


def test_a_fixed_child_falls_back_to_is_well_part():
    # fixing P1 of a strip: every union holds the fixed seed's cover
    m = zoo.triangle_strip(4)
    m = Model(2, m.entities, m.constraints + (Constraint("fx", "fix", ("P1",)),))
    tree, unions, fallbacks = checked_bottom_up(m)
    assert tree.assembled
    assert 0 < fallbacks <= unions


def test_gapped_rank_declines_a_singular_value_near_the_threshold():
    # the body test's rank: rank_of with the gap RANK_GAP, -1 where declined
    for s, rank in [(1e-5, 2), (1e-7, -1), (1e-8, -1), (1e-9, -1), (1e-11, 1)]:
        assert rank_of(np.diag([1.0, s]), RANK_REL_TOL, RANK_GAP) == rank, s
    assert rank_of(np.zeros((0, 4)), RANK_REL_TOL, RANK_GAP) == 0
    assert rank_of(np.zeros((2, 2)), RANK_REL_TOL, RANK_GAP) == 0
    # the band is RANK_GAP either side of the rank_of threshold
    edge = RANK_REL_TOL * RANK_GAP
    assert rank_of(np.diag([1.0, edge * 1.01]), RANK_REL_TOL, RANK_GAP) == 2
    assert rank_of(np.diag([1.0, edge * 0.99]), RANK_REL_TOL, RANK_GAP) == -1


def strip_with_redundant_bar(n):
    """``zoo.triangle_strip(n)`` with one bar more, from its first point to
    its last: its Jacobian's rows are dependent."""
    m = zoo.triangle_strip(n)
    first, last = m.entities[0], m.entities[-1]
    bar = Constraint("extra", "distance-pp", (first.id, last.id),
                     math.dist(first.params, last.params))
    return Model(2, m.entities, m.constraints + (bar,))


@pytest.mark.parametrize("rank", [lambda B: -1, lambda B: B.shape[1] + 1],
                         ids=["declined", "kernel-below-slack"])
@pytest.mark.parametrize("make", [lambda: strip_with_redundant_bar(6), zoo.k4_model,
                                  zoo.double_banana_model])
def test_a_union_the_bodies_cannot_decide_falls_back_to_the_dense_test(rank, make):
    # B's gapped rank is declined (a singular value near the threshold), or B's
    # kernel comes out below the union's slack: each such union is decided
    # by detect.well_parts on its entities, counted as a fallback, and the
    # tree is the one the body test builds
    m = make()
    expected = bottom_up(m).to_json_dict()
    calls = [0]

    def forced(B, rank_tol, gap=1.0):
        if gap == 1.0:  # a union's motion rank
            return rank_of(B, rank_tol)
        calls[0] += 1
        return rank(B)

    with mock.patch.object(bodies, "rank_of", forced):
        tree, unions, fallbacks = checked_bottom_up(m)
    assert 0 < calls[0] == fallbacks <= unions
    assert tree.to_json_dict() == expected


@pytest.mark.parametrize("n", [6, 12])
def test_an_independent_strip_decides_its_unions_by_counting(n):
    # the vote finds strip(n)'s rows independent with margin, so no union
    # builds or ranks a coefficient matrix B (the only gapped rank in
    # bodies), and every decision is still the dense reference's
    m = zoo.triangle_strip(n)
    assert characterize(compile_model(m), m, votes=1).witness.independent
    gapped = []

    def recording(B, rank_tol, gap=1.0):
        if gap != 1.0:
            gapped.append(B.shape)
        return rank_of(B, rank_tol, gap)

    with mock.patch.object(bodies, "rank_of", recording):
        tree, unions, fallbacks = checked_bottom_up(m)
    assert tree.assembled and unions > 0
    assert gapped == [] and fallbacks == 0


@pytest.mark.parametrize("make", [lambda: zoo.triangle_strip(48), zoo.double_banana_model])
def test_after_the_seeds_no_rigidity_check_ranks_more_than_3d_columns(make, recording_svd):
    m = make()
    s = compile_model(m)
    report = characterize(s, m)
    seeds = decompose.well_parts
    mark = []

    def marking(*args, **kwargs):
        out = seeds(*args, **kwargs)
        mark.append(len(recording_svd))
        return out

    recording_svd.clear()
    with mock.patch.object(decompose, "well_parts", marking):
        bottom_up_at(m, s, report.witness, report.witness_groups())
    later = recording_svd[mark[0]:]
    assert later  # the unions were ranked
    assert max(shape[-1] for shape, _ in later) <= 3 * report.witness.motions.shape[0]
