"""The id lookups of Model and the row/column maps of a compiled system
against the scans they replaced: same results, same order, same errors."""

import json
import random

import pytest

from gcskernel import add_anchors, compile_model, linear_system, zoo
from gcskernel.compiler import add_constraints, induced, rows_of
from gcskernel.model import Constraint, Entity, Model, model_from_json_dict

from conftest import CORPUS, row_ops, row_variables


# --- the scans, as they were before the maps -----------------------------------

def scan_entity(model, eid):
    for e in model.entities:
        if e.id == eid:
            return e
    raise KeyError(f"no entity {eid!r}")


def scan_constraint(model, cid):
    for c in model.constraints:
        if c.id == cid:
            return c
    raise KeyError(f"no constraint {cid!r}")


def scan_columns(system, entity_ids):
    wanted = set(entity_ids)
    return [v.index for v in system.variables if v.entity_id in wanted]


def scan_rows(system, constraint_ids, entity_ids):
    return [r.index for r in system.residuals
            if (r.kind == "constraint" and r.source in constraint_ids)
            or (r.kind == "normalization" and r.source in entity_ids)]


def scan_induced(model, system, entity_ids):
    keep = set(entity_ids)
    cids = frozenset(c.id for c in model.constraints if set(c.entities) <= keep)
    return cids, scan_rows(system, cids, keep)


def scan_anchor_points(model, system, entity_ids):
    tag = "point2" if system.dimension == 2 else "point3"
    return [e.id for e in model.entities
            if e.kind == tag and (entity_ids is None or e.id in entity_ids)]


# --- inputs ----------------------------------------------------------------------

def corpus():
    geometric, linear = {}, {}
    for path in sorted(CORPUS.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "equations" in data:
            linear[path.stem] = linear_system(
                [eq["coeffs"] for eq in data["equations"]],
                [eq.get("rhs", 0.0) for eq in data["equations"]], data.get("variables"))
        else:
            geometric[path.stem] = model_from_json_dict(data)
    return geometric, linear


GEOMETRIC, LINEAR = corpus()
MODELS = {**GEOMETRIC, **{f"strip{n}": zoo.triangle_strip(n) for n in range(3, 49)}}


def subsets(ids, rng, count=8):
    """Whole, single, and random subsets, with duplicates and an unknown id."""
    ids = list(ids)
    out = [ids, ids[:1], [], ["nope"]]
    for _ in range(count):
        pick = rng.sample(ids, rng.randint(1, len(ids))) if ids else []
        out.append(pick + pick[:2] + ["nope"])
    return out


def derived_systems(model, system):
    """The compiled system, one with a virtual bond appended, one anchored on a
    subset given with duplicate ids, and one anchored on the whole model."""
    out = [system]
    points = [e.id for e in model.entities if e.kind in ("point2", "point3")]
    if len(points) >= 2:
        bond = Constraint(f"vbond:{points[0]}-{points[1]}", "distance-pp",
                          (points[0], points[1]), 1.0)
        out.append(add_constraints(system, model, [bond]))
    need = 2 if model.dimension == 2 else 3
    if len(points) >= need:
        some = points[-need - 1:] + points[-need - 1:]
        out.append(add_anchors(out[-1], model, some))
        try:
            out.append(add_anchors(system, model))
        except ValueError:  # the first three 3D points are collinear
            pass
    return out


# --- tests -----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(MODELS))
def test_indexed_lookups_match_the_scans(name):
    model = MODELS[name]
    rng = random.Random(name)
    for e in model.entities:
        assert model.entity(e.id) is scan_entity(model, e.id)
    for c in model.constraints:
        assert model.constraint(c.id) is scan_constraint(model, c.id)
    system = compile_model(model)
    entity_sets = subsets([e.id for e in model.entities], rng)
    constraint_sets = subsets([c.id for c in model.constraints], rng)
    for s in derived_systems(model, system):
        for ents in entity_sets:
            assert s.columns_of(ents) == scan_columns(s, ents)
            got = induced(model, s, ents)
            assert got == scan_induced(model, s, ents)
            assert got[1] == sorted(got[1])
            for cons in constraint_sets:
                assert rows_of(s, cons, ents) == scan_rows(s, cons, ents)
                assert rows_of(s, frozenset(cons), set(ents)) == scan_rows(s, cons, ents)


def expected_anchors(points, dimension, column):
    """(name, variables) of each anchor row on the given first points."""
    p1, p2 = points[0], points[1]
    if dimension == 2:
        return [(f"anchor:{p1}.x", {column(p1, "x")}), (f"anchor:{p1}.y", {column(p1, "y")}),
                (f"anchor:{p2}.y-{p1}.y", {column(p2, "y"), column(p1, "y")})]
    p3 = points[2]
    return [(f"anchor:{p1}.{k}", {column(p1, k)}) for k in "xyz"] + [
        (f"anchor:{p2}.{k}-{p1}.{k}", {column(p2, k), column(p1, k)}) for k in "yz"] + [
        (f"anchor:{p3}.z-{p1}.z", {column(p3, "z"), column(p1, "z")})]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_anchors_pick_the_first_points_in_model_order(name):
    model = MODELS[name]
    system = compile_model(model)
    names = [v.name for v in system.variables]

    def column(eid, comp):
        return names.index(f"{eid}.{comp}")

    rng = random.Random(name)
    for ents in [None] + subsets([e.id for e in model.entities], rng):
        points = scan_anchor_points(model, system, ents)
        if len(points) < (2 if model.dimension == 2 else 3):
            continue
        try:
            anchored = add_anchors(system, model, ents)
        except ValueError:  # the first three 3D points are collinear
            continue
        added = [(r.name, row_variables(row_ops(anchored, r.index)))
                 for r in anchored.residuals[system.n_residuals:]]
        assert added == expected_anchors(points, model.dimension, column)


@pytest.mark.parametrize("name", sorted(LINEAR))
def test_linear_system_rows_and_columns_match_the_scans(name):
    system = LINEAR[name]
    rng = random.Random(name)
    for cons in subsets([r.source for r in system.residuals], rng):
        for ents in subsets([v.entity_id for v in system.variables], rng):
            assert rows_of(system, cons, ents) == scan_rows(system, cons, ents)
            assert system.columns_of(ents) == scan_columns(system, ents)


def test_duplicate_ids_resolve_to_the_first_and_unknown_ids_raise_as_before():
    ents = (Entity("P1", "point2", (0.0, 0.0)), Entity("P1", "point2", (1.0, 0.0)),
            Entity("P2", "point2", (0.0, 1.0)))
    cons = (Constraint("c", "distance-pp", ("P1", "P2"), 1.0),
            Constraint("c", "distance-pp", ("P2", "P1"), 2.0))
    model = Model(2, ents, cons)
    assert model.entity("P1") is scan_entity(model, "P1") is ents[0]
    assert model.constraint("c") is scan_constraint(model, "c") is cons[0]
    assert model.constraints_on("P1") == cons
    assert model.constraints_on("P3") == ()
    for lookup, scan, key in ((model.entity, scan_entity, "P3"),
                              (model.constraint, scan_constraint, "d")):
        with pytest.raises(KeyError) as got:
            lookup(key)
        with pytest.raises(KeyError) as expected:
            scan(model, key)
        assert got.value.args == expected.value.args
        assert str(got.value) == str(expected.value)


def test_maps_leave_model_equality_alone():
    a, b = zoo.triangle_strip(4), zoo.triangle_strip(4)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) and "_naming" not in repr(a)


def test_derived_systems_share_the_compiled_column_map():
    model = zoo.triangle_strip(6)
    system = compile_model(model)
    bond = Constraint("vbond:P1-P3", "distance-pp", ("P1", "P3"), 1.0)
    bonded = add_constraints(system, model, [bond])
    anchored = add_anchors(bonded, model, ["P3", "P1", "P3"])
    for s in (bonded, anchored, anchored.without_anchors()):
        assert s.columns is system.columns


def test_derived_systems_share_the_variable_lists_of_the_rows_they_keep():
    # each row's variable list is walked once, on the system that adds it
    model = zoo.triangle_strip(6)
    system = compile_model(model)
    bond = Constraint("vbond:P1-P3", "distance-pp", ("P1", "P3"), 1.0)
    bonded = add_constraints(system, model, [bond])
    anchored = add_anchors(bonded, model, ["P3", "P1", "P3"])
    for s in (system, bonded, anchored, anchored.without_anchors()):
        assert s.adjacency == tuple(tuple(sorted(row_variables(row_ops(s, r.index))))
                                    for r in s.residuals)
        assert all(a is b for a, b in zip(s.adjacency, system.adjacency))
    assert anchored.adjacency[bonded.n_residuals - 1] is bonded.adjacency[-1]
