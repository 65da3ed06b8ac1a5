import json
import math

import pytest
from hypothesis import given, strategies as st

from gcskernel import (
    Constraint,
    Entity,
    Model,
    doc_of,
    dof_of,
    model_from_json_dict,
    model_to_json_dict,
    validate,
)
from gcskernel import zoo


def test_dof_table():
    assert dof_of("point2") == 2
    assert dof_of("line2") == 2
    assert dof_of("point3") == 3
    assert dof_of("plane3", "hessian") == 3
    assert dof_of("plane3", "point-normal") == 5
    assert dof_of("line3") == 5  # default point-direction, 6 raw - 1 unit norm
    with pytest.raises(KeyError):
        dof_of("torus7")


def test_doc_table():
    assert doc_of("distance-pp", 2) == 1
    assert doc_of("distance-pp", 3) == 1
    assert doc_of("angle-ll", 2) == 1
    assert doc_of("point-on-line", 2) == 1
    assert doc_of("point-on-line", 3) == 2
    assert doc_of("point-on-plane", 3) == 1
    assert doc_of("coincident", 2) == 2
    assert doc_of("coincident", 3) == 3
    assert doc_of("fix", 2) == 2
    assert doc_of("fix", 3) == 3
    assert doc_of("parallel", 3) == 2
    with pytest.raises(ValueError):
        doc_of("distance-pplane", 2)
    with pytest.raises(KeyError):
        doc_of("banana", 2)


def test_triangle_validates_clean():
    assert validate(zoo.triangle_model()) == []


def test_unresolved_reference():
    m = Model(2, (Entity("P1", "point2", (0, 0)),),
              (Constraint("c", "distance-pp", ("P1", "NOPE"), 1.0),))
    codes = [v.code for v in validate(m)]
    assert "unresolved-reference" in codes


def test_zero_distance_rejected():
    m = Model(2, (Entity("P1", "point2"), Entity("P2", "point2")),
              (Constraint("c", "distance-pp", ("P1", "P2"), 0.0),))
    codes = [v.code for v in validate(m)]
    assert "zero-distance" in codes


def test_bad_angle_and_missing_value():
    ents = (Entity("L1", "line2"), Entity("L2", "line2"))
    m = Model(2, ents, (Constraint("a", "angle-ll", ("L1", "L2"), 4.0),))
    assert any(v.code == "bad-angle" for v in validate(m))
    m = Model(2, ents, (Constraint("a", "angle-ll", ("L1", "L2")),))
    assert any(v.code == "missing-value" for v in validate(m))


@pytest.mark.parametrize("value, codes", [
    (math.pi, ["bad-angle"]),
    (math.pi + 5e-13, ["bad-angle"]),
    (math.nextafter(math.pi, 0.0), []),
])
def test_angle_must_lie_below_pi(value, codes):
    ents = (Entity("L1", "line2", (0.0, 0.0)), Entity("L2", "line2", (1.0, 0.0)))
    m = Model(2, ents, (Constraint("a", "angle-ll", ("L1", "L2"), value),))
    assert [v.code for v in validate(m)] == codes


def test_duplicate_constraint_and_ids():
    ents = (Entity("P1", "point2"), Entity("P2", "point2"))
    cons = (Constraint("c1", "distance-pp", ("P1", "P2"), 2.0),
            Constraint("c2", "distance-pp", ("P2", "P1"), 2.0))
    assert any(v.code == "duplicate-constraint" for v in validate(Model(2, ents, cons)))
    dup = (Entity("P1", "point2"), Entity("P1", "point2"))
    assert any(v.code == "duplicate-entity-id" for v in validate(Model(2, dup, ())))


@pytest.mark.parametrize("kind, value", [("distance-pp", 1.0), ("coincident", None)])
def test_constraint_naming_one_entity_twice_rejected(kind, value):
    m = Model(2, (Entity("D", "point2", (0.0, 0.0)),), (Constraint("c", kind, ("D", "D"), value),))
    assert [(v.code, v.subject) for v in validate(m)] == [("repeated-entity", "c")]


def test_params_length_and_dimension_checks():
    m = Model(2, (Entity("P1", "point2", (1.0,)),), ())
    assert any(v.code == "bad-params-length" for v in validate(m))
    m = Model(2, (Entity("P1", "point3", (0, 0, 0)),), ())
    assert any(v.code == "dimension-mismatch" for v in validate(m))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_params_and_values_rejected(bad):
    ents = (Entity("P1", "point2", (0.0, bad)), Entity("P2", "point2", (1.0, 0.0)))
    m = Model(2, ents, (Constraint("c", "distance-pp", ("P1", "P2"), 1.0),))
    assert [(v.code, v.subject) for v in validate(m)] == [("non-finite", "P1")]
    ents = (Entity("P1", "point2", (0.0, 0.0)), Entity("P2", "point2", (1.0, 0.0)))
    m = Model(2, ents, (Constraint("c", "distance-pp", ("P1", "P2"), bad),))
    assert [(v.code, v.subject) for v in validate(m)] == [("non-finite", "c")]


def test_fix_requires_target_params():
    m = Model(2, (Entity("P1", "point2"),), (Constraint("f", "fix", ("P1",)),))
    assert any(v.code == "missing-params" for v in validate(m))


def test_validate_is_pure_and_idempotent():
    m = zoo.k4_model()
    first = validate(m)
    second = validate(m)
    assert first == second == []


@given(st.randoms(use_true_random=False))
def test_dof_doc_sums_invariant_under_reordering(rnd):
    m = zoo.braced_quad_model()
    ents = list(m.entities)
    cons = list(m.constraints)
    rnd.shuffle(ents)
    rnd.shuffle(cons)
    shuffled = Model(m.dimension, tuple(ents), tuple(cons))
    assert shuffled.total_dof() == m.total_dof()
    assert shuffled.total_doc() == m.total_doc()


def test_json_round_trip():
    for m in [zoo.triangle_model(), zoo.parallel_lines_model(), zoo.plane_prism_model()]:
        data = model_to_json_dict(m)
        back = model_from_json_dict(json.loads(json.dumps(data)))
        assert back == m
