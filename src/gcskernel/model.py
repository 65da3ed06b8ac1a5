"""Declarative model of geometric entities and constraints.

A :class:`Model` is immutable value data: a dimension flag plus entity and
constraint lists, with id lookups and the constraints that name each entity
built once at construction.  Entities carry their raw parameter vectors
(optional, used as the initial guess); redundant parameterizations (hessian
planes, 3D point-direction lines, point-normal planes) declare normalization
equations that the compiler emits automatically, so the effective DOF of a
kind is always ``raw parameter count - normalization count``.

Angles are stored in radians, in (0, pi).  A distance of zero is rejected at
validation; coincidence is its own constraint kind because it changes both
the DOC and the singularity class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

POINT2, LINE2 = "point2", "line2"
POINT3, LINE3, PLANE3 = "point3", "line3", "plane3"

HESSIAN = "hessian"
POINT_NORMAL = "point-normal"
POINT_DIRECTION = "point-direction"


@dataclass(frozen=True)
class KindSpec:
    """Parameterization scheme of one entity kind."""

    tag: str
    representation: str | None
    dimension: int
    param_names: tuple[str, ...]
    # index groups whose Euclidean norm is constrained to 1
    unit_groups: tuple[tuple[int, ...], ...] = ()

    @property
    def raw_size(self) -> int:
        return len(self.param_names)

    @property
    def dof(self) -> int:
        return self.raw_size - len(self.unit_groups)


KIND_SPECS: dict[tuple[str, str | None], KindSpec] = {
    (POINT2, None): KindSpec(POINT2, None, 2, ("x", "y")),
    (LINE2, None): KindSpec(LINE2, None, 2, ("phi", "rho")),
    (POINT3, None): KindSpec(POINT3, None, 3, ("x", "y", "z")),
    (LINE3, POINT_DIRECTION): KindSpec(
        LINE3, POINT_DIRECTION, 3, ("px", "py", "pz", "dx", "dy", "dz"),
        unit_groups=((3, 4, 5),),
    ),
    (PLANE3, HESSIAN): KindSpec(
        PLANE3, HESSIAN, 3, ("a", "b", "c", "d"), unit_groups=((0, 1, 2),)
    ),
    (PLANE3, POINT_NORMAL): KindSpec(
        PLANE3, POINT_NORMAL, 3, ("px", "py", "pz", "nx", "ny", "nz"),
        unit_groups=((3, 4, 5),),
    ),
}

DEFAULT_REPRESENTATION: dict[str, str | None] = {
    POINT2: None,
    LINE2: None,
    POINT3: None,
    LINE3: POINT_DIRECTION,
    PLANE3: HESSIAN,
}


def kind_spec(tag: str, representation: str | None = None) -> KindSpec:
    rep = representation if representation is not None else DEFAULT_REPRESENTATION.get(tag)
    try:
        return KIND_SPECS[(tag, rep)]
    except KeyError:
        raise KeyError(f"unknown entity kind {tag!r} (representation {rep!r})") from None


def dof_of(tag: str, representation: str | None = None) -> int:
    """Effective degrees of freedom of an entity kind."""
    return kind_spec(tag, representation).dof


# Constraint kinds.  ``signatures`` maps model dimension to the allowed
# entity-tag tuples; ``doc`` maps dimension to the scalar-equation count.
@dataclass(frozen=True)
class ConstraintKindSpec:
    tag: str
    signatures: Mapping[int, tuple[tuple[str, ...], ...]]
    doc: Mapping[int, int]
    singular: bool
    has_value: bool
    value_kind: str | None = None  # "distance" or "angle"


def _ck(tag, signatures, doc, singular, has_value, value_kind=None):
    return ConstraintKindSpec(tag, signatures, doc, singular, has_value, value_kind)


CONSTRAINT_KINDS: dict[str, ConstraintKindSpec] = {
    k.tag: k
    for k in [
        _ck("distance-pp", {2: ((POINT2, POINT2),), 3: ((POINT3, POINT3),)},
            {2: 1, 3: 1}, False, True, "distance"),
        _ck("distance-pl", {2: ((POINT2, LINE2),), 3: ((POINT3, LINE3),)},
            {2: 1, 3: 1}, False, True, "distance"),
        _ck("distance-pplane", {3: ((POINT3, PLANE3),)}, {3: 1}, False, True, "distance"),
        _ck("distance-ll", {2: ((LINE2, LINE2),), 3: ((LINE3, LINE3),)},
            {2: 1, 3: 1}, False, True, "distance"),
        _ck("distance-planeplane", {3: ((PLANE3, PLANE3),)}, {3: 1}, False, True, "distance"),
        _ck("angle-ll", {2: ((LINE2, LINE2),), 3: ((LINE3, LINE3),)},
            {2: 1, 3: 1}, False, True, "angle"),
        _ck("angle-planeplane", {3: ((PLANE3, PLANE3),)}, {3: 1}, False, True, "angle"),
        _ck("point-on-line", {2: ((POINT2, LINE2),), 3: ((POINT3, LINE3),)},
            {2: 1, 3: 2}, True, False),
        _ck("point-on-plane", {3: ((POINT3, PLANE3),)}, {3: 1}, True, False),
        _ck("parallel", {2: ((LINE2, LINE2),), 3: ((LINE3, LINE3), (PLANE3, PLANE3))},
            {2: 1, 3: 2}, True, False),
        _ck("perpendicular", {2: ((LINE2, LINE2),), 3: ((LINE3, LINE3), (PLANE3, PLANE3))},
            {2: 1, 3: 1}, True, False),
        _ck("coincident", {2: ((POINT2, POINT2),), 3: ((POINT3, POINT3),)},
            {2: 2, 3: 3}, True, False),
        _ck("fix", {2: ((POINT2,),), 3: ((POINT3,),)}, {2: 2, 3: 3}, False, False),
    ]
}


def doc_of(kind: str, dimension: int) -> int:
    """Number of scalar equations the constraint kind contributes."""
    spec = CONSTRAINT_KINDS.get(kind)
    if spec is None:
        raise KeyError(f"unknown constraint kind {kind!r}")
    if dimension not in spec.doc:
        raise ValueError(f"constraint kind {kind!r} is not defined in {dimension}D")
    return spec.doc[dimension]


@dataclass(frozen=True)
class Entity:
    id: str
    kind: str
    params: tuple[float, ...] | None = None
    representation: str | None = None

    @property
    def spec(self) -> KindSpec:
        return kind_spec(self.kind, self.representation)


@dataclass(frozen=True)
class Constraint:
    id: str
    kind: str
    entities: tuple[str, ...]
    value: float | None = None


@dataclass(frozen=True)
class Model:
    dimension: int
    entities: tuple[Entity, ...]
    constraints: tuple[Constraint, ...]
    # lookups built once; the first of duplicate ids wins, as in a scan
    _entities: dict[str, Entity] = field(init=False, repr=False, compare=False)
    _constraints: dict[str, Constraint] = field(init=False, repr=False, compare=False)
    _naming: dict[str, tuple[Constraint, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        naming: dict[str, list[Constraint]] = {}
        for c in self.constraints:
            for eid in dict.fromkeys(c.entities):
                naming.setdefault(eid, []).append(c)
        object.__setattr__(self, "_entities", {e.id: e for e in reversed(self.entities)})
        object.__setattr__(self, "_constraints", {c.id: c for c in reversed(self.constraints)})
        object.__setattr__(self, "_naming", {eid: tuple(cs) for eid, cs in naming.items()})

    def entity(self, eid: str) -> Entity:
        try:
            return self._entities[eid]
        except KeyError:
            raise KeyError(f"no entity {eid!r}") from None

    def constraint(self, cid: str) -> Constraint:
        try:
            return self._constraints[cid]
        except KeyError:
            raise KeyError(f"no constraint {cid!r}") from None

    def constraints_on(self, eid: str) -> tuple[Constraint, ...]:
        """Constraints that name entity ``eid``, in model order."""
        return self._naming.get(eid, ())

    def total_dof(self) -> int:
        return sum(e.spec.dof for e in self.entities)

    def total_doc(self) -> int:
        return sum(doc_of(c.kind, self.dimension) for c in self.constraints)


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


def validate(model: Model) -> list[Violation]:
    """Check all model invariants; returns an empty list iff the model is sound.

    Violations are data, not failures: each one names the offending id and the
    broken rule.
    """
    out: list[Violation] = []
    if model.dimension not in (2, 3):
        out.append(Violation("bad-dimension", "-", f"dimension must be 2 or 3, got {model.dimension}"))
        return out

    seen_e: set[str] = set()
    by_id: dict[str, Entity] = {}
    for e in model.entities:
        if e.id in seen_e:
            out.append(Violation("duplicate-entity-id", e.id, f"entity id {e.id!r} is not unique"))
        seen_e.add(e.id)
        try:
            spec = e.spec
        except KeyError:
            out.append(Violation("unknown-kind", e.id, f"unknown entity kind {e.kind!r}"))
            continue
        by_id[e.id] = e
        if spec.dimension != model.dimension:
            out.append(Violation(
                "dimension-mismatch", e.id,
                f"{e.kind} is a {spec.dimension}D kind in a {model.dimension}D model"))
        if e.params is not None and len(e.params) != spec.raw_size:
            out.append(Violation(
                "bad-params-length", e.id,
                f"{e.kind} expects {spec.raw_size} parameters, got {len(e.params)}"))
        if e.params is not None and not all(map(math.isfinite, e.params)):
            out.append(Violation("non-finite", e.id, f"parameters must be finite, got {list(e.params)}"))

    seen_c: set[str] = set()
    seen_payload: set[tuple] = set()
    for c in model.constraints:
        if c.id in seen_c:
            out.append(Violation("duplicate-constraint-id", c.id, f"constraint id {c.id!r} is not unique"))
        seen_c.add(c.id)
        spec = CONSTRAINT_KINDS.get(c.kind)
        if spec is None:
            out.append(Violation("unknown-kind", c.id, f"unknown constraint kind {c.kind!r}"))
            continue
        sigs = spec.signatures.get(model.dimension)
        if sigs is None:
            out.append(Violation("dimension-mismatch", c.id,
                                 f"{c.kind} is not defined in {model.dimension}D"))
            continue
        missing = [eid for eid in c.entities if eid not in by_id]
        for eid in missing:
            out.append(Violation("unresolved-reference", c.id, f"references unknown entity {eid!r}"))
        if missing:
            continue
        if len(set(c.entities)) < len(c.entities):
            out.append(Violation("repeated-entity", c.id, f"names an entity twice: {list(c.entities)}"))
        tags = tuple(by_id[eid].kind for eid in c.entities)
        if tags not in sigs:
            out.append(Violation("bad-signature", c.id,
                                 f"{c.kind} does not accept entities of kinds {tags}"))
        if spec.has_value:
            if c.value is None:
                out.append(Violation("missing-value", c.id, f"{c.kind} requires a parameter value"))
            elif not math.isfinite(c.value):
                out.append(Violation("non-finite", c.id, f"value must be finite, got {c.value}"))
            elif spec.value_kind == "distance" and not c.value > 0.0:
                out.append(Violation("zero-distance", c.id,
                                     "distance must be > 0; use coincident for zero distance"))
            elif spec.value_kind == "angle" and not 0.0 < c.value < math.pi:
                out.append(Violation("bad-angle", c.id, "angle must lie in (0, pi)"))
        elif c.value is not None:
            out.append(Violation("unexpected-value", c.id, f"{c.kind} takes no parameter value"))
        if c.kind == "fix":
            ent = by_id[c.entities[0]]
            if ent.params is None:
                out.append(Violation("missing-params", c.id,
                                     f"fix needs target coordinates on entity {ent.id!r}"))
        payload = (c.kind, frozenset(c.entities), c.value)
        if payload in seen_payload:
            out.append(Violation("duplicate-constraint", c.id,
                                 f"duplicate ({c.kind}, {sorted(c.entities)}, {c.value})"))
        seen_payload.add(payload)
    return out


# JSON wire format (bit-exact contract, see README):
# {"dimension": 2|3,
#  "entities": [{"id", "kind", "params"?, "representation"?}],
#  "constraints": [{"id", "kind", "entities": [...], "value"?}]}

def model_to_json_dict(m: Model) -> dict:
    ents = []
    for e in m.entities:
        d: dict = {"id": e.id, "kind": e.kind}
        if e.representation is not None:
            d["representation"] = e.representation
        if e.params is not None:
            d["params"] = list(e.params)
        ents.append(d)
    cons = []
    for c in m.constraints:
        d = {"id": c.id, "kind": c.kind, "entities": list(c.entities)}
        if c.value is not None:
            d["value"] = c.value
        cons.append(d)
    return {"dimension": m.dimension, "entities": ents, "constraints": cons}


def model_from_json_dict(data: Mapping) -> Model:
    ents = tuple(
        Entity(
            id=str(e["id"]),
            kind=str(e["kind"]),
            params=tuple(float(v) for v in e["params"]) if "params" in e else None,
            representation=e.get("representation"),
        )
        for e in data["entities"]
    )
    cons = tuple(
        Constraint(
            id=str(c["id"]),
            kind=str(c["kind"]),
            entities=tuple(str(x) for x in c["entities"]),
            value=float(c["value"]) if "value" in c else None,
        )
        for c in data["constraints"]
    )
    return Model(int(data["dimension"]), ents, cons)


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json_dict(json.load(fh))


def save_model(m: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")
