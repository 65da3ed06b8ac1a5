"""Cluster decomposition of well-constrained systems and recombination.

Bottom-up: seed clusters are single entities and entity pairs whose induced
subsystem is already rigid (point pairs under a distance, a point on a line,
two lines under an angle, two fixed points, ...) and whose induced constraints
name both entities.  Two merge rules apply, both validated against the witness
engine so non-rigid unions (three lines under three angles) are rejected:

* two clusters sharing two or more elements merge into one,
* three clusters pairwise sharing a geometric element merge into one.

The rigidity decisions are those of :func:`detect.well_parts` at the
witness, whose records are the clusters' bodies (:class:`bodies.Bodies`);
one call of it decides the seeds.  Every cluster is well, so without a
``fix`` it moves only as one rigid body, and a candidate union is decided
on its clusters' body coefficients: D per cluster, pinned together on the
shared entities and held by the rows no cluster holds, a matrix of at most
3D columns whatever the union's size.  A union's rows, constraints and
motion rank come from its clusters, kept per run by node, and from those
extra rows, which each name an entity outside the largest cluster; so a
check costs what the smaller clusters hold.  A union with a fixed cluster,
or whose matrix has a singular value within ``RANK_GAP`` of the threshold,
is decided by :func:`detect.well_parts` itself.  Where the witness sample
records that its vote found the Jacobian's rows independent with margin,
every induced block has full row rank, and the seeds and unions are decided
by counting rows and columns against motion ranks, without that matrix.

Candidate groups wait in a priority queue and are tested in a fixed order:
smallest union first, then fewer clusters, then lexicographic (sorted union,
then sorted member sets).  A rigidity check reads only the group's union,
so each union is tested at most once: a group enters the queue when its
newest cluster is created, a group whose union was found not rigid is
dropped, and so is a group whose union a live cluster covers.  The loop ends
when the queue is empty.

A successful merge rewrites the cluster set (Hoffmann, Lomonosov and Sitharam,
"Decomposition plans for geometric constraint systems", 2001): it retires
every cluster its union covers, and a queued group that holds a retired
cluster is dropped.  This is exact where no row is dependent: if X is part of
a rigid M and X + Y + Z is rigid, M + Y + Z is rigid, so the merge the
retired X would have made is made with M.  The guard keeps over-constrained
regions as they were: a merge whose union holds an entity of a constraint
whose witness Jacobian rows take part in a row dependency (a dependent row
group that the witness vote names) retires nothing.  So bottom-up makes a
linear number of rigidity checks on constructible sketches, and outside
guarded regions every node has one parent.  A merge finds the clusters it
retires among those holding an entity outside its largest child.  A merge's
children are ordered by the leaf their first-child descent reaches, earliest
created first; recombination takes its frame from the first child, so that
leaf fixes the frame.  The redundant or conflicting constraints
are those whose rows take part in a row dependency of the witness Jacobian
(the dependent groups that ``check`` reports), plus those no root holds.
Every check reads one witness sample, and the dependent groups come only
from the vote that drew it: :func:`bottom_up_at` takes both from the caller
(``gcs decompose`` hands over the verdict's first vote), and
:func:`bottom_up` from a one-vote :func:`witness.characterize` at its seed.

Top-down (2D point/distance scope): a node splits at the lexicographically
first separation pair (a, b), whose removal disconnects its constraint graph.
One triconnected decomposition of a 2-connected node (Hopcroft and Tarjan's
path search, :func:`structural.triconnectivity`) yields every pair in linear
time.  When a 2-connected node splits at (a, b), a child that holds the edge
ab, or a virtual bond in its place, has exactly the node's pairs inside it,
minus (a, b); so children inherit their pairs, and only a child of a node
with a cut vertex, or one with neither, is decomposed anew.  A node that is
not 2-connected gets only its first pair, from at most two searches of its
graph, so a chain of blocks is decomposed once per level.  Each child comes
from a search that stops once only the largest piece is left, which keeps
the node's graph.  The pair is duplicated into each side, and a child that
cannot fix the pair's separation on its own receives a virtual distance bond
whose value is measured from the first solved sibling.  Splitting goes on
until triangles (or irreducible cores) remain; a node of k <= 3 points with
fewer than 2k - 3 rows (constraints and bonds) is labelled ``under``.  The
solve order is the reverse of the split order.

Recombination builds clusters instead of solving them where it can (Owen,
"Algebraic solution for geometry from dimensional constraints", 1991; Fudos
and Hoffmann, "A graph-constructive approach to solving systems of
geometric constraints", 1997).  The model is compiled and its sketch read
once.  As in Hoffmann, Lomonosov and Sitharam's plans, recombination is a
schedule and its numerical execution: one pass over the tree records, from
the tree, the model and the system alone, how each leaf is built, how each
merge places its children and which of its rows it leaves open; a sweep
then does only the arithmetic, in schedule order.  A leaf of two points
and one distance row, or of three points and three (constraints or
virtual bonds; no fix), is constructed in the frame its anchors would pin:
its first point in column order
(:func:`compiler.points_of`) at the origin, the second on the +x axis, the
third by circle intersection on the side the sketch puts it.  It derives
no system and takes no Newton step.  Any other leaf, and one whose
construction fails (a zero base, circles that do not meet), solves a
row/column slice of the system (:func:`numeric.solve`): the rows of its
constraints and entity normalizations, plus its virtual bonds and anchors,
over its entities' columns, from the sketch re-expressed in the frame the
anchors pin, so the solution keeps the sketch's chirality.

Each cluster keeps its solution in its own frame.  A merge fits each later
child's placement, a rigid motion into the first child's frame, on the
first two of its points that an earlier child placed (points in column
order); ternary one-point merges get their closure point from the
two-circle construction, with the mirror branch picked by the orientation
of the sketch.  An entity takes the coordinates of the first placed child
that holds it.  Fits and moves are plain float arithmetic.  A merge keeps
its children's bodies and placements, and computes the coordinates of only
the entities it and its ancestors read, so it costs what its shared
entities and open rows name, not its size.  A child's solution holds its
rows and a rigid motion keeps every row but a fix's, so placement can leave
off only the node's open rows: its constraints that no child holds, those
that name an entity two or more children share, every fix, and the
normalizations of the shared entities.  One sweep places every node and
records each merge's open rows with the node's coordinates of the entities
they name; after it, one evaluation (:func:`compiler.eval_blocks`) computes
every recorded row at its own node's coordinates.  Only when one exceeds
the tolerance does the sweep run again on the same schedule with a check at
each merge, the same evaluation of its rows alone, which re-solves the
node's slice from the placement where a row fails; a leaf whose virtual
bond values are unchanged keeps its body.
Merges that share no points re-solve from the sketch.  Each entity's final
coordinates are written once, by composing placements from the root, and
the final certificate evaluates every row.  A tree whose root leaves an
entity free is refused.  Trees are walked with explicit stacks, so no depth
reaches the recursion limit.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import geometry, structural
from .bodies import Bodies
from .compiler import (
    ResidualSystem,
    add_anchors,
    add_constraints,
    assignment_from_params,
    compile_model,
    eval_blocks,
    eval_residuals,
    params_from_assignment,
    points_of,
    row_count,
    rows_of,
)
from .detect import WellPart, well_parts
from .model import Constraint, Entity, Model, POINT2
from .numeric import RANK_REL_TOL, RESIDUAL_TOL, SolveResult, solve
from .witness import WitnessConfiguration, WitnessError, characterize

ALIGN_TOL = 1e-6


class DecompositionError(RuntimeError):
    pass


class AlignmentError(RuntimeError):
    pass


@dataclass(frozen=True)
class ClusterNode:
    node_id: int
    kind: str  # seed | merge | split | triangle | under | irreducible
    entities: frozenset[str]
    constraints: frozenset[str]
    children: tuple["ClusterNode", ...] = ()
    shared: tuple[tuple[str, ...], ...] = ()   # shared entity sets between children
    pair: tuple[str, str] | None = None        # separation pair of a split node
    virtual_bonds: tuple[tuple[str, str], ...] = ()  # bonds this node must honor

    def to_json_dict(self) -> dict:
        # an explicit stack: a tree may be deeper than the recursion limit
        out: dict = {}
        stack = [(self, out)]
        while stack:
            node, d = stack.pop()
            d.update(id=node.node_id, kind=node.kind, entities=sorted(node.entities),
                     constraints=sorted(node.constraints))
            if node.pair:
                d["pair"] = list(node.pair)
            if node.virtual_bonds:
                d["virtualBonds"] = [list(b) for b in node.virtual_bonds]
            if node.shared:
                d["shared"] = [sorted(s) for s in node.shared]
            if node.children:
                d["children"] = [{} for _ in node.children]
                stack.extend(zip(node.children, d["children"]))
        return out


@dataclass(frozen=True)
class ClusterTree:
    strategy: str
    roots: tuple[ClusterNode, ...]
    redundant_constraints: tuple[str, ...]
    free_entities: tuple[str, ...]

    @property
    def assembled(self) -> bool:
        return len(self.roots) == 1

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "roots": [r.to_json_dict() for r in self.roots],
            "redundantOrConflicting": sorted(self.redundant_constraints),
            "freeEntities": sorted(self.free_entities),
        }


@dataclass(frozen=True)
class Placement:
    """A child's rigid transform into its parent's frame; ``entities`` is the child's entity set."""
    node_id: int
    entities: frozenset[str]
    rotation: np.ndarray
    translation: np.ndarray


@dataclass(frozen=True)
class RecombinePlan:
    placements: tuple[Placement, ...]


# ---------------------------------------------------------------------------
# bottom-up clustering


def bottom_up(model: Model, seed: int = 0, rank_tol: float = RANK_REL_TOL,
              system: ResidualSystem | None = None) -> ClusterTree:
    """:func:`bottom_up_at` the witness of a one-vote :func:`characterize`
    at ``seed``, and that vote's dependent groups.  ``system`` is the
    compiled ``model`` when the caller has it; it is compiled here otherwise.
    A failed draw raises :class:`DecompositionError`."""
    if system is None:
        system = compile_model(model)
    try:
        report = characterize(system, model, seed=seed, votes=1, rank_tol=rank_tol)
    except WitnessError as err:
        raise DecompositionError(f"cannot build a witness for merge checks: {err}")
    return bottom_up_at(model, system, report.witness, report.dependent_groups, rank_tol)


def bottom_up_at(model: Model, system: ResidualSystem, witness: WitnessConfiguration,
                 dependent_groups: Sequence[Sequence[int]],
                 rank_tol: float = RANK_REL_TOL) -> ClusterTree:
    """Merge rigid seed clusters into a cluster forest (partial trees allowed).

    Every rigidity check takes ``witness``, a sample of the compiled
    ``model`` ``system``, as it is.
    Merge candidates are tested smallest union first, then fewer clusters,
    then lexicographically; each union is tested at most once.  A merged
    cluster retires the clusters its union covers and queues the candidate
    groups it completes; queued groups that hold a retired cluster are
    dropped.  A merge whose union holds an entity of a constraint in a row
    dependency of the witness Jacobian retires nothing.  Merge children are
    ordered by the leaf their first-child descent reaches, earliest created
    first.  The constraints in a ``dependent_groups`` row group of the
    witness Jacobian (as the vote that drew ``witness`` names them), and
    those no root holds, are flagged redundant or conflicting.
    ``rank_tol`` is the relative SVD threshold of every rank decision.
    Where the vote found the rows of the witness Jacobian independent with
    margin (the flag is True), the seeds and unions are decided by counting
    and motion ranks alone.
    """
    bodies = Bodies(model, system, witness, rank_tol)
    # the constraints whose rows take part in a row dependency of J; where
    # there is none, a rigid union stays rigid when a cluster it covers part
    # of is swapped for its cover, so covered clusters retire
    dependent = {system.residuals[r].source for g in dependent_groups
                 for r in g if system.residuals[r].kind == "constraint"}
    ids = sorted(e.id for e in model.entities)
    guarded = frozenset(e for cid in dependent for e in model.constraint(cid).entities)

    # per-run state of each live or retired node, by node id: its body and
    # its sorted entities (the queue key's part)
    body_of: dict[int, WellPart] = {}
    names: dict[int, tuple[str, ...]] = {}

    def new_node(kind, body, children=(), shared=()):
        node = ClusterNode(len(body_of) + 1, kind, body.entities, body.constraints,
                           tuple(children), tuple(shared))
        body_of[node.node_id] = body
        names[node.node_id] = tuple(sorted(body.entities))
        return node

    def lead(node: ClusterNode) -> int:
        # the leaf a decomposed solve takes the node's frame from
        while node.children:
            node = node.children[0]
        return node.node_id

    active: dict[int, ClusterNode] = {}  # live clusters by id, in creation order
    holders: dict[str, dict[int, ClusterNode]] = {}  # entity -> live clusters holding it
    queue: list[tuple[tuple, frozenset[str], tuple[ClusterNode, ...]]] = []
    rejected: set[frozenset[str]] = set()  # unions found not rigid

    def covered(union: frozenset[str]) -> bool:
        return any(union <= c.entities for c in holders[next(iter(union))].values())

    def push(group: tuple[ClusterNode, ...]) -> None:
        union = frozenset().union(*(c.entities for c in group))
        if covered(union) or union in rejected:
            return  # nothing new, now or later
        # no two clusters share an entity set, so the key orders groups totally
        key = (len(union), len(group), tuple(sorted(union)),
               tuple(sorted(names[c.node_id] for c in group)))
        heapq.heappush(queue, (key, union, group))

    def add(node: ClusterNode) -> None:
        # queue every group whose newest member is node, members in creation order
        overlap = Counter(i for e in node.entities for i in holders.get(e, ()))
        near = [active[i] for i in sorted(overlap)]
        active[node.node_id] = node
        for e in node.entities:
            holders.setdefault(e, {})[node.node_id] = node
        for c in near:
            if overlap[c.node_id] >= 2:
                push((c, node))
        for i, c1 in enumerate(near):
            for c2 in near[i + 1:]:
                if c1.entities & c2.entities:
                    push((c1, c2, node))

    def retire(node: ClusterNode) -> None:
        del active[node.node_id]
        for e in node.entities:
            del holders[e][node.node_id]

    # a single seed needs a constraint on its entity alone; a pair seed needs
    # its induced constraints to name both of its entities: one constraint on
    # the pair, or one on each entity alone
    spans = {frozenset(c.entities) for c in model.constraints}
    alone = [e for e in ids if frozenset((e,)) in spans]
    pairs = {tuple(sorted(s)) for s in spans if len(s) == 2}
    candidates = [(e,) for e in alone] + sorted(pairs.union(combinations(alone, 2)))
    for body in well_parts(model, system, witness, candidates, rank_tol):
        if body is not None:
            add(new_node("seed", body))

    while queue:
        _, union, group = heapq.heappop(queue)
        # a retired member's cover queued the group's successor when it was added
        if any(c.node_id not in active for c in group) or covered(union) or union in rejected:
            continue
        body = bodies.union([body_of[c.node_id] for c in group], union)
        if body is None:
            rejected.add(union)
        else:
            children = sorted(group, key=lead)
            shared = tuple(
                tuple(sorted(p.entities & q.entities))
                for p, q in combinations(children, 2))
            node = new_node("merge", body, children=children, shared=shared)
            if not union & guarded:
                # a live cluster inside the union is its largest child or
                # holds an entity outside it: a merge child retired every
                # cluster inside it when it was built (its union is
                # unguarded too), and none is built inside a live cluster
                # later.  Seeds retire nothing, so a largest seed (a pair,
                # which may hold a single seed) is scanned whole
                largest = max(group, key=lambda c: len(c.entities))
                scan = union - largest.entities if largest.children else union
                inside = {i: c for e in scan for i, c in holders[e].items()
                          if c.entities <= union}
                inside[largest.node_id] = largest
                for c in inside.values():
                    retire(c)
            add(node)

    maximal = [
        c for c in active.values()
        if not any(c is not o and c.entities < o.entities for o in active.values())
    ]
    roots = tuple(sorted(maximal, key=lambda c: (-len(c.entities), sorted(c.entities))))
    covered_e = frozenset().union(*(r.entities for r in roots)) if roots else frozenset()
    covered_c = frozenset().union(*(r.constraints for r in roots)) if roots else frozenset()
    free = tuple(sorted(set(ids) - covered_e))
    leftover = {c.id for c in model.constraints} - covered_c
    return ClusterTree("bottom-up", roots, tuple(sorted(dependent | leftover)), free)


# ---------------------------------------------------------------------------
# top-down splitting


@dataclass
class _Part:
    """A top-down node's constraint graph: entities, neighbours with the edges
    to each, constraint ids, edge count, a heap of entity ranks, and the
    separation pairs it inherits with its heap of them."""
    verts: set[str]
    adj: dict[str, dict[str, list[int]]]
    cons: set[str]
    n_edges: int
    ranks: list[int]
    pairs: tuple[structural.SeparationPairs, list] | None = None


def top_down(model: Model) -> ClusterTree:
    """Separation-pair splitting of a 2D point/distance model.

    A node splits at its lexicographically first separation pair (a, b).
    The pairs come from one triconnected decomposition that the descendants
    inherit (:class:`structural.SeparationPairs`); only the root, a child of
    a node with a cut vertex, and a child that holds neither the edge ab nor
    a bond for it are decomposed anew.  A node that is not 2-connected has
    only its first pair found (:func:`structural.triconnectivity`), at the
    cost of at most two linear searches.  A node of k <= 3 entities is a
    triangle when it holds at least 2k - 3 rows (constraints and virtual
    bonds), and under-constrained (kind ``under``) otherwise; a larger node
    without a pair is irreducible.  A model without entities has no roots.
    """
    if model.dimension != 2 or any(e.kind != POINT2 for e in model.entities):
        raise DecompositionError("top-down splitting covers the 2D point/distance scope")
    for c in model.constraints:
        if c.kind != "distance-pp":
            raise DecompositionError(
                f"top-down splitting covers the 2D point/distance scope; "
                f"{c.id!r} has kind {c.kind!r}")
    if not model.entities:
        return ClusterTree("top-down", (), (), ())

    motions = geometry.generator_count(model.dimension)
    counter = [0]
    names = sorted(e.id for e in model.entities)
    rank = {e: i for i, e in enumerate(names)}
    labels: list[str | None] = [c.id for c in model.constraints]  # None: a virtual bond

    def new_node(kind, entities, constraints, children=(), pair=None, bonds=()):
        counter[0] += 1
        return ClusterNode(
            counter[0], kind, frozenset(entities), frozenset(constraints),
            tuple(children), pair=pair, virtual_bonds=tuple(bonds))

    def join(part: _Part, a: str, b: str, edges: list[int]) -> None:
        # give the node the edges between a and b
        part.adj[a][b] = part.adj[b][a] = edges
        part.n_edges += len(edges)
        part.cons.update(labels[k] for k in edges if labels[k] is not None)

    def bonds_of(part: _Part) -> list[tuple[str, str]]:
        # a node's virtual bonds, oldest first
        return [pair for _, pair in sorted(
            (k, (a, b)) for a, nbrs in part.adj.items() for b, edges in nbrs.items()
            if rank[a] < rank[b] for k in edges if labels[k] is None)]

    def least(part: _Part, a: str, b: str) -> int:
        # the first rank among the node's entities other than a and b
        heap, held = part.ranks, []
        while names[heap[0]] not in part.verts or names[heap[0]] in (a, b):
            r = heapq.heappop(heap)
            if names[r] in part.verts:
                held.append(r)
        r = heap[0]
        for h in held:
            heapq.heappush(heap, h)
        return r

    def split(part: _Part, a: str, b: str, loose: Sequence[str]) -> tuple:
        # the node's entities, constraints, pair and bonds, and its children's
        # graphs in solve order: the pieces of the graph minus a and b, each
        # with a and b; the largest keeps the node's graph
        entities, cons = frozenset(part.verts), frozenset(part.cons)
        inherited = part.pairs
        # each piece touches a or b, or holds a vertex of ``loose`` (one per
        # component); in a 2-connected graph it touches both
        ends = [min(a, b, key=lambda e: len(part.adj[e]))] if inherited else [a, b]
        done, growing = structural.pieces_apart(part.adj, a, b, [
            w for w in [*loose, *(w for e in ends for w in part.adj[e])] if w != a and w != b])
        ab = part.adj[a].pop(b, [])
        part.adj[b].pop(a, None)
        part.n_edges -= len(ab)
        part.cons.difference_update(labels[k] for k in ab)
        children = []   # (first rank, members unless the largest piece, graph)
        for members, adj, edges in done:
            own = {labels[k] for k in edges} - {None}
            part.verts.difference_update(members)
            part.n_edges -= len(edges)
            part.cons -= own
            verts = {a, b, *members}
            children.append((min(map(rank.__getitem__, members)), members, _Part(
                verts, adj, own, len(edges), sorted(map(rank.__getitem__, verts)))))
        if growing:
            children.append((least(part, a, b), None, part))
        children.sort(key=lambda c: c[0])
        first = children[0][2]
        if ab:
            join(first, a, b, ab)
        jobs = []
        for r, members, child in children:
            holds = child is first and bool(ab)
            needs_bond = 2 * len(child.verts) - child.n_edges > motions and not holds
            if needs_bond:
                labels.append(None)
                join(child, a, b, [len(labels) - 1])
            if not (inherited and (holds or needs_bond)):
                child.pairs = None
            elif members is not None and len(child.verts) > 3:
                child.pairs = (inherited[0], inherited[0].heap(set(members), child.verts))
            jobs.append((needs_bond, r, child))
        # bond-free children solve first; they fix the pair's separation
        jobs.sort(key=lambda j: j[:2])
        return (entities, cons, (a, b), [(a, b) for needs_bond, _, _ in jobs if needs_bond],
                [child for _, _, child in jobs])

    def expand(part: _Part) -> ClusterNode | tuple:
        """The leaf node of ``part``, or its split with its children still to build."""
        if len(part.verts) <= 3:
            kind = "triangle" if part.n_edges >= 2 * len(part.verts) - motions else "under"
            return new_node(kind, part.verts, part.cons, bonds=bonds_of(part))
        loose: Sequence[str] = ()
        if part.pairs:
            pair = part.pairs[0].pop(part.pairs[1], part.verts)
        else:
            tri = structural.triconnectivity(sorted(part.verts, key=rank.__getitem__), [
                (a, b) for a in part.adj for b in part.adj[a] if rank[a] < rank[b]])
            if tri.biconnected:
                found = structural.SeparationPairs(tri, rank)
                part.pairs = (found, found.heap(part.verts, part.verts))
                pair = found.pop(part.pairs[1], part.verts)
            else:
                pair, loose = tri.first, tri.roots
        if pair is None:
            return new_node("irreducible", part.verts, part.cons, bonds=bonds_of(part))
        return split(part, *pair, loose)

    adj: dict[str, dict[str, list[int]]] = {e: {} for e in names}
    for k, c in enumerate(model.constraints):
        a, b = c.entities
        adj[b][a] = adj[a].setdefault(b, [])
        adj[a][b].append(k)
    # depth first with an explicit stack of (split, its children so far),
    # children in job order; a split node is numbered after its children
    top = expand(_Part(set(names), adj, set(labels), len(labels), list(range(len(names)))))
    stack = [(top, [])] if isinstance(top, tuple) else []
    while stack:
        (entities, cons, pair, bonds, jobs), children = stack[-1]
        if len(children) < len(jobs):
            item = expand(jobs[len(children)])
            if isinstance(item, tuple):
                stack.append((item, []))
            else:
                children.append(item)
            continue
        stack.pop()
        top = new_node("split", entities, cons, children=children, pair=pair, bonds=bonds)
        if stack:
            stack[-1][1].append(top)
    return ClusterTree("top-down", (top,), (), ())


# ---------------------------------------------------------------------------
# recombination


class _Motion(NamedTuple):
    """A rigid motion of the plane: the rotation (c, s) = (cos, sin) of its
    angle, then the translation (tx, ty)."""
    c: float
    s: float
    tx: float
    ty: float

    def after(self, inner: "_Motion") -> "_Motion":
        """This motion after ``inner``.  The rotation is rebuilt from its
        angle, so a chain of compositions stays orthonormal to rounding."""
        c, s = self.c, self.s
        angle = math.atan2(s * inner.c + c * inner.s, c * inner.c - s * inner.s)
        return _Motion(math.cos(angle), math.sin(angle),
                       c * inner.tx - s * inner.ty + self.tx, s * inner.tx + c * inner.ty + self.ty)

    def apply_point(self, x: float, y: float) -> tuple[float, float]:
        return (self.c * x - self.s * y + self.tx, self.s * x + self.c * y + self.ty)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The rotation matrix and the translation vector."""
        c, s = self.c, self.s
        return np.array((c, -s, s, c)).reshape(2, 2), np.array((self.tx, self.ty))

    def apply(self, entity: Entity, params: Sequence[float]) -> tuple[float, ...]:
        """The entity's parameters moved by this motion (a point in plain
        floats, which recombination does for every placed entity)."""
        if entity.kind == POINT2:
            return self.apply_point(*params)
        R = np.array([[self.c, -self.s], [self.s, self.c]])
        return tuple(geometry.apply_rigid(entity, params, R, (self.tx, self.ty)).tolist())


_IDENTITY = _Motion(1.0, 0.0, 0.0, 0.0)
_EYE, _ZERO = np.eye(2), np.zeros(2)  # the first child's placement, copied for each


@dataclass
class _Body:
    """A solved cluster in its own frame.

    A leaf, and a node solved as one slice, is solid: ``coords`` holds every
    entity's parameters.  A placed node keeps ``parts``, its children's
    bodies with their placements, in placement order, and ``coords`` only
    for the entities its ancestors and its open rows read."""
    coords: dict[str, tuple[float, ...]]
    parts: tuple[tuple["_Body", _Motion], ...] = ()

    def params(self, model: Model) -> dict[str, tuple[float, ...]]:
        """Every entity's parameters in this frame, each from the first
        placed child that holds it, composing placements down to the solid
        bodies."""
        out: dict[str, tuple[float, ...]] = {}
        stack = [(self, _IDENTITY)]
        while stack:
            body, motion = stack.pop()
            if body.parts:
                stack.extend((part, motion.after(move)) for part, move in reversed(body.parts))
                continue
            for eid, params in body.coords.items():
                if eid not in out:
                    out[eid] = motion.apply(model.entity(eid), params)
        return out


def _entity_params(system: ResidualSystem, x: np.ndarray,
                   entity_ids: Iterable[str]) -> dict[str, tuple[float, ...]]:
    return {eid: tuple(x[system.entity_slice(eid)].tolist()) for eid in entity_ids}


def _moved(model: Model, system: ResidualSystem, x: np.ndarray,
           entity_ids: Iterable[str], R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A copy of ``x`` with the columns of ``entity_ids`` moved by (R, t)."""
    out = x.copy()
    for eid in entity_ids:
        cols = system.entity_slice(eid)
        out[cols] = geometry.apply_rigid(model.entity(eid), x[cols], R, t)
    return out


def _fit(placed: Mapping[str, Sequence[float]], child: Mapping[str, Sequence[float]],
         shared_points: Sequence[str]) -> _Motion:
    """The rigid motion that maps a child's shared points, given in its own
    frame, onto their placed copies; :class:`AlignmentError` when one is off
    by more than ``ALIGN_TOL`` after the best fit."""
    source = [child[p] for p in shared_points]
    target = [placed[p] for p in shared_points]
    motion = _Motion(*geometry.fit_rigid_2d_floats(source, target))
    for eid, (ax, ay), (bx, by) in zip(shared_points, source, target):
        mx, my = motion.apply_point(ax, ay)
        err = max(abs(mx - bx), abs(my - by))
        if err > ALIGN_TOL:
            raise AlignmentError(
                f"shared entity {eid!r} disagrees by {err:.3e} after alignment")
    return motion


def _circle_intersection(ca: Sequence[float], ra: float, cb: Sequence[float], rb: float,
                         orientation: float) -> tuple[float, float]:
    """The point at distance ``ra`` from ``ca`` and ``rb`` from ``cb`` on the
    left of ca -> cb when ``orientation`` >= 0, else on the right."""
    ux, uy = cb[0] - ca[0], cb[1] - ca[1]
    d = math.hypot(ux, uy)
    if d < 1e-12 or d > ra + rb + 1e-9 or d < abs(ra - rb) - 1e-9:
        raise AlignmentError("closure circles do not intersect")
    ux, uy = ux / d, uy / d
    along = (ra * ra - rb * rb + d * d) / (2.0 * d)
    h = math.sqrt(max(ra * ra - along * along, 0.0))
    if orientation < 0.0:
        h = -h
    return (ca[0] + along * ux - h * uy, ca[1] + along * uy + h * ux)


def _sketch_orientation(model: Model, p: str, q: str, r: str) -> float:
    (ax, ay), (bx, by), (cx, cy) = (model.entity(e).params[:2] for e in (p, q, r))
    return float((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def _solve_cluster(system: ResidualSystem, solve_sys: ResidualSystem, node: ClusterNode,
                   start: np.ndarray, max_iter: int, tol: float) -> np.ndarray:
    """Solve the node's row/column slice of the compiled model from ``start``.

    Rows, selected from ``solve_sys``: the node's constraints, the
    normalizations of its entities, then the rows ``solve_sys`` appends to
    ``system`` (a leaf's virtual bonds and anchors).  Columns: the node's
    entities.  Every other column stays fixed.
    """
    rows = rows_of(system, node.constraints, node.entities)
    rows += range(system.n_residuals, solve_sys.n_residuals)
    result = solve(solve_sys.select(rows), start, max_iter=max_iter, tol=tol,
                   cols=system.columns_of(node.entities))
    if not result.converged:
        raise DecompositionError(
            f"{'subsystem' if node.children else 'cluster'} {sorted(node.entities)} "
            f"failed to solve: {result.status}")
    return result.assignment


class _Leaf(NamedTuple):
    """A leaf's recipe.

    A constructible leaf (two points and one distance row, or three points
    and three) lists its ``points`` in column order, and for each pair of
    them, (p0, p1) and then (p0, p2) and (p1, p2), the |value| of its
    distance constraint; ``bonded`` names the pairs whose length is a
    virtual bond's instead, as (pair, bond), the bond by its index in the
    node's ``virtual_bonds``.  ``orientation`` is the sketch's orientation
    of the triangle.  ``points`` is empty for a leaf that is solved.
    ``measures`` is the separation pair the leaf's body fixes, or None."""
    node: ClusterNode
    points: tuple[str, ...] = ()
    lengths: tuple[float, ...] = ()
    bonded: tuple[tuple[int, int], ...] = ()
    orientation: float = 0.0
    measures: tuple[str, str] | None = None


class _Merge(NamedTuple):
    """A merge's recipe.

    ``steps`` places its children in order, each step as (child, on,
    closure, points, others).  The first child keeps its frame (``on`` is
    empty); a later one is fitted on the two points ``on``, and a ternary
    one-point closure fits it on its anchor and on q, which ``closure`` =
    (r, the other pending child, the sketch's orientation) places by circle
    intersection from the placed point r.  ``points`` and ``others`` are the
    entities whose coordinates the node's body keeps and that the child
    places first: the points by id, the others as entities.  The node
    re-solves from the sketch unless it is ``complete``.  ``rows`` are its
    open rows and ``named`` the entities they name; ``measures`` is the
    separation pair its body fixes, or None."""
    node: ClusterNode
    steps: tuple[tuple, ...]
    complete: bool
    rows: list[int]
    named: tuple[str, ...]
    measures: tuple[str, str] | None


_PAIRS = ((0, 1), (0, 2), (1, 2))


def _leaf_recipe(model: Model, system: ResidualSystem, node: ClusterNode,
                 point_ids: frozenset[str], measures: tuple[str, str] | None) -> _Leaf:
    """The recipe of a leaf: constructible when it holds two 2D points and one
    distance row, or three and three (constraints and virtual bonds, one to
    each pair), else solved.  ``point_ids`` lists the model's 2D points."""
    n_rows = len(node.constraints) + len(node.virtual_bonds)
    if ((len(node.entities), n_rows) not in ((2, 1), (3, 3))
            or not point_ids.issuperset(node.entities)):
        return _Leaf(node, measures=measures)
    points = sorted(node.entities, key=system.columns.__getitem__)  # column order
    # the pair of points i < j is _PAIRS[i + j - 1]
    rank = {p: k for k, p in enumerate(points)}
    lengths: list[float | None] = [None] * n_rows
    bonded = []
    for c in map(model.constraint, node.constraints):
        k = rank[c.entities[0]] + rank[c.entities[1]] - 1 if c.kind == "distance-pp" else None
        if k is None or lengths[k] is not None:
            return _Leaf(node, measures=measures)
        lengths[k] = abs(c.value)
    for j, (a, b) in enumerate(node.virtual_bonds):
        k = rank[a] + rank[b] - 1
        if lengths[k] is not None:
            return _Leaf(node, measures=measures)
        lengths[k] = 0.0
        bonded.append((k, j))
    orientation = _sketch_orientation(model, *points) if n_rows == 3 else 0.0
    return _Leaf(node, tuple(points), tuple(lengths), tuple(bonded), orientation, measures)


def _merge_recipe(model: Model, system: ResidualSystem, node: ClusterNode,
                  exposed: Iterable[str], fixes: Sequence[str], point_ids: frozenset[str],
                  measures: tuple[str, str] | None) -> tuple[_Merge, list[list[str]]]:
    """The recipe of a merge whose parent reads the entities ``exposed`` from
    its body, and the entities it reads from each child's body.  ``fixes``
    and ``point_ids`` list the model's fixes and 2D points.

    Its open rows are the rows placing its solved children can leave off.
    Each child's solution holds the child's rows, and a rigid motion keeps
    every row but a fix's.  So these are the rows of the node's constraints
    that no child holds, of those that name an entity two or more children
    share (it takes the coordinates of the child placed first), of every fix
    (``fixes`` lists the model's), and the normalizations of the shared
    entities.  A constraint that names only entities of the largest child is
    held by a child (a bottom-up child holds every constraint it induces,
    and top-down hands each constraint of a node to one child), so only the
    constraints on the other children's entities are looked at.

    The first child keeps its frame.  Each later child is fitted on the
    first two of its shared points, in column order, that an earlier child
    placed; a ternary merge whose next child has one such point places it by
    a one-point closure.  A merge where neither applies is not complete: it
    re-solves from the sketch after placing what it can, and computes only
    the coordinates its fits read.  A complete merge's body keeps the
    coordinates of the exposed entities and of those its open rows name.
    """
    children = node.children
    constraints = node.constraints
    big = max(children, key=lambda child: len(child.entities))
    home: dict[str, ClusterNode | None] = {}  # an entity -> the child other than big
    for child in children:                    # that holds it, or None if two do
        if child is not big:
            for e in child.entities:
                home[e] = None if e in home else child
    shared = {e for e, child in home.items() if child is None or e in big.entities}
    check: dict[str, Constraint] = {}
    named = set(shared)
    for c in map(model.constraint, fixes):
        if c.id in constraints:
            check[c.id] = c
            named.update(c.entities)
    for eid, child in home.items():
        # a child holds only constraints on its own entities, so one on an
        # entity that only ``child`` holds is held if ``child`` holds it
        held = () if eid in shared else child.constraints
        for c in model.constraints_on(eid):
            cid = c.id
            if cid in constraints and cid not in held and cid not in check:
                check[cid] = c
                named.update(c.entities)
    points = sorted(point_ids.intersection(shared), key=system.columns.__getitem__)
    reads: list[list[str]] = [[] for _ in children]
    if node.pair:
        reads[0] += node.pair  # the first child's body fixes the pair's separation
    order = [(0, (), None)]  # each placed child, with its fit
    placed = children[0].entities.intersection(points)  # the shared points placed so far
    pending = list(range(1, len(children)))
    while pending:
        found = None
        for i in pending:
            held = children[i].entities
            on = [p for p in points if p in placed and p in held]
            if len(on) >= 2:
                found = i, (on[0], on[1]), None
            elif len(on) == 1 and len(children) == 3 and len(pending) == 2:
                # ternary one-point closure: the unknown shared point q comes
                # from the two known radii
                j = pending[0] + pending[1] - i  # the other pending child
                held_j = children[j].entities
                q = next((p for p in points if p in held and p in held_j and p not in placed),
                         None)
                r = next((p for p in points if p in held_j and p in placed), None)
                if q is None or r is None:
                    break  # the merge cannot complete
                reads[j] += (q, r)
                found = i, (on[0], q), (r, j, _sketch_orientation(model, on[0], r, q))
            else:
                continue
            break
        if found is None:
            break
        order.append(found)
        pending.remove(found[0])
        reads[found[0]] += found[1]
        placed = placed.union(children[found[0]].entities.intersection(points))
    # the entities whose coordinates placement computes: those the body keeps,
    # or, when the node re-solves, the shared points the fits read
    rest = set(points) if pending else named.union(exposed)
    steps = []
    for i, on, closure in order:
        mine = rest.intersection(children[i].entities)
        rest -= mine
        reads[i] += mine
        others = mine - point_ids
        if others:
            steps.append((i, on, closure, tuple(mine - others), tuple(map(model.entity, others))))
        else:
            steps.append((i, on, closure, tuple(mine), ()))
    merge = _Merge(node, tuple(steps), not pending, rows_of(system, check, shared),
                   tuple(named), measures)
    return merge, reads


def _schedule(model: Model, system: ResidualSystem, root: ClusterNode) -> list:
    """The recombination schedule of a tree: the recipe of every node, in the
    order the sweep builds them (children first, in order).

    One pass from the root hands each node the entities its parent reads
    from its body.  A tree with a leaf whose rows (constraints,
    normalizations and virtual bonds) are fewer than its columns minus its
    rigid motions is refused, naming the first such leaf breadth first.
    """
    fixes = [c.id for c in model.constraints if c.kind == "fix"]
    point_ids = frozenset(e.id for e in model.entities if e.kind == POINT2)
    motions = geometry.generator_count(model.dimension)
    recipes: list = []
    thin = set()  # the ids of the leaves with too few rows
    stack: list[tuple[ClusterNode, Iterable[str], tuple[str, str] | None]] = [(root, (), None)]
    while stack:
        node, exposed, measures = stack.pop()
        if not node.children:
            leaf = _leaf_recipe(model, system, node, point_ids, measures)
            # a constructible leaf has as many rows as columns minus motions
            if not leaf.points and row_count(system, node.constraints, node.entities) + len(
                    node.virtual_bonds) < len(system.columns_of(node.entities)) - motions:
                thin.add(id(node))
            recipes.append(leaf)
            continue
        merge, reads = _merge_recipe(model, system, node, exposed, fixes, point_ids, measures)
        recipes.append(merge)
        stack += zip(node.children, reads, [node.pair] + [None] * (len(reads) - 1))
    if thin:
        nodes = [root]
        for node in nodes:  # breadth first, as the list grows
            nodes += node.children
        node = next(node for node in nodes if id(node) in thin)
        raise DecompositionError(
            f"cluster {sorted(node.entities)} cannot be rigid: "
            f"{row_count(system, node.constraints, node.entities) + len(node.virtual_bonds)}"
            f" rows for {len(system.columns_of(node.entities))} columns")
    recipes.reverse()
    return recipes


def _construct_leaf(leaf: _Leaf, bonds: Sequence[float],
                    tol: float) -> dict[str, tuple[float, ...]] | None:
    """Ruler-and-compass coordinates of a constructible leaf, given the
    measured values of its virtual bonds.

    The leaf is placed in the frame its anchors would pin: its first point in
    column order at the origin, the second on the +x axis, and the third by
    circle intersection on the side the sketch puts it.  Returns None for a
    zero base, for circles that do not meet, and when a row is left above
    ``tol``.
    """
    lengths = leaf.lengths
    if leaf.bonded:
        lengths = list(lengths)
        for k, j in leaf.bonded:
            lengths[k] = abs(bonds[j])
    base = lengths[0]
    if base < 1e-12:
        return None
    placed = ((0.0, 0.0), (base, 0.0))
    if len(lengths) == 3:
        try:
            placed += (_circle_intersection(
                placed[0], lengths[1], placed[1], lengths[2], leaf.orientation),)
        except AlignmentError:
            return None
        for (a, b), length in zip(_PAIRS, lengths):
            (ax, ay), (bx, by) = placed[a], placed[b]
            if abs((bx - ax) ** 2 + (by - ay) ** 2 - length * length) > tol:
                return None
    return dict(zip(leaf.points, placed))


def _solve_leaf(model: Model, system: ResidualSystem, sketch: np.ndarray, leaf: _Leaf,
                bonds: Sequence[float], max_iter: int, tol: float) -> dict[str, tuple[float, ...]]:
    """The leaf's entity parameters in its own frame, given the measured
    values of its virtual bonds.

    A triangle or a single bar is constructed (:func:`_construct_leaf`).
    Any other leaf, and one whose construction fails, solves its slice plus
    its bonds and anchors from the sketch re-expressed in the frame the
    anchors pin.  A leaf that holds a ``fix`` already has its frame: it gets
    no anchors and solves from the raw sketch.
    """
    if leaf.points:
        coords = _construct_leaf(leaf, bonds, tol)
        if coords is not None:
            return coords
    node = leaf.node
    solve_sys = add_constraints(system, model, [
        Constraint(f"vbond:{a}-{b}", "distance-pp", (a, b), value)
        for (a, b), value in zip(node.virtual_bonds, bonds)]) if bonds else system
    start = sketch
    points = points_of(system, model, node.entities)
    fixed = any(model.constraint(cid).kind == "fix" for cid in node.constraints)
    if len(points) >= 2 and not fixed:
        solve_sys = add_anchors(solve_sys, model, node.entities)
        # express the sketch in the frame the anchors pin, so Newton starts
        # nearby and keeps the sketch's chirality
        p0, p1 = (sketch[system.entity_slice(p)] for p in points[:2])
        R = geometry.rotation_2d(-math.atan2(p1[1] - p0[1], p1[0] - p0[0]))
        start = _moved(model, system, sketch, node.entities, R, -(R @ p0))
    return _entity_params(system, _solve_cluster(system, solve_sys, node, start, max_iter, tol),
                          node.entities)


def _assemble_merge(model: Model, merge: _Merge, bodies: Sequence[_Body],
                    placements: list[Placement]) -> _Body | None:
    """Place the children's bodies by the merge's steps; None when the merge
    is not complete, after placing the children its steps reach.

    The first child keeps its frame, and each later child's placement is
    fitted as its step says.  An entity takes the coordinates of the first
    placed child that holds it.  The node's body keeps the placed bodies, and
    the coordinates of the entities its ancestors and its open rows read.
    The fits and moves are plain float arithmetic.
    """
    children = merge.node.children
    coords: dict[str, tuple[float, ...]] = {}
    parts = []
    for i, on, closure, points, others in merge.steps:
        child = bodies[i].coords
        if not on:
            # the first child's identity keeps its zeros; arrays() writes -0.0
            motion, R, t = _IDENTITY, _EYE.copy(), _ZERO.copy()
        else:
            if closure is None:
                motion = _fit(coords, child, on)
            else:
                (anchor, q), (r, other, orientation) = on, closure
                ra = math.dist(child[q], child[anchor])
                rb = math.dist(bodies[other].coords[q], bodies[other].coords[r])
                target = {anchor: coords[anchor], q: _circle_intersection(
                    coords[anchor], ra, coords[r], rb, orientation)}
                motion = _fit(target, child, on)
            R, t = motion.arrays()
        placements.append(Placement(children[i].node_id, children[i].entities, R, t))
        for eid in points:
            coords[eid] = motion.apply_point(*child[eid])
        for entity in others:
            coords[entity.id] = motion.apply(entity, child[entity.id])
        parts.append((bodies[i], motion))
    return _Body(coords, tuple(parts)) if merge.complete else None


def require_2d(model: Model) -> None:
    """Refuse a model outside recombination's scope with :class:`DecompositionError`."""
    if model.dimension != 2:
        raise DecompositionError("cluster recombination covers the 2D scope")


def solve_tree(model: Model, tree: ClusterTree, max_iter: int = 100,
               tol: float = RESIDUAL_TOL, system: ResidualSystem | None = None
               ) -> tuple[RecombinePlan, dict[str, tuple[float, ...]], SolveResult]:
    """Solve every leaf, recombine, and certify the final assignment.

    The model is compiled once (``system`` is the compiled ``model`` when the
    caller has it); every Newton solve of a cluster (``max_iter`` iterations
    per stage, residual tolerance ``tol``) is a slice of it.  One pass over
    the tree builds its schedule from the tree, the model and the system
    alone: each leaf's construction recipe, or that it is solved, and each
    merge's placement order, the points each child is fitted on, the child
    that places each entity the node reads, and its open rows.  A sweep then
    does only the arithmetic.  Triangle and bar leaves are constructed;
    other leaves are solved.  Each cluster keeps its solution in its own
    frame, and a merge fits its children's placements on their shared
    points.  After the sweep, one evaluation checks the rows placement can
    leave off at every merge, each at its own node's coordinates.  Only when
    one exceeds ``tol`` does the sweep run again on the same schedule, with
    a check at each merge, which re-solves its slice where a row fails; it
    reuses each leaf whose bond values are unchanged.  A node whose children
    share no points re-solves from the sketch.  Each entity's final
    parameters are written once, from the root's frame, and the certificate
    evaluates every row of the system.  Returns the recombination plan,
    per-entity solved parameters, and the whole-system residual certificate
    (anchors excluded), converged when its largest residual is within
    ``tol``.  A tree whose root leaves an entity free is refused, and so is
    one with a leaf whose rows (constraints, normalizations and virtual
    bonds) are fewer than its columns minus its rigid motions
    (:func:`geometry.generator_count`).
    """
    require_2d(model)
    if not tree.assembled:
        raise DecompositionError(
            f"cluster tree has {len(tree.roots)} roots; the model did not assemble")
    root = tree.roots[0]
    free = sorted({e.id for e in model.entities} - root.entities)
    if free:
        raise DecompositionError(f"cluster tree leaves entities {free} free")
    missing = next((e.id for e in model.entities if e.params is None), None)
    if missing is not None:
        raise DecompositionError(f"entity {missing!r} has no sketch parameters")
    if system is None:
        system = compile_model(model)
    schedule = _schedule(model, system, root)
    sketch = assignment_from_params(model, system)
    built: dict[int, tuple[tuple[float, ...], _Body]] = {}  # a leaf's step -> bonds, body

    def write(x: np.ndarray, coords: Mapping[str, Sequence[float]],
              entity_ids: Iterable[str]) -> None:
        for eid in entity_ids:
            x[system.entity_slice(eid)] = coords[eid]

    def held(checks: list) -> bool:
        # every (open rows, entities they name, node coordinates) block
        # within tol, each at its own node's coordinates
        return not checks or float(np.max(np.abs(eval_blocks(system, checks)))) <= tol

    def sweep(checks: list | None) -> tuple[_Body, list[Placement]]:
        """Build the leaves and place the merges in schedule order; return the
        root's body and the placements.  A placed merge with open rows
        appends them, the entities they name and its body's coordinates to
        ``checks``.  With ``checks`` None, it checks that block itself
        instead, and re-solves its slice when a row exceeds ``tol``."""
        placements: list[Placement] = []
        bond_values: dict[tuple[str, str], float] = {}
        done: list[_Body] = []  # the bodies of built nodes whose parent waits

        def solve_merge(merge: _Merge, bodies: Sequence[_Body]) -> _Body:
            body = _assemble_merge(model, merge, bodies, placements)
            if body is None:
                # shared elements are not points (line-bearing merges); re-solve
                # the node from the sketch, a chirality-consistent global guess
                start = sketch
            elif not merge.rows:
                return body
            else:
                block = (merge.rows, merge.named, body.coords)
                if checks is not None:
                    checks.append(block)
                    return body
                if held([block]):
                    return body
                # the node's rows read only its columns: the rest of the
                # sketch stays as it is
                start = sketch.copy()
                write(start, body.params(model), merge.node.entities)
            y = _solve_cluster(system, system, merge.node, start, max_iter, tol)
            return _Body(_entity_params(system, y, merge.node.entities))

        for k, step in enumerate(schedule):
            if type(step) is _Leaf:
                try:
                    bonds = tuple(map(bond_values.__getitem__, step.node.virtual_bonds))
                except KeyError as missing:
                    a, b = missing.args[0]
                    raise DecompositionError(
                        f"virtual bond {a}-{b} has no measured value; "
                        "no rigid sibling solved first") from None
                kept = built.get(k)
                if kept is not None and kept[0] == bonds:
                    body = kept[1]
                else:
                    body = _Body(_solve_leaf(model, system, sketch, step, bonds, max_iter, tol))
                    built[k] = (bonds, body)
            else:
                n = len(step.node.children)
                body = solve_merge(step, done[-n:])
                del done[-n:]
            pair = step.measures
            if pair is not None and pair not in bond_values:
                bond_values[pair] = math.dist(body.coords[pair[0]], body.coords[pair[1]])
            done.append(body)
        return done[0], placements

    # every merge's open rows in one evaluation after the sweep.  If one is
    # off, sweep again with a check at each merge, which re-solves where it
    # fails; so does a sweep that failed after a merge whose rows are off.
    checks: list = []
    try:
        body, placements = sweep(checks)
    except (AlignmentError, DecompositionError):
        if held(checks):
            raise  # a check at each merge reaches the same failure
        body = None
    if body is None or not held(checks):
        body, placements = sweep(None)
    final = body.params(model)
    x = sketch.copy()
    write(x, final, final)
    residuals = eval_residuals(system, x)
    norm = float(np.max(np.abs(residuals))) if residuals.size else 0.0
    status = "converged" if norm <= tol else "max-iterations"
    return (RecombinePlan(tuple(placements)), params_from_assignment(model, system, x),
            SolveResult(status, x, norm, 0, residuals))
