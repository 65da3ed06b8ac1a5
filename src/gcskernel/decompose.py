"""Cluster decomposition of well-constrained systems and recombination.

Bottom-up: seed clusters are single entities and entity pairs whose induced
subsystem is already rigid (point pairs under a distance, a point on a line,
two lines under an angle, two fixed points, ...) and whose induced constraints
name both entities.  Two merge rules apply, both validated against the witness
engine so non-rigid unions (three lines under three angles) are rejected:

* two clusters sharing two or more elements merge into one,
* three clusters pairwise sharing a geometric element merge into one.

Candidate groups wait in a priority queue and are tested in a fixed order:
smallest union first, then fewer clusters, then lexicographic (sorted union,
then sorted member sets).  Each group is tested once: a group enters the
queue when its newest cluster is created, a rejected group never returns, and
a group whose union a live cluster covers is dropped.  The loop ends when the
queue is empty.

A successful merge rewrites the cluster set (Hoffmann, Lomonosov and Sitharam,
"Decomposition plans for geometric constraint systems", 2001): it retires
every cluster its union covers, and a queued group that holds a retired
cluster is dropped.  This is exact where no row is dependent: if X is part of
a rigid M and X + Y + Z is rigid, M + Y + Z is rigid, so the merge the
retired X would have made is made with M.  The guard keeps over-constrained
regions as they were: a merge whose union holds an entity of a constraint
whose witness Jacobian rows take part in a row dependency (a nonzero cokernel
row) retires nothing.  So bottom-up makes a linear number of rigidity checks
on constructible sketches, and outside guarded regions every node has one
parent.  A merge's children are ordered by the leaf their first-child descent
reaches, earliest created first; recombination takes its frame from the first
child, so that leaf fixes the frame.  The redundant or conflicting constraints
are those whose rows take part in a row dependency of the witness Jacobian
(the cokernel support that ``check`` reports), plus those no root holds.

Top-down (2D point/distance scope): a node splits at the lexicographically
first articulation pair, a pair (a, b) whose removal disconnects the
constraint graph G.  For each first vertex a in sorted order, one low-link DFS
over G - a yields the smallest b > a whose removal leaves two or more
components, so a node with n entities and m constraints costs O(n(n + m)).
The pair is duplicated into each side, and a child that cannot fix the
pair's separation on its own receives a virtual distance bond whose value is
measured from the first solved sibling.  Splitting recurses until triangles
(or irreducible cores) remain, and the solve order is the reverse of the
split order.

Recombination compiles the model and reads its sketch once; every cluster
solution is an assignment of that system, meaningful on the cluster's
columns.  A leaf solves a row/column slice (:func:`numeric.solve`): the rows
of its constraints and entity normalizations, plus its virtual bonds and
anchors, over its entities' columns.  The anchors pin its first two points in
column order (:func:`compiler.points_of`), and it starts from the sketch
re-expressed in the frame they pin, so an exact leaf starts at its solution
and the solution keeps the sketch's chirality.  Every point choice of
recombination takes points in column order.  Child solutions are placed by
least-squares rigid alignment on shared points, a later child writing the
columns no earlier child placed; ternary one-point merges get their closure
point from the two-circle construction, with the mirror branch picked by the
orientation of the sketch.  A child's solution holds its rows and a rigid
motion keeps every row but a fix's, so the node then evaluates only the rows
placement can leave off: its constraints that no child holds, those that
name an entity two or more children share, every fix, and the normalizations
of the shared entities.  When one of them exceeds the tolerance, the node's
slice is re-solved from the placement.  Merges that share no points re-solve
from the sketch.  The final certificate evaluates every row.  A tree whose
root leaves an entity free is refused.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import geometry
from .compiler import (
    ResidualSystem,
    add_anchors,
    add_constraints,
    assignment_from_params,
    compile_model,
    eval_residuals,
    induced,
    params_from_assignment,
    points_of,
    rows_of,
)
from .detect import dependent_rows, is_well_part, witness_matrices
from .model import Constraint, Model, POINT2
from .numeric import RANK_REL_TOL, RESIDUAL_TOL, SolveResult, solve
from .witness import WitnessError, generate_witness

ALIGN_TOL = 1e-6


class DecompositionError(RuntimeError):
    pass


class AlignmentError(RuntimeError):
    pass


@dataclass(frozen=True)
class ClusterNode:
    node_id: int
    kind: str  # seed | merge | split | triangle | irreducible
    entities: frozenset[str]
    constraints: frozenset[str]
    children: tuple["ClusterNode", ...] = ()
    shared: tuple[tuple[str, ...], ...] = ()   # shared entity sets between children
    pair: tuple[str, str] | None = None        # articulation pair of a split node
    virtual_bonds: tuple[tuple[str, str], ...] = ()  # bonds this node must honor

    def to_json_dict(self) -> dict:
        d: dict = {
            "id": self.node_id,
            "kind": self.kind,
            "entities": sorted(self.entities),
            "constraints": sorted(self.constraints),
        }
        if self.pair:
            d["pair"] = list(self.pair)
        if self.virtual_bonds:
            d["virtualBonds"] = [list(b) for b in self.virtual_bonds]
        if self.shared:
            d["shared"] = [sorted(s) for s in self.shared]
        if self.children:
            d["children"] = [c.to_json_dict() for c in self.children]
        return d


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
    node_id: int
    entities: tuple[str, ...]
    rotation: np.ndarray
    translation: np.ndarray


@dataclass(frozen=True)
class RecombinePlan:
    placements: tuple[Placement, ...]


# ---------------------------------------------------------------------------
# bottom-up clustering


def bottom_up(model: Model, seed: int = 0, rank_tol: float = RANK_REL_TOL) -> ClusterTree:
    """Merge rigid seed clusters into a cluster forest (partial trees allowed).

    Merge candidates are tested smallest union first, then fewer clusters,
    then lexicographically; each is tested once.  A merged cluster retires the
    clusters its union covers and queues the candidate groups it completes;
    queued groups that hold a retired cluster are dropped.  A merge whose
    union holds an entity of a constraint in a row dependency of the witness
    Jacobian retires nothing.  Merge children are ordered by the leaf their
    first-child descent reaches, earliest created first.  The constraints in
    the cokernel support of the witness Jacobian, and those no root holds,
    are flagged redundant or conflicting.  ``rank_tol`` is the relative SVD
    threshold of every rank decision.
    """
    system = compile_model(model)
    try:
        witness = generate_witness(system, model, seed=seed)
    except WitnessError as err:
        raise DecompositionError(f"cannot build a witness for merge checks: {err}")
    J, M = witness_matrices(model, system, witness.assignment)
    # the constraints whose rows take part in a row dependency of J; where
    # there is none, a rigid union stays rigid when a cluster it covers part
    # of is swapped for its cover, so covered clusters retire
    dependent = {system.residuals[r].source for r in dependent_rows(J, rank_tol)
                 if system.residuals[r].kind == "constraint"}
    ids = sorted(e.id for e in model.entities)
    guarded = frozenset(e for cid in dependent for e in model.constraint(cid).entities)

    counter = [0]

    def new_node(kind, entities, children=(), shared=()):
        counter[0] += 1
        ents = frozenset(entities)
        return ClusterNode(
            counter[0], kind, ents, induced(model, system, ents)[0], tuple(children),
            tuple(shared))

    def rigid(entity_set: Iterable[str]) -> bool:
        return is_well_part(model, system, J, M, entity_set, rank_tol)

    def lead(node: ClusterNode) -> int:
        # the leaf a decomposed solve takes the node's frame from
        while node.children:
            node = node.children[0]
        return node.node_id

    active: dict[int, ClusterNode] = {}  # live clusters by id, in creation order
    holders: dict[str, dict[int, ClusterNode]] = {}  # entity -> live clusters holding it
    queue: list[tuple[tuple, frozenset[str], tuple[ClusterNode, ...]]] = []

    def covered(union: frozenset[str]) -> bool:
        return any(union <= c.entities for c in holders[next(iter(union))].values())

    def push(group: tuple[ClusterNode, ...]) -> None:
        union = frozenset().union(*(c.entities for c in group))
        if covered(union):
            return  # nothing new, now or later
        # no two clusters share an entity set, so the key orders groups totally
        key = (len(union), len(group), tuple(sorted(union)),
               tuple(sorted(tuple(sorted(c.entities)) for c in group)))
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

    for single in ids:
        if induced(model, system, (single,))[0] and rigid((single,)):
            add(new_node("seed", (single,)))
    # a pair seed needs its induced constraints to name both of its entities:
    # one constraint on the pair, or one on each entity alone
    spans = {frozenset(c.entities) for c in model.constraints}
    alone = [e for e in ids if frozenset((e,)) in spans]
    pairs = {tuple(sorted(s)) for s in spans if len(s) == 2}
    for pair in sorted(pairs.union(combinations(alone, 2))):
        if rigid(pair):
            add(new_node("seed", pair))

    while queue:
        _, union, group = heapq.heappop(queue)
        # a retired member's cover queued the group's successor when it was added
        if any(c.node_id not in active for c in group) or covered(union):
            continue
        if rigid(union):
            children = sorted(group, key=lead)
            shared = tuple(
                tuple(sorted(p.entities & q.entities))
                for p, q in combinations(children, 2))
            node = new_node("merge", union, children=children, shared=shared)
            if not union & guarded:
                inside = {i: c for e in union for i, c in holders[e].items()
                          if c.entities <= union}
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


def top_down(model: Model) -> ClusterTree:
    """Recursive articulation-pair splitting of a 2D point/distance model.

    A node splits at its lexicographically first articulation pair (a, b):
    for each a in sorted order, one low-link DFS over the graph minus a gives
    the smallest b > a that disconnects what is left, so a node with n
    entities and m constraints costs O(n(n + m)).  Nodes of three entities
    are triangles, and nodes without a pair are irreducible.
    """
    if model.dimension != 2 or any(e.kind != POINT2 for e in model.entities):
        raise DecompositionError("top-down splitting covers the 2D point/distance scope")
    for c in model.constraints:
        if c.kind != "distance-pp":
            raise DecompositionError(
                f"top-down splitting covers the 2D point/distance scope; "
                f"{c.id!r} has kind {c.kind!r}")

    counter = [0]

    def new_node(kind, entities, constraints, children=(), pair=None, bonds=()):
        counter[0] += 1
        return ClusterNode(
            counter[0], kind, frozenset(entities), frozenset(constraints),
            tuple(children), pair=pair, virtual_bonds=tuple(bonds))

    def components(nodes: set[str], adj: Mapping[str, set[str]]) -> list[set[str]]:
        seen: set[str] = set()
        comps = []
        for start in sorted(nodes):
            if start in seen:
                continue
            comp = {start}
            frontier = [start]
            seen.add(start)
            while frontier:
                cur = frontier.pop()
                for nb in adj[cur]:
                    if nb in nodes and nb not in seen:
                        seen.add(nb)
                        comp.add(nb)
                        frontier.append(nb)
            comps.append(comp)
        return comps

    def partner(a: str, order: Sequence[str], adj: Mapping[str, set[str]]) -> str | None:
        """Smallest b > a in ``order`` such that G - {a, b} is disconnected.

        One iterative low-link DFS over G - a counts, for every vertex b, the
        pieces its own component falls into once b is removed: the DFS
        children of a root, else one plus the children whose low-link does
        not reach above b.  G - {a, b} then has components(G - a) - 1 +
        pieces(b) components.
        """
        disc: dict[str, int] = {}
        low: dict[str, int] = {}
        pieces: dict[str, int] = {}
        n_comps = 0
        for root in order:
            if root == a or root in disc:
                continue
            n_comps += 1
            disc[root] = low[root] = len(disc)
            pieces[root] = 0
            stack = [(root, iter(adj[root]))]
            while stack:
                v, nbrs = stack[-1]
                for w in nbrs:
                    if w == a:
                        continue
                    if w not in disc:
                        disc[w] = low[w] = len(disc)
                        pieces[w] = 1
                        stack.append((w, iter(adj[w])))
                        break
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    stack.pop()
                    if stack:
                        u = stack[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]
                        if low[v] >= disc[u]:
                            pieces[u] += 1
        return next((b for b in order if b > a and n_comps - 1 + pieces[b] >= 2), None)

    def split(entities: frozenset[str],
              edges: list[tuple[str, frozenset[str], bool]]) -> ClusterNode:
        # an edge is (id, endpoints, is a virtual bond)
        cons = {eid for eid, _, bond in edges if not bond}
        bonds_here = tuple(tuple(sorted(epair)) for _, epair, bond in edges if bond)
        if len(entities) <= 3:
            return new_node("triangle", entities, cons, bonds=bonds_here)
        adj: dict[str, set[str]] = {e: set() for e in entities}
        for _, epair, _ in edges:
            a, b = sorted(epair)
            adj[a].add(b)
            adj[b].add(a)
        # the lexicographically first articulation pair
        order = sorted(entities)
        for a in order:
            b = partner(a, order, adj)
            if b is None:
                continue
            comps = components(set(entities) - {a, b}, adj)
            child_sets = [frozenset(comp | {a, b}) for comp in comps]
            assigned: set[int] = set()
            jobs = []
            for cs in child_sets:
                mine = []
                for k, edge in enumerate(edges):
                    if k not in assigned and edge[1] <= cs:
                        mine.append(edge)
                        assigned.add(k)
                count = 2 * len(cs) - len(mine)
                needs_bond = count > 3 and not any(
                    ep == frozenset((a, b)) for _, ep, _ in mine)
                jobs.append((needs_bond, cs, mine))
            # bond-free children solve first; they fix the pair's separation
            jobs.sort(key=lambda j: (j[0], sorted(j[1])))
            children = []
            node_bonds = []
            for needs_bond, cs, mine in jobs:
                if needs_bond:
                    mine = mine + [(f"{a}-{b}", frozenset((a, b)), True)]
                    node_bonds.append((a, b))
                children.append(split(cs, mine))
            return new_node("split", entities, cons, children=children,
                            pair=(a, b), bonds=tuple(node_bonds))
        return new_node("irreducible", entities, cons, bonds=bonds_here)

    edges = [(c.id, frozenset(c.entities), False) for c in model.constraints]
    root = split(frozenset(e.id for e in model.entities), edges)
    return ClusterTree("top-down", (root,), (), ())


# ---------------------------------------------------------------------------
# recombination

def _moved(model: Model, system: ResidualSystem, x: np.ndarray,
           entity_ids: Iterable[str], R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A copy of ``x`` with the columns of ``entity_ids`` moved by (R, t)."""
    out = x.copy()
    for eid in entity_ids:
        cols = system.entity_slice(eid)
        out[cols] = geometry.apply_rigid(model.entity(eid), x[cols], R, t)
    return out


def align_onto(model: Model, system: ResidualSystem, placed: np.ndarray,
               child: np.ndarray, entity_ids: Iterable[str],
               shared_points: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rigidly map a child's entities onto already-placed shared points.

    ``placed`` and ``child`` are assignments of ``system``; the fit uses the
    shared points' columns.  Returns a copy of ``child`` with the columns of
    ``entity_ids`` moved, and the (R, t) used.  Raises
    :class:`AlignmentError` when the shared geometry disagrees by more than
    the alignment tolerance after the best fit.
    """
    cols = [system.entity_slice(p) for p in shared_points]
    R, t = geometry.fit_rigid_2d(np.array([child[c] for c in cols]),
                                 np.array([placed[c] for c in cols]))
    moved = _moved(model, system, child, entity_ids, R, t)
    for eid, c in zip(shared_points, cols):
        err = np.max(np.abs(moved[c] - placed[c]))
        if err > ALIGN_TOL:
            raise AlignmentError(
                f"shared entity {eid!r} disagrees by {err:.3e} after alignment")
    return moved, R, t


def _circle_intersection(ca, ra, cb, rb, orientation: float) -> np.ndarray:
    ca, cb = np.asarray(ca, float), np.asarray(cb, float)
    d = float(np.linalg.norm(cb - ca))
    if d < 1e-12 or d > ra + rb + 1e-9 or d < abs(ra - rb) - 1e-9:
        raise AlignmentError("closure circles do not intersect")
    u = (cb - ca) / d
    n = np.array([-u[1], u[0]])
    along = (ra * ra - rb * rb + d * d) / (2.0 * d)
    h = math.sqrt(max(ra * ra - along * along, 0.0))
    sign = 1.0 if orientation >= 0.0 else -1.0
    return ca + along * u + sign * h * n


def _sketch_orientation(model: Model, p: str, q: str, r: str) -> float:
    a = np.asarray(model.entity(p).params[:2])
    b = np.asarray(model.entity(q).params[:2])
    c = np.asarray(model.entity(r).params[:2])
    u, v = b - a, c - a
    return float(u[0] * v[1] - u[1] * v[0])


def _solve_cluster(system: ResidualSystem, solve_sys: ResidualSystem, node: ClusterNode,
                   start: np.ndarray, max_iter: int, tol: float) -> np.ndarray:
    """Solve the node's row/column slice of the compiled model from ``start``.

    Rows: the node's constraints, the normalizations of its entities, then
    the rows ``solve_sys`` appends to ``system`` (a leaf's virtual bonds and
    anchors).  Columns: the node's entities.  Every other column stays fixed.
    """
    rows = rows_of(system, node.constraints, node.entities)
    rows += range(system.n_residuals, solve_sys.n_residuals)
    result = solve(solve_sys, start, max_iter=max_iter, tol=tol, rows=rows,
                   cols=system.columns_of(node.entities))
    if not result.converged:
        raise DecompositionError(
            f"{'subsystem' if node.children else 'cluster'} {sorted(node.entities)} "
            f"failed to solve: {result.status}")
    return result.assignment


def _open_rows(model: Model, system: ResidualSystem, node: ClusterNode) -> list[int]:
    """Rows of a node that placing its solved children can leave off.

    Each child's solution holds the child's rows, and a rigid motion keeps
    every row but a fix's.  So these are the rows of the node's constraints
    that no child holds, of those that name an entity two or more children
    share (it takes the coordinates of the child placed first), of every
    fix, and the normalizations of the shared entities.
    """
    held = frozenset().union(*(child.constraints for child in node.children))
    seen: set[str] = set()
    shared: set[str] = set()
    for child in node.children:
        shared |= seen & child.entities
        seen |= child.entities
    check = {cid for cid in node.constraints
             if cid not in held or model.constraint(cid).kind == "fix"}
    check.update(c.id for eid in shared for c in model.constraints_on(eid)
                 if c.id in node.constraints)
    return rows_of(system, check, shared)


def _solve_leaf(model: Model, system: ResidualSystem, sketch: np.ndarray, node: ClusterNode,
                bond_values: Mapping[tuple[str, str], float],
                max_iter: int, tol: float) -> np.ndarray:
    """Solve the leaf's slice plus its bonds and anchors, from the re-framed sketch.

    A leaf that holds a ``fix`` already has its frame: it gets no anchors and
    solves from the raw sketch.
    """
    bonds = []
    for (a, b) in node.virtual_bonds:
        if (a, b) not in bond_values:
            raise DecompositionError(
                f"virtual bond {a}-{b} has no measured value; no rigid sibling solved first")
        bonds.append(Constraint(f"vbond:{a}-{b}", "distance-pp", (a, b), bond_values[(a, b)]))
    solve_sys = add_constraints(system, model, bonds)
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
    return _solve_cluster(system, solve_sys, node, start, max_iter, tol)


def _assemble_merge(model: Model, system: ResidualSystem, node: ClusterNode,
                    solutions: Sequence[np.ndarray],
                    placements: list[Placement]) -> np.ndarray | None:
    """Place child solutions by shared-point alignment; None if not applicable.

    The first child keeps its frame; each later child writes the columns of
    its entities that no earlier child placed.
    """
    merged = solutions[0].copy()
    placed = set(node.children[0].entities)
    placements.append(Placement(
        node.children[0].node_id, tuple(sorted(placed)), np.eye(2), np.zeros(2)))
    pending = list(range(1, len(node.children)))
    while pending:
        progress = False
        for idx in list(pending):
            child = node.children[idx]
            sol = solutions[idx]
            shared_pts = [p for p in points_of(system, model, child.entities) if p in placed]
            if len(shared_pts) >= 2:
                moved, R, t = align_onto(model, system, merged, sol, child.entities,
                                         shared_pts[:2])
            elif len(shared_pts) == 1 and len(node.children) == 3 and len(pending) == 2:
                # ternary one-point closure: fetch the unknown shared point from
                # the two known radii
                other_idx = next(i for i in pending if i != idx)
                other = node.children[other_idx]
                anchor = shared_pts[0]
                both = child.entities & other.entities
                q_candidates = [p for p in points_of(system, model, both) if p not in placed]
                r_candidates = [p for p in points_of(system, model, other.entities) if p in placed]
                if not q_candidates or not r_candidates:
                    return None
                q, r = q_candidates[0], r_candidates[0]
                at = {p: system.entity_slice(p) for p in (anchor, q, r)}
                ra = float(np.linalg.norm(sol[at[q]] - sol[at[anchor]]))
                rb = float(np.linalg.norm(solutions[other_idx][at[q]]
                                          - solutions[other_idx][at[r]]))
                orient = _sketch_orientation(model, anchor, r, q)
                target = merged.copy()
                target[at[q]] = _circle_intersection(
                    merged[at[anchor]], ra, merged[at[r]], rb, orient)
                moved, R, t = align_onto(model, system, target, sol, child.entities,
                                         [anchor, q])
            else:
                continue
            placements.append(Placement(child.node_id, tuple(sorted(child.entities)), R, t))
            cols = system.columns_of(child.entities - placed)
            merged[cols] = moved[cols]
            placed |= child.entities
            pending.remove(idx)
            progress = True
            break
        if not progress:
            return None
    return merged


def solve_tree(model: Model, tree: ClusterTree, max_iter: int = 100,
               tol: float = RESIDUAL_TOL
               ) -> tuple[RecombinePlan, dict[str, tuple[float, ...]], SolveResult]:
    """Solve every leaf, recombine, and certify the final assignment.

    The model is compiled once; every cluster solution is an assignment of
    that system and every cluster solve (``max_iter`` iterations per stage,
    residual tolerance ``tol``) a slice of it.  A node whose children place
    by alignment evaluates only the rows placement can leave off and
    re-solves its slice only when one exceeds ``tol``; a node whose children
    share no points re-solves from the sketch.  The certificate evaluates
    every row of the system.  Returns the recombination plan, per-entity
    solved parameters, and the whole-system residual certificate (anchors
    excluded), converged when its largest residual is within ``tol``.  A
    tree whose root leaves an entity free is refused, and so is one with a
    leaf whose rows (constraints, normalizations and virtual bonds) are fewer
    than its columns - 3: a 2D cluster has at most 3 rigid motions.
    """
    if model.dimension != 2:
        raise DecompositionError("cluster recombination covers the 2D scope")
    if not tree.assembled:
        raise DecompositionError(
            f"cluster tree has {len(tree.roots)} roots; the model did not assemble")
    free = sorted({e.id for e in model.entities} - tree.roots[0].entities)
    if free:
        raise DecompositionError(f"cluster tree leaves entities {free} free")
    missing = next((e.id for e in model.entities if e.params is None), None)
    if missing is not None:
        raise DecompositionError(f"entity {missing!r} has no sketch parameters")
    system = compile_model(model)
    nodes = [tree.roots[0]]
    for node in nodes:  # breadth first, as the list grows
        nodes += node.children
        if node.children:
            continue
        rows = len(rows_of(system, node.constraints, node.entities)) + len(node.virtual_bonds)
        columns = len(system.columns_of(node.entities))
        if rows < columns - 3:
            raise DecompositionError(
                f"cluster {sorted(node.entities)} cannot be rigid: {rows} rows "
                f"for {columns} columns")
    sketch = assignment_from_params(model, system)
    placements: list[Placement] = []
    bond_values: dict[tuple[str, str], float] = {}

    def solve_node(node: ClusterNode) -> np.ndarray:
        if not node.children:
            return _solve_leaf(model, system, sketch, node, bond_values, max_iter, tol)
        solutions: list[np.ndarray] = []
        for child in node.children:
            solutions.append(solve_node(child))
            if node.pair and node.pair not in bond_values:
                # the first (bond-free) child of a split fixes the pair's separation
                a, b = map(system.entity_slice, node.pair)
                bond_values[node.pair] = float(np.linalg.norm(solutions[0][b] - solutions[0][a]))
        assembled = _assemble_merge(model, system, node, solutions, placements)
        if assembled is None:
            # shared elements are not points (line-bearing merges); re-solve the
            # node from the sketch, which is a chirality-consistent global guess
            assembled = sketch
        else:
            rows = _open_rows(model, system, node)
            if not rows or float(np.max(np.abs(eval_residuals(system, assembled, rows)))) <= tol:
                return assembled
        return _solve_cluster(system, system, node, assembled, max_iter, tol)

    x = solve_node(tree.roots[0])
    residuals = eval_residuals(system, x)
    norm = float(np.max(np.abs(residuals))) if residuals.size else 0.0
    status = "converged" if norm <= tol else "max-iterations"
    return (RecombinePlan(tuple(placements)), params_from_assignment(model, system, x),
            SolveResult(status, x, norm, 0, residuals))
