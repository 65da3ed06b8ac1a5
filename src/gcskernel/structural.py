"""Graph representations and structural constraint-state machinery.

The equation graph is the bipartite occurrence graph of residuals vs
variables; the constraint graph carries entities weighted by DOF and
constraints weighted by DOC (hyper-constraints stay explicit constraint
nodes, i.e. the bipartite scheme).  On top of these:

* maximum bipartite matching via deterministic augmenting paths,
* the coarse Dulmage-Mendelsohn partition into over/well/under sub-parts
  (canonical: independent of the particular maximum matching),
* a solve plan from strongly connected components of the matching-oriented
  digraph, topologically sorted; :func:`numeric.newton_solve` takes its
  Newton steps block by block along it,
* structural counting verdicts with the fixed frame dimension D = 3 (2D) /
  6 (3D), exact at any model size: a weighted pebble game (an incremental
  flow in the spirit of Jacobs and Hendrickson's (2,3) game and Hoffmann,
  Lomonosov and Sitharam's dense-subgraph search) finds a violating connected
  subset in polynomial time.

The 3D counting verdict is necessary but not sufficient (double-banana style
counterexamples pass it while being geometrically under-constrained), so
reports label it advisory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .compiler import ResidualSystem
from .geometry import generator_count
from .model import Model, doc_of


@dataclass(frozen=True)
class EquationGraph:
    """Bipartite graph: equation nodes on the left, variable nodes on the right."""

    n_equations: int
    n_variables: int
    adjacency: tuple[tuple[int, ...], ...]  # per equation, sorted variable indices

    def variable_adjacency(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_variables)]
        for e, vs in enumerate(self.adjacency):
            for v in vs:
                out[v].append(e)
        return out


@dataclass(frozen=True)
class ConstraintGraph:
    dimension: int
    entity_ids: tuple[str, ...]
    entity_dof: Mapping[str, int]
    constraints: tuple[tuple[str, tuple[str, ...], int], ...]  # (id, entity ids, doc)

    def induced(self, subset: Iterable[str]) -> tuple[int, int, list[str]]:
        """(sum DOF, sum DOC, constraint ids) of the induced subsystem."""
        keep = set(subset)
        dof = sum(self.entity_dof[e] for e in keep)
        doc = 0
        ids = []
        for cid, ents, d in self.constraints:
            if set(ents) <= keep:
                doc += d
                ids.append(cid)
        return dof, doc, ids

    def neighbors(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {e: set() for e in self.entity_ids}
        for _, ents, _ in self.constraints:
            for a in ents:
                for b in ents:
                    if a != b:
                        adj[a].add(b)
        return adj


def build_graphs(system: ResidualSystem, model: Model) -> tuple[EquationGraph, ConstraintGraph]:
    eg = EquationGraph(system.n_residuals, system.n_variables, system.adjacency)
    cg = ConstraintGraph(
        model.dimension,
        tuple(e.id for e in model.entities),
        {e.id: e.spec.dof for e in model.entities},
        tuple((c.id, c.entities, doc_of(c.kind, model.dimension)) for c in model.constraints),
    )
    return eg, cg


def max_matching(graph: EquationGraph) -> dict[int, int]:
    """Maximum-cardinality matching {equation: variable} via augmenting paths.

    A greedy pass gives each equation, fewest variables first, its first free
    variable; each equation it leaves unmatched then searches for an
    augmenting path, depth first and without recursion, so a path may be as
    long as the graph.  Ties and searches go in ascending index order and
    adjacency lists are sorted, so the result is deterministic for a fixed
    graph.
    """
    match_var: dict[int, int] = {}   # variable -> equation
    match_eq: dict[int, int] = {}
    # fewest variables first: anchors and fixes take their own variables
    # before wider equations can, which leaves few equations (at most one on
    # the corpus and on anchored strips) to the augmenting search
    adjacency = graph.adjacency
    for e in sorted(range(graph.n_equations), key=lambda e: len(adjacency[e])):
        for v in adjacency[e]:
            if v not in match_var:
                match_var[v] = e
                match_eq[e] = v
                break

    for root in range(graph.n_equations):
        if root in match_eq:
            continue
        seen: set[int] = set()
        stack = [(root, iter(graph.adjacency[root]))]
        taken: list[int] = []  # taken[i]: the variable stack[i] takes on the path
        while stack:
            v = next((v for v in stack[-1][1] if v not in seen), None)
            if v is None:
                stack.pop()
                if taken:
                    taken.pop()
                continue
            seen.add(v)
            taken.append(v)
            owner = match_var.get(v)
            if owner is None:
                for (e, _), w in zip(stack, taken):
                    match_var[w] = e
                    match_eq[e] = w
                break
            stack.append((owner, iter(graph.adjacency[owner])))
    return dict(sorted(match_eq.items()))


@dataclass(frozen=True)
class DMPartition:
    over_equations: frozenset[int]
    over_variables: frozenset[int]
    well_equations: frozenset[int]
    well_variables: frozenset[int]
    under_equations: frozenset[int]
    under_variables: frozenset[int]
    matching: Mapping[int, int]


def dm_decompose(graph: EquationGraph, matching: dict[int, int] | None = None) -> DMPartition:
    """Coarse Dulmage-Mendelsohn partition from any maximum matching.

    The over part is everything reachable from unmatched equations along
    alternating paths, the under part everything reachable from unmatched
    variables; the remainder is the well part, on which the matching is
    perfect.  The partition is a canonical equation-graph invariant.
    """
    if matching is None:
        matching = max_matching(graph)
    match_var = {v: e for e, v in matching.items()}
    var_adj = graph.variable_adjacency()

    over_e: set[int] = set()
    over_v: set[int] = set()
    stack = [e for e in range(graph.n_equations) if e not in matching]
    over_e |= set(stack)
    while stack:
        e = stack.pop()
        for v in graph.adjacency[e]:
            if v in over_v:
                continue
            over_v.add(v)
            owner = match_var.get(v)
            if owner is not None and owner not in over_e:
                over_e.add(owner)
                stack.append(owner)

    under_e: set[int] = set()
    under_v: set[int] = set()
    stack_v = [v for v in range(graph.n_variables) if v not in match_var]
    under_v |= set(stack_v)
    while stack_v:
        v = stack_v.pop()
        for e in var_adj[v]:
            if e in under_e:
                continue
            under_e.add(e)
            w = matching.get(e)
            if w is not None and w not in under_v:
                under_v.add(w)
                stack_v.append(w)

    well_e = frozenset(range(graph.n_equations)) - over_e - under_e
    well_v = frozenset(range(graph.n_variables)) - over_v - under_v
    return DMPartition(
        frozenset(over_e), frozenset(over_v),
        well_e, well_v,
        frozenset(under_e), frozenset(under_v),
        matching,
    )


@dataclass(frozen=True)
class SolvePlan:
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (equations, variables)


def scc_plan(graph: EquationGraph, matching: dict[int, int]) -> SolvePlan:
    """Solve plan from the matching-oriented digraph.

    Matched edges are oriented variable -> equation and the rest equation ->
    variable; strongly connected components of the resulting digraph become
    blocks, topologically ordered so each block only reads variables solved by
    earlier blocks.  Requires a perfect matching on the graph's equations and
    variables.
    """
    if len(matching) != graph.n_equations or len(set(matching.values())) != graph.n_variables:
        raise ValueError("scc_plan needs a perfect matching on its input scope")
    owner = {v: e for e, v in matching.items()}

    # equation-level dependency digraph: e depends on the equation owning each
    # of its non-matched variables
    deps = [sorted({owner[v] for v in graph.adjacency[e] if v != matching[e]})
            for e in range(graph.n_equations)]

    # Tarjan, iterative, deterministic over ascending node order
    index = [-1] * graph.n_equations
    low = [0] * graph.n_equations
    on_stack = [False] * graph.n_equations
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(graph.n_equations):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(deps[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if index[child] < 0:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(deps[child])))
                    break
                if on_stack[child] and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == node:
                            break
                    components.append(sorted(comp))

    # Tarjan emits components in reverse topological order of the dependency
    # digraph (dependencies first), which is exactly the solve order.
    blocks = tuple(
        (tuple(comp), tuple(sorted(matching[e] for e in comp)))
        for comp in components
    )
    return SolvePlan(blocks)


@dataclass(frozen=True)
class CountingVerdict:
    deficit: int                       # DOF - DOC - D(whole)
    witness_subgraph: tuple[str, ...] | None
    advisory: bool  # 3D counting is necessary-but-not-sufficient

    @property
    def state(self) -> str:
        if self.witness_subgraph is not None:
            return "over"
        return "well" if self.deficit == 0 else "under"


def counting_state(cg: ConstraintGraph) -> CountingVerdict:
    """Structural verdict from DOF/DOC counting with D = 3 (2D) / 6 (3D).

    The model is over-constrained when the whole has DOF - DOC < D, or when a
    connected subset S of at least two entities (three in 3D) has
    DOF(S) - DOC(S) < D; the reported ``witness_subgraph`` is then an
    inclusion-minimal such subset (the whole model when only the whole
    violates).  The subset condition is decided exactly, for any model size,
    with a weighted pebble game (see :func:`_dense_subset`).  The verdict
    keeps the deficit DOF - DOC - D and that subset, and its ``state`` is
    read off them: over with a subset, else well at deficit 0, else under.
    """
    D = generator_count(cg.dimension)
    ids = list(cg.entity_ids)

    # Laman/Maxwell-style subgraph conditions are stated for n' >= 2 entities
    # in 2D and n' >= 3 in 3D; smaller 3D subsystems have a degenerate frame
    # (a point pair moves with 5 freedoms, not 6) and must not be flagged.
    min_sub = 2 if cg.dimension == 2 else 3

    advisory = cg.dimension == 3
    if not ids:
        return CountingVerdict(0, None, advisory)
    whole = frozenset(ids)
    dof, doc, _ = cg.induced(whole)
    deficit = dof - doc - D

    dense = _dense_subset(cg, D, min_sub)
    witness = tuple(sorted(dense)) if dense is not None else None

    if witness is None and deficit < 0:
        witness = tuple(sorted(whole))
    return CountingVerdict(deficit, witness, advisory)


def _dense_subset(cg: ConstraintGraph, D: int, min_sub: int) -> frozenset[str] | None:
    """An inclusion-minimal connected subset of at least ``min_sub`` entities
    with DOF - DOC < D, or None when there is none.

    One pebble game decides whether such a subset exists.  Its witness is
    shrunk by trying to drop each entity in reverse model order: whenever the
    subsystem without the entity still holds a violating subset, the search
    continues inside the subset the game found there.  An entity that stays
    cannot be dropped from any later, smaller candidate either, so the result
    is inclusion-minimal.
    """
    adj = cg.neighbors()
    found = _pebble_game(cg, frozenset(cg.entity_ids), adj, D, min_sub)
    if found is None:
        return None
    for e in reversed(cg.entity_ids):
        if e in found:
            smaller = _pebble_game(cg, found - {e}, adj, D, min_sub)
            if smaller is not None:
                found = smaller
    return found


class _Pebbles:
    """Pebble state of the weighted pebble game (an incremental flow).

    Every entity starts with ``dof`` free pebbles; a placed constraint is
    covered by ``doc`` pebbles taken from its own entities.  A directed
    pebble path from entity u through constraint k to entity w lets k release
    its pebble on u by taking a free one from w, exactly like an augmenting
    path in :func:`max_matching`.
    """

    def __init__(self, cg: ConstraintGraph, keep: frozenset[str]):
        self.free = {e: cg.entity_dof[e] for e in cg.entity_ids if e in keep}
        self.held: dict[str, dict[int, int]] = {e: {} for e in self.free}
        self.ents = [tuple(dict.fromkeys(ents)) for _, ents, _ in cg.constraints]

    def gather(self, hold: tuple[str, ...], target: int) -> frozenset[str] | None:
        """Collect ``target`` free pebbles on ``hold``.

        Returns None on success.  On failure returns the entities the search
        reached: every constraint holding a pebble there lies inside that set
        and all its free pebbles sit on ``hold``, so its DOF - DOC (placed
        constraints only) equals the free pebbles gathered.
        """
        while sum(self.free[e] for e in hold) < target:
            reached = self._pull_one(hold)
            if reached is not None:
                return reached
        return None

    def _pull_one(self, hold: tuple[str, ...]) -> frozenset[str] | None:
        seen = set(hold)
        parent: dict[str, tuple[str, int]] = {}
        stack = list(reversed(hold))
        while stack:
            u = stack.pop()
            for k in self.held[u]:
                for w in self.ents[k]:
                    if w in seen:
                        continue
                    seen.add(w)
                    parent[w] = (u, k)
                    if self.free[w]:
                        self._shift(w, parent)
                        return None
                    stack.append(w)
        return frozenset(seen)

    def _shift(self, w: str, parent: dict[str, tuple[str, int]]) -> None:
        # reverse the path: each constraint moves one pebble one step towards
        # the free pebble, which leaves a free pebble on the hold entity
        self.free[w] -= 1
        while w in parent:
            u, k = parent[w]
            self.held[w][k] = self.held[w].get(k, 0) + 1
            left = self.held[u][k] - 1
            if left:
                self.held[u][k] = left
            else:
                del self.held[u][k]
            w = u
        self.free[w] += 1

    def place(self, k: int, doc: int) -> None:
        for e in self.ents[k]:
            take = min(self.free[e], doc)
            if take:
                self.free[e] -= take
                self.held[e][k] = self.held[e].get(k, 0) + take
                doc -= take


def _pebble_game(cg: ConstraintGraph, keep: frozenset[str], adj: Mapping[str, set[str]],
                 D: int, min_sub: int) -> frozenset[str] | None:
    """Exact test for a violating subset inside the subsystem induced by ``keep``.

    Returns a connected set R of at least ``min_sub`` entities with
    DOF(R) - DOC(R) < D, or None when ``keep`` contains no such set.  Every
    entity kind carries at least D / min_sub freedoms, so such a set always
    spans the frame: the subset rule's DOF(S) >= D requirement holds.

    Constraints are inserted in model order.  Before constraint c is placed,
    its entities must gather doc(c) pebbles and every seed T (a connected set
    of ``min_sub`` entities containing ents(c), or ents(c) itself when that is
    large enough) must gather doc(c) + D.  If every seed succeeds, no subset
    containing c violates; if one fails, the reached set violates.  A first
    violating set S is always caught at the last constraint of S in model
    order, through the seed that S contains.
    """
    pos = {e: i for i, e in enumerate(cg.entity_ids)}

    def seeds(base: frozenset[str]) -> list[tuple[str, ...]]:
        level = {base}
        for _ in range(min_sub - len(base)):
            level = {s | {x} for s in level for y in s for x in adj[y]
                     if x in keep and x not in s}
        return sorted((tuple(sorted(s, key=pos.__getitem__)) for s in level),
                      key=lambda t: [pos[e] for e in t])

    pebbles = _Pebbles(cg, keep)
    for k, (_, ents, doc) in enumerate(cg.constraints):
        if not keep.issuperset(ents):
            continue
        own = pebbles.ents[k]
        reached = pebbles.gather(own, doc)
        if reached is not None:
            if len(reached) >= min_sub:
                return reached
            # The reached set (smaller than min_sub) carries more DOC than DOF
            # once c counts.  Any connected set of min_sub entities around it
            # then violates: each added entity brings its DOF (at most 3 in
            # 2D, 4 in 3D) and at least one joining constraint, so at most
            # one (2D) or two (3D) additions keep DOF - DOC below D.  Without
            # such a set the component is too small for any subset condition
            # and c is left out.
            around = seeds(reached)
            if not around:
                continue
            sdof, sdoc, _ = cg.induced(around[0])
            if sdof - sdoc >= D:
                raise RuntimeError("pebble game cannot place constraint "
                                   f"{cg.constraints[k][0]!r}")
            return frozenset(around[0])
        for seed in seeds(frozenset(own)):
            reached = pebbles.gather(seed, doc + D)
            if reached is not None:
                return reached
        pebbles.place(k, doc)
    return None
