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
* the separation pairs of a multigraph: for a 2-connected one, its
  triconnected (SPQR) decomposition (Hopcroft and Tarjan's path search,
  with Gutwenger and Mutzel's corrections) in one linear pass, from which
  top-down splitting reads every split and hands the pairs down to its
  children; for any other, its first pair, from at most two searches of
  the graph,
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

import heapq
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

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


# ---------------------------------------------------------------------------
# triconnected components


@dataclass(frozen=True)
class Triconnectivity:
    """Where a multigraph falls apart when one or two vertices are removed.

    ``roots`` holds a vertex of each connected component, and
    ``biconnected`` says whether the graph is 2-connected: connected and
    without a cut vertex.  For a 2-connected graph, ``pairs`` are the
    separation pairs that the virtual edges of its triconnected components
    name, and ``polygons`` the cycles (S-nodes) of four or more vertices, in
    cycle order; two vertices of a polygon that are not next to each other on
    it separate the graph too, and it has no other separation pair.  For any
    other graph, ``first`` is its first separation pair in vertex order, if
    it has one.
    """
    roots: tuple[str, ...]
    biconnected: bool
    pairs: frozenset[frozenset[str]] = frozenset()
    polygons: tuple[tuple[str, ...], ...] = ()
    first: tuple[str, str] | None = None


def triconnectivity(vertices: Sequence[str],
                    edges: Iterable[tuple[str, str]]) -> Triconnectivity:
    """The :class:`Triconnectivity` of a multigraph.

    One depth-first search gives the components and the cut vertices.  A
    2-connected graph of four or more vertices is then divided into its
    triconnected components by path search on that search's palm tree
    (Hopcroft and Tarjan, "Dividing a graph into triconnected components",
    1973, with the corrections of Gutwenger and Mutzel, "A linear time
    implementation of SPQR-trees", 2001), in time linear in its size; their
    virtual edges and polygons give the separation pairs.  Any other graph
    gets its first pair (a, b), a before b in ``vertices``: a is the first
    vertex that some later b separates from the rest.  A search started at
    a is one of the graph minus a once its fronds into a are dropped, so it
    lists every such b.  The first search starts at the first vertex, and
    the first or the second vertex has a partner (if the first is isolated
    or hangs from one vertex, the second does), so this takes at most one
    more search.  Separation pairs do not depend on edge multiplicity, so
    parallel edges count once, and loops are ignored.
    """
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        i, j = index[a], index[b]
        if i != j:
            nbrs[i].add(j)
            nbrs[j].add(i)
    ends = [(i, j) for i in range(n) for j in nbrs[i] if i < j]
    palm = _Palm(n, ends)
    roots = [r for r in palm.order if palm.father[r] < 0]
    named = tuple(vertices[r] for r in roots)
    if len(roots) == 1 and max(_pieces(palm)) <= 1:
        if n < 4:
            return Triconnectivity(named, True)
        twos, rings = _split_components(palm)
        return Triconnectivity(
            named, True, frozenset(frozenset((vertices[u], vertices[v])) for u, v in twos),
            tuple(tuple(vertices[v] for v in ring) for ring in rings))
    for a in range(n):
        search = _Palm(n, ends, a) if a else palm
        pieces = _pieces(search, a)
        others = len(roots) - 2 + search.father.count(a)   # components without a, less one
        b = next((b for b in range(a + 1, n) if others + pieces[b] >= 2), None)
        if b is not None:
            return Triconnectivity(named, False, first=(vertices[a], vertices[b]))
    return Triconnectivity(named, False)


def _pieces(palm: _Palm, skip: int = -1) -> list[int]:
    """How many pieces each vertex's component falls into without it, in the
    graph minus ``skip``, if given, where the search started."""
    pieces = [0] * len(palm.number)
    father, lowpt1, lowpt2, number = palm.father, palm.lowpt1, palm.lowpt2, palm.number
    gone = 1 if skip >= 0 else 0   # the number of skip: fronds to it lead nowhere
    for w in palm.order:
        v = father[w]
        if v < 0 or v == skip:
            continue
        pieces[w] += 1   # the piece that holds the father
        if (lowpt2[w] if lowpt1[w] == gone else lowpt1[w]) >= number[v]:
            pieces[v] += 1
    return pieces


_TREE, _FROND = 1, 2


class _Palm:
    """A depth-first search of a simple graph on 0..n-1, started at
    ``start`` and then at each unvisited vertex in turn: its palm tree in
    Hopcroft and Tarjan's words.

    Edges are oriented away from the start (``src`` -> ``dst``) and typed
    tree arc or frond; each vertex gets its number (from 1, in ``order``),
    father (-1 at a start), first and second low points, descendant count
    (itself included) and tree arc in.
    """

    def __init__(self, n: int, ends: list[tuple[int, int]], start: int = 0):
        self.src = src = [u for u, _ in ends]
        self.dst = dst = [v for _, v in ends]
        self.etype = etype = [0] * len(ends)
        self.number = number = [0] * n
        self.father = father = [-1] * n
        self.lowpt1 = lowpt1 = [0] * n
        self.lowpt2 = lowpt2 = [0] * n
        self.nd = nd = [1] * n
        self.tree_arc = tree_arc = [-1] * n
        self.order = order = []
        inc: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(ends):
            inc[u].append(e)
            inc[v].append(e)
        self.degree = [len(x) for x in inc]
        for root in [start, *range(n)]:
            if number[root]:
                continue
            order.append(root)
            number[root] = lowpt1[root] = lowpt2[root] = len(order)
            stack = [(root, iter(inc[root]))]
            while stack:
                v, arcs = stack[-1]
                for e in arcs:
                    if etype[e]:
                        continue
                    w = src[e] + dst[e] - v
                    src[e], dst[e] = v, w
                    if not number[w]:
                        etype[e] = _TREE
                        tree_arc[w] = e
                        father[w] = v
                        order.append(w)
                        number[w] = lowpt1[w] = lowpt2[w] = len(order)
                        stack.append((w, iter(inc[w])))
                        break
                    etype[e] = _FROND
                    if number[w] < lowpt1[v]:
                        lowpt2[v] = lowpt1[v]
                        lowpt1[v] = number[w]
                    elif number[w] > lowpt1[v]:
                        lowpt2[v] = min(lowpt2[v], number[w])
                else:
                    stack.pop()
                    if stack:
                        u = stack[-1][0]
                        if lowpt1[v] < lowpt1[u]:
                            lowpt2[u] = min(lowpt1[u], lowpt2[v])
                            lowpt1[u] = lowpt1[v]
                        elif lowpt1[v] == lowpt1[u]:
                            lowpt2[u] = min(lowpt2[u], lowpt2[v])
                        else:
                            lowpt2[u] = min(lowpt2[u], lowpt1[v])
                        nd[u] += nd[v]


def _split_components(palm: _Palm) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Separation pairs and polygons of a 2-connected simple graph from its
    palm tree (one search, from vertex 0).

    The split components are found by path search (Hopcroft and Tarjan, as
    corrected by Gutwenger and Mutzel), with explicit stacks instead of
    recursion; see :func:`_assemble` for what is read off them.
    """
    n = len(palm.number)
    src, dst, etype = palm.src, palm.dst, palm.etype
    number, lowpt1, lowpt2, nd = palm.number, palm.lowpt1, palm.lowpt2, palm.nd
    real = len(src)

    # outgoing arcs in the order the path search needs
    def phi(e: int) -> int:
        w = dst[e]
        if etype[e] == _FROND:
            return 3 * number[w] + 1
        return 3 * lowpt1[w] + (0 if lowpt2[w] < number[src[e]] else 2)

    out: list[list[int]] = [[] for _ in range(n)]
    for e in sorted(range(real), key=phi):
        out[src[e]].append(e)

    # second search: the vertices renumbered so that each subtree's first
    # visited child gets the highest numbers; the arcs that start a path,
    # and the fronds into each vertex, first visited first
    newnum = [0] * n
    starts: set[int] = set()
    high: list[list[list[int]]] = [[] for _ in range(n + 1)]   # [number, alive], first last
    in_high: dict[int, list[int]] = {}
    count = n
    fresh = True
    newnum[0] = 1
    walk = [(0, iter(out[0]))]
    while walk:
        v, arcs = walk[-1]
        for e in arcs:
            w = dst[e]
            if fresh:
                fresh = False
                starts.add(e)
            if etype[e] == _TREE:
                newnum[w] = count - nd[w] + 1
                walk.append((w, iter(out[w])))
                break
            in_high[e] = entry = [newnum[v], 1]
            high[newnum[w]].append(entry)
            fresh = True
        else:
            walk.pop()
            if walk:
                count -= 1
    for h in high:
        h.reverse()

    # from here on a vertex is its new number, 1..n
    old2new = [0] * (n + 1)
    vertex_of = [0] * (n + 1)
    for v in range(n):
        old2new[number[v]] = newnum[v]
        vertex_of[newnum[v]] = v
    src[:] = [newnum[u] for u in src]
    dst[:] = [newnum[u] for u in dst]
    father = [0] * (n + 1)
    low1 = [0] * (n + 1)
    low2 = [0] * (n + 1)
    desc = [0] * (n + 1)
    tree_arc = [-1] * (n + 1)
    degree = [0] * (n + 1)
    adj: list[list[int | None]] = [[]] * (n + 1)
    where: dict[int, tuple[int, int]] = {}   # arc -> (vertex, position) in adj
    for v in range(n):
        x = newnum[v]
        father[x] = newnum[palm.father[v]] if palm.father[v] >= 0 else 0
        low1[x] = old2new[lowpt1[v]]
        low2[x] = old2new[lowpt2[v]]
        desc[x] = nd[v]
        tree_arc[x] = palm.tree_arc[v]
        degree[x] = palm.degree[v]
        adj[x] = out[v]
        for i, e in enumerate(out[v]):
            where[e] = (x, i)

    comps: list[list[int]] = []
    bonds: set[int] = set()   # the components that are bonds

    def new_edge(u: int, v: int) -> int:
        src.append(u)
        dst.append(v)
        etype.append(0)
        return len(src) - 1

    def bond(edges: list[int]) -> None:
        bonds.add(len(comps))
        comps.append(edges)

    def highpt(v: int) -> int:
        h = high[v]
        while h and not h[-1][1]:
            h.pop()
        return h[-1][0] if h else 0

    def del_high(e: int) -> None:
        entry = in_high.pop(e, None)
        if entry is not None:
            entry[1] = 0

    def del_adj(e: int) -> None:
        if e in where:
            u, i = where.pop(e)
            adj[u][i] = None

    def leads_down(w: int) -> bool:
        # w has degree two and its first outgoing arc goes to its child
        if degree[w] != 2:
            return False
        first = next((e for e in adj[w] if e is not None), None)
        return first is not None and dst[first] > w

    ts = [(-1, 0, 0)]   # the triple stack of (a, b, h); a = -1 marks an end of stack
    estack: list[int] = []

    def open_path(v: int, low: int, h0: int) -> None:
        # a path that starts at v and reaches down to ``low``
        if ts[-1][0] > low:
            y = 0
            while ts[-1][0] > low:
                _, b, h = ts.pop()
                y = max(y, h)
            ts.append((low, b, y))
        else:
            ts.append((low, v, h0))

    frames = [[1, 0, len(adj[1]), -1]]   # vertex, position, arcs left, tree arc taken
    while frames:
        frame = frames[-1]
        v, i, outv, e = frame
        if e >= 0:
            # back from the tree arc at position i - 1
            frame[3] = -1
            idx = i - 1
            w = dst[e]
            estack.append(tree_arc[w])
            # type-2 pairs (v, b)
            while v != 1 and (ts[-1][0] == v or leads_down(w)):
                a, b, h = ts[-1]
                if a == v and father[b] == a:
                    ts.pop()
                    continue
                e_ab = -1
                if leads_down(w):
                    e1 = estack.pop()
                    e2 = estack.pop()
                    del_adj(e2)
                    x = dst[e2]
                    ev = new_edge(v, x)
                    degree[x] -= 1
                    degree[v] -= 1
                    comps.append([e1, e2, ev])
                    if estack and src[estack[-1]] == x and dst[estack[-1]] == v:
                        e_ab = estack.pop()
                        del_adj(e_ab)
                        del_high(e_ab)
                else:
                    ts.pop()
                    comp = []
                    while estack:
                        xy = estack[-1]
                        xn, yn = src[xy], dst[xy]
                        if not (a <= xn <= h and a <= yn <= h):
                            break
                        estack.pop()
                        if (xn, yn) in ((a, b), (b, a)):
                            e_ab = xy
                            del_adj(xy)
                            del_high(xy)
                        else:
                            if where.get(xy) != (v, idx):
                                del_adj(xy)
                                del_high(xy)
                            comp.append(xy)
                            degree[xn] -= 1
                            degree[yn] -= 1
                    ev = new_edge(a, b)
                    comps.append(comp + [ev])
                    x = b
                if e_ab >= 0:
                    ev2 = new_edge(v, x)
                    bond([e_ab, ev, ev2])
                    ev = ev2
                    degree[x] -= 1
                    degree[v] -= 1
                estack.append(ev)
                adj[v][idx] = ev
                where[ev] = (v, idx)
                degree[x] += 1
                degree[v] += 1
                father[x] = v
                tree_arc[x] = ev
                etype[ev] = _TREE
                w = x
            # a type-1 pair (lowpt1(w), v)
            if low2[w] >= v and low1[w] < v and (father[v] != 1 or outv >= 2):
                comp = []
                while estack:
                    xy = estack[-1]
                    xn, yn = src[xy], dst[xy]
                    if not (w <= xn < w + desc[w] or w <= yn < w + desc[w]):
                        break
                    estack.pop()
                    comp.append(xy)
                    del_high(xy)
                    degree[xn] -= 1
                    degree[yn] -= 1
                lw = low1[w]
                ev = new_edge(v, lw)
                comps.append(comp + [ev])
                if estack and {src[estack[-1]], dst[estack[-1]]} == {v, lw}:
                    eh = estack.pop()
                    if where.get(eh) != (v, idx):
                        del_adj(eh)
                    ev2 = new_edge(v, lw)
                    bond([eh, ev, ev2])
                    if eh in in_high:
                        in_high[ev2] = in_high.pop(eh)
                    ev = ev2
                    degree[v] -= 1
                    degree[lw] -= 1
                if lw != father[v]:
                    estack.append(ev)
                    adj[v][idx] = ev
                    where[ev] = (v, idx)
                    etype[ev] = _FROND
                    if ev not in in_high and highpt(lw) < v:
                        in_high[ev] = entry = [v, 1]
                        high[lw].append(entry)
                    degree[v] += 1
                    degree[lw] += 1
                else:
                    adj[v][idx] = None
                    ev2 = new_edge(lw, v)
                    eh = tree_arc[v]
                    bond([ev, ev2, eh])
                    tree_arc[v] = ev2
                    etype[ev2] = _TREE
                    u, j = where[ev2] = where.pop(eh)
                    adj[u][j] = ev2
            if e in starts:
                while ts[-1][0] != -1:
                    ts.pop()
                ts.pop()
            while ts[-1][0] != -1 and ts[-1][1] != v and highpt(v) > ts[-1][2]:
                ts.pop()
            frame[2] = outv - 1
            continue
        if i == len(adj[v]):
            frames.pop()
            continue
        frame[1] = i + 1
        e = adj[v][i]
        if e is None:
            continue
        w = dst[e]
        if etype[e] == _TREE:
            if e in starts:
                open_path(v, low1[w], w + desc[w] - 1)
                ts.append((-1, 0, 0))
            frame[3] = e
            frames.append([w, 0, sum(f is not None for f in adj[w]), -1])
        else:
            if e in starts:
                open_path(v, w, v)
            estack.append(e)
            frame[2] = outv - 1
    if estack:
        comps.append(estack)
    pairs, rings = _assemble(comps, bonds, src, dst, real)
    return ([(vertex_of[x], vertex_of[y]) for x, y in pairs],
            [[vertex_of[x] for x in ring] for ring in rings])


def _assemble(comps: list[list[int]], bonds: set[int], src: list[int], dst: list[int],
              real: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The separation pairs and the polygons of four or more vertices of the
    triconnected components that the split components ``comps`` assemble
    into.

    Edges from ``real`` on are virtual; each lies in two split components.
    Bonds sharing a virtual edge merge into one bond, and polygons into one
    polygon.  A separation pair is then the poles of a bond with two or more
    virtual edges, or a virtual edge between two components neither of which
    is a bond.
    """
    def kind(i: int) -> int:   # 0 bond, 1 polygon, 2 triconnected
        if i in bonds:
            return 0
        return 1 if len({x for e in comps[i] for x in (src[e], dst[e])}) == len(comps[i]) else 2

    kinds = [kind(i) for i in range(len(comps))]
    holders: dict[int, list[int]] = {}
    for i, comp in enumerate(comps):
        for e in comp:
            if e >= real:
                holders.setdefault(e, []).append(i)
    up = list(range(len(comps)))

    def find(i: int) -> int:
        while up[i] != i:
            up[i] = up[up[i]]
            i = up[i]
        return i

    for i, j in holders.values():
        if kinds[i] == kinds[j] != 2:
            up[find(i)] = find(j)
    pairs = []
    poles: dict[int, list[int]] = {}   # bond -> its virtual edges
    for e, (i, j) in holders.items():
        gi, gj = find(i), find(j)
        if gi == gj:
            continue
        if kinds[i] and kinds[j]:
            pairs.append((src[e], dst[e]))
        for g in (gi, gj):
            if not kinds[g]:
                poles.setdefault(g, []).append(e)
    pairs += [(src[es[0]], dst[es[0]]) for es in poles.values() if len(es) >= 2]
    sides: dict[int, list[int]] = {}   # polygon -> its edges
    for i, comp in enumerate(comps):
        if kinds[i] == 1:
            g = find(i)
            sides.setdefault(g, []).extend(
                e for e in comp if e < real or find(holders[e][0]) != find(holders[e][1]))
    rings = []
    for edges in sides.values():
        if len(edges) >= 4:
            nbrs: dict[int, list[int]] = {}
            for e in edges:
                nbrs.setdefault(src[e], []).append(dst[e])
                nbrs.setdefault(dst[e], []).append(src[e])
            ring = [src[edges[0]], dst[edges[0]]]
            while len(ring) < len(edges):
                x, y = nbrs[ring[-1]]
                ring.append(y if x == ring[-2] else x)
            rings.append(ring)
    return pairs, rings


class SeparationPairs:
    """The separation pairs of a 2-connected graph, handed down its top-down splits.

    Take a 2-connected graph split at a separation pair (a, b), and a child
    (a piece of the graph minus a and b, plus a and b) that holds the edge
    ab or gets a virtual one.  The child's separation pairs are exactly the
    parent's pairs that lie inside it, minus (a, b).  So one
    :class:`Triconnectivity` serves every such descendant: its explicit pairs
    are kept, with those already split at, and a split at two vertices of a
    polygon cuts the polygon into the two halves that close with ab.

    A node holds a heap of (rank of a, rank of b, polygon or -1, a, b)
    entries, lexicographically first on top; ``rank`` orders the vertices.
    The largest child keeps its parent's heap, whose entries outside it are
    dropped as they surface, and a smaller child gathers its own from its
    vertices, so a vertex joins O(log n) heaps.
    """

    def __init__(self, tri: Triconnectivity, rank: Mapping[str, int]):
        self.rank = rank
        self.partners: dict[str, list[str]] = {}
        for x, y in tri.pairs:
            self.partners.setdefault(x, []).append(y)
            self.partners.setdefault(y, []).append(x)
        self.used: set[tuple[int, int]] = set()
        self.polygons: list[tuple | None] = []   # each live polygon's heap entry
        self.rings: dict[str, set[int]] = {}     # vertex -> its live polygons
        for ring in tri.polygons:
            self._add(list(ring))

    def _add(self, ring: list[str]) -> tuple | None:
        if len(ring) < 4:
            return None
        p = len(self.polygons)
        i = min(range(len(ring)), key=lambda j: self.rank[ring[j]])
        turned = ring[i:] + ring[:i]
        b = min(turned[2:-1], key=self.rank.__getitem__)
        entry = (self.rank[turned[0]], self.rank[b], p, turned[0], b, turned)
        self.polygons.append(entry)
        for v in ring:
            self.rings.setdefault(v, set()).add(p)
        return entry

    def heap(self, members: Collection[str], vertices: Collection[str]) -> list[tuple]:
        """The heap of a child with ``vertices``: ``members`` and the pair it was split at."""
        rank = self.rank
        out = []
        seen: set[int] = set()
        for v in members:
            for u in self.partners.get(v, ()):
                if u in vertices and (u not in members or rank[v] < rank[u]):
                    x, y = (v, u) if rank[v] < rank[u] else (u, v)
                    if (rank[x], rank[y]) not in self.used:
                        out.append((rank[x], rank[y], -1, x, y))
            for p in self.rings.get(v, ()):
                if p not in seen:
                    seen.add(p)
                    out.append(self.polygons[p])
        heapq.heapify(out)
        return out

    def pop(self, heap: list[tuple], vertices: Collection[str]) -> tuple[str, str] | None:
        """Take the lexicographically first pair inside ``vertices`` off ``heap``."""
        while heap:
            entry = heapq.heappop(heap)
            ra, rb, p, a, b = entry[:5]
            if a not in vertices or b not in vertices:
                continue
            if p < 0:
                if (ra, rb) in self.used:
                    continue
                self.used.add((ra, rb))
            else:
                if self.polygons[p] is not entry:
                    continue
                ring = entry[5]
                self.polygons[p] = None
                for v in ring:
                    self.rings[v].discard(p)
                j = ring.index(b)
                for half in (ring[:j + 1], ring[j:] + ring[:1]):
                    new = self._add(half)
                    if new is not None:
                        heapq.heappush(heap, new)
            return a, b
        return None


Adjacency = dict[str, dict[str, list[int]]]   # vertex -> neighbour -> edge ids


def pieces_apart(adj: Adjacency, a: str, b: str, seeds: Iterable[str]
                 ) -> tuple[list[tuple[list[str], Adjacency, list[int]]], bool]:
    """Take the components of a graph minus a and b out of it, all but the
    last one that a search finds.

    ``adj`` maps each vertex to its neighbours and the edges to each.  A piece
    starts at each seed; every piece grows by one vertex a round, pieces that
    meet merge, and the search stops once at most one piece still grows.  So
    it costs about what it takes out, however large the piece left is.  Each
    finished piece leaves ``adj`` as its vertices, its own adjacency (a and b
    included, with their edges into the piece) and its edges.  Returns those
    and whether a piece was left growing.  Every component must hold a seed.
    """
    owner: dict[str, list] = {}    # vertex -> piece [frontier, members, edges, merged into]
    expanded: set[str] = set()
    live = []
    for s in seeds:
        if s not in owner:
            owner[s] = piece = [[s], [s], [], None]
            live.append(piece)
    done = []
    while len(live) > 1:
        grown = {}
        for piece in live:
            if piece[3] is not None:
                continue
            if not piece[0]:
                done.append(piece)
                continue
            v = piece[0].pop()
            expanded.add(v)
            for w, edges in adj[v].items():
                if w == a or w == b or w in expanded:
                    piece[2].extend(edges)
                    continue
                other = owner.get(w)
                if other is None:
                    owner[w] = piece
                    piece[0].append(w)
                    piece[1].append(w)
                    continue
                while other[3] is not None:
                    other = other[3]
                if other is not piece:
                    big, small = sorted((piece, other), key=lambda p: -len(p[1]))
                    for k in range(3):
                        big[k] += small[k]
                    small[3] = big
                    piece = big
            grown[id(piece)] = piece
        live = [p for p in grown.values() if p[3] is None]
    out = []
    for _, members, edges, _ in done:
        own: Adjacency = {a: {}, b: {}}
        for v in members:
            own[v] = adj.pop(v)
            for end in (a, b):
                if v in adj[end]:
                    own[end][v] = adj[end].pop(v)
        out.append((members, own, edges))
    return out, bool(live)


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
