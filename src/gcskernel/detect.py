"""Over-constrained part and well-constrained part detection.

The greedy procedures follow the classical recipe: grow a maximal independent
row set from a seed, then blame each excluded row on that set (the emitted
group is the excluded row plus the whole independent set; the exact rows it
numerically depends on are attached as ``support``).  The exhaustive oracles
realize the actual minimality definitions by subset enumeration, which is
what exposes the documented greedy failures: greedy groups can be strictly
larger than the true minimal dependent sets, and badly seeded well parts can
be strictly smaller than the maximal ones.

Every procedure takes the matrices it reads, as one witness sample carries
them (:class:`~.witness.WitnessConfiguration`): the dependency searches take
its Jacobian, the well-part searches its Jacobian and rigid-motion basis.
Well parts rest on one rigidity test, :func:`well_parts`, which decides a
batch of entity sets on slices of the two, those of one shape in one stacked
call.  It counts first: a part of r induced rows on c columns can be well
only when c - k <= r <= c (k rigid motions); no other part costs an SVD.
It serves :func:`is_well_part`, the searches here, and bottom-up's seeds
and its fallback from clusters as rigid bodies (:mod:`.bodies`).

Every rank decision takes ``rank_tol`` and reads only the rank
(:func:`numeric.rank_of`, singular values alone).  The oracles rank the
candidates of one size in stacked calls of at most ``ORACLE_CHUNK``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Collection, Iterable, Sequence

import numpy as np

from .compiler import ResidualSystem, induced_constraints, row_count, rows_of
from .model import Model
from .numeric import RANK_REL_TOL, SUPPORT_TOL, rank_of

ORACLE_CHUNK = 256  # row subsets per stacked SVD call: bounds the stack's memory


class CapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class DependencyGroup:
    rows: frozenset[int]
    kind: str  # "greedy" | "oracle-minimal"
    excluded_row: int | None = None
    support: frozenset[int] | None = None

    def sorted_rows(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))


@dataclass(frozen=True)
class WellPart:
    """A well part: its entities, induced constraints, row and column counts,
    the motion basis's rank on its columns, and whether it holds a ``fix``."""
    entities: frozenset[str]
    constraints: frozenset[str]
    rows: int = 0
    columns: int = 0
    motion_rank: int = 0
    fixed: bool = False

    def sorted_entities(self) -> tuple[str, ...]:
        return tuple(sorted(self.entities))


def greedy_dependency_groups(jacobian: np.ndarray, seed_row: int = 0,
                             rank_tol: float = RANK_REL_TOL) -> list[DependencyGroup]:
    """Dependency groups of the rows of ``jacobian`` from a greedily grown
    maximal independent row set.

    Rows are scanned in ascending index order starting from ``seed_row``; each
    row that keeps the set independent joins it.  Every excluded row r yields
    the group {r} union the independent set; ``support`` records the rows with
    nonzero coefficients in r's (unique) expansion over the set.
    """
    m = jacobian.shape[0]
    if m == 0:
        return []
    if not 0 <= seed_row < m:
        raise ValueError(f"seed row {seed_row} out of range")
    order = [seed_row] + [i for i in range(m) if i != seed_row]

    independent: list[int] = []
    excluded: list[int] = []
    for i in order:
        candidate = jacobian[independent + [i]]
        if rank_of(candidate, rank_tol) == len(independent) + 1:
            independent.append(i)
        else:
            excluded.append(i)

    groups = []
    basis = jacobian[independent]
    for r in excluded:
        coeffs, *_ = np.linalg.lstsq(basis.T, jacobian[r], rcond=None)
        scale = max(1.0, float(np.max(np.abs(coeffs))) if coeffs.size else 1.0)
        support = {
            independent[k]
            for k in np.flatnonzero(np.abs(coeffs) > SUPPORT_TOL * scale)
        }
        groups.append(DependencyGroup(
            rows=frozenset(independent) | {r},
            kind="greedy",
            excluded_row=r,
            support=frozenset(support) | {r},
        ))
    return groups


def oracle_min_dependent_sets(jacobian: np.ndarray, size_cap: int = 12,
                              rank_tol: float = RANK_REL_TOL) -> list[DependencyGroup]:
    """All inclusion-minimal linearly dependent row sets of ``jacobian``, by
    exhaustive enumeration.

    Enumeration is by increasing cardinality with superset pruning, so every
    emitted set is minimal: each proper subset is independent.  The unpruned
    subsets of one cardinality are ranked in stacks of ``ORACLE_CHUNK``; no set
    of that cardinality contains another, so ranking them together leaves the
    pruning and the output order as they are.
    """
    m = jacobian.shape[0]
    if m > size_cap:
        raise CapExceeded(f"{m} rows exceeds the oracle cap of {size_cap}")
    found: list[frozenset[int]] = []
    for k in range(1, m + 1):
        unpruned = (combo for combo in combinations(range(m), k)
                    if not any(prev <= frozenset(combo) for prev in found))
        while chunk := list(islice(unpruned, ORACLE_CHUNK)):
            ranks = rank_of(jacobian[np.array(chunk)], rank_tol)
            found.extend(frozenset(combo) for combo, rank in zip(chunk, ranks) if rank < k)
    return [DependencyGroup(rows=s, kind="oracle-minimal") for s in found]


def well_parts(model: Model, system: ResidualSystem, jacobian: np.ndarray,
               motions: np.ndarray, candidates: Sequence[Collection[str]],
               rank_tol: float = RANK_REL_TOL) -> list[WellPart | None]:
    """The well part on each candidate entity set, None where the set's
    induced subsystem is not well-constrained at the witness: its Jacobian
    block must have full row rank and a kernel no larger than the rank of
    the motion block on its columns.  A set with no induced constraints is
    never well (a lone free entity satisfies the rank equalities vacuously
    but is not constrained at all).

    The rank of r rows is at most r and the motion rank at most
    k = ``motions.shape[0]``, so a set of r rows on c columns is refused by
    counting alone unless c - k <= r <= c, with r and c summed from its
    constraints' and entities' row and column counts.  Only the others get
    row and column lists: their Jacobian blocks are ranked in one stacked
    call per shape, then the motion blocks of those of full row rank.
    """
    k = motions.shape[0]
    columns = system.columns
    shapes = defaultdict(list)
    for i, cand in enumerate(candidates):
        keep = set(cand)
        constraints = induced_constraints(model, keep)
        if not constraints:
            continue
        r, c = row_count(system, constraints, keep), sum([len(columns[e]) for e in keep])
        if 0 <= c - r <= k:
            shapes[r, c].append((i, keep, constraints))
    # index lists only for the sets that counting keeps
    full = defaultdict(list)
    for (r, c), group in shapes.items():
        rows = np.array([rows_of(system, cons, keep) for _, keep, cons in group])
        cols = [system.columns_of(keep) for _, keep, _ in group]
        ranks = rank_of(jacobian[rows[:, :, None], np.array(cols)[:, None, :]], rank_tol)
        for g, col, rank in zip(group, cols, ranks):
            if rank == r:
                full[c].append((g, r, col))
    out: list[WellPart | None] = [None] * len(candidates)
    for c, group in full.items():
        ranks = rank_of(motions[:, np.array([g[2] for g in group])].transpose(1, 0, 2), rank_tol)
        for ((i, keep, constraints), r, _), rank in zip(group, ranks):
            if c - r <= rank:
                out[i] = WellPart(frozenset(keep), constraints, r, c, int(rank),
                                  any(model.constraint(n).kind == "fix" for n in constraints))
    return out


def is_well_part(model: Model, system: ResidualSystem, jacobian: np.ndarray,
                 motions: np.ndarray, entity_subset: Iterable[str],
                 rank_tol: float = RANK_REL_TOL) -> bool:
    """Whether the induced subsystem is well-constrained at the witness:
    :func:`well_parts` on the one candidate ``entity_subset``."""
    return well_parts(model, system, jacobian, motions, [frozenset(entity_subset)],
                      rank_tol)[0] is not None


def _natural(eid: str) -> tuple:
    """An id's sort key with its digit runs compared as numbers (P2 < P10)."""
    runs = re.split(r"(\d+)", eid)
    return tuple(int(r) if i % 2 else r for i, r in enumerate(runs)), eid


def greedy_well_parts(model: Model, system: ResidualSystem, jacobian: np.ndarray,
                      motions: np.ndarray, seed_entity: str | None = None,
                      rank_tol: float = RANK_REL_TOL) -> list[WellPart]:
    """Greedy maximal well-constrained parts, seed first, leftovers rescanned.

    A single pass in natural id order (P2 before P10) grows each part,
    adding an entity iff the induced subsystem stays well-constrained; a
    part that grew is kept, and a seed that took no entity is kept iff it is
    well alone.  The procedure repeats on the remaining entities until none
    are left.  Results are seed-dependent by design (that is the documented
    limitation), but deterministic for a fixed seed.  The first part grows
    from ``seed_entity`` (the first id by default); an id the model lacks
    raises ``ValueError``.  ``jacobian`` and ``motions`` are those of
    :func:`well_parts`.
    """
    remaining = sorted((e.id for e in model.entities),
                       key=lambda e: (e != seed_entity, _natural(e)))  # the seed first
    if seed_entity is not None and seed_entity not in remaining:
        raise ValueError(f"seed entity {seed_entity!r} is not an entity of the model")

    def well(subset: set[str]) -> WellPart | None:
        return well_parts(model, system, jacobian, motions, [subset], rank_tol)[0]

    parts: list[WellPart] = []
    while remaining:
        current, part = {remaining[0]}, None
        for eid in remaining[1:]:
            if (grown := well(current | {eid})) is not None:
                current.add(eid)
                part = grown
        # a part that grew is the set its last addition tested well
        if part is None:
            part = well(current)
        if part is not None:
            parts.append(part)
        remaining = [i for i in remaining if i not in current]
    return parts


def oracle_max_well_part(model: Model, system: ResidualSystem, jacobian: np.ndarray,
                         motions: np.ndarray, entity_cap: int = 10,
                         rank_tol: float = RANK_REL_TOL) -> WellPart:
    """Largest well-constrained entity subset by exhaustive enumeration.

    Ties break by lexicographic entity-id order; when nothing qualifies the
    returned part is empty.  The subsets of one size are decided in stacks of
    ``ORACLE_CHUNK`` (:func:`well_parts`, which takes ``jacobian`` and
    ``motions``).
    """
    ids = sorted(e.id for e in model.entities)
    if len(ids) > entity_cap:
        raise CapExceeded(f"{len(ids)} entities exceeds the oracle cap of {entity_cap}")
    for k in range(len(ids), 0, -1):
        subsets = combinations(ids, k)
        while chunk := list(islice(subsets, ORACLE_CHUNK)):
            for part in well_parts(model, system, jacobian, motions, chunk, rank_tol):
                if part is not None:
                    return part
    return WellPart(frozenset(), frozenset())


def detection_report(dependency_groups: Sequence[DependencyGroup], method: str, seed: int,
                     well_parts: Iterable[WellPart] = ()) -> dict:
    return {
        "dependencyGroups": sorted(list(g.sorted_rows()) for g in dependency_groups),
        "wellParts": sorted(list(p.sorted_entities()) for p in well_parts),
        "method": method,
        "seed": seed,
    }
