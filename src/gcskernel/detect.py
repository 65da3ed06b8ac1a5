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
Well parts rest on one rigidity test, :func:`is_well_part`, which slices the
two.  It counts before it computes: a part of r induced rows on c columns can
be well only when c - k <= r <= c, with k the number of rigid motions, so any
other part is refused without an SVD.  It serves the searches here, the
oracles and the bottom-up fallback: bottom-up makes the same decisions on
clusters as rigid bodies (:mod:`.bodies`), and calls it only for a union
with a ``fix`` or whose body matrix sits near the rank threshold.

Every rank decision takes ``rank_tol`` and reads only the rank
(:func:`numeric.rank_of`, singular values alone).  The minimal
dependent set oracle ranks the unpruned row subsets of one size in stacked
calls of at most ``ORACLE_CHUNK`` subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Sequence

import numpy as np

from .compiler import ResidualSystem, induced
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
    entities: frozenset[str]
    constraints: frozenset[str]

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


def is_well_part(model: Model, system: ResidualSystem, jacobian: np.ndarray,
                 motions: np.ndarray, entity_subset: Iterable[str],
                 rank_tol: float = RANK_REL_TOL) -> bool:
    """Whether the induced subsystem is well-constrained at the witness.

    The induced Jacobian block must have full row rank and a kernel no larger
    than the rank of the motion block on its columns.  A part with no induced
    constraints is never well (a lone free entity satisfies the rank
    equalities vacuously but is not constrained at all).

    The rank of r rows is at most r and the motion rank at most
    ``motions.shape[0]``, so unless c - motions.shape[0] <= r <= c for c
    columns the part is refused by counting alone.  The motion block is ranked
    only for a Jacobian block of full row rank with fewer rows than columns.
    """
    subset = set(entity_subset)
    if not subset:
        return False
    constraints, rows = induced(model, system, subset)
    if not constraints:
        return False
    columns = system.columns_of(subset)
    slack = len(columns) - len(rows)  # the kernel dimension at full row rank
    if not 0 <= slack <= motions.shape[0]:
        return False
    if rank_of(jacobian[np.ix_(rows, columns)], rank_tol) < len(rows):
        return False
    return slack == 0 or slack <= rank_of(motions[:, columns], rank_tol)


def greedy_well_parts(model: Model, system: ResidualSystem, jacobian: np.ndarray,
                      motions: np.ndarray, seed_entity: str | None = None,
                      rank_tol: float = RANK_REL_TOL) -> list[WellPart]:
    """Greedy maximal well-constrained parts, seed first, leftovers rescanned.

    A single ascending-id pass grows each part, adding an entity iff the
    induced subsystem stays well-constrained; a part that grew is kept, and
    a seed that took no entity is kept iff it is well alone.  The procedure
    repeats on the remaining entities until none are left.  Results are
    seed-dependent by design (that is the documented limitation), but
    deterministic for a fixed seed.  The first part grows from ``seed_entity`` (the smallest id by
    default); an id the model lacks raises ``ValueError``.  ``jacobian`` and
    ``motions`` are those of :func:`is_well_part`.
    """
    remaining = [e.id for e in model.entities]
    if seed_entity is not None and seed_entity not in remaining:
        raise ValueError(f"seed entity {seed_entity!r} is not an entity of the model")
    parts: list[WellPart] = []
    seed: str | None = seed_entity
    while remaining:
        if seed is None:
            seed = min(remaining)
        current = {seed}
        for eid in sorted(remaining):
            if eid == seed:
                continue
            if is_well_part(model, system, jacobian, motions, current | {eid}, rank_tol):
                current.add(eid)
        # a part that grew is the set its last addition tested well
        if len(current) > 1 or is_well_part(model, system, jacobian, motions, current, rank_tol):
            parts.append(WellPart(frozenset(current), induced(model, system, current)[0]))
            remaining = [i for i in remaining if i not in current]
        else:
            remaining.remove(seed)
        seed = None
    return parts


def oracle_max_well_part(model: Model, system: ResidualSystem, jacobian: np.ndarray,
                         motions: np.ndarray, entity_cap: int = 10,
                         rank_tol: float = RANK_REL_TOL) -> WellPart:
    """Largest well-constrained entity subset by exhaustive enumeration.

    Ties break by lexicographic entity-id order; when nothing qualifies the
    returned part is empty.  ``jacobian`` and ``motions`` are those of
    :func:`is_well_part`.
    """
    ids = sorted(e.id for e in model.entities)
    if len(ids) > entity_cap:
        raise CapExceeded(f"{len(ids)} entities exceeds the oracle cap of {entity_cap}")
    for k in range(len(ids), 0, -1):
        for combo in combinations(ids, k):
            if is_well_part(model, system, jacobian, motions, combo, rank_tol):
                return WellPart(frozenset(combo), induced(model, system, combo)[0])
    return WellPart(frozenset(), frozenset())


def detection_report(dependency_groups: Sequence[DependencyGroup],
                     well_parts: Sequence[WellPart],
                     method: str, seed: int) -> dict:
    return {
        "dependencyGroups": sorted(list(g.sorted_rows()) for g in dependency_groups),
        "wellParts": sorted(list(p.sorted_entities()) for p in well_parts),
        "method": method,
        "seed": seed,
    }
