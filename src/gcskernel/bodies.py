"""Well clusters as rigid bodies at one witness sample.

A part of a model is well at the witness (:func:`detect.well_parts`) when
its induced Jacobian block has full row rank and a kernel no larger than
the rank of the motion basis M on its columns.  Rigid motions satisfy every
row but a ``fix``'s, so the kernel of a well part without a ``fix`` is
exactly the span of M[:, cols]: the part moves as one body, with D
coefficients a (D the rows of M) for the velocity M[:, cols]^T a
(Hoffmann, Lomonosov and Sitharam, "Decomposition plans for geometric
constraint systems", 2001; Tay and Whiteley, "Generating isostatic
frameworks", 1985, on body-and-pin frameworks).

So the kernel of a union of well bodies is parameterised by D coefficients
per body.  They must give each shared entity one velocity (its columns of M
times the difference of two holders' coefficients vanish), and they must
satisfy the union's extra rows, the induced rows that no body holds,
projected through each entity's motion block.  Each extra row names an
entity outside the largest body.  Of the nullity of that matrix B, which
has at most 3D columns whatever the union's size, each body's D - r
coefficients that do not move it (r its motion rank) are no motion, so

    dim ker = nullity(B) - sum(D - r_i).

The union is well when its columns minus that dimension equal its rows and
the dimension is at most its motion rank, which is D once a body's is D.
This is the witness test on clusters as bodies (Thierry, Schreck,
Michelucci, Fünfzig and Génevaux, "Extensions of the witness method to
characterize under-, over- and well-constrained geometric constraint
systems", 2011).  A union's rows, constraints and motion rank come from its
bodies and its extra rows, without a scan of its entities.

Most Jacobians have rows that are independent with margin: their rank
with the gap ``RANK_GAP`` is their row count (:func:`detect.rows_independent`),
which a witness vote that ranks J densely records on its sample
(:attr:`witness.WitnessConfiguration.independent`).  Where that flag is
True, every induced block has full row rank too, by Cauchy interlacing, so
its kernel is its columns minus its rows, and a union is decided by that
count and its motion rank alone, without B; an undecided flag (None) takes B.

A body that holds a ``fix`` moves less than rigidly, and B can be decided
the other way than the union's own block where one of its singular values
sits within ``RANK_GAP`` of the threshold, where ``rank_of`` with that gap
declines it; such a union falls back to the dense test,
:func:`detect.well_parts`, and :attr:`Bodies.fallbacks` counts it.  A body
is that test's :class:`detect.WellPart` record, and so are the
seeds (single entities and pairs), which bottom-up decides in one call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .compiler import ResidualSystem, row_count, rows_of
from .detect import WellPart, well_parts
from .model import Model
from .numeric import RANK_GAP, RANK_REL_TOL, rank_of
from .witness import WitnessConfiguration


class Bodies:
    """The body algebra at one ``witness`` sample (its unanchored Jacobian,
    its motion basis and its flag ``independent``), with its state for one
    run: each entity's motion block, each constraint's rows projected
    through its entities' blocks, and the count of fallbacks to
    :func:`detect.well_parts`.  ``rank_tol`` is the relative SVD threshold
    of every rank decision.  Where the flag is True, every union is decided
    by counting."""

    def __init__(self, model: Model, system: ResidualSystem, witness: WitnessConfiguration,
                 rank_tol: float = RANK_REL_TOL):
        self.model, self.system, self.witness, self.rank_tol = model, system, witness, rank_tol
        self.fallbacks = 0
        self._blocks: dict[str, np.ndarray] = {}
        self._projected: dict[str, list[tuple[str, np.ndarray]]] = {}

    def block(self, entity: str) -> np.ndarray:
        """M^T on the entity's columns: its velocity is ``block @ a``."""
        b = self._blocks.get(entity)
        if b is None:
            b = self._blocks[entity] = self.witness.motions[:, self.system.entity_slice(entity)].T
        return b

    def projected(self, constraint: str) -> list[tuple[str, np.ndarray]]:
        """The constraint's Jacobian rows times each of its entities' motion
        blocks, by entity."""
        p = self._projected.get(constraint)
        if p is None:
            rows = rows_of(self.system, (constraint,), ())
            p = self._projected[constraint] = [
                (e, self.witness.jacobian[rows, self.system.entity_slice(e)] @ self.block(e))
                for e in self.model.constraint(constraint).entities]
        return p

    def union(self, bodies: Sequence[WellPart], entities: frozenset[str]) -> WellPart | None:
        """The body of the union ``entities`` of ``bodies`` (each well at
        the witness) when the union is well, else None.  Where the rows of
        the Jacobian are independent with margin (the sample's flag is
        True), so are the union's, and it is well exactly when
        0 <= columns - rows <= its motion rank."""
        if any(b.fixed for b in bodies):
            return self._fallback(entities)
        D = self.witness.motions.shape[0]
        columns = self.system.columns
        big = max(range(len(bodies)), key=lambda i: len(bodies[i].entities))
        largest = bodies[big]
        others = [b for b in bodies if b is not largest]
        outside = {e for b in others for e in b.entities} - largest.entities
        # a constraint that names an entity outside the largest body is not
        # the largest body's
        extra = sorted({c.id for e in outside for c in self.model.constraints_on(e)
                        if entities.issuperset(c.entities)
                        and not any(c.id in b.constraints for b in others)})
        added = set().union(*(b.constraints for b in others), extra) - largest.constraints
        rows = largest.rows + row_count(self.system, added, outside)
        motion_rank = D if any(b.motion_rank == D for b in bodies) else int(
            rank_of(self.witness.motions[:, self.system.columns_of(entities)], self.rank_tol))
        body = WellPart(entities, largest.constraints | added, rows,
                        largest.columns + sum(len(columns[e]) for e in outside),
                        motion_rank, fixed=False)
        slack = body.columns - rows
        if not 0 <= slack <= motion_rank:
            return None
        if self.witness.independent:
            return body  # the union's block has full row rank: its kernel is the slack
        # the first body holding each entity that a smaller body holds, and
        # the pins that make each later holder move it alike
        first: dict[str, int] = {}
        pins = []
        for i, b in enumerate(bodies):
            if i == big:
                continue
            for e in b.entities:
                if e not in first:
                    holding = [j for j, o in enumerate(bodies) if e in o.entities]
                    first[e] = holding[0]
                    pins += [(e, p, q) for p, q in zip(holding, holding[1:])]
        B = np.zeros((sum(len(columns[e]) for e, _, _ in pins)
                      + row_count(self.system, extra, ()), len(bodies) * D))
        r = 0
        for e, p, q in pins:
            block = self.block(e)
            B[r:r + len(block), p * D:(p + 1) * D] = block
            B[r:r + len(block), q * D:(q + 1) * D] = -block
            r += len(block)
        for c in extra:
            for e, part in self.projected(c):
                i = first.get(e, big)
                B[r:r + len(part), i * D:(i + 1) * D] += part
            r += row_count(self.system, (c,), ())
        rank = rank_of(B, self.rank_tol, RANK_GAP)
        if rank < 0:  # declined
            return self._fallback(entities)
        kernel = B.shape[1] - rank - sum(D - b.motion_rank for b in bodies)
        if kernel < slack:  # no block of r rows has a kernel below c - r
            return self._fallback(entities)
        return body if kernel == slack else None

    def _fallback(self, entities: frozenset[str]) -> WellPart | None:
        self.fallbacks += 1
        return well_parts(self.model, self.system, self.witness, [entities], self.rank_tol)[0]
