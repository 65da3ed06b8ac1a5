"""Witness configuration method: witness generation, degree of rigidity,
and the rank-based constraint-state criteria.

A witness is a generic variable assignment at which every singular
(incidence-type) residual and every normalization holds; at such a point the
Jacobian has the same rank structure as at actual solutions.  Any point the
projection of a uniform sample onto those rows reaches is one, coincidences
the rows force included; a draw fails (:class:`WitnessError`) only when the
projection does not converge.  The verdict
logic on the unanchored Jacobian J (m rows, n columns) is

    over   iff  rank(J) < m            (dependent rows, kernel of J^T nonempty)
    under  iff  n - rank(J) > dor      (free perturbations beyond rigid motions)
    well   iff  neither

where dor, the degree of rigidity, is the rank of the rigid-motion basis:
translations and rotations translated to parameter-space velocities at the
witness.  On rigid-motion-invariant systems "well" coincides with the
equalities rank = m and n - rank = dor; systems containing fix constraints
can legitimately have n - rank < dor and still count as well; the free
motions are max(0, n - rank - dor).  A :class:`WcmReport` stores the counts
and reads these judgments off them.  It names the dependent rows by the
groups of :func:`numeric.cokernel_groups`, which computes singular vectors
only for a Jacobian below full row rank.

Random configurations can be accidentally singular, so characterization votes
over a ballot of three independently seeded witnesses and reports "unstable"
when no two agree on (rank, dor).  Votes are drawn in seed order and stop at
the majority: when the first two agree, the third is never drawn, since it
cannot change the result.  Every vote is ranked from singular values alone,
of J or of its diagonal blocks (below), and only the reported vote names its
dependent rows.

A large rigid vote ranks no dense J.  When J has at least
``numeric.BLOCK_STEP_MIN_ROWS`` rows and rows + dor = columns, a frame of
dor columns on which the motion basis has rank dor is set aside; the square
rest of J is nonsingular, so J is of full row rank with no free motion,
when every diagonal block of its block-triangular form has full rank with
``rank_of``'s gap ``RANK_GAP`` (:func:`full_row_rank_certificate`).  A vote
that fails it, a smaller one, and one with rows + dor != columns are ranked
by ``rank_of`` of the whole J.

A witness carries J and the motion basis at its sample, and every consumer
reads them from there: the report keeps the sample of its first vote, drawn
at the run's seed, which detection and the bottom-up merge checks read, so
a run draws each seed at most once.  Bottom-up's dependent rows come from
the vote too: those of the first vote's J (:meth:`WcmReport.witness_groups`),
or of a one-vote :func:`characterize`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .compiler import (
    ResidualSystem,
    compile_model,
    eval_jacobian,
    full_cross,
)
from .model import Entity, Model, PLANE3, HESSIAN, POINT2, POINT3, POINT_NORMAL, LINE3
from .numeric import (
    BLOCK_STEP_MIN_ROWS,
    RANK_GAP,
    RANK_REL_TOL,
    _block_step,
    cokernel_groups,
    optimize_solve,
    rank_of,
)
from .structural import EquationGraph

WITNESS_TOL = 1e-9


class WitnessError(RuntimeError):
    pass


@dataclass(frozen=True)
class WitnessConfiguration:
    assignment: np.ndarray
    satisfied_rows: tuple[int, ...]  # singular + normalization residual indices
    seed: int
    attempts: int
    jacobian: np.ndarray  # the unanchored Jacobian at the sample
    motions: np.ndarray  # the rigid-motion basis at the sample (motion_basis)


def _projection(system: ResidualSystem, model: Model) -> ResidualSystem:
    """The singular rows a witness sample is projected onto, with every
    cross-product component (:func:`compiler.full_cross`), so the projection
    lands on the exact singular variety and the reduced system's spurious
    branch is never satisfied by construction."""
    system = full_cross(system, model)
    return system.select(system.singular_rows())


def generate_witness(system: ResidualSystem, model: Model, seed: int = 0,
                     max_attempts: int = 10,
                     projection: ResidualSystem | None = None) -> WitnessConfiguration:
    """Sample a witness: uniform in [-1, 1]^n projected onto the singular subsystem.

    The singular subsystem (incidences, parallels, normalizations) is usually
    highly under-constrained and solves in one attempt.  Any point the
    projection reaches is the witness; after ``max_attempts`` projections that
    do not converge, :class:`WitnessError` is raised.  The sample carries the Jacobian of ``system`` without anchors and the motion
    basis.  ``projection`` is the selection of singular rows that samples are
    projected onto, when the caller already has it (:func:`characterize`
    derives it once for all its votes, so they share one evaluation plan);
    it is derived here otherwise.
    """
    base = system.without_anchors()
    rows = base.singular_rows()
    if projection is None:
        projection = _projection(base, model)
    rng = np.random.default_rng(seed)
    last_error = "no attempts made"
    for attempt in range(1, max_attempts + 1):
        x = rng.uniform(-1.0, 1.0, size=base.n_variables)
        if rows:
            result = optimize_solve(projection, x, max_iter=200, tol=WITNESS_TOL)
            if not result.converged:
                last_error = f"singular subsystem projection: {result.status}"
                continue
            x = result.assignment
        return WitnessConfiguration(x, tuple(rows), seed, attempt, eval_jacobian(base, x),
                                    motion_basis(model, base, x))
    raise WitnessError(
        f"witness generation failed after {max_attempts} attempts (seed {seed}): {last_error}")


def motion_basis(model: Model, system: ResidualSystem, assignment) -> np.ndarray:
    """Rigid-motion generator velocities in the system's variable coordinates:
    row i is the parameter velocity of generator i (the translations, then
    the rotations)."""
    x = np.asarray(assignment, dtype=float)
    M = np.zeros((geometry.generator_count(model.dimension), system.n_variables))
    points = []  # the columns of each point, filled below with array slices
    for e in model.entities:
        if e.kind in (POINT2, POINT3):
            points.append(system.columns[e.id])
        else:
            s = system.entity_slice(e.id)
            M[:, s] = geometry.motion_rows(e, x[s])
    if not points:
        return M
    P = np.array(points)  # one row per point: its coordinate columns
    for axis in range(P.shape[1]):  # the translations
        M[axis, P[:, axis]] = 1.0
    if P.shape[1] == 2:  # the rotation's velocity (-y, x)
        X, Y = P.T
        M[2, X] = -x[Y]
        M[2, Y] = x[X]
    else:  # the rotation about axis i moves p by e_i x p (geometry.skew)
        X, Y, Z = P.T
        M[3, Y], M[3, Z] = -x[Z], x[Y]
        M[4, X], M[4, Z] = x[Z], -x[X]
        M[5, X], M[5, Y] = -x[Y], x[X]
    return M


def compute_dor(model: Model, system: ResidualSystem, assignment,
                rank_tol: float = RANK_REL_TOL) -> int:
    """Degree of rigidity: numerical rank of the rigid-motion basis of the
    whole system; ``rank_tol`` is the relative SVD threshold of
    :func:`rank_of`.
    """
    return rank_of(motion_basis(model, system, assignment), rank_tol)


@dataclass(frozen=True)
class WcmReport:
    """The counts a characterization measured; every judgment is read off them.
    ``rank = dor = -1`` marks the report whose votes had no majority: it is
    unstable, neither over nor under, and ``sub_reports`` holds the votes.
    ``seeds`` are the ballot's seeds; later ones are drawn only while the
    majority is open."""
    columns: int
    rows: int
    rank: int
    dor: int
    dependent_groups: tuple[tuple[int, ...], ...]
    seeds: tuple[int, ...] = ()
    sub_reports: tuple["WcmReport", ...] = ()
    # the first vote's witness, drawn at the first seed, and that vote's
    # (rank, dor); not part of the report
    witness: WitnessConfiguration | None = field(default=None, compare=False, repr=False)
    witness_key: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    @property
    def over(self) -> bool:
        return 0 <= self.rank < self.rows

    @property
    def under(self) -> bool:
        return self.free_motions > 0

    @property
    def free_motions(self) -> int:
        return max(0, self.columns - self.rank - self.dor) if self.rank >= 0 else 0

    @property
    def verdict(self) -> str:
        """well | under | over | over-and-under | unstable"""
        if self.rank < 0:
            return "unstable"
        parts = [name for name, holds in (("over", self.over), ("under", self.under)) if holds]
        return "-and-".join(parts) or "well"

    def witness_groups(self) -> tuple[tuple[int, ...], ...]:
        """The dependent row groups of ``witness.jacobian``: the first vote's
        report's, or, when it is not kept, that vote's cokernel at its rank
        (:func:`numeric.cokernel_groups`), taken on each call."""
        if self.sub_reports:
            return self.sub_reports[0].dependent_groups
        if self.witness_key == (self.rank, self.dor):
            return self.dependent_groups
        return cokernel_groups(self.witness.jacobian, self.witness_key[0])

    def to_json_dict(self) -> dict:
        return {
            "columns": self.columns,
            "rows": self.rows,
            "rank": self.rank,
            "dor": self.dor,
            "verdict": self.verdict,
            "dependentGroups": [list(g) for g in self.dependent_groups],
            "freeMotions": self.free_motions,
            "seeds": list(self.seeds),
        }


def characterize_at(system: ResidualSystem, assignment, dor: int,
                    seeds: tuple[int, ...] = (),
                    rank_tol: float = RANK_REL_TOL) -> WcmReport:
    """Single-witness constraint-state report on the system Jacobian."""
    jacobian = eval_jacobian(system, assignment)
    return _report(jacobian, rank_of(jacobian, rank_tol), dor, seeds)


def _report(jacobian: np.ndarray, rank: int, dor: int, seeds: tuple[int, ...]) -> WcmReport:
    """The constraint-state report of a witness Jacobian of numerical rank
    ``rank`` and degree of rigidity ``dor``, naming its dependent rows."""
    m, n = jacobian.shape
    return WcmReport(n, m, rank, dor, cokernel_groups(jacobian, rank), seeds)


def _frame(system: ResidualSystem, motions: np.ndarray, dor: int,
           rank_tol: float = RANK_REL_TOL) -> list[int] | None:
    """``dor`` columns on which the motion basis ``motions`` has rank
    ``dor``: the columns in breadth-first order of the equation graph from
    row 0, each kept when it raises the rank of the columns kept before it;
    None when the rows that row 0 reaches do not give ``dor``."""
    if dor == 0:
        return []
    adjacency = system.adjacency
    column_rows = EquationGraph(len(adjacency), system.n_variables,
                                adjacency).variable_adjacency()
    frame: list[int] = []
    seen_rows, seen_cols = {0}, set()
    queue = deque([0] if adjacency else [])
    while queue:
        for v in adjacency[queue.popleft()]:
            if v in seen_cols:
                continue
            seen_cols.add(v)
            if rank_of(motions[:, frame + [v]], rank_tol) > len(frame):
                frame.append(v)
                if len(frame) == dor:
                    return frame
            for e in column_rows[v]:
                if e not in seen_rows:
                    seen_rows.add(e)
                    queue.append(e)
    return None


def full_row_rank_certificate(system: ResidualSystem, motions: np.ndarray, dor: int,
                              rank_tol: float = RANK_REL_TOL) -> Callable[[np.ndarray], bool]:
    """A test of full row rank for the Jacobians of ``system`` (m rows,
    m + ``dor`` columns) at samples whose motion basis is like ``motions``.

    A frame F of ``dor`` columns (:func:`_frame`) is set aside and the square
    rest J[:, not F] is put in block-triangular form along the solve plan of
    its equation graph (:func:`numeric._block_step`: a perfect matching and
    its strongly connected components).  A finite Jacobian passes when
    every diagonal block has full rank with the gap ``RANK_GAP``
    (:func:`rank_of`, the blocks of one size in one call): then J[:, not F]
    is nonsingular, so rank J = m.  Every Jacobian fails when there is no
    frame or no perfect matching.
    """
    frame = _frame(system, motions, dor, rank_tol)
    if frame is None:
        return lambda jacobian: False
    cols = np.setdiff1d(np.arange(system.n_variables), frame)
    plan = _block_step(system, cols)
    if plan is None:
        return lambda jacobian: False
    blocks = [(size, E, cols[V]) for size, _, E, V in plan.groups]
    return lambda jacobian: bool(np.isfinite(jacobian).all()) and all(
        rank_of(jacobian[E, V], rank_tol, RANK_GAP).min() == size for size, E, V in blocks)


def characterize(system: ResidualSystem, model: Model, seed: int = 0,
                 votes: int = 3, rank_tol: float = RANK_REL_TOL) -> WcmReport:
    """Majority-vote characterization over independently seeded witnesses.

    Anchors are excluded: the criteria quantify rigid-motion freedom, which
    anchoring deliberately removes.  Vote i draws the witness of seed
    ``seed + i`` and ranks its Jacobian and motion basis (singular values
    alone).  A Jacobian of at least ``BLOCK_STEP_MIN_ROWS`` rows whose rows
    and degree of rigidity add up to its columns is first offered to
    :func:`full_row_rank_certificate`, built at the first such vote and
    shared by the later ones; when its blocks pass, the vote's rank is its
    row count without an SVD of J, and otherwise J is ranked as any other.
    Votes are drawn and ranked one at a time, and drawing stops as
    soon as one (rank, dor) key has a majority of ``votes``, which no later
    vote can take from it.  The report is the first vote with that key, and
    only it names its dependent rows; it keeps the first vote's witness and
    (rank, dor) in ``witness`` and ``witness_key``, and the whole ballot,
    ``seed`` to ``seed + votes - 1``, in ``seeds``.  A system without
    variables has one configuration, so it takes one vote; ``votes`` below
    1 raise ``ValueError``.  If no key reaches a majority, every vote has
    been drawn, the verdict is "unstable" and the individual reports are
    attached.  ``rank_tol`` is the relative SVD threshold of both rank
    decisions (the Jacobian rank and the degree of rigidity).
    """
    if votes < 1:
        raise ValueError(f"votes must be >= 1, got {votes}")
    base = system.without_anchors()
    if base.n_variables == 0:
        votes = 1
    projection = _projection(base, model)
    seeds = tuple(range(seed, seed + votes))
    needed = 1 if votes == 1 else max(2, votes // 2 + 1)
    drawn: list[tuple[WitnessConfiguration, tuple[int, int]]] = []
    certificate = None  # built at the first vote it can serve, then shared
    for s in seeds:
        w = generate_witness(base, model, seed=s, projection=projection)
        m, n = w.jacobian.shape
        if m >= BLOCK_STEP_MIN_ROWS:
            dor = rank_of(w.motions, rank_tol)
            if m + dor == n and certificate is None:
                certificate = full_row_rank_certificate(base, w.motions, dor, rank_tol)
            certified = m + dor == n and certificate(w.jacobian)
            key = (m if certified else rank_of(w.jacobian, rank_tol), dor)
        else:
            key = (rank_of(w.jacobian, rank_tol), rank_of(w.motions, rank_tol))
        drawn.append((w, key))
        if sum(k == key for _, k in drawn) == needed:
            winner = next(v for v, k in drawn if k == key)
            return replace(_report(winner.jacobian, *key, seeds), witness=drawn[0][0],
                           witness_key=drawn[0][1])
    votes_cast = tuple(_report(w.jacobian, *key, (w.seed,)) for w, key in drawn)
    m, n = drawn[0][0].jacobian.shape
    return WcmReport(n, m, -1, -1, (), seeds, votes_cast, drawn[0][0])


_SCHEME_TAGS = {HESSIAN: PLANE3, POINT_NORMAL: PLANE3, "point-direction": LINE3}


def _convert_entity(e: Entity, scheme: str) -> Entity:
    if e.kind != _SCHEME_TAGS.get(scheme) or (e.spec.representation == scheme):
        return e
    if e.kind != PLANE3:
        raise ValueError(f"entity {e.id!r} does not support scheme {scheme!r}")
    params = None
    if e.params is not None:
        p = np.asarray(e.params, dtype=float)
        if e.spec.representation == HESSIAN and scheme == POINT_NORMAL:
            n = p[0:3] / np.linalg.norm(p[0:3])
            point = -p[3] * n
            params = tuple(np.concatenate([point, n]))
        elif e.spec.representation == POINT_NORMAL and scheme == HESSIAN:
            n = p[3:6] / np.linalg.norm(p[3:6])
            params = tuple(np.concatenate([n, [-n @ p[0:3]]]))
    return Entity(e.id, e.kind, params, scheme)


@dataclass(frozen=True)
class SchemeRow:
    scheme: str
    columns: int
    rank: int
    dor: int
    verdict: str

    @property
    def matched(self) -> bool:
        """Whether the kernel dimension matches the degree of rigidity."""
        return self.columns - self.rank == self.dor


def representation_sensitivity(model: Model, schemes: Sequence[str],
                               seed: int = 0) -> list[SchemeRow]:
    """Re-run compile + characterize under each representation scheme.

    Different schemes for the same geometry legitimately change ColumnSize,
    Rank and DOR, and can flip the match between kernel dimension and DOR;
    the returned rows make that comparison explicit.
    """
    out = []
    for scheme in schemes:
        if scheme not in _SCHEME_TAGS:
            raise ValueError(f"unsupported representation scheme {scheme!r}")
        if model.entities and not any(e.kind == _SCHEME_TAGS[scheme] for e in model.entities):
            raise ValueError(f"no entity in the model supports scheme {scheme!r}")
        converted = Model(
            model.dimension,
            tuple(_convert_entity(e, scheme) for e in model.entities),
            model.constraints,
        )
        system = compile_model(converted)
        if not converted.entities:
            out.append(SchemeRow(scheme, 0, 0, 0, "well"))
            continue
        report = characterize(system, converted, seed=seed)
        out.append(SchemeRow(scheme, report.columns, report.rank, report.dor, report.verdict))
    return out
