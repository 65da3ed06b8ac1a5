"""Dense rank analysis and nonlinear solving.

Every rank decision is made in one place, `rank_of`, from the singular values
alone, for one matrix or a stack of them, against a scale-invariant
threshold tau = 1e-8 * sigma_max (1e-12 absolute for an all-zero matrix),
set in `_rank_tolerance`.  Given a gap factor g > 1, `rank_of` declines
(rank -1) a matrix with a singular value in (tau / g, tau * g], where a
matrix that stands in for another one could be decided the other way:
bottom-up's body test (`bodies`) and the block certificate ask for RANK_GAP.
The certificate decides full rank without ranking the whole matrix: a
square matrix in block-triangular form along a solve plan (below) is
nonsingular when every diagonal block has its full rank under that gap.
The witness votes certify full row rank with it (`witness.characterize`);
where a block is declined or deficient, `rank_of` of the whole matrix
decides.  `cokernel_groups` names the dependent row groups of a ranked
matrix, the rows each cokernel basis vector touches, for the witness
report, whose groups bottom-up's retirement guard reads too; it asks for
singular vectors only when the rank falls below the row count, and it is
the only code that asks for them.

The Newton solver's step solves
J step = -r by block back-substitution in the order of the structural solve
plan (a perfect matching of the equation graph and its strongly connected
components): the Jacobian of a square slice with a perfect matching is block
lower triangular in that order, so each step solves one small diagonal block
after another.  The step falls back to a dense pseudo-inverse (least-squares)
step, so that consistently over-constrained or momentarily singular systems
do not hard-fail, when the slice has no perfect matching (non-square or
structurally singular) and on slices of fewer than BLOCK_STEP_MIN_ROWS rows,
where the dense step is cheaper.  From the first step at which a diagonal
block is rank-deficient under the rank threshold (`rank_of`), or the block
step is not finite, the solve keeps the dense step to its end.
`optimize_solve` is a damped Gauss-Newton descent on the sum of squared
residuals.  `solve` is the one solve policy of the direct and the decomposed
solves: Newton, then damped Gauss-Newton from the same start when Newton does
not converge.

Each solver drives every row of its system to zero (a caller that solves a
row subset passes :meth:`~.compiler.ResidualSystem.select` of it) and takes
an optional column slice ``cols`` to move, every other variable fixed (a
decomposed solve's clusters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

import numpy as np

from .compiler import ResidualSystem, eval_jacobian, eval_residuals
from .structural import EquationGraph, max_matching, scc_plan

RANK_REL_TOL = 1e-8
RESIDUAL_TOL = 1e-9
SUPPORT_TOL = 1e-10  # a row dependency coefficient above it puts its row in the support
# Newton solves of fewer rows keep the dense lstsq step: below it, building
# the solve plan and the per-block checks cost more than the block steps
# save.  Measured in one process (2-vCPU sandbox, numpy 2.4), block path
# against lstsq per solve, median of 40 alternating runs on jittered triangle
# strips (4 Newton steps): 28 rows +0.6 ms, 40 rows +0.3 ms, 44 rows 0.0 ms,
# 48 rows -0.3 ms, 52 rows -0.7 ms; on the 24 corpus models (3-24 rows)
# +0.0 to +1.6 ms.  So the corpus and strip(12) (28 rows) take lstsq steps,
# and strip(24) (52 rows) and larger take block steps.
BLOCK_STEP_MIN_ROWS = 48
# The rank_of gap of a matrix that stands in for another one (a diagonal
# block for the whole Jacobian, a union's body matrix for its induced block):
# its rank counts only when no singular value lies within this factor of the
# threshold, which keeps the decision clear of the threshold's last-bit drift.
RANK_GAP = 100.0


def _rank_tolerance(smax, rel_tol: float):
    """The rank threshold: rel_tol * sigma_max, 1e-12 absolute for a zero
    matrix; elementwise for an array of sigma_max."""
    return rel_tol * smax + 1e-12 * (smax <= 0.0)


def rank_of(matrix, rel_tol: float = RANK_REL_TOL, gap: float = 1.0):
    """Numerical rank of a matrix, or an array of the ranks of a stack of
    matrices (..., m, n), by the threshold of :func:`_rank_tolerance`, from
    the singular values alone; 0 for an empty shape.  With a ``gap`` above 1,
    a matrix with a singular value in (threshold / gap, threshold * gap] is
    declined: its rank reads -1.  A non-finite entry raises ``ValueError``.

    A stack is ranked on arrays; one matrix, and a stack of one, whose 2D
    SVD costs less than the stacked call, on scalars.  A matrix of full rank
    at threshold * gap has no value in the band, so the band is looked at
    only below full rank."""
    J = np.asarray(matrix, dtype=float)
    if J.ndim < 2:  # a vector is one row
        J = J.reshape(1, -1)
    if not np.isfinite(J).all():
        raise ValueError("matrix has non-finite entries")
    lead = J.shape[:-2]
    if J.size == 0:
        return np.zeros(lead, dtype=int) if lead else 0
    if lead and math.prod(lead) > 1:
        s = np.linalg.svd(J, compute_uv=False)
        tol = _rank_tolerance(s[..., :1], rel_tol)
        ranks = (s > tol * gap).sum(axis=-1)
        if gap != 1.0 and (ranks < s.shape[-1]).any():
            ranks[(s > tol / gap).sum(axis=-1) != ranks] = -1
        return ranks
    s = np.linalg.svd(J.reshape(J.shape[-2:]) if lead else J, compute_uv=False)
    tol = _rank_tolerance(s[0], rel_tol)
    rank = np.count_nonzero(s > tol * gap)
    if gap != 1.0 and rank < len(s) and np.count_nonzero(s > tol / gap) != rank:
        rank = -1
    return np.array(rank, ndmin=len(lead)) if lead else int(rank)


def cokernel_groups(matrix, rank: int) -> tuple[tuple[int, ...], ...]:
    """The dependent row groups of a finite 2D matrix whose :func:`rank_of`
    rank is ``rank``: below full row rank, per cokernel basis vector (a left
    singular vector past the rank; the identity's for a matrix without
    columns) the rows where it exceeds :data:`SUPPORT_TOL`, empty groups
    skipped; () at full row rank, without an SVD."""
    J = np.asarray(matrix, dtype=float)
    m, n = J.shape
    if rank == m:
        return ()
    U = np.linalg.svd(J)[0] if n else np.eye(m)
    support = np.abs(U[:, rank:].T) > SUPPORT_TOL
    return tuple(tuple(np.flatnonzero(rows).tolist()) for rows in support if rows.any())


@dataclass(frozen=True)
class SolveResult:
    status: str  # converged | diverged | inconsistent | max-iterations
    assignment: np.ndarray
    residual_norm: float  # max |r_i|
    iterations: int
    residuals: np.ndarray = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _max_abs(r: np.ndarray) -> float:
    return float(np.max(np.abs(r))) if r.size else 0.0


class _BlockStep:
    """Newton steps by block back-substitution along a solve plan.

    ``adjacency`` gives each equation's variables and ``blocks`` the plan's
    (equations, variables) pairs in solve order, both as positions in the
    sliced Jacobian.  A step solves the diagonal blocks in plan order,
    ``J[e, v] step[v] = -r[e] - J[e, :] @ step``, where only the variables of
    earlier blocks are set yet.  The index arrays that only a step reads
    are built at the first step and serve every step of a solve.
    """

    def __init__(self, adjacency, blocks):
        self.n = len(adjacency)
        self.adjacency = adjacency
        self.blocks = blocks
        sizes: dict[int, list[int]] = {}  # block size -> positions in the plan
        for position, (_, vs) in enumerate(blocks):
            sizes.setdefault(len(vs), []).append(position)
        # the blocks of one size are gathered, checked and inverted in one call
        self.groups = [
            (size, positions,
             np.array([blocks[p][0] for p in positions], dtype=np.intp)[:, :, None],
             np.array([blocks[p][1] for p in positions], dtype=np.intp)[:, None, :])
            for size, positions in sorted(sizes.items())]

    @cached_property
    def _substitution(self):
        """Per block, its variables and, per equation, (row, lo, hi); the
        off-block (rows, columns) index arrays; and those columns as a list.
        Entries lo..hi-1 are the equation's earlier-block columns."""
        adjacency = self.adjacency
        plan = []
        dep_rows: list[int] = []
        dep_cols: list[int] = []
        for eqs, vs in self.blocks:
            own = set(vs)
            spans = []
            for e in eqs:
                lo = len(dep_rows)
                for v in adjacency[e]:
                    if v not in own:
                        dep_rows.append(e)
                        dep_cols.append(v)
                spans.append((e, lo, len(dep_rows)))
            plan.append((vs, spans))
        return plan, np.array([dep_rows, dep_cols], dtype=np.intp), dep_cols

    def __call__(self, J: np.ndarray, r: np.ndarray) -> np.ndarray | None:
        """The step s with J s = -r, or None when a diagonal block is not
        finite or rank-deficient (:func:`rank_of`), or the step is not
        finite."""
        plan, dep, dep_vars = self._substitution
        solvers: list = [None] * len(plan)
        for size, positions, E, V in self.groups:
            A = J[E, V]
            if not np.isfinite(A).all() or (rank_of(A) < size).any():
                return None
            if size == 1:  # divided directly
                inverses = A[:, 0, 0].tolist()
            else:
                try:
                    inverses = np.linalg.inv(A).tolist()
                except np.linalg.LinAlgError:
                    return None
            for p, inverse in zip(positions, inverses):
                solvers[p] = inverse
        off = J[dep[0], dep[1]].tolist()
        rhs0 = (-r).tolist()
        y = [0.0] * self.n
        for (vs, spans), solver in zip(plan, solvers):
            rhs = []
            for e, lo, hi in spans:
                acc = rhs0[e]
                for t in range(lo, hi):
                    acc -= off[t] * y[dep_vars[t]]
                rhs.append(acc)
            if len(vs) == 1:
                y[vs[0]] = rhs[0] / solver
            else:
                for v, row in zip(vs, solver):
                    y[v] = sum(map(mul, row, rhs))
        step = np.array(y)
        return step if np.all(np.isfinite(step)) else None


def _block_step(system: ResidualSystem, cols) -> _BlockStep | None:
    """The block step of a column slice, from the perfect matching of its
    equation graph and the SCC solve plan; None when there is no perfect
    matching (a non-square or structurally singular slice).  Its diagonal
    blocks also certify full row rank (:func:`witness.full_row_rank_certificate`)."""
    adjacency = system.adjacency
    col_ids = np.arange(system.n_variables)[cols].tolist()
    if len(adjacency) != len(col_ids):
        return None
    if col_ids != list(range(system.n_variables)):
        local = {c: k for k, c in enumerate(col_ids)}
        adjacency = tuple(tuple(sorted(local[v] for v in vs if v in local))
                          for vs in adjacency)
    graph = EquationGraph(len(adjacency), len(col_ids), adjacency)
    matching = max_matching(graph)
    if len(matching) < graph.n_equations:
        return None
    return _BlockStep(graph.adjacency, scc_plan(graph, matching).blocks)


def newton_solve(system: ResidualSystem, start, max_iter: int = 100,
                 tol: float = RESIDUAL_TOL, cols=slice(None)) -> SolveResult:
    """Newton iteration x <- x + step with J step = -r.

    The step goes by blocks along the slice's solve plan, built at the first
    step, and is the least-squares step ``J^+ (-r)`` where the plan does not
    apply (see the module docstring).  Declares divergence after three
    consecutive residual-norm increases or a failed least-squares step; a
    stationary iterate with a residual above the tolerance is reported as
    inconsistent.  ``cols`` are the variables that move (all by default);
    the stall test uses the norm of the sliced x.
    """
    x = np.array(start, dtype=float)
    r = eval_residuals(system, x)
    grew = 0
    stalled = 0
    prev = best = _max_abs(r)
    block_step = None
    for it in range(max_iter):
        if _max_abs(r) <= tol:
            return SolveResult("converged", x, _max_abs(r), it, r)
        J = eval_jacobian(system, x)[:, cols]
        if it == 0 and r.size >= BLOCK_STEP_MIN_ROWS:
            # built at the first step: a solve converged at once builds none
            block_step = _block_step(system, cols)
        step = block_step(J, r) if block_step is not None else None
        if step is None:
            block_step = None  # lstsq steps for the rest of the solve
            try:
                step = np.linalg.lstsq(J, -r, rcond=None)[0]
            except np.linalg.LinAlgError:
                return SolveResult("diverged", x, _max_abs(r), it, r)
        if np.linalg.norm(step) <= 1e-13 * (1.0 + np.linalg.norm(x[cols])):
            return SolveResult("inconsistent", x, _max_abs(r), it, r)
        x[cols] += step
        r = eval_residuals(system, x)
        cur = _max_abs(r)
        grew = grew + 1 if cur > prev else 0
        if grew >= 3:
            return SolveResult("diverged", x, cur, it + 1, r)
        # residual plateau: undamped steps orbit the least-squares optimum of
        # an infeasible system without ever shrinking the step
        if cur < best * (1.0 - 1e-3):
            best = cur
            stalled = 0
        else:
            stalled += 1
            if stalled >= 10:
                return SolveResult("inconsistent", x, cur, it + 1, r)
        prev = cur
    status = "converged" if _max_abs(r) <= tol else "max-iterations"
    return SolveResult(status, x, _max_abs(r), max_iter, r)


def optimize_solve(system: ResidualSystem, start, max_iter: int = 100,
                   tol: float = RESIDUAL_TOL, cols=slice(None)) -> SolveResult:
    """Damped Gauss-Newton minimization of sum r_i^2.

    Handles non-square, consistently over-constrained and under-constrained
    systems.  A stationary point with nonzero residual is reported as
    inconsistent.  ``cols`` optionally restricts the variables that move (a
    cluster's columns).
    """
    x = np.array(start, dtype=float)
    r = eval_residuals(system, x)
    if r.size == 0:
        return SolveResult("converged", x, 0.0, 0, r)
    for it in range(max_iter):
        if _max_abs(r) <= tol:
            return SolveResult("converged", x, _max_abs(r), it, r)
        J = eval_jacobian(system, x)[:, cols]
        try:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        except np.linalg.LinAlgError:
            return SolveResult("diverged", x, _max_abs(r), it, r)
        ssq = float(r @ r)
        if np.linalg.norm(J.T @ r, np.inf) <= 1e-14 * (1.0 + ssq):
            return SolveResult("inconsistent", x, _max_abs(r), it, r)
        lam = 1.0
        accepted = False
        for _ in range(40):
            trial = x.copy()
            trial[cols] += lam * step
            r_new = eval_residuals(system, trial)
            if float(r_new @ r_new) < ssq:
                x = trial
                r = r_new
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            status = "converged" if _max_abs(r) <= tol else "inconsistent"
            return SolveResult(status, x, _max_abs(r), it, r)
    status = "converged" if _max_abs(r) <= tol else "max-iterations"
    return SolveResult(status, x, _max_abs(r), max_iter, r)


def solve(system: ResidualSystem, start, max_iter: int = 100,
          tol: float = RESIDUAL_TOL, cols=slice(None)) -> SolveResult:
    """Newton, then damped Gauss-Newton from the same start if Newton fails.

    Both stages get ``max_iter`` iterations and the same ``cols`` slice; the
    result is Newton's when it converged, else Gauss-Newton's.
    """
    result = newton_solve(system, start, max_iter=max_iter, tol=tol, cols=cols)
    if result.converged:
        return result
    return optimize_solve(system, start, max_iter=max_iter, tol=tol, cols=cols)
