"""Dense rank analysis and nonlinear solving.

Rank decisions use a scale-invariant SVD threshold tau = 1e-8 * sigma_max
(1e-12 absolute for an all-zero matrix), set in one place, `_rank_tolerance`,
and made in one place, `rank_of`, from the singular values alone, for one
matrix or a stack of them; `gapped_rank` gives the same rank, or declines
when a singular value sits within RANK_GAP of the threshold, for a matrix
that stands in for another one (bottom-up's body test, `bodies`).  One
rule decides full rank without ranking the whole matrix: a square matrix in
block-triangular form along a solve plan (below) is nonsingular when every
diagonal block's smallest singular value exceeds RANK_GAP times that
block's own threshold (`_BlockStep.margins`).
The witness votes certify full row rank with it (`witness.characterize`);
where a block falls under that margin, `rank_of` of the whole matrix
decides.  `cokernel_groups` names the dependent row groups of a ranked
matrix, the rows each cokernel basis vector touches, for the witness
report, whose groups bottom-up's retirement guard reads too; it asks for
singular vectors only when the rank falls below the row count, and it is
the only code that asks for them.  `rank_analyze`, which ranks and names
at once, has no production caller: it is the tests' dense reference.

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
# A diagonal block certifies its own nonsingularity only when its smallest
# singular value exceeds its rank_of threshold by this factor: the margin
# that keeps a block decision clear of the threshold's last-bit drift.
RANK_GAP = 100.0


@dataclass(frozen=True)
class RankAnalysis:
    shape: tuple[int, int]
    rank: int
    dependent_groups: tuple[tuple[int, ...], ...]  # see cokernel_groups; () at full row rank


def _finite_matrix(matrix) -> np.ndarray:
    J = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.isfinite(J).all():
        raise ValueError("matrix has non-finite entries")
    return J


def _rank_tolerance(smax, rel_tol: float):
    """The rank threshold: rel_tol * sigma_max, 1e-12 absolute for a zero
    matrix; elementwise for an array of sigma_max."""
    return rel_tol * smax + 1e-12 * (smax <= 0.0)


def rank_of(matrix, rel_tol: float = RANK_REL_TOL):
    """Numerical rank of a matrix, or an array of the ranks of a stack of
    matrices (..., m, n), by the threshold of :func:`_rank_tolerance`, from
    the singular values alone; 0 for an empty shape."""
    J = _finite_matrix(matrix)
    if J.size == 0:
        return 0 if J.ndim == 2 else np.zeros(J.shape[:-2], dtype=int)
    s = np.linalg.svd(J, compute_uv=False)
    if J.ndim == 2:
        return int(np.count_nonzero(s > _rank_tolerance(s[0], rel_tol)))
    return (s > _rank_tolerance(s[..., :1], rel_tol)).sum(axis=-1)


def gapped_rank(matrix, rel_tol: float = RANK_REL_TOL) -> int | None:
    """The :func:`rank_of` rank of a 2D matrix, or None when a singular value
    sits within a factor RANK_GAP of the threshold, where another matrix of
    the same rank could be decided the other way."""
    J = _finite_matrix(matrix)
    if J.size == 0:
        return 0
    s = np.linalg.svd(J, compute_uv=False)
    tol = _rank_tolerance(s[0], rel_tol)
    if ((s > tol / RANK_GAP) & (s <= tol * RANK_GAP)).any():
        return None
    return int(np.count_nonzero(s > tol))


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


def rank_analyze(matrix, rel_tol: float = RANK_REL_TOL) -> RankAnalysis:
    """The :func:`rank_of` rank of a dense matrix and its
    :func:`cokernel_groups`: the dense reference of the tests; no
    production path calls it."""
    J = _finite_matrix(matrix)
    rank = rank_of(J, rel_tol)
    return RankAnalysis(J.shape, rank, cokernel_groups(J, rank))


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

    def margins(self, J: np.ndarray, cols: np.ndarray,
                rel_tol: float = RANK_REL_TOL) -> np.ndarray:
        """Each diagonal block's smallest singular value over its own
        :func:`rank_of` threshold, gathered by size group, for the plan's
        columns at ``J``'s columns ``cols`` (gathered without copying the
        slice); all 0 when ``J`` has a non-finite entry."""
        if not np.isfinite(J).all():
            return np.zeros(len(self.blocks))
        out = [np.zeros(0)]
        for _, _, E, V in self.groups:
            s = np.linalg.svd(J[E, cols[V]], compute_uv=False)
            out.append(s[:, -1] / _rank_tolerance(s[:, 0], rel_tol))
        return np.concatenate(out)

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
    blocks also certify full row rank (:meth:`_BlockStep.margins`)."""
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
