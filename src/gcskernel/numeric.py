"""Dense rank/kernel analysis and nonlinear solving.

Rank decisions use a scale-invariant SVD threshold tau = 1e-8 * sigma_max
(1e-12 absolute for an all-zero matrix).  The Newton solver takes
pseudo-inverse (least-squares) steps so consistently over-constrained or
momentarily singular systems do not hard-fail; `optimize_solve` is a damped
Gauss-Newton descent on the sum of squared residuals.  `solve` is the one
solve policy of the direct and the decomposed solves: Newton, then damped
Gauss-Newton from the same start when Newton does not converge.

Each solver takes an optional slice: ``rows`` to drive to zero and ``cols``
to move, every other variable fixed (a decomposed solve's clusters).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compiler import ResidualSystem, eval_jacobian, eval_residuals

RANK_REL_TOL = 1e-8
RESIDUAL_TOL = 1e-9
SUPPORT_TOL = 1e-10  # a row dependency coefficient above it puts its row in the support


@dataclass(frozen=True)
class RankAnalysis:
    shape: tuple[int, int]
    singular_values: np.ndarray  # descending
    rank: int
    tolerance: float
    kernel: np.ndarray    # n x (n - rank), orthonormal columns, J @ k ~ 0
    cokernel: np.ndarray  # m x (m - rank), orthonormal columns, k^T @ J ~ 0

    @property
    def kernel_dim(self) -> int:
        return self.shape[1] - self.rank

    @property
    def cokernel_dim(self) -> int:
        return self.shape[0] - self.rank


def rank_analyze(matrix, rel_tol: float = RANK_REL_TOL) -> RankAnalysis:
    """SVD-based rank, kernel and cokernel of a dense matrix."""
    J = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.all(np.isfinite(J)):
        raise ValueError("matrix has non-finite entries")
    m, n = J.shape
    if m == 0 or n == 0:
        return RankAnalysis(
            (m, n), np.zeros(0), 0, 1e-12, np.eye(n), np.eye(m))
    U, s, Vt = np.linalg.svd(J)
    smax = s[0] if s.size else 0.0
    tol = rel_tol * smax if smax > 0.0 else 1e-12
    rank = int(np.sum(s > tol))
    kernel = Vt[rank:].T.copy()
    cokernel = U[:, rank:].copy()
    return RankAnalysis((m, n), s, rank, tol, kernel, cokernel)


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


def newton_solve(system: ResidualSystem, start, max_iter: int = 100,
                 tol: float = RESIDUAL_TOL, rows=None, cols=slice(None)) -> SolveResult:
    """Newton iteration x <- x - J^+ r with least-squares steps.

    Declares divergence after three consecutive residual-norm increases or a
    failed least-squares step; a stationary iterate with a residual above the
    tolerance is reported as inconsistent.  ``rows`` and ``cols`` slice the
    system (all by default); the stall test uses the norm of the sliced x.
    """
    x = np.array(start, dtype=float)
    r = eval_residuals(system, x, rows=rows)
    grew = 0
    stalled = 0
    prev = best = _max_abs(r)
    for it in range(max_iter):
        if _max_abs(r) <= tol:
            return SolveResult("converged", x, _max_abs(r), it, r)
        J = eval_jacobian(system, x, rows=rows)[:, cols]
        try:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        except np.linalg.LinAlgError:
            return SolveResult("diverged", x, _max_abs(r), it, r)
        if np.linalg.norm(step) <= 1e-13 * (1.0 + np.linalg.norm(x[cols])):
            return SolveResult("inconsistent", x, _max_abs(r), it, r)
        x[cols] += step
        r = eval_residuals(system, x, rows=rows)
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
                   tol: float = RESIDUAL_TOL, rows=None, cols=slice(None)) -> SolveResult:
    """Damped Gauss-Newton minimization of sum r_i^2.

    Handles non-square, consistently over-constrained and under-constrained
    systems.  A stationary point with nonzero residual is reported as
    inconsistent.  ``rows`` optionally restricts the residual subset (witness
    projection onto the singular equations, a cluster's rows) and ``cols``
    the variables that move (a cluster's columns).
    """
    x = np.array(start, dtype=float)
    r = eval_residuals(system, x, rows=rows)
    if r.size == 0:
        return SolveResult("converged", x, 0.0, 0, r)
    for it in range(max_iter):
        if _max_abs(r) <= tol:
            return SolveResult("converged", x, _max_abs(r), it, r)
        J = eval_jacobian(system, x, rows=rows)[:, cols]
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
            r_new = eval_residuals(system, trial, rows=rows)
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
          tol: float = RESIDUAL_TOL, rows=None, cols=slice(None)) -> SolveResult:
    """Newton, then damped Gauss-Newton from the same start if Newton fails.

    Both stages get ``max_iter`` iterations and the same ``rows``/``cols``
    slice; the result is Newton's when it converged, else Gauss-Newton's.
    """
    result = newton_solve(system, start, max_iter=max_iter, tol=tol, rows=rows, cols=cols)
    if result.converged:
        return result
    return optimize_solve(system, start, max_iter=max_iter, tol=tol, rows=rows, cols=cols)
