"""Stationary states u = J(u) of the field equation.

The two methods of ``stationary --method``: Anderson-mixed fixed point of
the input operator (``fp``, also the state ``gainfield`` freezes), and
long-time integration of the flow (``flow``), stepped by :func:`.solver.step`
and sampled along a geometric time sequence.  Both report the residual of
the state they return, evaluated at that state, so a ``converged`` flag can
be trusted independently of how the iteration got there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .discretization import DiscreteOperator, FieldState, apply_f_values, apply_j_values
from .model import ModelSpec, TheoryConstants
from .solver import check_finite, step

# residual differences Anderson mixing keeps
ANDERSON_WINDOW = 5
# smallest |R_kk| / max |R_jj| of the window's QR factor that is still solved
ANDERSON_RCOND = 1e-10


@dataclass(frozen=True)
class StationaryResult:
    u_inf: np.ndarray
    residual_sup: float
    iterations: int
    method: str
    converged: bool
    history: tuple  # (iteration or t, residual sup) pairs, in the manifest


def find_stationary_fp(model: ModelSpec, op: DiscreteOperator, u_init: FieldState,
                       constants: TheoryConstants, damping: float = 0.5, tol: float = 1e-9,
                       max_iter: int = 5000) -> StationaryResult:
    """Anderson-mixed fixed-point iteration on the residual f = J(u) - u.

    Each step takes the combination of the last ``ANDERSON_WINDOW`` residual
    differences that best cancels f (least squares, by QR), and mixes the
    iterate and J along it with weight ``damping`` (Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011); for a contraction it converges (Toth & Kelley,
    SIAM J. Numer. Anal. 53, 2015).  A step that raises the l2 norm of f
    above the smallest it has been clears the window, so the next step is
    the plain damped u <- (1-a) u + a J(u).

    Returns the best evaluated state with the residual computed for it, and
    the history of (iteration, residual sup); ``converged`` is False when
    max_iter ran out.  Warns (never errors) when gamma * Cw >= 1, outside the
    small-gamma regime where a stationary state is guaranteed.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if op.grid.boundary != "compact":
        raise ValueError("stationary fixed-point solve requires a compact grid")
    if model.gamma * constants.kernel_l1_sup >= 1.0:
        warnings.warn(
            f"gamma * Cw = {model.gamma * constants.kernel_l1_sup:.4g} >= 1: outside the "
            "small-gamma regime, existence is not guaranteed",
            stacklevel=2,
        )

    u = u_init.values.copy()
    iterations = 0
    best_u, best_residual = u, math.inf
    least_l2 = math.inf
    history = []
    # differences of consecutive iterates and residuals, oldest first
    du, df = [], []
    for iterations in range(1, max_iter + 1):
        ju = apply_j_values(model, op, u)
        check_finite(ju, float(iterations), "stationary iterate")
        f = ju - u
        residual = float(np.max(np.abs(f)))
        history.append((iterations, residual))
        if residual < best_residual:
            best_u, best_residual = u, residual
        if residual < tol:
            break
        # the least squares acts on the l2 norm, so that is the norm the
        # safeguard watches, against the smallest value seen so far
        l2 = math.sqrt((f * f).sum())
        if l2 > least_l2:
            du.clear()
            df.clear()
        elif iterations > 1:
            du.append(u - prev_u)
            df.append(f - prev_f)
            del du[:-ANDERSON_WINDOW], df[:-ANDERSON_WINDOW]
        least_l2 = min(least_l2, l2)
        prev_u, prev_f = u, f
        u = u + damping * f - _anderson_correction(du, df, f, damping)
    return StationaryResult(
        u_inf=best_u,
        residual_sup=best_residual,
        iterations=iterations,
        method="anderson-fp",
        converged=best_residual < tol,
        history=tuple(history),
    )


def _anderson_correction(du: list, df: list, f: np.ndarray, damping: float):
    """(dU + a dF) c for the c minimising ||f - dF c||_2 over the window.

    c comes from a thin QR of dF.  While R is too ill-conditioned to solve,
    the oldest pair leaves the window; an emptied window gives 0, the damped
    step.
    """
    while df:
        rows = np.array(df)
        q, r = np.linalg.qr(rows.T)
        diag = np.abs(np.diagonal(r))
        if diag.min() > ANDERSON_RCOND * diag.max():
            coeffs = np.linalg.solve(r, q.T @ f)
            return coeffs @ (np.array(du) + damping * rows)
        del du[0], df[0]
    return 0.0


def stationary_via_flow(model: ModelSpec, op: DiscreteOperator, u0: FieldState,
                        t_max: float = 500.0, settle_tol: float = 1e-8,
                        dt: float = 0.1) -> StationaryResult:
    """Integrate the flow until the right-hand side has settled.

    The state is sampled at the geometric times 2^n * dt; each sample's
    residual sup-norm of F(u) enters the history.  If t_max is reached first
    the last state is returned flagged not converged.
    """
    u = u0.values.copy()
    t = 0.0
    steps = 0
    next_sample = dt
    history = []
    while t < t_max:
        u = step(model, op, u, dt, "exp-euler", t + dt)
        t += dt
        steps += 1
        if t >= next_sample - 1e-12:
            residual = float(np.max(np.abs(apply_f_values(model, op, u))))
            history.append((t, residual))
            next_sample *= 2.0
            if residual < settle_tol:
                break
    else:
        residual = float(np.max(np.abs(apply_f_values(model, op, u))))
        history.append((t, residual))
    return StationaryResult(
        u_inf=u,
        residual_sup=residual,
        iterations=steps,
        method="flow",
        converged=residual < settle_tol,
        history=tuple(history),
    )
