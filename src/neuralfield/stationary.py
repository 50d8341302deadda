"""Stationary states u = J(u) of the field equation.

Two routes: damped fixed-point iteration on the input operator, and
long-time integration of the flow sampled along a geometric time sequence.
Both report the recomputed residual so a ``converged`` flag can be trusted
independently of the iteration history.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .discretization import DiscreteOperator, FieldState, apply_f_values, apply_j_values
from .model import ModelSpec, TheoryConstants, compute_constants
from .solver import _check_finite, _exp_euler_values

STATIONARY_TIME = math.inf


@dataclass(frozen=True)
class StationaryResult:
    u_inf: np.ndarray
    residual_sup: float
    iterations: int
    method: str
    converged: bool
    history: tuple = ()

    @property
    def state(self) -> FieldState:
        return FieldState(values=self.u_inf, time=STATIONARY_TIME)


def find_stationary_fp(model: ModelSpec, op: DiscreteOperator, u_init: FieldState,
                       damping: float = 0.5, tol: float = 1e-9,
                       max_iter: int = 5000,
                       constants: TheoryConstants | None = None) -> StationaryResult:
    """Damped fixed-point iteration u <- (1-a) u + a J(u).

    Returns the best state found; ``converged`` is False when max_iter ran
    out.  Warns (never errors) when gamma * Cw >= 1, outside the small-gamma
    regime where a stationary state is guaranteed.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if op.grid.boundary != "compact":
        raise ValueError("stationary fixed-point solve requires a compact grid")
    if constants is None:
        constants = compute_constants(model, op.grid)
    if model.gamma * constants.kernel_l1_sup >= 1.0:
        warnings.warn(
            f"gamma * Cw = {model.gamma * constants.kernel_l1_sup:.4g} >= 1: outside the "
            "small-gamma regime, existence is not guaranteed",
            stacklevel=2,
        )

    u = u_init.values.copy()
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ju = apply_j_values(model, op, u)
        _check_finite(ju, float(iterations), "stationary iterate")
        residual = float(np.max(np.abs(u - ju)))
        if residual < tol:
            break
        u = (1.0 - damping) * u + damping * ju
    # recompute fresh at exit so the reported value is not an artifact
    final_residual = float(np.max(np.abs(u - apply_j_values(model, op, u))))
    return StationaryResult(
        u_inf=u,
        residual_sup=final_residual,
        iterations=iterations,
        method="damped-fp",
        converged=final_residual < tol,
    )


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
        u = _exp_euler_values(model, op, u, dt)
        _check_finite(u, t + dt, "flow step")
        t += dt
        steps += 1
        if t >= next_sample - 1e-12:
            residual = float(np.max(np.abs(apply_f_values(model, op, u))))
            history.append((t, residual))
            next_sample *= 2.0
            if residual < settle_tol:
                return StationaryResult(
                    u_inf=u,
                    residual_sup=residual,
                    iterations=steps,
                    method="flow",
                    converged=True,
                    history=tuple(history),
                )
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


@dataclass(frozen=True)
class ModulusTable:
    """Sup-over-time moduli of continuity at a few lattice offsets."""

    offsets: np.ndarray          # physical offsets k * dx
    sup_modulus: np.ndarray      # sup over snapshots of max_i |u(x+k dx) - u(x)|
    per_time: np.ndarray         # (T, len(offsets)) raw moduli
    monotone: bool               # sup modulus decreases as the offset shrinks


def equicontinuity_probe(traj, grid, offsets=(1, 2, 4, 8)) -> ModulusTable:
    """Moduli of continuity of every snapshot on a 1-D grid.

    Reported diagnostically: decreasing moduli as the offset shrinks are the
    observable trace of equicontinuity of the family {u(., t)}.
    """
    if grid.dimension != 1:
        raise ValueError("equicontinuity probe is defined on 1-D grids")
    grid_values = traj.values
    n = grid_values.shape[1]
    if max(offsets) >= n:
        raise ValueError("offset exceeds grid size")
    per_time = np.empty((grid_values.shape[0], len(offsets)))
    for col, k in enumerate(offsets):
        diffs = np.abs(grid_values[:, k:] - grid_values[:, :-k])
        per_time[:, col] = diffs.max(axis=1) if diffs.size else 0.0
    sup_mod = per_time.max(axis=0)
    monotone = bool(np.all(np.diff(sup_mod) >= -1e-14))
    return ModulusTable(
        offsets=np.asarray(offsets, dtype=float) * grid.spacing[0],
        sup_modulus=sup_mod,
        per_time=per_time,
        monotone=monotone,
    )
