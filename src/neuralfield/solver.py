"""Time evolution of the plastic neural field equation.

This module is the only one that steps the field.  Three methods are
provided:

* ``picard``: fixed-point iteration of the integrated (Volterra) form over
  short segments, the constructive counterpart of the existence argument.
  :func:`picard_map` is the integrated map, its time integral the composite
  trapezoid rule; the contraction study measures this same map.
* ``exp-euler``: exact integration of the linear decay with the input term
  frozen over the step.  First order; stationary states are exact fixed
  points; the sup bound and positivity are preserved for any step size.
* ``rk4``: classical fourth-order reference integrator.

The two single-step methods are :func:`step`, which also checks that the
new state is finite; :func:`solve_global` and the flow stationary solver
both step through it.

Every run can be audited against the sup bound max{||u0||, (1+gamma)*Cw}
and the positivity property through :func:`monitor_bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import DiscreteOperator, FieldState, apply_f_values, apply_j_values
from .errors import MaxIterExceededError, NonContractiveError, NumericalInstabilityError
from .model import ModelSpec, TheoryConstants, compute_constants, contraction_factor, max_segment_length

SOLVER_METHODS = ("picard", "exp-euler", "rk4")


@dataclass(frozen=True)
class SolverConfig:
    method: str = "exp-euler"
    dt: float = 0.05
    t_end: float = 10.0
    segment_rho: float | None = None
    picard_tol: float = 1e-10
    picard_max_iter: int = 200

    def __post_init__(self):
        if self.method not in SOLVER_METHODS:
            raise ValueError(f"unknown solver method {self.method!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be a positive integer")
        if self.segment_rho is not None:
            if self.segment_rho <= 0:
                raise ValueError("segment_rho must be positive")
            if self.dt > self.segment_rho:
                raise ValueError("dt must not exceed segment_rho")


class Trajectory:
    """Field states at increasing times, stored as a (T, n) matrix."""

    def __init__(self, times, values, picard_segments=None):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape[0] != times.shape[0]:
            raise ValueError("one state per time is required")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        times.flags.writeable = False
        values.flags.writeable = False
        self.times = times
        self.values = values
        self.picard_segments = picard_segments

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True)
class PicardSegment:
    """Diagnostics of one fixed-point segment."""

    trajectory: Trajectory
    iterations: int
    final_update_norm: float
    update_norms: tuple
    contraction_bound: float


@dataclass(frozen=True)
class BoundReport:
    """Audit of a trajectory against the proved estimates; never mutates it."""

    sup_observed: float
    bound_theoretical: float
    min_observed: float
    positivity_applicable: bool
    positivity_violations: int
    margins: np.ndarray

    @property
    def within_bound(self) -> bool:
        return self.sup_observed <= self.bound_theoretical + 1e-6


def check_finite(values: np.ndarray, time: float, context: str) -> None:
    """Raise NumericalInstabilityError, with a snapshot, if a value is NaN or Inf."""
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise NumericalInstabilityError(
            f"{context}: {bad} non-finite values at t={time:.6g}",
            snapshot={"time": time, "values": np.array(values), "non_finite": bad},
        )


def step(model: ModelSpec, op: DiscreteOperator, values: np.ndarray, dt: float,
         method: str, time: float) -> np.ndarray:
    """One ``exp-euler`` or ``rk4`` step of u' = -u + J(u) from ``values``.

    exp-euler is the frozen-input step u+ = e^{-dt} u + (1 - e^{-dt}) J(u);
    rk4 the classical 4-stage step.  Raises NumericalInstabilityError,
    stamped with ``time`` (the time the step reaches), when a value is not
    finite.
    """
    # overflow is handled by the finiteness guard, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "exp-euler":
            decay = math.exp(-dt)
            new = decay * values + (1.0 - decay) * apply_j_values(model, op, values)
        elif method == "rk4":
            k1 = apply_f_values(model, op, values)
            k2 = apply_f_values(model, op, values + 0.5 * dt * k1)
            k3 = apply_f_values(model, op, values + 0.5 * dt * k2)
            k4 = apply_f_values(model, op, values + dt * k3)
            new = values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            raise ValueError(f"no single-step method {method!r}")
    check_finite(new, time, f"{method} step")
    return new


def picard_map(model: ModelSpec, op: DiscreteOperator, fields: np.ndarray, dt: float,
               u0) -> np.ndarray:
    """The integrated map A(U)(t_n) = u0 + int_0^{t_n} F(U) on a time lattice.

    ``fields`` holds U at the lattice times t_0 < ... < t_N, spaced dt
    apart, one row each; the integral is the composite trapezoid rule.
    """
    rhs = np.empty_like(fields)
    for n in range(fields.shape[0]):
        rhs[n] = apply_f_values(model, op, fields[n])
    out = np.empty_like(fields)
    out[0] = u0
    out[1:] = u0 + np.cumsum(0.5 * dt * (rhs[1:] + rhs[:-1]), axis=0)
    return out


def picard_segment(model: ModelSpec, op: DiscreteOperator, state0: FieldState,
                   rho: float, cfg: SolverConfig,
                   constants: TheoryConstants | None = None) -> PicardSegment:
    """Solve one segment [t0, t0 + rho] by fixed-point iteration.

    The iterate maps the whole time-discretized segment at once,
    U_new = picard_map(U_old) with the segment's initial state.  Successive
    update norms (sup over nodes and segment times) contract geometrically
    at rate bounded by the segment's contraction factor.

    Raises NonContractiveError when the factor is >= 1 and
    MaxIterExceededError when the tolerance is not met.
    """
    if rho <= 0:
        raise ValueError("segment length must be positive")
    if constants is None:
        constants = compute_constants(model, op.grid)
    q = contraction_factor(constants, model.gamma, rho)
    if q >= 1.0:
        raise NonContractiveError(
            f"contraction factor {q:.6g} >= 1 for segment length {rho:.6g}; shrink the segment"
        )

    n_steps = max(1, round(rho / cfg.dt))
    dt = rho / n_steps
    times = state0.time + dt * np.arange(n_steps + 1)
    u0 = state0.values

    # initial iterate: constant-in-time extension of the initial state
    current = np.tile(u0, (n_steps + 1, 1))
    update_norms = []
    for iteration in range(1, cfg.picard_max_iter + 1):
        new = picard_map(model, op, current, dt, u0)
        check_finite(new, float(times[-1]), "picard iterate")
        update = float(np.max(np.abs(new - current)))
        update_norms.append(update)
        current = new
        if update < cfg.picard_tol:
            traj = Trajectory(times, current)
            return PicardSegment(
                trajectory=traj,
                iterations=iteration,
                final_update_norm=update,
                update_norms=tuple(update_norms),
                contraction_bound=q,
            )
    raise MaxIterExceededError(
        f"picard iteration did not reach tol={cfg.picard_tol:.3g} in "
        f"{cfg.picard_max_iter} iterations (last update {update_norms[-1]:.3g})"
    )


def segment_length(cfg: SolverConfig, constants: TheoryConstants, gamma: float) -> float:
    """The picard segment length: ``cfg.segment_rho``, else the one with q = 1/2."""
    return cfg.segment_rho or max_segment_length(constants, gamma)


def solve_global(model: ModelSpec, op: DiscreteOperator, state0: FieldState,
                 cfg: SolverConfig, constants: TheoryConstants | None = None) -> Trajectory:
    """Integrate over [t0, t0 + t_end], chaining segments with exact handoff.

    The picard method repeats the segment solve with the previous segment's
    final state as initial data; the single-step methods advance on a uniform
    time lattice.  States are handed across seams without copying or
    re-evaluation, so the joint values are bitwise identical.
    """
    if cfg.method == "picard":
        if constants is None:
            constants = compute_constants(model, op.grid)
        rho = segment_length(cfg, constants, model.gamma)
        segments = []
        pieces_t = []
        pieces_u = []
        state = state0
        remaining = cfg.t_end
        first = True
        while remaining > 1e-12:
            seg_len = min(rho, remaining)
            seg = picard_segment(model, op, state, seg_len, cfg, constants)
            segments.append(seg)
            traj = seg.trajectory
            skip = 0 if first else 1  # seam state already recorded
            pieces_t.append(traj.times[skip:])
            pieces_u.append(traj.values[skip:])
            state = FieldState(traj.values[-1], float(traj.times[-1]))
            remaining -= seg_len
            first = False
        times = np.concatenate(pieces_t)
        values = np.vstack(pieces_u)
        return Trajectory(times, values, picard_segments=segments)

    n_steps = max(1, round(cfg.t_end / cfg.dt))
    dt = cfg.t_end / n_steps
    values = np.empty((n_steps + 1, op.grid.n_total))
    values[0] = state0.values
    times = state0.time + dt * np.arange(n_steps + 1)
    for n in range(n_steps):
        values[n + 1] = step(model, op, values[n], dt, cfg.method, float(times[n + 1]))
    return Trajectory(times, values)


def monitor_bounds(traj: Trajectory, constants: TheoryConstants, model: ModelSpec,
                   positivity_tol: float = -1e-10) -> BoundReport:
    """Compare a trajectory against the sup bound and the positivity property.

    The sup bound is max{||u0||_inf, (1+gamma)*Cw}.  Positivity applies when
    the kernel is strictly positive and the initial data nonnegative; nodes
    below the tolerance are counted as violations.
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    u0_vals = traj.values[0]
    sup_u0 = float(np.max(np.abs(u0_vals))) if u0_vals.size else 0.0
    bound = max(sup_u0, (1.0 + model.gamma) * constants.kernel_l1_sup)
    sup_per_time = np.max(np.abs(traj.values), axis=1)
    sup_observed = float(sup_per_time.max())
    min_observed = float(traj.values.min())

    applicable = model.kernel.positive and bool(np.all(u0_vals >= 0.0))
    violations = int(np.count_nonzero(traj.values < positivity_tol)) if applicable else 0

    return BoundReport(
        sup_observed=sup_observed,
        bound_theoretical=bound,
        min_observed=min_observed,
        positivity_applicable=applicable,
        positivity_violations=violations,
        margins=bound - sup_per_time,
    )
