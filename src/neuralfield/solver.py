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

:func:`solve_global` lays a run out once, as segments of one time lattice
in one array of values, and walks them in one loop: :func:`picard_segment`
solves a picard segment in place on its rows, and the single-step methods
march theirs with :func:`step`, which also checks that the new state is
finite (the flow stationary solver steps through it too).  Only picard
reads the theory constants, which the caller computes once per run and
passes in.

Every run can be audited against the sup bound max{||u0||, (1+gamma)*Cw}
and the positivity property through :func:`monitor_bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import DiscreteOperator, FieldState, apply_f_values, apply_j_values
from .errors import MaxIterExceededError, NonContractiveError, NumericalInstabilityError
from .model import ModelSpec, TheoryConstants, contraction_factor, max_segment_length

SOLVER_METHODS = ("picard", "exp-euler", "rk4")
POSITIVITY_TOL = -1e-10  # values below count as positivity violations


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
    """Field states at increasing times, stored as a (T, n) matrix, with the
    :class:`PicardSegment` of each picard segment (none for the other methods).
    Only :func:`solve_global` builds one, from its own lattice arrays."""

    def __init__(self, times: np.ndarray, values: np.ndarray, picard_segments: list):
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
    """Diagnostics of one fixed-point segment: its contraction factor q, the
    sweeps taken and the update norm of each."""

    q: float
    iterations: int
    update_norms: tuple


@dataclass(frozen=True)
class BoundReport:
    """Audit of a trajectory against the proved estimates; never mutates it."""

    sup_observed: float
    bound_theoretical: float
    min_observed: float
    positivity_applicable: bool
    positivity_violations: int
    sup_per_time: np.ndarray
    min_per_time: np.ndarray

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
               u0, first_rhs: np.ndarray | None = None) -> np.ndarray:
    """The integrated map A(U)(t_n) = u0 + int_0^{t_n} F(U) on a time lattice.

    ``fields`` holds U at the lattice times t_0 < ... < t_N, spaced dt
    apart, one row each; the integral is the composite trapezoid rule.
    F is evaluated on rows 1..N as one stack.  ``first_rhs``, when given,
    is F(U(t_0)) and is not evaluated again.
    """
    rhs = np.empty_like(fields)
    rhs[0] = apply_f_values(model, op, fields[0]) if first_rhs is None else first_rhs
    rhs[1:] = apply_f_values(model, op, fields[1:])
    out = np.empty_like(fields)
    out[0] = u0
    steps = 0.5 * dt * (rhs[1:] + rhs[:-1])
    # the running sum row by row adds in np.cumsum's order along axis 0, so
    # the sums are bitwise the same, and is about 5x faster at 8 x 1,600
    for prev, row in zip(steps, steps[1:]):
        np.add(prev, row, out=row)
    out[1:] = u0 + steps
    return out


def picard_segment(model: ModelSpec, op: DiscreteOperator, fields: np.ndarray, dt: float,
                   cfg: SolverConfig, constants: TheoryConstants) -> PicardSegment:
    """Solve one segment by fixed-point iteration, in place in ``fields``.

    ``fields`` holds the segment's lattice, rows t_0 < ... < t_N spaced dt
    apart, with the initial state in row 0.  The iterate maps the whole
    segment at once, U_new = picard_map(U_old), from a start constant in
    time; the converged iterate is written to rows 1..N.  Successive update
    norms (sup over nodes and segment times) contract geometrically at a
    rate bounded by q, the contraction factor of the segment length N dt.

    Raises NonContractiveError when q >= 1, MaxIterExceededError when the
    tolerance is not met, and NumericalInstabilityError, stamped with the
    segment's end time N dt counted from its start, when an iterate is not
    finite.
    """
    n_steps = fields.shape[0] - 1
    length = dt * n_steps
    q = contraction_factor(constants, model.gamma, length)
    if q >= 1.0:
        raise NonContractiveError(
            f"contraction factor {q:.6g} >= 1 for segment length {length:.6g}; shrink the segment"
        )

    # initial iterate: u0 constant in time; row 0 stays u0, so F(u0) is taken once
    u0 = fields[0]
    current = np.tile(u0, (n_steps + 1, 1))
    first_rhs = apply_f_values(model, op, u0)
    update_norms = []
    for iteration in range(1, cfg.picard_max_iter + 1):
        new = picard_map(model, op, current, dt, u0, first_rhs=first_rhs)
        check_finite(new, length, "picard iterate")
        update = float(np.max(np.abs(new - current)))
        update_norms.append(update)
        current = new
        if update < cfg.picard_tol:
            fields[1:] = current[1:]
            return PicardSegment(q=q, iterations=iteration, update_norms=tuple(update_norms))
    raise MaxIterExceededError(
        f"picard iteration did not reach tol={cfg.picard_tol:.3g} in "
        f"{cfg.picard_max_iter} iterations (last update {update_norms[-1]:.3g})"
    )


def segment_length(cfg: SolverConfig, constants: TheoryConstants, gamma: float) -> float:
    """The picard segment length: ``cfg.segment_rho``, else the one with q = 1/2."""
    return cfg.segment_rho or max_segment_length(constants, gamma)


def solve_global(model: ModelSpec, op: DiscreteOperator, state0: FieldState,
                 cfg: SolverConfig, constants: TheoryConstants | None = None) -> Trajectory:
    """Integrate over [0, t_end] on one time lattice, one segment at a time.

    The run is laid out once: its segments, each of n = round(L / dt) >= 1
    steps of L / n, and one array of times and one of values for all of
    them.  Picard cuts [0, t_end] into segments of the picard length and
    solves each in place on its rows; exp-euler and rk4 march their one
    segment with :func:`step`.  A segment starts on the row its predecessor
    ended on, so seams are neither copied nor re-evaluated.  Only picard
    reads ``constants``; it raises ValueError without them.
    """
    picard = cfg.method == "picard"
    lengths = [cfg.t_end]
    if picard:
        if constants is None:
            raise ValueError("picard needs the theory constants for its segment length")
        rho = segment_length(cfg, constants, model.gamma)
        lengths = []
        remaining = cfg.t_end
        while remaining > 1e-12:
            lengths.append(min(rho, remaining))
            remaining -= lengths[-1]
    steps = [max(1, round(length / cfg.dt)) for length in lengths]

    times = np.zeros(sum(steps) + 1)
    values = np.empty((times.shape[0], op.grid.n_total))
    values[0] = state0.values
    segments = []
    start = 0
    for length, n_steps in zip(lengths, steps):
        dt = length / n_steps
        stop = start + n_steps
        times[start:stop + 1] = times[start] + dt * np.arange(n_steps + 1)
        if picard:
            segments.append(picard_segment(model, op, values[start:stop + 1], dt, cfg, constants))
        else:
            for n in range(start, stop):
                values[n + 1] = step(model, op, values[n], dt, cfg.method, float(times[n + 1]))
        start = stop
    return Trajectory(times, values, picard_segments=segments)


def monitor_bounds(traj: Trajectory, constants: TheoryConstants, model: ModelSpec) -> BoundReport:
    """Compare a trajectory against the sup bound and the positivity property.

    The sup bound is max{||u0||_inf, (1+gamma)*Cw}.  Positivity applies when
    the kernel is strictly positive and the initial data nonnegative; nodes
    below ``POSITIVITY_TOL`` are counted as violations.
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    # no temporary the size of the trajectory: max |u| is the larger of |max u|, |min u|
    min_per_time = np.min(traj.values, axis=1)
    sup_per_time = np.maximum(np.abs(np.max(traj.values, axis=1)), np.abs(min_per_time))
    min_observed = float(min_per_time.min())
    bound = max(float(sup_per_time[0]), (1.0 + model.gamma) * constants.kernel_l1_sup)

    applicable = model.kernel.positive and bool(min_per_time[0] >= 0.0)
    violations = 0
    if applicable and min_observed < POSITIVITY_TOL:
        violations = int(np.count_nonzero(traj.values < POSITIVITY_TOL))

    return BoundReport(
        sup_observed=float(sup_per_time.max()),
        bound_theoretical=bound,
        min_observed=min_observed,
        positivity_applicable=applicable,
        positivity_violations=violations,
        sup_per_time=sup_per_time,
        min_per_time=min_per_time,
    )
