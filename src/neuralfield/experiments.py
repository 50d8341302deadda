"""Falsifiable studies of the proved estimates.

Each study runs instances, records measured quantities next to the
theoretical bound, and fails loudly whenever measured exceeds bound plus the
declared slack: the bounds are theorems, so a violation means a bug in the
implementation, not noise to be tolerated.  Rows run serially, and every
field is stepped by :mod:`.solver`: the trajectories by ``solve_global``,
the contraction study's integrated map by ``picard_map``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .discretization import DiscreteOperator, FieldState
from .model import ModelSpec, TheoryConstants, compute_constants, contraction_factor, max_segment_length
from .solver import SolverConfig, picard_map, solve_global


@dataclass
class StudyResult:
    """Parameter table with measured and theoretical values per row."""

    name: str
    rows: list
    slack: float
    passed: bool
    worst_margin: float
    fit: dict | None = None


def _loglog_fit(x, y) -> dict:
    """Least-squares slope of log y against log x with its R^2."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    predicted = slope * lx + intercept
    ss_res = float(np.sum((ly - predicted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def _assemble(name, rows, slack, fit=None) -> StudyResult:
    margins = [row["margin"] for row in rows if row.get("margin") is not None]
    worst = min(margins) if margins else math.inf
    passed = all(row["pass"] for row in rows)
    return StudyResult(name=name, rows=rows, slack=slack, passed=passed,
                       worst_margin=worst, fit=fit)


def plasticity_limit_study(model: ModelSpec, op: DiscreteOperator, gamma_list,
                           u0: FieldState, t_end: float,
                           cfg: SolverConfig | None = None,
                           u0_for_gamma=None, slack: float = 0.0,
                           constants: TheoryConstants | None = None) -> StudyResult:
    """Distance to the plasticity-free solution as gamma shrinks.

    All runs share the grid, stepper, and (by default) the initial state, so
    d(gamma) = sup over nodes and times of |u_gamma - u_0| isolates the
    gamma dependence.  d must shrink monotonically with gamma and fit a
    log-log slope near 1.  ``u0_for_gamma`` optionally varies the initial
    state per gamma.
    """
    gammas = [float(g) for g in gamma_list]
    if any(g <= 0 for g in gammas):
        raise ValueError("gamma_list must be positive; the reference run supplies gamma=0")
    if sorted(gammas, reverse=True) != gammas:
        raise ValueError("gamma_list must be descending")
    cfg = cfg or SolverConfig(method="rk4", dt=0.05, t_end=t_end)
    cfg = replace(cfg, t_end=t_end)

    if constants is None:
        constants = compute_constants(model, op.grid)

    base_model = replace(model, gamma=0.0)
    reference = solve_global(base_model, op, u0, cfg, constants)

    distances = []
    for gamma in gammas:
        start = u0 if u0_for_gamma is None else u0_for_gamma(gamma)
        traj = solve_global(replace(model, gamma=gamma), op, start, cfg, constants)
        distances.append(float(np.max(np.abs(traj.values - reference.values))))
    rows = [{"gamma": gamma, "distance": d} for gamma, d in zip(gammas, distances)]

    # monotone nonincreasing as gamma decreases
    for i, row in enumerate(rows):
        ok = i == 0 or row["distance"] <= rows[i - 1]["distance"] + slack
        row["pass"] = bool(ok)
        row["margin"] = None if i == 0 else rows[i - 1]["distance"] + slack - row["distance"]
    fit = _loglog_fit(gammas, distances)
    return _assemble("plasticity-limit", rows, slack, fit=fit)


def continuous_dependence_study(model: ModelSpec, op: DiscreteOperator, u0: FieldState,
                                eps_list, rho: float | None = None,
                                dt: float = 1e-3, slack_coeff: float = 10.0,
                                constants: TheoryConstants | None = None) -> StudyResult:
    """Perturbation growth over one segment against the constant 1/(1-q).

    Runs pairs from u0 and u0 + eps * delta with a fixed smooth unit-sup
    profile delta, and checks sup_{t <= rho} ||u - v|| <= eps / (1 - q)
    plus the declared time-discretization slack.
    """
    if constants is None:
        constants = compute_constants(model, op.grid)
    if rho is None:
        rho = max_segment_length(constants, model.gamma)
    q = contraction_factor(constants, model.gamma, rho)
    if q >= 1.0:
        raise ValueError(f"contraction factor {q:.4g} >= 1; shrink rho")
    amplification = 1.0 / (1.0 - q)
    slack = slack_coeff * dt * dt

    nodes = op.grid.points[:, 0]
    span = op.grid.bounds[0][1] - op.grid.bounds[0][0]
    delta = np.cos(math.pi * (nodes - nodes[0]) / span)  # smooth, sup-norm 1
    cfg = SolverConfig(method="rk4", dt=dt, t_end=rho)

    base = solve_global(model, op, u0, cfg, constants)
    rows = []
    for eps in eps_list:
        eps = float(eps)
        perturbed = FieldState(u0.values + eps * delta, time=u0.time)
        other = solve_global(model, op, perturbed, cfg, constants)
        growth = float(np.max(np.abs(other.values - base.values)))
        ratio = growth / eps if eps > 0 else 0.0
        bound = amplification + slack / max(eps, 1e-300)
        ok = ratio <= bound
        rows.append({
            "eps": eps,
            "measured_ratio": ratio,
            "bound": bound,
            "q": q,
            "pass": bool(ok),
            "margin": bound - ratio,
        })
    return _assemble("dependence", rows, slack)


def contraction_measure(model: ModelSpec, op: DiscreteOperator, rho: float | None = None,
                        n_pairs: int = 200, seed: int = 0, time_steps: int = 8,
                        slack: float = 0.01,
                        constants: TheoryConstants | None = None) -> StudyResult:
    """Monte-Carlo estimate of the solution-operator contraction ratio.

    Applies the solver's integrated map A (:func:`.solver.picard_map`, the
    time-trapezoid of F) to random bounded space-time field pairs and
    compares the worst ratio ||A u1 - A u2|| / ||u1 - u2|| against the
    theoretical factor plus declared slack.  Pairs with zero separation
    are skipped.
    """
    if constants is None:
        constants = compute_constants(model, op.grid)
    if rho is None:
        rho = max_segment_length(constants, model.gamma)
    q = contraction_factor(constants, model.gamma, rho)
    rng = np.random.default_rng(seed)
    amplitude = max(1.0, (1.0 + model.gamma) * constants.kernel_l1_sup)
    n = op.grid.n_total
    dt = rho / time_steps

    rows = []
    worst = 0.0
    for index in range(n_pairs):
        u1 = rng.uniform(-amplitude, amplitude, size=(time_steps + 1, n))
        u2 = rng.uniform(-amplitude, amplitude, size=(time_steps + 1, n))
        separation = float(np.max(np.abs(u1 - u2)))
        if separation == 0.0:
            continue
        # the u0 term cancels in the difference A(u1) - A(u2)
        image_gap = float(np.max(np.abs(picard_map(model, op, u1, dt, 0.0)
                                        - picard_map(model, op, u2, dt, 0.0))))
        ratio = image_gap / separation
        worst = max(worst, ratio)
        rows.append({"pair": index, "ratio": ratio})
    bound = q + slack
    for row in rows:
        row["pass"] = bool(row["ratio"] <= bound)
        row["margin"] = bound - row["ratio"]
    result = _assemble("contraction", rows, slack)
    result.fit = {"q": q, "rho": rho, "max_ratio": worst,
                  "slope": None, "intercept": None, "r2": None}
    return result


def l1_bound_study(model: ModelSpec, op: DiscreteOperator, u0_list, t_end: float,
                   cfg: SolverConfig | None = None, slack: float = 1e-6,
                   constants: TheoryConstants | None = None) -> StudyResult:
    """sup over time of the quadrature L1 norm against ||u0||_1 + Cw |Omega|.

    Discontinuous initial data (step functions) are legitimate inputs here;
    the integral formulation smooths them immediately.
    """
    if constants is None:
        constants = compute_constants(model, op.grid)
    quad = op.quadrature
    volume = op.grid.volume
    bound_offset = constants.kernel_l1_sup * volume
    cfg = cfg or SolverConfig(method="exp-euler", dt=0.05, t_end=t_end)
    cfg = replace(cfg, t_end=t_end)

    rows = []
    for label, u0 in u0_list:
        traj = solve_global(model, op, u0, cfg, constants)
        l1_per_time = (np.abs(traj.values) * quad.weights[None, :]).sum(axis=1)
        sup_l1 = float(l1_per_time.max())
        u0_l1 = quad.l1_norm(u0.values)
        bound = u0_l1 + bound_offset + slack
        rows.append({
            "initial": label,
            "u0_l1": u0_l1,
            "sup_l1": sup_l1,
            "bound": bound,
            "pass": bool(sup_l1 <= bound),
            "margin": bound - sup_l1,
        })
    return _assemble("l1", rows, slack)
