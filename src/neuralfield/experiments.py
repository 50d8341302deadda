"""Falsifiable studies of the proved estimates.

Each study runs instances, records measured quantities next to the
theoretical bound, and fails loudly whenever measured exceeds bound plus the
declared slack: the bounds are theorems, so a violation means a bug in the
implementation, not noise to be tolerated.  A study returns ``(rows,
verdict)``, the payloads ``study`` writes: the CSV rows, dicts with the same
keys in the same order, and ``verdict.json``: ``pass`` (every row passed),
``worst_margin`` (the least bound + slack - measured) and the fit, if any.
Rows run serially, and every field is stepped by :mod:`.solver`: the
trajectories by ``solve_global``, the contraction study's integrated map by
``picard_map``.  The theory constants and each ``SolverConfig`` come from
the caller, built once per run.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .discretization import DiscreteOperator, FieldState
from .errors import NonContractiveError
from .model import ModelSpec, TheoryConstants, contraction_factor, max_segment_length
from .solver import SolverConfig, picard_map, solve_global


def _loglog_fit(x, y) -> dict:
    """Least-squares slope of log y against log x with its R^2."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    predicted = slope * lx + intercept
    ss_res = float(np.sum((ly - predicted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"fitted_slope": float(slope), "r2": r2}


def _verdict(rows, **fit) -> dict:
    """The ``verdict.json`` payload of a study's rows and fit."""
    margins = [row["margin"] for row in rows if row["margin"] is not None]
    return {"pass": all(row["pass"] for row in rows),
            "worst_margin": min(margins, default=math.inf), **fit}


def plasticity_limit_study(model: ModelSpec, op: DiscreteOperator, gamma_list,
                           u0: FieldState, cfg: SolverConfig,
                           slack: float = 0.0) -> tuple:
    """Distance to the plasticity-free solution as gamma shrinks.

    All runs share the grid, the initial state and the single-step method
    of ``cfg``, so d(gamma) = sup over nodes and times of |u_gamma - u_0|
    isolates the gamma dependence.  d must shrink monotonically with gamma
    and fit a log-log slope near 1 (``fitted_slope``, with its ``r2``).
    """
    gammas = [float(g) for g in gamma_list]
    if any(g <= 0 for g in gammas):
        raise ValueError("gamma_list must be positive; the reference run supplies gamma=0")
    if sorted(gammas, reverse=True) != gammas:
        raise ValueError("gamma_list must be descending")
    if cfg.method == "picard":
        raise ValueError("picard picks its segment length per gamma, which breaks the "
                         "time lattice the runs must share; use exp-euler or rk4")

    reference = solve_global(replace(model, gamma=0.0), op, u0, cfg)

    distances = []
    for gamma in gammas:
        traj = solve_global(replace(model, gamma=gamma), op, u0, cfg)
        distances.append(float(np.max(np.abs(traj.values - reference.values))))
    rows = [{"gamma": gamma, "distance": d} for gamma, d in zip(gammas, distances)]

    # monotone nonincreasing as gamma decreases
    for i, row in enumerate(rows):
        ok = i == 0 or row["distance"] <= rows[i - 1]["distance"] + slack
        row["pass"] = bool(ok)
        row["margin"] = None if i == 0 else rows[i - 1]["distance"] + slack - row["distance"]
    return rows, _verdict(rows, **_loglog_fit(gammas, distances))


def continuous_dependence_study(model: ModelSpec, op: DiscreteOperator, u0: FieldState,
                                eps_list, constants: TheoryConstants, rho: float | None = None,
                                dt: float = 1e-3, slack_coeff: float = 10.0) -> tuple:
    """Perturbation growth over one segment against the constant 1/(1-q).

    Runs pairs from u0 and u0 + eps * delta with a fixed smooth unit-sup
    profile delta, and checks sup_{t <= rho} ||u - v|| <= eps / (1 - q)
    plus the declared time-discretization slack.
    """
    if rho is None:
        rho = max_segment_length(constants, model.gamma)
    q = contraction_factor(constants, model.gamma, rho)
    if q >= 1.0:
        raise NonContractiveError(f"contraction factor {q:.4g} >= 1; shrink rho")
    amplification = 1.0 / (1.0 - q)
    slack = slack_coeff * dt * dt

    nodes = op.grid.points[:, 0]
    span = op.grid.bounds[0][1] - op.grid.bounds[0][0]
    delta = np.cos(math.pi * (nodes - nodes[0]) / span)  # smooth, sup-norm 1
    cfg = SolverConfig(method="rk4", dt=dt, t_end=rho)

    base = solve_global(model, op, u0, cfg)
    rows = []
    for eps in eps_list:
        eps = float(eps)
        perturbed = FieldState(u0.values + eps * delta)
        other = solve_global(model, op, perturbed, cfg)
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
    return rows, _verdict(rows)


def contraction_measure(model: ModelSpec, op: DiscreteOperator, constants: TheoryConstants,
                        rho: float | None = None, n_pairs: int = 200, seed: int = 0,
                        time_steps: int = 8, slack: float = 0.01) -> tuple:
    """Monte-Carlo estimate of the solution-operator contraction ratio.

    Applies the solver's integrated map A (:func:`.solver.picard_map`, the
    time-trapezoid of F) to random bounded space-time field pairs and
    compares the worst ratio ||A u1 - A u2|| / ||u1 - u2|| (``max_ratio``)
    against the theoretical factor ``q`` plus declared slack.  Pairs with
    zero separation are skipped.
    """
    if rho is None:
        rho = max_segment_length(constants, model.gamma)
    q = contraction_factor(constants, model.gamma, rho)
    rng = np.random.default_rng(seed)
    amplitude = max(1.0, (1.0 + model.gamma) * constants.kernel_l1_sup)
    n = op.grid.n_total
    dt = rho / time_steps

    rows = []
    for index in range(n_pairs):
        u1 = rng.uniform(-amplitude, amplitude, size=(time_steps + 1, n))
        u2 = rng.uniform(-amplitude, amplitude, size=(time_steps + 1, n))
        separation = float(np.max(np.abs(u1 - u2)))
        if separation == 0.0:
            continue
        # the u0 term cancels in the difference A(u1) - A(u2)
        image_gap = float(np.max(np.abs(picard_map(model, op, u1, dt, 0.0)
                                        - picard_map(model, op, u2, dt, 0.0))))
        rows.append({"pair": index, "ratio": image_gap / separation})
    bound = q + slack
    for row in rows:
        row["pass"] = bool(row["ratio"] <= bound)
        row["margin"] = bound - row["ratio"]
    return rows, _verdict(rows, q=q, max_ratio=max((row["ratio"] for row in rows), default=0.0))


def l1_bound_study(model: ModelSpec, op: DiscreteOperator, u0_list, cfg: SolverConfig,
                   constants: TheoryConstants, slack: float = 1e-6) -> tuple:
    """sup over time of the quadrature L1 norm against ||u0||_1 + Cw |Omega|.

    Discontinuous initial data (step functions) are legitimate inputs here;
    the integral formulation smooths them immediately.
    """
    quad = op.quadrature
    volume = op.grid.volume
    bound_offset = constants.kernel_l1_sup * volume

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
    return rows, _verdict(rows)
