"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line so a plain ``pytest -s`` run doubles as
the release checklist.  Tolerances are pinned here and nowhere else.
"""

import contextlib
import json
import math
import os
import time

import numpy as np
import pytest

from neuralfield import (
    FieldState,
    FiringRate,
    Grid,
    LearningKernel,
    ModelSpec,
    SynapticKernel,
    build_operator,
    compute_constants,
    contraction_factor,
    make_quadrature,
    max_segment_length,
)
from neuralfield.cli import main
from neuralfield.experiments import (
    continuous_dependence_study,
    contraction_measure,
    l1_bound_study,
    plasticity_limit_study,
)
from neuralfield.gainfield import (
    build_learned_kernel,
    mercer_decompose,
    presynaptic_gain,
    schrodinger_cross_check,
)
from neuralfield.solver import (
    SolverConfig,
    monitor_bounds,
    picard_segment,
    solve_global,
)
from neuralfield.stationary import find_stationary_fp, stationary_via_flow

from conftest import constants_of, exponential_kernel
from oracles import gram, greens_identity_check, learned_matrix, reconstruct_kernel


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:02d} {name}: FAIL")
        raise
    print(f"[acceptance] {number:02d} {name}: PASS")


def all_models():
    kernels = {
        "exponential": exponential_kernel(),
        "mexican-hat": SynapticKernel("mexican-hat", {"scale": 1.0}),
    }
    firings = {
        "sigmoid": FiringRate("sigmoid"),
        "arctan": FiringRate("scaled-arctan", {"scale": 1.0}),
    }
    for gamma in (0.0, 0.5, 1.0):
        for f_name, firing in firings.items():
            for k_name, kernel in kernels.items():
                label = f"gamma={gamma},f={f_name},w={k_name}"
                yield label, ModelSpec(kernel, firing, LearningKernel(), gamma=gamma)


@pytest.fixture(scope="module")
def bound_suite():
    """Twelve trajectories on [0, 50] at N = 401 plus their bound reports."""
    grid = Grid(bounds=[(-10.0, 10.0)], npts=[401])
    quad = make_quadrature(grid)
    x = grid.points[:, 0]
    u0 = FieldState(0.5 * np.exp(-x * x / 8.0))
    cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=50.0)
    started = time.time()
    reports = []
    for label, model in all_models():
        op = build_operator(model.kernel, grid, quad)
        constants = compute_constants(model, op)
        traj = solve_global(model, op, u0, cfg, constants)
        reports.append((label, model, monitor_bounds(traj, constants, model)))
    return reports, time.time() - started


def test_01_global_bound(bound_suite):
    reports, elapsed = bound_suite
    with criterion(1, "global-bound"):
        assert len(reports) == 12
        for label, model, report in reports:
            assert report.sup_observed <= report.bound_theoretical + 1e-6, label
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_02_positivity(bound_suite):
    reports, _ = bound_suite
    with criterion(2, "positivity"):
        applicable = [(label, r) for label, model, r in reports if r.positivity_applicable]
        assert applicable, "positive-kernel instances must exist"
        for label, report in applicable:
            assert report.positivity_violations == 0, label
            assert report.min_observed >= -1e-10, label


def test_03_contraction():
    with criterion(3, "contraction-ratio"):
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[101])
        quad = make_quadrature(grid)
        op = build_operator(exponential_kernel(), grid, quad)
        started = time.time()
        for gamma in (0.0, 0.5, 1.0):
            model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"),
                              LearningKernel(), gamma=gamma)
            _, verdict = contraction_measure(model, op, compute_constants(model, op),
                                             n_pairs=200, seed=1234, slack=0.01)
            assert verdict["pass"]
            assert verdict["max_ratio"] <= verdict["q"] + 0.01
        elapsed = time.time() - started
        assert elapsed < 30.0, f"contraction suite took {elapsed:.1f}s"


def test_04_picard_convergence(op_201, bump_201):
    with criterion(4, "picard-convergence"):
        for gamma in (0.5, 1.0):
            model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"),
                              LearningKernel(), gamma=gamma)
            constants = compute_constants(model, op_201)
            rho = max_segment_length(constants, gamma)
            q = contraction_factor(constants, gamma, rho)
            cfg = SolverConfig(method="picard", dt=rho / 16, t_end=3 * rho,
                               segment_rho=rho, picard_tol=1e-10)
            traj = solve_global(model, op_201, bump_201, cfg, constants)
            assert len(traj.picard_segments) == 3
            for seg in traj.picard_segments:
                norms = seg.update_norms
                ratios = [b / a for a, b in zip(norms, norms[1:])]
                assert all(r <= q + 0.1 for r in ratios)
                cap = math.ceil(math.log(cfg.picard_tol / norms[0]) / math.log(q)) + 5
                assert seg.iterations <= cap


def test_05_annulling_plasticity(op_201, bump_201):
    with criterion(5, "annulling-plasticity-limit"):
        model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"),
                          LearningKernel(), gamma=1.0)
        cfg = SolverConfig(method="rk4", dt=0.05, t_end=10.0)
        started = time.time()
        rows, verdict = plasticity_limit_study(model, op_201, [0.4, 0.2, 0.1, 0.05, 0.025],
                                               bump_201, cfg)
        elapsed = time.time() - started
        distances = [row["distance"] for row in rows]
        assert all(b < a for a, b in zip(distances, distances[1:]))
        assert verdict["fitted_slope"] == pytest.approx(1.0, abs=0.15)
        assert verdict["r2"] > 0.99
        assert elapsed < 120.0, f"study took {elapsed:.1f}s"


def test_06_continuous_dependence(op_201, bump_201):
    with criterion(6, "continuous-dependence"):
        model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"),
                          LearningKernel(), gamma=1.0)
        rows, verdict = continuous_dependence_study(model, op_201, bump_201, [0.2, 0.1, 0.05],
                                                    constants_of(model, op_201), dt=1e-3,
                                                    slack_coeff=10.0)
        assert verdict["pass"]
        q = rows[0]["q"]
        slack = 10.0 * 1e-3 * 1e-3  # slack_coeff * dt^2
        for row in rows:
            assert row["measured_ratio"] <= 1.0 / (1.0 - q) + slack / row["eps"]


@pytest.fixture(scope="module")
def stationary_pair(op_201, bump_201):
    model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"),
                      LearningKernel(), gamma=0.2)
    fp = find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201), tol=1e-10)
    return model, fp


def test_07_stationarity(op_201, bump_201, stationary_pair):
    with criterion(7, "stationarity"):
        model, fp = stationary_pair
        assert fp.converged
        assert fp.residual_sup < 1e-8
        flow = stationary_via_flow(model, op_201, bump_201, t_max=500.0,
                                   settle_tol=1e-8)
        assert flow.converged
        assert np.max(np.abs(fp.u_inf - flow.u_inf)) < 1e-6
        state = FieldState(fp.u_inf)
        for method in ("exp-euler", "rk4"):
            one_step = solve_global(model, op_201, state, SolverConfig(method, 0.05, t_end=0.05))
            drift = np.max(np.abs(one_step.values[-1] - fp.u_inf))
            assert drift < 1e-10, method


def test_08_l1_bound():
    with criterion(8, "l1-bound"):
        grid = Grid(bounds=[(0.0, 1.0)], npts=[201])
        quad = make_quadrature(grid)
        op = build_operator(exponential_kernel(), grid, quad)
        x = grid.points[:, 0]
        initials = [
            ("zero", FieldState(np.zeros(201))),
            ("step", FieldState(np.where(x < 0.5, 1.0, 0.0))),
            ("bump", FieldState(0.5 * np.exp(-((x - 0.5) ** 2) / 0.02))),
        ]
        for gamma in (0.0, 0.5):
            model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"),
                              LearningKernel(), gamma=gamma)
            cfg = SolverConfig(method="exp-euler", dt=0.05, t_end=20.0)
            rows, verdict = l1_bound_study(model, op, initials, cfg,
                                           compute_constants(model, op), slack=1e-6)
            assert verdict["pass"], [row for row in rows if not row["pass"]]


def test_09_mercer(grid_201, quad_201, op_201, bump_201):
    with criterion(9, "mercer-decomposition"):
        model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"),
                          LearningKernel(), gamma=0.5)
        fp = find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201), tol=1e-10)
        learned = build_learned_kernel(fp.u_inf, model, grid_201)
        eig = mercer_decompose(learned, quad_201)
        products = gram(eig, quad_201.weights)
        assert np.max(np.abs(products - np.eye(products.shape[0]))) < 1e-10
        matrix = learned_matrix(fp.u_inf, 0.5, model.learning.params["width"])
        assert np.max(np.abs(reconstruct_kernel(eig) - matrix)) < 1e-8
        assert eig.values[-1] >= -1e-8 * eig.values[0]
        phi_pre = presynaptic_gain(learned, k_pre=1.0)
        assert np.max(np.abs(phi_pre - np.diag(matrix))) < 1e-8


def test_10_schrodinger_correspondence():
    with criterion(10, "schrodinger-correspondence"):
        started = time.time()
        residuals = []
        for n in (1001, 2001, 4001):
            grid = Grid(bounds=[(-20.0, 20.0)], npts=[n])
            residuals.append(greens_identity_check(1.0, grid, make_quadrature(grid)))
        for a, b in zip(residuals, residuals[1:]):
            assert 3.5 <= a / b <= 4.5

        reports = {}
        for n in (2001, 4001):
            grid = Grid(bounds=[(-20.0, 20.0)], npts=[n])
            reports[n], _ = schrodinger_cross_check(1.0, 1.0, grid, make_quadrature(grid))
        assert reports[2001]["residual_l2"] < 1e-3
        assert 3.0 <= reports[2001]["residual_l2"] / reports[4001]["residual_l2"] <= 5.0
        for report in reports.values():
            assert abs(report["rayleigh_quotient"] - (report["k2"] - 1.0)) < 1e-6
        elapsed = time.time() - started
        assert elapsed < 30.0, f"schrodinger suite took {elapsed:.1f}s"


def test_11_integrator_orders(op_201, bump_201):
    with criterion(11, "integrator-orders"):
        model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"),
                          LearningKernel(), gamma=0.5)

        def final(method, dt, t_end=2.0):
            cfg = SolverConfig(method=method, dt=dt, t_end=t_end)
            return solve_global(model, op_201, bump_201, cfg).values[-1]

        dts = [0.4, 0.2, 0.1, 0.05]
        for method, order, tol in (("rk4", 4.0, 0.3), ("exp-euler", 1.0, 0.2)):
            errs = [np.max(np.abs(final(method, dt) - final(method, dt / 2)))
                    for dt in dts]
            slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
            assert slope == pytest.approx(order, abs=tol), method

        constants = compute_constants(model, op_201)
        rho = max_segment_length(constants, model.gamma)
        dt = rho / round(rho / 1e-3)
        picard = solve_global(model, op_201, bump_201,
                              SolverConfig(method="picard", dt=dt, t_end=rho,
                                           segment_rho=rho, picard_tol=1e-13), constants)
        rk4 = solve_global(model, op_201, bump_201,
                           SolverConfig(method="rk4", dt=dt, t_end=rho))
        assert np.max(np.abs(picard.values - rk4.values)) < 1e-6


def test_12_reproducibility(tmp_path, monkeypatch):
    with criterion(12, "reproducibility"):
        # main reads NF_* overrides from the environment; the runs must not
        for key in [key for key in os.environ if key.startswith("NF_")]:
            monkeypatch.delenv(key)
        doc = {
            "grid": {"nodes": [201]},
            "solver": {"dt": 0.05, "t_end": 5.0},
            "model": {"gamma": 1.0},
            "seed": 20240801,
        }
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))

        def manifest_checksums(argv, name, threads):
            out = tmp_path / name
            assert main([*argv, "--config", str(config), "--out", str(out),
                         "--threads", str(threads)]) == 0
            return json.loads((out / "manifest.json").read_text())["checksums"]

        checksums = [manifest_checksums(["simulate"], name, threads)
                     for name, threads in (("r1", 1), ("r2", 1), ("t4", 4))]
        assert checksums[0] == checksums[1], "identical reruns must match"
        assert checksums[0] == checksums[2], "thread count must not change results"

        config.write_text(json.dumps({**doc, "study": {"l1": {"t_end": 5.0}}}))
        study_sums = [manifest_checksums(["study", "l1"], name, threads)
                      for name, threads in (("s1", 1), ("s4", 4))]
        assert study_sums[0] == study_sums[1]
