import math

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
from neuralfield.errors import (
    MaxIterExceededError,
    NonContractiveError,
    NumericalInstabilityError,
)
from neuralfield.solver import (
    BoundReport,
    SolverConfig,
    monitor_bounds,
    picard_segment,
    solve_global,
    step,
)

from conftest import exponential_kernel, make_model, zero_firing
from oracles import crank_nicolson_decay, scalar_ode_solution


def ring_setup(n=200, gamma=0.0):
    grid = Grid(bounds=[(-10.0, 10.0)], npts=[n], boundary="periodic")
    quad = make_quadrature(grid)
    op = build_operator(exponential_kernel(), grid, quad)
    model = make_model(gamma=gamma)
    return grid, op, model


class TestPicardSegment:
    def test_zero_firing_matches_trapezoid_decay(self, op_201):
        # with no input the fixed point is the trapezoid discretization of
        # u' = -u, which is O(dt^2) close to exact exponential decay
        model = ModelSpec(exponential_kernel(), zero_firing(), LearningKernel(), gamma=0.0)
        rho, dt = 0.4, 0.025
        cfg = SolverConfig(method="picard", dt=dt, t_end=rho, picard_tol=1e-13)
        u0 = FieldState(np.full(201, 0.8))
        seg = picard_segment(model, op_201, u0, rho, cfg)
        n_steps = round(rho / dt)
        cn = crank_nicolson_decay(0.8, dt, n_steps)
        assert np.max(np.abs(seg.trajectory.values - cn[:, None])) < 1e-11
        exact = 0.8 * np.exp(-seg.trajectory.times)
        assert np.max(np.abs(seg.trajectory.values[:, 0] - exact)) < 0.1 * dt ** 2

    def test_uniform_ring_matches_scalar_ode(self):
        grid, op, model = ring_setup(gamma=0.0)
        constants = compute_constants(model, grid)
        rho = max_segment_length(constants, 0.0)
        cfg = SolverConfig(method="picard", dt=rho / 64, t_end=rho, picard_tol=1e-12)
        seg = picard_segment(model, op, FieldState(np.full(200, 0.3)), rho, cfg)
        # stays uniform
        assert np.max(np.ptp(seg.trajectory.values, axis=1)) < 1e-12
        reference = scalar_ode_solution(op.matrix[0].sum(), model.firing, 0.3,
                                        seg.trajectory.times)
        assert np.max(np.abs(seg.trajectory.values[:, 0] - reference)) < 1e-6

    def test_update_ratios_below_contraction_bound(self, op_201):
        model = make_model(gamma=1.0)
        constants = compute_constants(model, op_201.grid)
        rho = 0.1  # contraction factor ~ 0.3215
        q = contraction_factor(constants, model.gamma, rho)
        assert q == pytest.approx(0.3215, abs=1e-3)
        rng = np.random.default_rng(99)
        u0 = FieldState(rng.uniform(-1.5, 1.5, size=201))
        cfg = SolverConfig(method="picard", dt=rho / 10, t_end=rho, picard_tol=1e-11)
        seg = picard_segment(model, op_201, u0, rho, cfg)
        ratios = [b / a for a, b in zip(seg.update_norms, seg.update_norms[1:])]
        assert ratios, "expected at least two updates"
        assert max(ratios) <= 0.42  # q + 0.1 slack

    def test_iteration_count_bound(self, op_201, bump_201):
        model = make_model(gamma=1.0)
        constants = compute_constants(model, op_201.grid)
        rho = max_segment_length(constants, model.gamma)
        q = contraction_factor(constants, model.gamma, rho)
        cfg = SolverConfig(method="picard", dt=rho / 16, t_end=rho, picard_tol=1e-10)
        seg = picard_segment(model, op_201, bump_201, rho, cfg)
        cap = math.ceil(math.log(cfg.picard_tol / seg.update_norms[0]) / math.log(q)) + 5
        assert seg.iterations <= cap

    def test_non_contractive_segment_rejected(self, op_201, bump_201):
        model = make_model(gamma=1.0)
        cfg = SolverConfig(method="picard", dt=0.05, t_end=1.0)
        with pytest.raises(NonContractiveError):
            picard_segment(model, op_201, bump_201, 5.0, cfg)

    def test_max_iterations_exceeded(self, op_201, bump_201):
        model = make_model(gamma=0.5)
        cfg = SolverConfig(method="picard", dt=0.01, t_end=0.1, picard_tol=1e-14,
                           picard_max_iter=2)
        with pytest.raises(MaxIterExceededError):
            picard_segment(model, op_201, bump_201, 0.1, cfg)


class TestSolveGlobal:
    def test_picard_segment_handoff_bitwise(self, op_201, bump_201):
        model = make_model(gamma=0.5)
        constants = compute_constants(model, op_201.grid)
        rho = max_segment_length(constants, model.gamma)
        cfg = SolverConfig(method="picard", dt=rho / 8, t_end=5 * rho,
                           segment_rho=rho, picard_tol=1e-11)
        traj = solve_global(model, op_201, bump_201, cfg)
        assert len(traj.picard_segments) == 5
        assert np.all(np.diff(traj.times) > 0)
        # seam states recorded once, bitwise equal to the segment finals
        offset = 0
        for seg in traj.picard_segments:
            seam = offset + len(seg.trajectory) - 1
            assert np.array_equal(traj.values[seam], seg.trajectory.values[-1])
            offset = seam

    def test_constants_computed_for_picard_only(self, monkeypatch, op_201, bump_201):
        import neuralfield.solver as solver

        model = make_model(gamma=0.5)
        calls = []

        def refuse(model, grid):
            raise AssertionError("constants computed")

        monkeypatch.setattr(solver, "compute_constants", refuse)
        for method in ("exp-euler", "rk4"):
            traj = solve_global(model, op_201, bump_201, SolverConfig(method=method, dt=0.1, t_end=0.3))
            assert np.all(np.isfinite(traj.values))

        def counting(model, grid):
            calls.append(grid)
            return compute_constants(model, grid)

        monkeypatch.setattr(solver, "compute_constants", counting)
        solve_global(model, op_201, bump_201, SolverConfig(method="picard", dt=0.05, t_end=0.3))
        assert calls == [op_201.grid]

    def test_gamma_zero_equals_standalone_plain_stepper(self, op_201, bump_201):
        # disabling plasticity must reproduce the plain model bit for bit
        model = make_model(gamma=0.0)
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=2.0)
        traj = solve_global(model, op_201, bump_201, cfg)

        u = bump_201.values.copy()
        dense = bump_201.values.copy()
        decay = math.exp(-0.1)
        for n in range(20):
            u = decay * u + (1.0 - decay) * op_201.apply(model.firing(u))
            dense = decay * dense + (1.0 - decay) * (op_201.matrix @ model.firing(dense))
        assert np.array_equal(traj.values[-1], u)
        # the FFT product matches the dense one to rounding
        assert np.max(np.abs(traj.values[-1] - dense)) <= 1e-14

    def test_instability_aborts_with_snapshot(self):
        # runaway linear gain-field model overflows; the guard must trip
        grid = Grid(bounds=[(0.0, 1.0)], npts=[21])
        quad = make_quadrature(grid)
        kern = SynapticKernel("tabulated",
                              {"matrix": np.full((21, 21), 50.0), "nodes": grid.points})
        op = build_operator(kern, grid, quad)
        model = ModelSpec(kern, FiringRate("linear"), LearningKernel(),
                          gamma=0.0, mode="gain-field")
        cfg = SolverConfig(method="rk4", dt=0.5, t_end=100.0)
        with pytest.raises(NumericalInstabilityError) as err:
            solve_global(model, op, FieldState(np.ones(21)), cfg)
        assert err.value.snapshot["non_finite"] > 0


class TestSteppers:
    def test_exp_euler_exact_decay_any_dt(self, grid_201, op_201):
        model = ModelSpec(exponential_kernel(), zero_firing(), LearningKernel(), gamma=0.0)
        u0 = FieldState(np.linspace(-1, 1, 201) ** 2)
        for dt in (0.01, 0.5, 3.0):
            out = step(model, op_201, u0.values, dt, "exp-euler", dt)
            assert np.array_equal(out, math.exp(-dt) * u0.values)

    def test_rk4_near_exact_decay(self, op_201):
        model = ModelSpec(exponential_kernel(), zero_firing(), LearningKernel(), gamma=0.0)
        u0 = FieldState(np.full(201, 1.0))
        dt = 0.1
        out = step(model, op_201, u0.values, dt, "rk4", dt)
        # one step of the classical scheme truncates the exponential at dt^4
        assert np.max(np.abs(out - math.exp(-dt))) < dt ** 5 / 100 * 10
        assert np.max(np.abs(out - math.exp(-dt))) < 1e-7

    def test_picard_is_not_a_single_step_method(self, op_201, bump_201):
        with pytest.raises(ValueError, match="picard"):
            step(make_model(), op_201, bump_201.values, 0.1, "picard", 0.1)

    def _self_convergence_slope(self, method, op, u0, dts, t_end=2.0):
        model = make_model(gamma=0.5)

        def final(dt):
            cfg = SolverConfig(method=method, dt=dt, t_end=t_end)
            return solve_global(model, op, u0, cfg).values[-1]

        errs = [np.max(np.abs(final(dt) - final(dt / 2))) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        return slope

    def test_exp_euler_first_order(self, op_201, bump_201):
        slope = self._self_convergence_slope("exp-euler", op_201, bump_201,
                                             [0.4, 0.2, 0.1, 0.05])
        assert slope == pytest.approx(1.0, abs=0.2)

    def test_rk4_fourth_order(self, op_201, bump_201):
        slope = self._self_convergence_slope("rk4", op_201, bump_201,
                                             [0.4, 0.2, 0.1, 0.05])
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_picard_agrees_with_rk4(self, op_201, bump_201):
        model = make_model(gamma=0.5)
        constants = compute_constants(model, op_201.grid)
        rho = max_segment_length(constants, model.gamma)
        n = round(rho / 1e-3)
        dt = rho / n
        picard_traj = solve_global(model, op_201, bump_201,
                                   SolverConfig(method="picard", dt=dt, t_end=rho,
                                                segment_rho=rho, picard_tol=1e-13))
        rk4_traj = solve_global(model, op_201, bump_201,
                                SolverConfig(method="rk4", dt=dt, t_end=rho))
        assert np.max(np.abs(picard_traj.values - rk4_traj.values)) < 1e-6


class TestStationaryFixedPointOfSteppers:
    def test_exp_euler_holds_stationary_state_any_dt(self, op_201, bump_201):
        # the frozen-input step has the stationary state as an exact fixed
        # point, so the drift is bounded by the residual for every dt
        from neuralfield.stationary import find_stationary_fp

        model = make_model(gamma=0.2)
        result = find_stationary_fp(model, op_201, bump_201, tol=1e-11)
        assert result.converged
        state = FieldState(result.u_inf)
        for dt in (0.05, 0.5, 5.0):
            out = step(model, op_201, state.values, dt, "exp-euler", dt)
            # drift is (1 - e^{-dt}) times the residual, so < residual always
            assert np.max(np.abs(out - result.u_inf)) < 1e-11
        small = step(model, op_201, state.values, 0.05, "exp-euler", 0.05)
        assert np.max(np.abs(small - result.u_inf)) < 1e-12


class TestMonitorBounds:
    def test_bound_formula(self, op_201):
        from neuralfield.model import TheoryConstants

        model = make_model(gamma=1.0)
        constants = TheoryConstants(kernel_sup=0.5, kernel_l1_sup=1.0,
                                    firing_lipschitz=0.25,
                                    learning_lipschitz=0.85)
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=1.0)
        traj = solve_global(model, op_201, FieldState(np.full(201, 0.2)), cfg)
        report = monitor_bounds(traj, constants, model)
        assert report.bound_theoretical == 2.0  # max(0.2, (1 + 1) * 1)
        assert report.within_bound

    def test_positivity_clean_for_excitatory_kernel(self, op_201, bump_201):
        model = make_model(gamma=1.0)
        constants = compute_constants(model, op_201.grid)
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=10.0)
        traj = solve_global(model, op_201, bump_201, cfg)
        report = monitor_bounds(traj, constants, model)
        assert report.positivity_applicable
        assert report.positivity_violations == 0
        assert report.min_observed >= -1e-10

    def test_positivity_not_applicable_for_mexican_hat(self, grid_201, quad_201, bump_201):
        kern = SynapticKernel("mexican-hat", {"scale": 1.0})
        op = build_operator(kern, grid_201, quad_201)
        model = ModelSpec(kern, FiringRate("sigmoid"), LearningKernel(), gamma=0.5)
        constants = compute_constants(model, grid_201)
        traj = solve_global(model, op, bump_201, SolverConfig(method="exp-euler", dt=0.1, t_end=1.0))
        report = monitor_bounds(traj, constants, model)
        assert not report.positivity_applicable
        assert report.positivity_violations == 0

    def test_large_initial_data_decays_inside_envelope(self, grid_201, op_201):
        # starting above the asymptotic bound the sup must shrink toward it
        model = make_model(gamma=1.0)
        constants = compute_constants(model, grid_201)
        x = grid_201.points[:, 0]
        u0 = FieldState(5.0 * np.exp(-x * x / 8.0))
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=30.0)
        traj = solve_global(model, op_201, u0, cfg)
        report = monitor_bounds(traj, constants, model)
        assert report.bound_theoretical == pytest.approx(5.0)
        assert report.sup_observed <= 5.0 + 1e-6
        sup_per_time = np.max(np.abs(traj.values), axis=1)
        asymptotic = (1.0 + model.gamma) * constants.kernel_l1_sup
        # monotone decay while above the asymptotic level, then trapped below it
        above = sup_per_time > asymptotic + 1e-9
        assert np.all(np.diff(sup_per_time[above]) <= 1e-12)
        assert sup_per_time[-1] <= asymptotic + 1e-6

    def test_margins_are_reported_per_time(self, op_201, bump_201):
        model = make_model(gamma=0.5)
        constants = compute_constants(model, op_201.grid)
        traj = solve_global(model, op_201, bump_201,
                            SolverConfig(method="exp-euler", dt=0.1, t_end=1.0))
        report = monitor_bounds(traj, constants, model)
        assert isinstance(report, BoundReport)
        assert report.margins.shape == (len(traj),)
        assert np.all(report.margins >= -1e-6)


class TestSolverConfig:
    def test_dt_must_not_exceed_segment(self):
        with pytest.raises(ValueError):
            SolverConfig(method="picard", dt=0.5, t_end=1.0, segment_rho=0.1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SolverConfig(method="leapfrog")
