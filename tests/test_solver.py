import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from neuralfield.model import TheoryConstants
from neuralfield.solver import (
    POSITIVITY_TOL,
    BoundReport,
    SolverConfig,
    Trajectory,
    monitor_bounds,
    picard_map,
    picard_segment,
    solve_global,
    step,
)

from conftest import constants_of, exponential_kernel, make_model, zero_firing
from oracles import crank_nicolson_decay, dense_operator, scalar_ode_solution


def ring_setup(n=200, gamma=0.0):
    grid = Grid(bounds=[(-10.0, 10.0)], npts=[n], boundary="periodic")
    quad = make_quadrature(grid)
    op = build_operator(exponential_kernel(), grid, quad)
    model = make_model(gamma=gamma)
    return grid, op, model


def segment_lattice(u0, rho, dt):
    """A picard segment's rows t_0 .. t_N, N = round(rho / dt), with u0 in
    row 0, and its step rho / N."""
    n_steps = max(1, round(rho / dt))
    fields = np.empty((n_steps + 1, np.size(u0)))
    fields[0] = u0
    return fields, rho / n_steps


class TestPicardSegment:
    def test_zero_firing_matches_trapezoid_decay(self, op_201):
        # with no input the fixed point is the trapezoid discretization of
        # u' = -u, which is O(dt^2) close to exact exponential decay
        model = ModelSpec(exponential_kernel(), zero_firing(), LearningKernel(), gamma=0.0)
        rho, dt = 0.4, 0.025
        cfg = SolverConfig(method="picard", dt=dt, t_end=rho, picard_tol=1e-13)
        fields, dt = segment_lattice(np.full(201, 0.8), rho, cfg.dt)
        picard_segment(model, op_201, fields, dt, cfg, constants_of(model, op_201))
        n_steps = round(rho / dt)
        cn = crank_nicolson_decay(0.8, dt, n_steps)
        assert np.max(np.abs(fields - cn[:, None])) < 1e-11
        exact = 0.8 * np.exp(-dt * np.arange(n_steps + 1))
        assert np.max(np.abs(fields[:, 0] - exact)) < 0.1 * dt ** 2

    def test_uniform_ring_matches_scalar_ode(self):
        grid, op, model = ring_setup(gamma=0.0)
        constants = compute_constants(model, op)
        rho = max_segment_length(constants, 0.0)
        cfg = SolverConfig(method="picard", dt=rho / 64, t_end=rho, picard_tol=1e-12)
        fields, dt = segment_lattice(np.full(200, 0.3), rho, cfg.dt)
        picard_segment(model, op, fields, dt, cfg, constants)
        # stays uniform
        assert np.max(np.ptp(fields, axis=1)) < 1e-12
        reference = scalar_ode_solution(dense_operator(op)[0].sum(), model.firing, 0.3,
                                        dt * np.arange(fields.shape[0]))
        assert np.max(np.abs(fields[:, 0] - reference)) < 1e-6

    def test_update_ratios_below_contraction_bound(self, op_201):
        model = make_model(gamma=1.0)
        constants = compute_constants(model, op_201)
        rho = 0.1  # contraction factor ~ 0.3215
        q = contraction_factor(constants, model.gamma, rho)
        assert q == pytest.approx(0.3215, abs=1e-3)
        rng = np.random.default_rng(99)
        cfg = SolverConfig(method="picard", dt=rho / 10, t_end=rho, picard_tol=1e-11)
        fields, dt = segment_lattice(rng.uniform(-1.5, 1.5, size=201), rho, cfg.dt)
        seg = picard_segment(model, op_201, fields, dt, cfg, constants)
        assert seg.q == pytest.approx(q, rel=1e-12)
        ratios = [b / a for a, b in zip(seg.update_norms, seg.update_norms[1:])]
        assert ratios, "expected at least two updates"
        assert max(ratios) <= 0.42  # q + 0.1 slack

    def test_iteration_count_bound(self, op_201, bump_201):
        model = make_model(gamma=1.0)
        constants = compute_constants(model, op_201)
        rho = max_segment_length(constants, model.gamma)
        q = contraction_factor(constants, model.gamma, rho)
        cfg = SolverConfig(method="picard", dt=rho / 16, t_end=rho, picard_tol=1e-10)
        fields, dt = segment_lattice(bump_201.values, rho, cfg.dt)
        seg = picard_segment(model, op_201, fields, dt, cfg, constants)
        cap = math.ceil(math.log(cfg.picard_tol / seg.update_norms[0]) / math.log(q)) + 5
        assert seg.iterations <= cap

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_one_j_call_per_sweep(self, monkeypatch, op_201, bump_201, gamma):
        from neuralfield import discretization

        model = make_model(gamma=gamma)
        real = discretization.apply_j_values
        calls = []

        def spy(model, op, values):
            calls.append(values.shape)
            return real(model, op, values)

        monkeypatch.setattr(discretization, "apply_j_values", spy)
        u0 = bump_201.values
        fields = np.tile(u0, (9, 1))
        picard_map(model, op_201, fields, 0.05, u0)
        assert calls == [(201,), (8, 201)]
        calls.clear()
        picard_map(model, op_201, fields, 0.05, u0, first_rhs=np.zeros(201))
        assert calls == [(8, 201)]
        # a segment takes F(u0) once, then one stacked call per sweep
        calls.clear()
        constants = constants_of(model, op_201)
        rho = max_segment_length(constants, gamma)
        cfg = SolverConfig(method="picard", dt=rho / 8, t_end=rho)
        fields, dt = segment_lattice(u0, rho, cfg.dt)
        seg = picard_segment(model, op_201, fields, dt, cfg, constants)
        assert calls == [(201,)] + [(8, 201)] * seg.iterations

    @pytest.mark.parametrize("rows", [1, 2, 9])
    def test_picard_map_is_the_cumsum_trapezoid(self, op_201, bump_201, rows):
        # reference: np.cumsum along time, which the row-by-row sum must match bit for bit
        from neuralfield.discretization import apply_f_values

        model = make_model(gamma=0.5)
        u0 = bump_201.values
        fields = u0 * np.linspace(1.0, 0.6, rows)[:, None]
        dt = 0.05
        rhs = apply_f_values(model, op_201, fields)
        expected = np.vstack([u0, u0 + np.cumsum(0.5 * dt * (rhs[1:] + rhs[:-1]), axis=0)])
        got = picard_map(model, op_201, fields, dt, u0, first_rhs=rhs[0])
        assert np.array_equal(got, expected)

    def test_non_contractive_segment_rejected(self, op_201, bump_201):
        model = make_model(gamma=1.0)
        cfg = SolverConfig(method="picard", dt=0.05, t_end=1.0)
        fields, dt = segment_lattice(bump_201.values, 5.0, cfg.dt)
        with pytest.raises(NonContractiveError):
            picard_segment(model, op_201, fields, dt, cfg, constants_of(model, op_201))

    def test_max_iterations_exceeded(self, op_201, bump_201):
        model = make_model(gamma=0.5)
        cfg = SolverConfig(method="picard", dt=0.01, t_end=0.1, picard_tol=1e-14,
                           picard_max_iter=2)
        fields, dt = segment_lattice(bump_201.values, 0.1, cfg.dt)
        with pytest.raises(MaxIterExceededError):
            picard_segment(model, op_201, fields, dt, cfg, constants_of(model, op_201))


class TestSolveGlobal:
    def test_picard_segment_handoff_bitwise(self, op_201, bump_201):
        # a 5-segment run equals five 1-segment runs, each started from the
        # previous run's final row; rho is a power of two, so the segment
        # lengths are exact and every run takes the same step
        model = make_model(gamma=0.5)
        constants = compute_constants(model, op_201)
        rho = 2.0 ** math.floor(math.log2(max_segment_length(constants, model.gamma)))
        cfg = SolverConfig(method="picard", dt=rho / 8, t_end=5 * rho,
                           segment_rho=rho, picard_tol=1e-11)
        traj = solve_global(model, op_201, bump_201, cfg, constants)
        assert len(traj.picard_segments) == 5
        # seam states recorded once
        assert len(traj) == 5 * 8 + 1
        assert np.all(np.diff(traj.times) > 0)
        state = bump_201
        one = replace(cfg, t_end=rho)
        for k, seg in enumerate(traj.picard_segments):
            run = solve_global(model, op_201, state, one, constants)
            rows = slice(8 * k, 8 * k + 9)
            assert np.array_equal(traj.values[rows], run.values)
            assert np.array_equal(traj.times[rows], traj.times[8 * k] + run.times)
            assert run.picard_segments[0].update_norms == seg.update_norms
            state = FieldState(run.values[-1])

    def test_constants_read_by_picard_only(self, op_201, bump_201):
        # the caller computes the constants once per run; picard alone needs them
        model = make_model(gamma=0.5)
        for method in ("exp-euler", "rk4"):
            traj = solve_global(model, op_201, bump_201, SolverConfig(method=method, dt=0.1, t_end=0.3))
            assert np.all(np.isfinite(traj.values))
        with pytest.raises(ValueError, match="picard"):
            solve_global(model, op_201, bump_201, SolverConfig(method="picard", dt=0.05, t_end=0.3))

    def test_gamma_zero_equals_standalone_plain_stepper(self, op_201, bump_201):
        # disabling plasticity must reproduce the plain model bit for bit
        model = make_model(gamma=0.0)
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=2.0)
        traj = solve_global(model, op_201, bump_201, cfg)

        u = bump_201.values.copy()
        dense = bump_201.values.copy()
        decay = math.exp(-0.1)
        matrix = dense_operator(op_201)
        for n in range(20):
            u = decay * u + (1.0 - decay) * op_201.apply(model.firing(u))
            dense = decay * dense + (1.0 - decay) * (matrix @ model.firing(dense))
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
        constants = compute_constants(model, op_201)
        rho = max_segment_length(constants, model.gamma)
        n = round(rho / 1e-3)
        dt = rho / n
        picard_traj = solve_global(model, op_201, bump_201,
                                   SolverConfig(method="picard", dt=dt, t_end=rho,
                                                segment_rho=rho, picard_tol=1e-13), constants)
        rk4_traj = solve_global(model, op_201, bump_201,
                                SolverConfig(method="rk4", dt=dt, t_end=rho))
        assert np.max(np.abs(picard_traj.values - rk4_traj.values)) < 1e-6


class TestStationaryFixedPointOfSteppers:
    def test_exp_euler_holds_stationary_state_any_dt(self, op_201, bump_201):
        # the frozen-input step has the stationary state as an exact fixed
        # point, so the drift is bounded by the residual for every dt
        from neuralfield.stationary import find_stationary_fp

        model = make_model(gamma=0.2)
        result = find_stationary_fp(model, op_201, bump_201, compute_constants(model, op_201),
                                    tol=1e-11)
        assert result.converged
        state = FieldState(result.u_inf)
        for dt in (0.05, 0.5, 5.0):
            out = step(model, op_201, state.values, dt, "exp-euler", dt)
            # drift is (1 - e^{-dt}) times the residual, so < residual always
            assert np.max(np.abs(out - result.u_inf)) < 1e-11
        small = step(model, op_201, state.values, 0.05, "exp-euler", 0.05)
        assert np.max(np.abs(small - result.u_inf)) < 1e-12


UNIT_CONSTANTS = TheoryConstants(kernel_l1_sup=1.0, firing_lipschitz=0.25, learning_lipschitz=0.85)


class TestMonitorBounds:
    def test_bound_formula(self, op_201):
        model = make_model(gamma=1.0)
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=1.0)
        traj = solve_global(model, op_201, FieldState(np.full(201, 0.2)), cfg)
        report = monitor_bounds(traj, UNIT_CONSTANTS, model)
        assert report.bound_theoretical == 2.0  # max(0.2, (1 + 1) * 1)
        assert report.within_bound

    def test_sup_and_violations_equal_their_whole_array_forms(self):
        values = np.array([[0.0, 0.5, -0.0], [-2.0, 1.0, -1e-9], [0.3, -0.25, 3.0]])
        report = monitor_bounds(Trajectory(np.arange(3.0), values, []), UNIT_CONSTANTS,
                                make_model(gamma=1.0))
        assert np.array_equal(report.sup_per_time, np.max(np.abs(values), axis=1))
        assert report.positivity_applicable and report.min_observed == -2.0
        assert report.positivity_violations == np.count_nonzero(values < POSITIVITY_TOL) == 3

    def test_allocates_no_trajectory_sized_temporary(self):
        import tracemalloc

        values = np.random.default_rng(3).uniform(0.0, 1.0, size=(200, 4000))
        traj = Trajectory(np.arange(200.0), values, [])
        tracemalloc.start()
        try:
            report = monitor_bounds(traj, UNIT_CONSTANTS, make_model(gamma=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 4
        assert report.positivity_applicable and report.positivity_violations == 0

    def test_positivity_clean_for_excitatory_kernel(self, op_201, bump_201):
        model = make_model(gamma=1.0)
        constants = compute_constants(model, op_201)
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
        constants = compute_constants(model, op)
        traj = solve_global(model, op, bump_201, SolverConfig(method="exp-euler", dt=0.1, t_end=1.0))
        report = monitor_bounds(traj, constants, model)
        assert not report.positivity_applicable
        assert report.positivity_violations == 0

    def test_large_initial_data_decays_inside_envelope(self, grid_201, op_201):
        # starting above the asymptotic bound the sup must shrink toward it
        model = make_model(gamma=1.0)
        constants = compute_constants(model, op_201)
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
        constants = compute_constants(model, op_201)
        traj = solve_global(model, op_201, bump_201,
                            SolverConfig(method="exp-euler", dt=0.1, t_end=1.0))
        report = monitor_bounds(traj, constants, model)
        assert isinstance(report, BoundReport)
        assert report.sup_per_time.shape == report.min_per_time.shape == (len(traj),)
        assert np.all(report.bound_theoretical - report.sup_per_time >= -1e-6)
        assert np.array_equal(report.sup_per_time, np.max(np.abs(traj.values), axis=1))
        assert np.array_equal(report.min_per_time, np.min(traj.values, axis=1))


# The kernels whose Cw has no closed form, so the gate uses the row-sum norm.
GATE_KERNELS = (("mexican-hat", 1), ("exponential", 2), ("mexican-hat", 2), ("tabulated", 1),
                ("tabulated", 2))


@st.composite
def gate_cases(draw):
    kind, dim = draw(st.sampled_from(GATE_KERNELS))
    boundary = draw(st.sampled_from(("compact", "periodic")))
    sizes = draw(st.lists(st.integers(3, 30 if dim == 1 else 10), min_size=dim, max_size=dim))
    widths = draw(st.lists(st.floats(0.5, 8.0), min_size=dim, max_size=dim))
    grid = Grid([(-w, w) for w in widths], sizes, boundary)
    if kind == "tabulated":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        nodes = grid.points[:, 0] if dim == 1 else grid.points
        kernel = SynapticKernel(kind, {"matrix": rng.normal(size=(grid.n_total,) * 2),
                                       "nodes": nodes})
    elif kind == "exponential":
        kernel = SynapticKernel(kind, {"amplitude": draw(st.floats(-1.0, 1.0)),
                                       "decay": draw(st.floats(0.3, 3.0))})
    else:
        kernel = SynapticKernel(kind, {"scale": draw(st.floats(0.3, 2.0))})
    firing = draw(st.sampled_from(("sigmoid", "scaled-arctan", "piecewise-linear-clamped")))
    if firing == "scaled-arctan":
        params = {"scale": draw(st.floats(0.5, 8.0))}
    else:
        params = {"slope": draw(st.floats(0.5, 8.0)), "threshold": draw(st.floats(-1.0, 1.0))}
    model = ModelSpec(kernel, FiringRate(firing, params), LearningKernel(),
                      gamma=draw(st.floats(0.0, 2.0)))
    return model, grid, draw(st.floats(0.0, 1.0))


class TestRowSumGate:
    @given(case=gate_cases())
    @settings(max_examples=80, deadline=None)
    def test_exp_euler_stays_within_row_sum_gate(self, case):
        # |J(u)_i| <= (1 + gamma) sum_j |W_ij| for f in [0, 1], and an
        # exp-euler step is a convex combination of u and J(u), so no slice
        # crosses max{||u0||, (1 + gamma) R}.  The start is the sign pattern
        # of the row that attains R, scaled to a fraction of (1 + gamma) R
        # (at 1, the adversarial start; below it, the gate is (1 + gamma) R).
        model, grid, scale = case
        op = build_operator(model.kernel, grid, make_quadrature(grid))
        constants = compute_constants(model, op)
        matrix = dense_operator(op)
        row_sums = np.abs(matrix).sum(axis=1)
        r = row_sums.max()
        assert constants.method == "row-sum"
        assert constants.kernel_l1_sup == pytest.approx(r, rel=1e-12)
        u0 = scale * (1.0 + model.gamma) * r * np.sign(matrix[np.argmax(row_sums)])
        traj = solve_global(model, op, FieldState(u0),
                            SolverConfig(method="exp-euler", dt=0.25, t_end=2.0))
        gate = max(np.max(np.abs(u0)), (1.0 + model.gamma) * r)
        assert np.all(np.max(np.abs(traj.values), axis=1) <= gate + 1e-6)
        report = monitor_bounds(traj, constants, model)
        assert report.bound_theoretical == pytest.approx(gate, rel=1e-12)
        assert report.within_bound


class TestSolverConfig:
    def test_dt_must_not_exceed_segment(self):
        with pytest.raises(ValueError):
            SolverConfig(method="picard", dt=0.5, t_end=1.0, segment_rho=0.1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SolverConfig(method="leapfrog")
