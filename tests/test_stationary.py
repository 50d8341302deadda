import numpy as np
import pytest

from neuralfield import (
    FieldState,
    FiringRate,
    Grid,
    LearningKernel,
    ModelSpec,
    SynapticKernel,
    apply_f_values,
    build_operator,
    make_quadrature,
)
from neuralfield import stationary
from neuralfield.discretization import apply_j_values
from neuralfield.solver import SolverConfig, solve_global
from neuralfield.stationary import find_stationary_fp, stationary_via_flow

from conftest import constants_of, exponential_kernel, make_model, zero_firing
from oracles import damped_fixed_point, dense_operator, scalar_fixed_point


class TestFixedPoint:
    def test_constant_kernel_matches_scalar_root(self):
        # w constant on [0, 1]: the stationary state is uniform and solves
        # u = c * f(u), checked against a bisection oracle
        grid = Grid(bounds=[(0.0, 1.0)], npts=[101])
        quad = make_quadrature(grid)
        c = 0.8
        kern = SynapticKernel("tabulated",
                              {"matrix": np.full((101, 101), c), "nodes": grid.points})
        op = build_operator(kern, grid, quad)
        model = ModelSpec(kern, FiringRate("sigmoid"), LearningKernel(), gamma=0.0)
        result = find_stationary_fp(model, op, FieldState(np.full(101, 0.1)),
                                    constants_of(model, op), tol=1e-12)
        assert result.converged
        root = scalar_fixed_point(c, model.firing)
        assert np.max(np.abs(result.u_inf - root)) < 1e-10

    def test_zero_firing_collapses_immediately(self, op_201):
        model = ModelSpec(exponential_kernel(), zero_firing(), LearningKernel(), gamma=0.0)
        result = find_stationary_fp(model, op_201, FieldState(np.full(201, 0.5)),
                                    constants_of(model, op_201), damping=1.0, tol=1e-12)
        assert result.converged
        assert np.all(result.u_inf == 0.0)
        assert result.iterations <= 2

    def test_bump_instance_residuals(self, op_201, bump_201):
        model = make_model(gamma=0.2)
        result = find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201), tol=1e-9)
        assert result.converged
        assert result.residual_sup < 1e-8
        assert np.max(np.abs(apply_f_values(model, op_201, result.u_inf))) < 1e-8

    def test_residual_recomputed_at_exit(self, op_201, bump_201):
        model = make_model(gamma=0.2)
        result = find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201), tol=1e-9)
        fresh = float(np.max(np.abs(result.u_inf - apply_j_values(model, op_201, result.u_inf))))
        assert fresh == result.residual_sup

    def test_max_iter_flags_not_converged(self, op_201, bump_201):
        model = make_model(gamma=0.2)
        result = find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201),
                                    tol=1e-12, max_iter=3)
        assert not result.converged
        assert result.iterations == 3

    def test_periodic_grid_rejected(self):
        grid = Grid(bounds=[(0.0, 10.0)], npts=[32], boundary="periodic")
        op = build_operator(exponential_kernel(), grid, make_quadrature(grid))
        model = make_model(gamma=0.0)
        with pytest.raises(ValueError, match="compact"):
            find_stationary_fp(model, op, FieldState(np.zeros(32)), constants_of(model, op))

    def test_large_gamma_warns(self, op_201, bump_201):
        model = make_model(gamma=3.0)
        with pytest.warns(UserWarning, match="small-gamma"):
            find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201),
                               tol=1e-6, max_iter=50)

    def test_damping_validated(self, op_201, bump_201):
        with pytest.raises(ValueError):
            find_stationary_fp(make_model(), op_201, bump_201,
                               constants_of(make_model(), op_201), damping=0.0)


def _sweep_kernel(kind, grid):
    if kind == "exponential":
        return exponential_kernel()
    if kind == "mexican-hat":
        return SynapticKernel("mexican-hat", {"scale": 1.0})
    # not a function of |x - y| alone, so J takes the dense path
    x = grid.points[:, 0]
    table = 0.4 * np.exp(-np.abs(x[:, None] - x[None, :])) * (1.0 + 0.5 * np.sin(x)[:, None])
    return SynapticKernel("tabulated", {"matrix": table, "nodes": grid.points})


class TestAnderson:
    TOL = 1e-9

    @pytest.mark.filterwarnings("ignore:gamma \\* Cw")
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, 1.5])
    @pytest.mark.parametrize("firing_kind", ["sigmoid", "scaled-arctan", "piecewise-linear-clamped"])
    @pytest.mark.parametrize("kernel_kind", ["exponential", "mexican-hat", "tabulated"])
    def test_matches_damped_oracle_in_fewer_calls(self, kernel_kind, firing_kind, gamma,
                                                  grid_201, quad_201, bump_201, monkeypatch):
        kernel = _sweep_kernel(kernel_kind, grid_201)
        op = build_operator(kernel, grid_201, quad_201)
        model = ModelSpec(kernel, FiringRate(firing_kind), LearningKernel(), gamma=gamma)
        # run 1000x past tol, so the oracle's own distance to the fixed point
        # (tol / (1 - L), large where L is near 1) does not enter the comparison
        reference, residuals = damped_fixed_point(lambda v: apply_j_values(model, op, v),
                                                  bump_201.values, 0.5, 1e-3 * self.TOL)
        oracle_calls = next(k for k, r in enumerate(residuals, 1) if r < self.TOL)

        calls = []

        def counted(*args):
            calls.append(args)
            return apply_j_values(*args)

        monkeypatch.setattr(stationary, "apply_j_values", counted)
        result = find_stationary_fp(model, op, bump_201, constants_of(model, op),
                                    damping=0.5, tol=self.TOL)
        assert result.converged
        assert result.method == "anderson-fp"
        assert np.max(np.abs(result.u_inf - reference)) < 10 * self.TOL
        assert len(calls) == result.iterations == len(result.history)
        if firing_kind == "piecewise-linear-clamped":
            # the ramp's corners put it outside the C^1 setting of Anderson's
            # convergence theory, and both methods spend their first steps
            # moving the saturated front; worst measured 31 calls against 60
            assert len(calls) < oracle_calls
        else:
            assert 2 * len(calls) <= oracle_calls

    def test_history_records_every_evaluation(self, op_201, bump_201):
        model = make_model(gamma=0.2)
        result = find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201), tol=1e-9)
        assert [k for k, _ in result.history] == list(range(1, result.iterations + 1))
        assert result.history[-1][1] == result.residual_sup < 1e-9
        assert all(r >= 1e-9 for _, r in result.history[:-1])

    def test_returns_best_iterate_when_max_iter_runs_out(self, op_201, bump_201):
        model = make_model(gamma=3.0)
        with pytest.warns(UserWarning, match="small-gamma"):
            result = find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201),
                                        tol=1e-16, max_iter=50)
        assert not result.converged
        assert result.residual_sup == min(r for _, r in result.history)
        fresh = float(np.max(np.abs(result.u_inf - apply_j_values(model, op_201, result.u_inf))))
        assert fresh == result.residual_sup

    def test_overshooting_step_is_not_returned(self, op_201, bump_201):
        # at gamma = 3 the first mixed step overshoots: the third residual is
        # the largest, and the second state is the one returned
        model = make_model(gamma=3.0)
        with pytest.warns(UserWarning, match="small-gamma"):
            result = find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201),
                                        tol=1e-9, max_iter=3)
        (_, first), (_, second), (_, third) = result.history
        assert third > max(first, second)
        assert result.residual_sup == second
        fresh = float(np.max(np.abs(result.u_inf - apply_j_values(model, op_201, result.u_inf))))
        assert fresh == second


class TestFlow:
    def test_agrees_with_fixed_point(self, op_201, bump_201):
        model = make_model(gamma=0.2)
        fp = find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201), tol=1e-9)
        flow = stationary_via_flow(model, op_201, bump_201, t_max=500.0, settle_tol=1e-8)
        assert flow.converged
        assert np.max(np.abs(fp.u_inf - flow.u_inf)) < 1e-6

    def test_settles_immediately_from_stationary_state(self, op_201, bump_201):
        model = make_model(gamma=0.2)
        fp = find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201), tol=1e-11)
        flow = stationary_via_flow(model, op_201, FieldState(fp.u_inf),
                                   t_max=100.0, settle_tol=1e-8, dt=0.1)
        assert flow.converged
        assert flow.iterations == 1  # first geometric sample already settled

    def test_uniform_ring_limit_matches_scalar_equilibrium(self):
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[64], boundary="periodic")
        op = build_operator(exponential_kernel(), grid, make_quadrature(grid))
        model = make_model(gamma=0.0)
        flow = stationary_via_flow(model, op, FieldState(np.full(64, 0.1)),
                                   t_max=400.0, settle_tol=1e-9, dt=0.05)
        assert flow.converged
        root = scalar_fixed_point(dense_operator(op)[0].sum(), model.firing)
        assert np.max(np.abs(flow.u_inf - root)) < 1e-6

    def test_not_settled_returns_last_state(self, op_201, bump_201):
        model = make_model(gamma=0.2)
        flow = stationary_via_flow(model, op_201, bump_201, t_max=0.5, settle_tol=1e-12)
        assert not flow.converged
        assert flow.history[-1][1] == flow.residual_sup

    def test_geometric_sampling_times(self, op_201, bump_201):
        model = make_model(gamma=0.2)
        flow = stationary_via_flow(model, op_201, bump_201, t_max=100.0,
                                   settle_tol=1e-8, dt=0.1)
        sampled = [t for t, _ in flow.history[:-1]]
        for a, b in zip(sampled, sampled[1:]):
            assert b == pytest.approx(2 * a, rel=1e-9)


class TestEquicontinuityProbe:
    def test_gamma_sweep_trend(self, op_201):
        # structure grows with the plasticity strength from featureless data:
        # the sup over time of the modulus of continuity at the lattice spacing
        moduli = []
        for gamma in (0.1, 0.2, 0.4, 0.8):
            model = make_model(gamma=gamma)
            traj = solve_global(model, op_201, FieldState(np.full(201, 0.2)),
                                SolverConfig(method="exp-euler", dt=0.1, t_end=20.0))
            moduli.append(np.abs(np.diff(traj.values, axis=1)).max())
        assert np.all(np.diff(moduli) > 0)
