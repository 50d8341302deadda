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
from neuralfield.solver import SolverConfig, solve_global
from neuralfield.stationary import find_stationary_fp, stationary_via_flow

from conftest import constants_of, exponential_kernel, make_model, zero_firing
from oracles import scalar_fixed_point


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
        from neuralfield.discretization import apply_j_values

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
        root = scalar_fixed_point(op.matrix[0].sum(), model.firing)
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
