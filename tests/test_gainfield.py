import json
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
    make_quadrature,
)
from neuralfield.cli import run
from neuralfield.config import build_config, initial_state
from neuralfield.discretization import (
    chebyshev_basis,
    chebyshev_nodes,
    chebyshev_rank,
    learned_factor_bound,
)
from neuralfield.errors import BoxTooSmallError, NoBoundStateError, NotPSDError
from neuralfield.gainfield import (
    GainField,
    PotentialSpec,
    build_learned_kernel,
    greens_identity_check,
    learned_factor,
    mercer_decompose,
    presynaptic_gain,
    reconstruct_kernel,
    schrodinger_cross_check,
    schrodinger_fd,
    simulate_gainfield,
)
from neuralfield.solver import SolverConfig, solve_global
from neuralfield.stationary import find_stationary_fp

from conftest import exponential_kernel, make_model
from oracles import finite_well_ground_energy


@pytest.fixture(scope="module")
def stationary_state(op_201, bump_201):
    model = make_model(gamma=0.5)
    result = find_stationary_fp(model, op_201, bump_201, tol=1e-10)
    assert result.converged
    return model, result.u_inf


class TestLearnedKernel:
    def test_gamma_zero_is_constant_one(self, grid_201, bump_201):
        model = make_model(gamma=0.0)
        learned = build_learned_kernel(bump_201, model, grid_201)
        assert np.all(learned.matrix == 1.0)

    def test_constant_state_gives_uniform_modulation(self, grid_201):
        model = make_model(gamma=0.7)
        learned = build_learned_kernel(FieldState(np.full(201, 0.3)), model, grid_201)
        assert np.allclose(learned.matrix, 1.7, atol=1e-15)

    def test_bump_state_range(self, grid_201, stationary_state):
        model, u_inf = stationary_state
        learned = build_learned_kernel(u_inf, model, grid_201)
        assert np.allclose(np.diag(learned.matrix), 1.5, atol=1e-14)
        assert learned.matrix.min() >= 1.0
        assert learned.matrix.max() <= 1.5
        assert np.array_equal(learned.matrix, learned.matrix.T)

    def test_minus_sign_flips_modulation(self, grid_201, stationary_state):
        model, u_inf = stationary_state
        learned = build_learned_kernel(u_inf, model, grid_201, sign="minus")
        assert np.allclose(np.diag(learned.matrix), 0.5, atol=1e-14)
        assert learned.matrix.max() <= 1.0


class TestMercer:
    def test_rank_one_constant_kernel(self):
        # G = 1 on [0, 1]: single eigenvalue |domain| with the constant function
        grid = Grid(bounds=[(0.0, 1.0)], npts=[51])
        quad = make_quadrature(grid)
        eig = mercer_decompose(np.ones((51, 51)), quad)
        assert eig.values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(eig.values[1:])) < 1e-12
        lead = eig.functions[:, 0]
        lead = lead * np.sign(lead[0])
        assert np.allclose(lead, 1.0, atol=1e-10)

    def test_learned_kernel_is_psd(self, grid_201, quad_201, stationary_state):
        model, u_inf = stationary_state
        learned = build_learned_kernel(u_inf, model, grid_201)
        eig = mercer_decompose(learned, quad_201)
        assert eig.values[-1] >= -1e-8 * eig.values[0]

    def test_orthonormal_under_quadrature(self, grid_201, quad_201, stationary_state):
        model, u_inf = stationary_state
        eig = mercer_decompose(build_learned_kernel(u_inf, model, grid_201), quad_201)
        gram = eig.gram()
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_reconstruction_improves_with_rank(self, grid_201, quad_201, stationary_state):
        model, u_inf = stationary_state
        learned = build_learned_kernel(u_inf, model, grid_201)
        eig = mercer_decompose(learned, quad_201)
        errors = [np.max(np.abs(reconstruct_kernel(eig, rank) - learned.matrix))
                  for rank in (1, 3, 10, 50, 201)]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-8

    def test_indefinite_kernel_rejected(self):
        grid = Grid(bounds=[(0.0, 1.0)], npts=[3])
        quad = make_quadrature(grid)
        ring = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(NotPSDError):
            mercer_decompose(ring, quad)

    def test_asymmetric_kernel_rejected(self, quad_201):
        bad = np.zeros((201, 201))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            mercer_decompose(bad, quad_201)


class TestPresynapticGain:
    def test_constant_kernel_unit_gain(self):
        grid = Grid(bounds=[(0.0, 1.0)], npts=[51])
        quad = make_quadrature(grid)
        eig = mercer_decompose(np.ones((51, 51)), quad)
        gain = presynaptic_gain(eig, k_pre=1.0)
        assert np.allclose(gain.phi_pre, 1.0, atol=1e-9)

    def test_full_rank_sum_equals_diagonal(self, grid_201, quad_201, stationary_state):
        model, u_inf = stationary_state
        learned = build_learned_kernel(u_inf, model, grid_201)
        eig = mercer_decompose(learned, quad_201)
        gain = presynaptic_gain(eig, k_pre=1.0)
        assert np.max(np.abs(gain.phi_pre - np.diag(learned.matrix))) < 1e-8
        # the learned kernel diagonal is 1 + gamma everywhere
        assert np.allclose(gain.phi_pre, 1.5, atol=1e-8)
        assert np.all(gain.phi_pre >= 0.0)

    def test_k_pre_scales(self, grid_201, quad_201, stationary_state):
        model, u_inf = stationary_state
        eig = mercer_decompose(build_learned_kernel(u_inf, model, grid_201), quad_201)
        g1 = presynaptic_gain(eig, k_pre=1.0)
        g2 = presynaptic_gain(eig, k_pre=2.0)
        assert np.allclose(g2.phi_pre, 2.0 * g1.phi_pre, rtol=1e-14)


GRID_KINDS = [("compact", "trapezoid"), ("compact", "simpson"), ("periodic", "trapezoid")]
N_EIGS = 6


def learned_on(span_over_width, gamma, sign="plus", boundary="compact", rule="trapezoid",
               width=0.7):
    """A learned kernel on the smallest grid whose factor split is not the
    dense fallback; some potentials sit exactly on the factor's Chebyshev
    points.  Returns the kernel, its quadrature and the factor's degree."""
    rank = max(chebyshev_rank(0.5 * span_over_width) if span_over_width > 0 else 1, N_EIGS - 2)
    grid = Grid(bounds=[(-5.0, 5.0)], npts=[4 * (rank + 2) + 1], boundary=boundary)
    span = span_over_width * width
    u = 0.3 + span * (0.5 + 0.5 * np.sin(1.3 * grid.points[:, 0] + gamma))
    u[[0, 1]] = 0.3, 0.3 + span
    if span > 0:
        nodes = chebyshev_nodes(0.3, 0.3 + span, rank)
        u[2:2 + nodes.size] = nodes
    model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"),
                      LearningKernel("gaussian", {"width": width}), gamma=gamma)
    return build_learned_kernel(u, model, grid, sign=sign), make_quadrature(grid, rule), rank


class TestFactorSplit:
    """The low-rank Mercer split of learned kernels against the dense eigh."""

    @pytest.mark.parametrize("boundary, rule", GRID_KINDS)
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("span_over_width", [0.0, 0.5, 1.0, 4.0, 16.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 4.0])
    def test_against_dense_oracle(self, gamma, span_over_width, sign, boundary, rule):
        learned, quad, rank = learned_on(span_over_width, gamma, sign, boundary, rule)
        try:
            oracle = mercer_decompose(learned.matrix, quad)
        except NotPSDError:
            with pytest.raises(NotPSDError):
                mercer_decompose(learned, quad, n_eigs=N_EIGS)
            return
        eig = mercer_decompose(learned, quad, n_eigs=N_EIGS)
        if gamma == 0.0 or span_over_width == 0.0:
            rank = N_EIGS - 2  # the constant factor
        assert eig.path == "factor" and eig.values.shape == (rank + 2,)
        # rounding of both eigensolvers, relative to the largest value
        allowance = 1e-13 * max(abs(oracle.values[0]), 1.0)
        assert np.max(np.abs(eig.values[:N_EIGS] - oracle.values[:N_EIGS])) <= eig.error_bound + allowance
        assert np.max(np.abs(eig.gram() - np.eye(rank + 2))) <= 1e-12
        kernel_bound = eig.error_bound / float(quad.weights.sum())
        recon = np.max(np.abs(reconstruct_kernel(eig) - learned.matrix))
        assert recon <= kernel_bound + 1e-13 * (1.0 + gamma)
        gain = presynaptic_gain(eig, k_pre=2.0)
        assert np.max(np.abs(gain.phi_pre - 2.0 * np.diag(learned.matrix))) <= 1e-12

    @pytest.mark.parametrize("rank", [2, 4, 8, 16, 24])
    def test_bound_holds_where_interpolation_error_dominates(self, rank):
        u = np.random.default_rng(rank).uniform(-3.0, 3.0, size=301)
        g = LearningKernel()
        nodes, basis = chebyshev_basis(u, rank)
        factor = 1.0 + 2.0 * basis.T @ g(nodes[:, None] - nodes[None, :]) @ basis
        observed = np.max(np.abs(factor - (1.0 + 2.0 * g(u[:, None] - u[None, :]))))
        assert 1e-9 < observed <= learned_factor_bound(2.0, float(np.ptp(u)), rank)

    def test_flat_field_is_the_exact_constant(self):
        learned, quad, rank = learned_on(0.0, 0.8)
        factor, middle, bound = learned_factor(learned, N_EIGS)
        assert bound == 0.0 and middle[0, 0] == 1.8 and not middle[1:].any()
        eig = mercer_decompose(learned, quad, n_eigs=N_EIGS)
        assert eig.values[0] == pytest.approx(1.8 * 10.0, rel=1e-14)
        assert np.all(eig.values[1:] == 0.0)

    def test_dense_fallback_above_quarter_n(self):
        grid = Grid(bounds=[(-5.0, 5.0)], npts=[61])
        quad = make_quadrature(grid)
        coarse = build_learned_kernel(np.linspace(-4.0, 4.0, 61), make_model(gamma=1.0), grid)
        assert learned_factor(coarse) is None
        eig = mercer_decompose(coarse, quad)
        dense = mercer_decompose(coarse.matrix, quad)
        assert eig.path == dense.path == "dense" and eig.error_bound == 0.0
        assert np.array_equal(eig.values, dense.values)
        # n_eigs - 2 counts against the same n / 4 rule
        learned, quad, rank = learned_on(0.5, 1.0)
        assert mercer_decompose(learned, quad, n_eigs=N_EIGS).path == "factor"
        assert mercer_decompose(learned, quad, n_eigs=rank + 3).path == "dense"

    def test_n_eigs_raises_the_rank(self, grid_201, quad_201, stationary_state):
        model, u_inf = stationary_state
        learned = build_learned_kernel(u_inf, model, grid_201)
        default = mercer_decompose(learned, quad_201)
        wide = mercer_decompose(learned, quad_201, n_eigs=40)
        assert default.values.size < 40 and wide.values.size == 40
        assert np.max(np.abs(wide.values[:4] - default.values[:4])) < 1e-13 * default.values[0]

    def test_gainfield_writes_n_eigs_rows_above_the_factor_rank(self, tmp_path):
        doc = {"grid": {"nodes": [201]}, "gainfield": {"crosscheck_nodes": 801, "n_eigs": 40}}
        out = tmp_path / "gf"
        assert run("gainfield", build_config(doc, environ={}), out) == 0
        assert len((out / "eigs.csv").read_text().splitlines()) == 41
        mercer = json.loads((out / "manifest.json").read_text())["mercer"]
        assert mercer["path"] == "factor" and mercer["rank"] == 40

    def test_default_config_within_recorded_bound(self, tmp_path):
        cfg = build_config({}, environ={})
        out = tmp_path / "gf"
        assert run("gainfield", cfg, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mercer"]["path"] == "factor"
        assert "manifest.json" not in manifest["checksums"]
        written = np.array([float(line.split(",")[1])
                            for line in (out / "eigs.csv").read_text().splitlines()[1:]])
        # the dense oracle on the same stationary state
        op = build_operator(cfg.model.kernel, cfg.grid, cfg.quadrature)
        section = cfg.document["stationary"]
        u_inf = find_stationary_fp(cfg.model, op, initial_state(cfg), damping=section["damping"],
                                   tol=section["tol"], max_iter=section["max_iter"]).u_inf
        learned = build_learned_kernel(u_inf, cfg.model, cfg.grid)
        oracle = mercer_decompose(learned.matrix, cfg.quadrature).values[:written.size]
        allowance = 1e-13 * oracle[0]
        assert np.max(np.abs(written - oracle)) <= manifest["mercer"]["eig_error_bound"] + allowance

    def test_split_forms_no_n_by_n_array(self):
        import tracemalloc

        n = 901
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[n])
        u = 0.5 * np.exp(-grid.points[:, 0] ** 2 / 4.0)
        learned = build_learned_kernel(u, make_model(gamma=1.0), grid)
        quad = make_quadrature(grid)
        tracemalloc.start()
        try:
            eig = mercer_decompose(learned, quad, n_eigs=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eig.path == "factor"
        assert peak < n * n * 8 / 2


class TestSimulateGainfield:
    def test_unit_gain_matches_plain_run_bitwise(self, grid_201, op_201, bump_201):
        model = make_model(gamma=0.0)
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=2.0)
        plain = solve_global(model, op_201, bump_201, cfg)
        gained = simulate_gainfield(op_201, GainField(np.ones(201), 1.0),
                                    model.firing, bump_201, cfg)
        assert np.array_equal(plain.values, gained.values)

    def test_zero_gain_is_pure_decay(self, op_201, bump_201):
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=2.0)
        traj = simulate_gainfield(op_201, GainField(np.zeros(201), 1.0),
                                  FiringRate("sigmoid"), bump_201, cfg)
        expected = np.exp(-traj.times)[:, None] * bump_201.values[None, :]
        assert np.max(np.abs(traj.values - expected)) < 1e-12

    def test_gain_vs_plastic_run_reported_not_asserted(self, grid_201, op_201, bump_201):
        # exploratory comparison between the frozen-gain equation and the
        # plastic dynamics: reported difference only, no ordering claim
        model = make_model(gamma=0.5)
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=5.0)
        plastic = solve_global(model, op_201, bump_201, cfg)
        gained = simulate_gainfield(op_201, GainField(np.full(201, 1.5), 1.0),
                                    model.firing, bump_201, cfg)
        gap = float(np.max(np.abs(plastic.values - gained.values)))
        assert math.isfinite(gap)

    def test_linear_firing_allowed(self, op_201, bump_201):
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=1.0)
        traj = simulate_gainfield(op_201, GainField(np.full(201, 0.5), 1.0),
                                  FiringRate("linear"), bump_201, cfg)
        assert np.all(np.isfinite(traj.values))

    def test_picard_refused(self, op_201, bump_201):
        # the model carries the raw kernel, so picard's constants would not
        # describe the gained operator
        cfg = SolverConfig(method="picard", dt=0.05, t_end=0.5)
        with pytest.raises(ValueError, match="picard"):
            simulate_gainfield(op_201, GainField(np.ones(201), 1.0),
                               FiringRate("sigmoid"), bump_201, cfg)

    def test_probe_forms_no_n_by_n_array(self):
        # the gainfield command's probe at the benchmark size: the gained
        # convolution is applied without tabulating the effective kernel
        import tracemalloc

        n = 901
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[n])
        op = build_operator(exponential_kernel(), grid, make_quadrature(grid))
        x = grid.points[:, 0]
        gain = GainField(1.0 + 0.5 * np.exp(-x * x / 4.0), 1.0)
        u0 = FieldState(0.5 * np.exp(-x * x / 8.0))
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=5.0)
        tracemalloc.start()
        try:
            traj = simulate_gainfield(op, gain, FiringRate("sigmoid"), u0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(traj.values))
        assert peak < n * n * 8 / 4


class TestGreensIdentity:
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_second_order_decay(self, lam):
        residuals = []
        for n in (1001, 2001):
            grid = Grid(bounds=[(-20.0, 20.0)], npts=[n])
            residuals.append(greens_identity_check(lam, grid, make_quadrature(grid)))
        assert residuals[0] < 5e-3
        assert residuals[1] < 1.3e-3
        assert 3.5 <= residuals[0] / residuals[1] <= 4.5

    def test_zero_test_function(self):
        grid = Grid(bounds=[(-20.0, 20.0)], npts=[101])
        r = greens_identity_check(1.0, grid, make_quadrature(grid),
                                  test_values=np.zeros(101))
        assert r == 0.0


class TestSchrodingerFD:
    def test_particle_in_a_box(self):
        grid = Grid(bounds=[(0.0, math.pi)], npts=[2001])
        pot = PotentialSpec(shape="custom-tabulated", values=np.zeros(2001))
        eig = schrodinger_fd(pot, grid, n_states=3)
        for n, energy in enumerate(eig.values, start=1):
            assert energy == pytest.approx(n * n, abs=1e-4 * n * n)
        assert eig.values[0] == pytest.approx(1.0, abs=1e-5)

    def test_finite_well_against_transcendental_oracle(self):
        # plain second-order eigenvalues carry ~9e-6 error at this resolution;
        # Richardson over the doubled grid matches the matching-condition root
        oracle = finite_well_ground_energy(2.0, 1.0)
        energies = {}
        for n in (2001, 4001):
            grid = Grid(bounds=[(-20.0, 20.0)], npts=[n])
            pot = PotentialSpec(shape="square-well", half_width=1.0, height=2.0)
            energies[n] = schrodinger_fd(pot, grid, n_states=1).values[0]
        assert abs(energies[4001] - oracle) < 2e-5
        extrapolated = (4.0 * energies[4001] - energies[2001]) / 3.0
        assert abs(extrapolated - oracle) < 1e-6

    def test_eigenvalue_richardson_slope(self):
        oracle = finite_well_ground_energy(2.0, 1.0)
        errs = []
        for n in (2001, 4001, 8001):
            grid = Grid(bounds=[(-20.0, 20.0)], npts=[n])
            pot = PotentialSpec(shape="square-well", half_width=1.0, height=2.0)
            errs.append(abs(schrodinger_fd(pot, grid, n_states=1).values[0] - oracle))
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5

    def test_eigenfunctions_orthonormal(self):
        grid = Grid(bounds=[(-20.0, 20.0)], npts=[801])
        pot = PotentialSpec(shape="square-well", half_width=1.0, height=6.0)
        eig = schrodinger_fd(pot, grid, n_states=2)
        gram = eig.gram()
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_box_too_small(self):
        grid = Grid(bounds=[(-2.0, 2.0)], npts=[201])
        pot = PotentialSpec(shape="square-well", half_width=1.0, height=2.0)
        with pytest.raises(BoxTooSmallError):
            schrodinger_fd(pot, grid, n_states=1)


@pytest.fixture(scope="module")
def reports():
    out = {}
    for n in (2001, 4001):
        grid = Grid(bounds=[(-20.0, 20.0)], npts=[n])
        out[n] = schrodinger_cross_check(1.0, 1.0, grid, make_quadrature(grid))
    return out


class TestCrossCheck:
    def test_consistency_condition(self, reports):
        # the found depth satisfies V0 = E0(V0) + lambda^2 to bisection accuracy
        report = reports[2001]
        grid = Grid(bounds=[(-20.0, 20.0)], npts=[2001])
        pot = PotentialSpec(shape="square-well", half_width=1.0, height=report.v0)
        ground = schrodinger_fd(pot, grid, n_states=1).values[0]
        assert abs(report.v0 - ground - 1.0) < 1e-8

    def test_integral_residual_and_order(self, reports):
        assert reports[2001].residual_l2 < 1e-3
        ratio = reports[2001].residual_l2 / reports[4001].residual_l2
        assert 3.0 <= ratio <= 5.0

    def test_energy_relation(self, reports):
        for report in reports.values():
            assert report.energy == report.k_squared - 1.0
            assert abs(report.rayleigh_quotient - report.energy) < 1e-6

    def test_no_bound_state_below_lambda_squared(self):
        grid = Grid(bounds=[(-20.0, 20.0)], npts=[1001])
        with pytest.raises(NoBoundStateError):
            schrodinger_cross_check(1.0, 1.0, grid, make_quadrature(grid),
                                    v0_bracket=(0.2, 0.8))
