import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neuralfield import (
    FieldState,
    FiringRate,
    Grid,
    LearningKernel,
    ModelSpec,
    SynapticKernel,
    build_operator,
    gainfield,
    make_quadrature,
)
from neuralfield.cli import run
from neuralfield.config import build_config, initial_state
from neuralfield.discretization import range_factor
from neuralfield.errors import BoxTooSmallError, NoBoundStateError, NotPSDError
from neuralfield.gainfield import (
    EigenSystem,
    _CondensedWell,
    _hamiltonian,
    _on_grid,
    build_learned_kernel,
    learned_factor,
    mercer_decompose,
    presynaptic_gain,
    schrodinger_cross_check,
    schrodinger_fd,
    simulate_gainfield,
    square_well,
)
from neuralfield.solver import SolverConfig, solve_global
from neuralfield.stationary import ANDERSON_WINDOW, find_stationary_fp

from conftest import constants_of, exponential_kernel, make_model
from oracles import (fd_schrodinger_eigenpairs, finite_well_ground_energy, gram, greens_identity_check,
                     learned_matrix, mercer_eigenvalues, reconstruct_kernel, square_well_fd_ground)


@pytest.fixture(scope="module")
def stationary_state(op_201, bump_201):
    model = make_model(gamma=0.5)
    result = find_stationary_fp(model, op_201, bump_201, constants_of(model, op_201), tol=1e-10)
    assert result.converged
    return model, result.u_inf


def dense_g(learned):
    """The n x n G a learned kernel's frozen state stands for, from the oracle."""
    return learned_matrix(learned.source, learned.coupling, learned.learning.params["width"])


class TestLearnedKernel:
    def test_gamma_zero_is_constant_one(self, grid_201, bump_201):
        model = make_model(gamma=0.0)
        learned = build_learned_kernel(bump_201.values, model, grid_201)
        assert np.all(dense_g(learned) == 1.0)

    def test_constant_state_gives_uniform_modulation(self, grid_201):
        model = make_model(gamma=0.7)
        learned = build_learned_kernel(np.full(201, 0.3), model, grid_201)
        assert np.allclose(dense_g(learned), 1.7, atol=1e-15)

    def test_bump_state_range(self, grid_201, stationary_state):
        model, u_inf = stationary_state
        learned = build_learned_kernel(u_inf, model, grid_201)
        # a read-only copy of the state
        assert learned.coupling == 0.5 and np.array_equal(learned.source, u_inf)
        assert not learned.source.flags.writeable and not np.shares_memory(learned.source, u_inf)
        matrix = dense_g(learned)
        assert np.allclose(np.diag(matrix), 1.5, atol=1e-14)
        assert matrix.min() >= 1.0
        assert matrix.max() <= 1.5
        assert np.array_equal(matrix, matrix.T)


class TestMercer:
    def test_rank_one_constant_kernel(self):
        # G = 1 on [0, 1] (gamma = 0): single eigenvalue |domain| with the
        # constant function
        grid = Grid(bounds=[(0.0, 1.0)], npts=[51])
        quad = make_quadrature(grid)
        ones = build_learned_kernel(np.linspace(0.0, 2.0, 51), make_model(gamma=0.0), grid)
        assert np.all(dense_g(ones) == 1.0)
        eig = mercer_decompose(ones, quad, n_eigs=3)
        assert eig.values[0] == pytest.approx(1.0, abs=1e-12)
        assert eig.values.shape == (3,) and np.max(np.abs(eig.values[1:])) < 1e-12
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
        products = gram(eig, quad_201.weights)
        assert np.max(np.abs(products - np.eye(products.shape[0]))) < 1e-10

    def test_reconstruction_improves_with_rank(self, grid_201, quad_201, stationary_state):
        model, u_inf = stationary_state
        learned = build_learned_kernel(u_inf, model, grid_201)
        eig = mercer_decompose(learned, quad_201)
        errors = [np.max(np.abs(reconstruct_kernel(eig, rank) - dense_g(learned)))
                  for rank in (1, 3, 10, 50, 201)]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-8


class TestPresynapticGain:
    def test_constant_kernel_unit_gain(self):
        grid = Grid(bounds=[(0.0, 1.0)], npts=[51])
        quad = make_quadrature(grid)
        ones = build_learned_kernel(np.linspace(0.0, 2.0, 51), make_model(gamma=0.0), grid)
        split_diagonal = np.diag(reconstruct_kernel(mercer_decompose(ones, quad)))
        assert np.allclose(split_diagonal, 1.0, atol=1e-9)
        phi_pre = presynaptic_gain(ones, k_pre=1.0)
        assert np.allclose(phi_pre, 1.0, atol=1e-9)

    def test_full_rank_sum_equals_diagonal(self, grid_201, quad_201, stationary_state):
        model, u_inf = stationary_state
        learned = build_learned_kernel(u_inf, model, grid_201)
        eig = mercer_decompose(learned, quad_201)
        # the split's own identity: sum_i sigma_i phi_i(y)^2 = G(y, y)
        split_diagonal = np.diag(reconstruct_kernel(eig))
        assert np.max(np.abs(split_diagonal - np.diag(dense_g(learned)))) < 1e-8
        phi_pre = presynaptic_gain(learned, k_pre=1.0)
        assert np.max(np.abs(phi_pre - np.diag(dense_g(learned)))) < 1e-8
        # the learned kernel diagonal is 1 + gamma everywhere
        assert np.allclose(phi_pre, 1.5, atol=1e-8)
        assert np.all(phi_pre >= 0.0)

    def test_k_pre_scales(self, grid_201, quad_201, stationary_state):
        model, u_inf = stationary_state
        learned = build_learned_kernel(u_inf, model, grid_201)
        g1 = presynaptic_gain(learned, k_pre=1.0)
        g2 = presynaptic_gain(learned, k_pre=2.0)
        assert np.allclose(g2, 2.0 * g1, rtol=1e-14)


GRID_KINDS = [("compact", "trapezoid"), ("compact", "simpson"), ("periodic", "trapezoid")]
N_EIGS = 6


def learned_on(span_over_width, gamma, boundary="compact", rule="trapezoid", width=0.7):
    """A learned kernel on a grid of 4 (r + 2) + 1 nodes, r the factor's
    term count; some potentials sit exactly on the factor's pivots.
    Returns the kernel, its quadrature and r."""
    span = span_over_width * width
    ends = np.array([0.3, 0.3 + span])
    factor = range_factor(ends, width)
    grid = Grid(bounds=[(-5.0, 5.0)], npts=[4 * (factor.rank + 2) + 1], boundary=boundary)
    u = 0.3 + span * (0.5 + 0.5 * np.sin(1.3 * grid.points[:, 0] + gamma))
    u[[0, 1]] = ends
    nodes = 0.3 + 0.5 * span + width * factor.pivots
    nodes = nodes[(nodes >= 0.3) & (nodes <= 0.3 + span)]
    u[2:2 + nodes.size] = nodes
    model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"),
                      LearningKernel("gaussian", {"width": width}), gamma=gamma)
    return build_learned_kernel(u, model, grid), make_quadrature(grid, rule), factor.rank


class TestFactorSplit:
    """The low-rank Mercer split of learned kernels against LAPACK's dense eigh."""

    @pytest.mark.parametrize("boundary, rule", GRID_KINDS)
    @pytest.mark.parametrize("span_over_width", [0.0, 0.5, 1.0, 4.0, 16.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 4.0])
    def test_against_dense_oracle(self, gamma, span_over_width, boundary, rule):
        learned, quad, rank = learned_on(span_over_width, gamma, boundary, rule)
        oracle = mercer_eigenvalues(dense_g(learned), quad.weights)
        eig = mercer_decompose(learned, quad, n_eigs=N_EIGS)
        if gamma == 0.0:
            rank = 0  # the constant factor
        columns = max(rank + 1, N_EIGS)
        assert eig.values.shape == (columns,)
        # rounding of both eigensolvers, relative to the largest value
        allowance = 1e-13 * max(abs(oracle[0]), 1.0)
        assert np.max(np.abs(eig.values - oracle[:columns])) <= eig.error_bound + allowance
        assert np.max(np.abs(gram(eig, quad.weights) - np.eye(columns))) <= 1e-12
        kernel_bound = eig.error_bound / float(quad.weights.sum())
        recon = np.max(np.abs(reconstruct_kernel(eig) - dense_g(learned)))
        assert recon <= kernel_bound + 1e-13 * (1.0 + gamma)
        # the split's diagonal sum_i sigma_i phi_i(y)^2 against G(y, y)
        split_diagonal = np.diag(reconstruct_kernel(eig))
        assert np.max(np.abs(2.0 * split_diagonal - 2.0 * np.diag(dense_g(learned)))) <= 1e-12
        phi_pre = presynaptic_gain(learned, k_pre=2.0)
        assert np.max(np.abs(phi_pre - 2.0 * np.diag(dense_g(learned)))) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    @pytest.mark.parametrize("span_over_width", [0.3, 1.0, 2.0, 8.0])
    def test_factor_within_bound_of_oracle(self, gamma, span_over_width):
        u = np.random.default_rng(3).uniform(-0.5, 0.5, size=301) * span_over_width * 0.7
        model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"),
                          LearningKernel("gaussian", {"width": 0.7}), gamma=gamma)
        learned = build_learned_kernel(u, model, Grid(bounds=[(0.0, 1.0)], npts=[301]))
        factor, middle, bound = learned_factor(learned)
        observed = np.max(np.abs((factor * middle) @ factor.T - dense_g(learned)))
        assert observed <= bound + 1e-14 * (1.0 + gamma)
        assert bound <= gamma * 5e-14

    def test_flat_field_takes_the_smallest_bucket_within_bound(self):
        # a flat state is no special case: it takes the factor of the
        # smallest bucket, within the bound of G = 1 + gamma everywhere
        learned, quad, rank = learned_on(0.0, 0.8)
        factor, middle, bound = learned_factor(learned, N_EIGS)
        assert rank == 3 and factor.shape == (learned.source.size, N_EIGS)
        assert 0.0 < bound <= 0.8 * 5e-14
        observed = np.max(np.abs((factor * middle) @ factor.T - dense_g(learned)))
        assert observed <= bound + 1e-14 * 1.8
        eig = mercer_decompose(learned, quad, n_eigs=N_EIGS)
        oracle = mercer_eigenvalues(dense_g(learned), quad.weights)
        assert eig.values[0] == pytest.approx(1.8 * 10.0, rel=1e-14)
        assert np.max(np.abs(eig.values - oracle[:N_EIGS])) <= eig.error_bound + 1e-13 * oracle[0]

    def test_rank_near_n_and_n_eigs_above_n(self):
        # 37 terms on 61 nodes split from the factor like any other grid
        grid = Grid(bounds=[(-5.0, 5.0)], npts=[61])
        quad = make_quadrature(grid)
        coarse = build_learned_kernel(np.linspace(-4.0, 4.0, 61), make_model(gamma=1.0), grid)
        oracle = mercer_eigenvalues(dense_g(coarse), quad.weights)
        eig = mercer_decompose(coarse, quad)
        assert eig.values.shape == (38,)
        assert 0.0 < eig.error_bound and np.max(np.abs(eig.values - oracle[:38])) <= eig.error_bound
        # zero columns pad the factor to n_eigs, and no n_eigs asks for more than G has
        assert learned_factor(coarse, n_eigs=100)[0].shape == (61, 61)
        wide = mercer_decompose(coarse, quad, n_eigs=100)
        assert np.max(np.abs(wide.values - oracle)) <= wide.error_bound

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
        assert "path" not in mercer and mercer["rank"] == 40

    def test_default_config_within_recorded_bound(self, tmp_path):
        cfg = build_config({}, environ={})
        out = tmp_path / "gf"
        assert run("gainfield", cfg, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        mercer = manifest["mercer"]
        assert set(mercer) == {"rank", "eig_error_bound", "k_pre_times_one_plus_gamma"}
        assert "manifest.json" not in manifest["checksums"]
        # the written phi_pre is the constant K_pre (1 + gamma) at every node
        phi_pre = [float(line.split(",")[-1])
                   for line in (out / "phi_pre.csv").read_text().splitlines()[1:]]
        assert mercer["k_pre_times_one_plus_gamma"] == 2.0
        assert set(phi_pre) == {2.0}
        written = np.array([float(line.split(",")[1])
                            for line in (out / "eigs.csv").read_text().splitlines()[1:]])
        # LAPACK's dense eigh on the same stationary state
        op = build_operator(cfg.model.kernel, cfg.grid, cfg.quadrature)
        section = cfg.document["stationary"]
        u_inf = find_stationary_fp(cfg.model, op, initial_state(cfg), constants_of(cfg.model, op),
                                   damping=section["damping"], tol=section["tol"],
                                   max_iter=section["max_iter"]).u_inf
        learned = build_learned_kernel(u_inf, cfg.model, cfg.grid)
        oracle = mercer_eigenvalues(dense_g(learned), cfg.quadrature.weights)[:written.size]
        allowance = 1e-13 * oracle[0]
        assert np.max(np.abs(written - oracle)) <= manifest["mercer"]["eig_error_bound"] + allowance

    @pytest.mark.parametrize("state", ["bump", "flat"])
    def test_build_and_split_form_no_n_by_n_array(self, state):
        import tracemalloc

        n = 901
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[n])
        u = 0.5 * np.exp(-grid.points[:, 0] ** 2 / 4.0) if state == "bump" else np.full(n, 0.3)
        quad = make_quadrature(grid)
        tracemalloc.start()
        try:
            learned = build_learned_kernel(u, make_model(gamma=0.5), grid)
            eig = mercer_decompose(learned, quad, n_eigs=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eig.values.size >= 12
        assert peak < n * n * 8 / 4

    def test_residual_check_reads_the_last_partial_block(self, monkeypatch):
        # a factor row off G keeps F M F^T positive semidefinite, so only the
        # residual catches it; n = 101 is no multiple of the factor's width,
        # so the perturbed last row lies in the last, partial block of rows
        n = 101
        grid = Grid(bounds=[(-5.0, 5.0)], npts=[n])
        u = 0.5 * np.exp(-grid.points[:, 0] ** 2 / 4.0)
        learned = build_learned_kernel(u, make_model(gamma=1.0), grid)
        exact = learned_factor

        def perturbed(kernel, n_eigs=0):
            factor, middle, bound = exact(kernel, n_eigs)
            assert n % factor.shape[1] != 0
            factor = factor.copy()
            factor[-1] *= 1.01
            return factor, middle, bound

        monkeypatch.setattr(gainfield, "learned_factor", perturbed)
        with pytest.raises(NotPSDError, match="eigendecomposition residual"):
            mercer_decompose(learned, make_quadrature(grid))


class TestSimulateGainfield:
    def test_unit_gain_matches_plain_run_bitwise(self, grid_201, op_201, bump_201):
        model = make_model(gamma=0.0)
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=2.0)
        plain = solve_global(model, op_201, bump_201, cfg)
        gained = simulate_gainfield(op_201, np.ones(201), model.firing, bump_201, cfg)
        assert np.array_equal(plain.values, gained.values)

    def test_vanishing_gain_is_pure_decay(self, op_201, bump_201):
        # the gain is a measure, so it is positive: a vanishing one leaves
        # the decay, a zero one is refused
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=2.0)
        traj = simulate_gainfield(op_201, np.full(201, 1e-20), FiringRate("sigmoid"), bump_201, cfg)
        expected = np.exp(-traj.times)[:, None] * bump_201.values[None, :]
        assert np.max(np.abs(traj.values - expected)) < 1e-12
        with pytest.raises(ValueError, match="positive"):
            simulate_gainfield(op_201, np.zeros(201), FiringRate("sigmoid"), bump_201, cfg)

    def test_gain_vs_plastic_run_reported_not_asserted(self, grid_201, op_201, bump_201):
        # exploratory comparison between the frozen-gain equation and the
        # plastic dynamics: reported difference only, no ordering claim
        model = make_model(gamma=0.5)
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=5.0)
        plastic = solve_global(model, op_201, bump_201, cfg)
        gained = simulate_gainfield(op_201, np.full(201, 1.5), model.firing, bump_201, cfg)
        gap = float(np.max(np.abs(plastic.values - gained.values)))
        assert math.isfinite(gap)

    def test_linear_firing_allowed(self, op_201, bump_201):
        cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=1.0)
        traj = simulate_gainfield(op_201, np.full(201, 0.5), FiringRate("linear"), bump_201, cfg)
        assert np.all(np.isfinite(traj.values))

    def test_picard_refused(self, op_201, bump_201):
        # the model carries the raw kernel, so picard's constants would not
        # describe the gained operator; solve_global gets none and refuses
        cfg = SolverConfig(method="picard", dt=0.05, t_end=0.5)
        with pytest.raises(ValueError, match="picard"):
            simulate_gainfield(op_201, np.ones(201), FiringRate("sigmoid"), bump_201, cfg)

    def test_probe_forms_no_n_by_n_array(self):
        # the gainfield command's probe at the benchmark size: the gained
        # convolution is applied without tabulating the effective kernel
        import tracemalloc

        n = 901
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[n])
        op = build_operator(exponential_kernel(), grid, make_quadrature(grid))
        x = grid.points[:, 0]
        gain = 1.0 + 0.5 * np.exp(-x * x / 4.0)
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
        eig = schrodinger_fd(np.zeros(2001), grid, n_states=3)
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
            pot = square_well(grid.axis_nodes[0], 1.0, 2.0)
            energies[n] = schrodinger_fd(pot, grid, n_states=1).values[0]
        assert abs(energies[4001] - oracle) < 2e-5
        extrapolated = (4.0 * energies[4001] - energies[2001]) / 3.0
        assert abs(extrapolated - oracle) < 1e-6

    def test_eigenvalue_richardson_slope(self):
        oracle = finite_well_ground_energy(2.0, 1.0)
        errs = []
        for n in (2001, 4001, 8001):
            grid = Grid(bounds=[(-20.0, 20.0)], npts=[n])
            pot = square_well(grid.axis_nodes[0], 1.0, 2.0)
            errs.append(abs(schrodinger_fd(pot, grid, n_states=1).values[0] - oracle))
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5

    def test_eigenfunctions_orthonormal(self):
        grid = Grid(bounds=[(-20.0, 20.0)], npts=[801])
        eig = schrodinger_fd(square_well(grid.axis_nodes[0], 1.0, 6.0), grid, n_states=2)
        assert np.max(np.abs(gram(eig, make_quadrature(grid).weights) - np.eye(2))) < 1e-10

    def test_box_too_small(self):
        grid = Grid(bounds=[(-2.0, 2.0)], npts=[201])
        with pytest.raises(BoxTooSmallError):
            schrodinger_fd(square_well(grid.axis_nodes[0], 1.0, 2.0), grid, n_states=1)


def tabulated_potential(kind, rng, x):
    """A random potential on the nodes x: rough per-node values, a smooth sum
    of gaussians, or a shallow square well whose states above the well
    crowd together in the box."""
    half_box = float(x[-1])
    if kind == "rough":
        return rng.uniform(0.0, rng.uniform(0.1, 100.0), x.size)
    if kind == "smooth":
        return sum(rng.uniform(-5.0, 5.0)
                   * np.exp(-((x - rng.uniform(-half_box, half_box)) / rng.uniform(0.1, half_box)) ** 2)
                   for _ in range(3))
    return square_well(x, float(rng.uniform(0.05, 1.0)), float(rng.uniform(1e-3, 0.3)))


def tridiagonal_eigenpairs(v, grid, n_states):
    """The solve of ``schrodinger_fd`` from its tridiagonal routines, without
    the decay check that rough or random potentials need not pass."""
    dx = grid.spacing[0]
    hamiltonian = _hamiltonian(v, dx)
    energies = hamiltonian.eigenvalues(min(n_states, v.size - 2))
    vectors = np.zeros((v.size - 2, len(energies)))
    for j, energy in enumerate(energies):
        vectors[:, j] = hamiltonian.eigenvector(energy, vectors[:, :j])
    return EigenSystem(values=np.array(energies), functions=_on_grid(vectors, dx))


class TestTridiagonalSolver:
    """Sturm bisection and inverse iteration against LAPACK stebz/stein."""

    @given(n=st.integers(3, 2001), n_states=st.integers(1, 6),
           kind=st.sampled_from(["rough", "smooth", "shallow"]),
           half_box=st.floats(1.0, 20.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    @example(n=2001, n_states=6, kind="shallow", half_box=20.0, seed=1)
    @example(n=2001, n_states=6, kind="rough", half_box=5.0, seed=2)
    # one interior row: its norm has no off-diagonal term, so bisecting to
    # the width of an interior row's norm missed eps ||T||
    @example(n=3, n_states=1, kind="smooth", half_box=1.0, seed=249)
    def test_against_lapack(self, n, n_states, kind, half_box, seed):
        grid = Grid(bounds=[(-half_box, half_box)], npts=[n])
        dx = grid.spacing[0]
        v = tabulated_potential(kind, np.random.default_rng(seed), grid.axis_nodes[0])
        eig = tridiagonal_eigenpairs(v, grid, n_states)
        k = eig.values.size
        assert k == min(n_states, n - 2)
        # one state more than asked, for the gap above the last one
        values, vectors, norm = fd_schrodinger_eigenpairs(v, dx, min(k + 1, n - 2))
        assert np.max(np.abs(eig.values - values[:k])) <= 1e-12 * norm
        assert np.max(np.abs(gram(eig, np.full(n, dx)) - np.eye(k))) <= 1e-10
        unit = eig.functions[1:-1] * math.sqrt(dx)
        eps = np.finfo(float).eps
        for j in range(k):
            # the sign rule holds on the returned array; a rescaled copy can
            # turn a one-ulp order of two magnitudes into a tie
            function = eig.functions[:, j]
            assert function[np.argmax(np.abs(function))] > 0
            x = unit[:, j]
            tx = (2.0 / (dx * dx) + v[1:-1]) * x
            tx[1:] -= x[:-1] / (dx * dx)
            tx[:-1] -= x[1:] / (dx * dx)
            assert np.max(np.abs(tx - eig.values[j] * x)) <= 8.0 * eps * norm
            # a vector is determined to eps ||T|| / gap (Davis-Kahan); states
            # closer than that are checked as a subspace by the two lines above
            gap = np.min(np.abs(np.delete(values, j) - values[j]), initial=np.inf)
            if eps * norm / gap <= 1e-11:
                oracle = vectors[:, j] * np.sign(vectors[:, j] @ x)
                assert np.max(np.abs(x - oracle)) <= 1e-10

    def test_tunnelling_pairs_stay_orthogonal(self):
        # two deep wells far apart: each pair of states splits by less than
        # eps ||T||, so both shifts of a pair find the same vector and only
        # the Gram-Schmidt step against the lower states separates them
        grid = Grid(bounds=[(-15.0, 15.0)], npts=[1201])
        x = grid.axis_nodes[0]
        v = np.where(np.abs(np.abs(x) - 5.0) < 1.5, 0.0, 40.0)
        eig = schrodinger_fd(v, grid, n_states=4)
        values, _, norm = fd_schrodinger_eigenpairs(v, grid.spacing[0], 4)
        assert values[1] - values[0] < np.finfo(float).eps * norm
        assert np.max(np.abs(eig.values - values)) <= 1e-12 * norm
        assert np.max(np.abs(gram(eig, make_quadrature(grid).weights) - np.eye(4))) <= 1e-10

    @given(n=st.integers(3, 200), kind=st.sampled_from(["rough", "smooth", "shallow"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sturm_count_is_the_inertia(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[n])
        v = tabulated_potential(kind, rng, grid.axis_nodes[0])
        values, _, _ = fd_schrodinger_eigenpairs(v, grid.spacing[0], n - 2)
        hamiltonian = _hamiltonian(v, grid.spacing[0])
        # shifts between neighbouring eigenvalues and beyond both ends
        shifts = np.concatenate([[values[0] - 1.0], 0.5 * (values[1:] + values[:-1]),
                                 [values[-1] + 1.0]])
        for expected, shift in enumerate(shifts):
            if expected in (0, n - 2) or values[expected] - values[expected - 1] > 1e-9 * values[-1]:
                assert hamiltonian.count_below(float(shift)) == expected


@pytest.fixture(scope="module")
def reports():
    out = {}
    for n in (2001, 4001):
        grid = Grid(bounds=[(-20.0, 20.0)], npts=[n])
        out[n], _ = schrodinger_cross_check(1.0, 1.0, grid, make_quadrature(grid))
    return out


class TestCrossCheck:
    def test_consistency_condition(self, reports):
        # the found depth satisfies V0 = E0(V0) + lambda^2 to eigensolver accuracy
        report = reports[2001]
        grid = Grid(bounds=[(-20.0, 20.0)], npts=[2001])
        pot = square_well(grid.axis_nodes[0], 1.0, report["V0"])
        ground = schrodinger_fd(pot, grid, n_states=1).values[0]
        assert abs(report["V0"] - ground - 1.0) < 1e-8

    def test_integral_residual_and_order(self, reports):
        assert reports[2001]["residual_l2"] < 1e-3
        ratio = reports[2001]["residual_l2"] / reports[4001]["residual_l2"]
        assert 3.0 <= ratio <= 5.0

    def test_energy_relation(self, reports):
        for report in reports.values():
            assert report["E"] == report["k2"] - 1.0
            assert abs(report["rayleigh_quotient"] - report["E"]) < 1e-6

    def test_no_bound_state_below_lambda_squared(self):
        # a box narrower than the well leaves no node outside it: the zero
        # potential's ground energy pi^2 exceeds every depth of the bracket
        # minus lambda^2, so no depth lies in it
        grid = Grid(bounds=[(-0.5, 0.5)], npts=[101])
        well = square_well(grid.axis_nodes[0], 1.0, 1.0)
        # no exterior to eliminate: the core is the whole interior
        condensed = _CondensedWell(well, 1.0, grid.spacing[0])
        assert (condensed.core.diag.size, condensed.first, condensed.last) == (99, 0, 0)
        with pytest.raises(NoBoundStateError):
            schrodinger_cross_check(1.0, 1.0, grid, make_quadrature(grid))

    def test_well_narrower_than_one_spacing_has_no_core(self):
        # 2,000 nodes on [-20, 20] put none at 0: the well holds no node, and
        # T + lambda^2 binds no state at any depth
        grid = Grid(bounds=[(-20.0, 20.0)], npts=[2000])
        assert np.all(square_well(grid.axis_nodes[0], 0.005, 1.0) == 1.0)
        with pytest.raises(NoBoundStateError):
            schrodinger_cross_check(1.0, 0.005, grid, make_quadrature(grid))

    # box 40: half-widths 0.5 and 1.3 fall between nodes at 401 and 2,001
    # nodes, on nodes at 4,001; 1.0 is on a node at every size
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("half_width", [0.5, 1.0, 1.3])
    @pytest.mark.parametrize("n", [401, 2001, 4001])
    def test_against_lapack(self, n, half_width, lam):
        grid = Grid(bounds=[(-40.0, 40.0)], npts=[n])
        nodes, dx = grid.axis_nodes[0], grid.spacing[0]
        report, _ = schrodinger_cross_check(lam, half_width, grid, make_quadrature(grid))
        energy, vector = square_well_fd_ground(nodes, dx, half_width, report["V0"])
        # V0 is the scaled core's lowest eigenvalue, bisected to 2 eps ||core||
        condensed = _CondensedWell(square_well(nodes, half_width, 1.0), lam, dx)
        core = condensed.core
        tol = 2.0 * np.finfo(float).eps * core.norm
        assert abs(report["V0"] - energy - lam * lam) <= tol
        assert abs(report["rayleigh_quotient"] - energy) <= tol
        # the ground state the cross-check takes at V0, against LAPACK's
        psi = condensed.extend(core.eigenvector(report["V0"], np.zeros((core.diag.size, 0))))
        assert np.max(np.abs(psi - vector * np.sign(vector @ psi))) <= 1e-12

    @pytest.mark.parametrize("n", [401, 2001, 4001, 8001])
    def test_decay_verdict_does_not_depend_on_the_grid(self, n):
        # lambda = 0.5 in a box of 20: 1.0 from the wall the state is still
        # 5.4e-5 of its peak on every grid, but the wall pulls the end node
        # down with dx (5.2e-6 of the peak at 401 nodes, 2.6e-7 at 8,001),
        # so a guard on the end nodes passed the finer grids
        grid = Grid(bounds=[(-20.0, 20.0)], npts=[n])
        with pytest.raises(BoxTooSmallError):
            schrodinger_cross_check(0.5, 0.5, grid, make_quadrature(grid))

    @given(n=st.integers(3, 300), half_width=st.floats(0.05, 3.0), depth=st.floats(0.1, 50.0),
           half_box=st.floats(0.5, 10.0), center=st.floats(-1.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_core_count_is_the_inertia(self, n, half_width, depth, half_box, center, seed):
        # the scaled core's eigenvalues below a depth count the negative
        # eigenvalues of H(depth) - (depth - lambda^2), for shifts
        # depth - lambda^2 drawn around each bound state; an off-centre box
        # gives exteriors of unequal length, one of them possibly empty
        grid = Grid(bounds=[((center - 1.0) * half_box, (center + 1.0) * half_box)], npts=[n])
        dx = grid.spacing[0]
        well = square_well(grid.axis_nodes[0], half_width, 1.0)
        assume(np.any(well[1:-1] < 1.0))
        full = _hamiltonian(depth * well, dx)
        values, _, _ = fd_schrodinger_eigenpairs(depth * well, dx, n - 2)
        rng = np.random.default_rng(seed)
        for value in values[values < depth]:
            for offset in rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-8.0, 0.0, 4):
                if value + offset >= depth:
                    continue
                lam = math.sqrt(depth - (value + offset))
                shift = depth - lam * lam
                if np.min(np.abs(values - shift) / np.maximum(np.abs(values), 1.0)) <= 1e-9:
                    continue
                core = _CondensedWell(well, lam, dx).core
                assert core.count_below(depth) == full.count_below(shift) == np.sum(values < shift)


# A fresh process: an Anderson solve at n = 4001 whose steps QR-solve a
# 4001 x 5 window, then the split of its learned kernel at learning width
# 0.1, which tabulates a new range-factor bucket (its gemv and inv) and
# multiplies q @ small, 4001 x r by r x r.  Prints the digest of every
# result, the iterations and r.
BLAS_PROBE = """
import hashlib
import numpy as np
from neuralfield import (FieldState, FiringRate, Grid, LearningKernel, ModelSpec,
                         SynapticKernel, build_operator, compute_constants, make_quadrature)
from neuralfield.gainfield import build_learned_kernel, mercer_decompose
from neuralfield.stationary import find_stationary_fp
grid = Grid(bounds=[(-10.0, 10.0)], npts=[4001])
quad = make_quadrature(grid)
model = ModelSpec(SynapticKernel("exponential", {}), FiringRate("sigmoid"),
                  LearningKernel("gaussian", {"width": 0.1}), gamma=0.5)
op = build_operator(model.kernel, grid, quad)
x = grid.points[:, 0]
fp = find_stationary_fp(model, op, FieldState(0.5 * np.exp(-x * x / 4.0)),
                        compute_constants(model, op))
eig = mercer_decompose(build_learned_kernel(fp.u_inf, model, grid), quad)
digest = hashlib.sha256(fp.u_inf.tobytes() + np.array(fp.history).tobytes())
digest.update(eig.values.tobytes() + eig.functions.tobytes())
print(digest.hexdigest(), fp.iterations, len(eig.values))
"""


def test_split_and_anderson_steps_independent_of_blas_threads():
    # OpenBLAS threads a GEMM above 65,536 x 4 multiply-adds
    outputs = []
    for count in ("1", "2"):
        result = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True,
                                env={**os.environ, "OPENBLAS_NUM_THREADS": count,
                                     "OMP_NUM_THREADS": count})
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    _, iterations, pairs = outputs[0].split()
    assert int(iterations) > ANDERSON_WINDOW + 1  # the window filled
    assert 4001 * int(pairs) ** 2 > 4 * 65536
