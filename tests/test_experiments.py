import numpy as np
import pytest

from neuralfield import (
    FieldState,
    Grid,
    SynapticKernel,
    build_operator,
    compute_constants,
    contraction_factor,
    make_quadrature,
    max_segment_length,
)
from neuralfield.experiments import (
    continuous_dependence_study,
    contraction_measure,
    l1_bound_study,
    plasticity_limit_study,
)
from neuralfield.solver import SolverConfig, solve_global

from conftest import constants_of, exponential_kernel, make_model


@pytest.fixture(scope="module")
def plasticity_study(op_201, bump_201):
    model = make_model(gamma=1.0)
    cfg = SolverConfig(method="rk4", dt=0.05, t_end=10.0)
    return plasticity_limit_study(model, op_201, [0.4, 0.2, 0.1, 0.05, 0.025], bump_201, cfg)


@pytest.fixture(scope="module")
def unit_interval_setup():
    grid = Grid(bounds=[(0.0, 1.0)], npts=[201])
    quad = make_quadrature(grid)
    op = build_operator(exponential_kernel(), grid, quad)
    model = make_model(gamma=0.5)
    x = grid.points[:, 0]
    initials = [
        ("zero", FieldState(np.zeros(201))),
        ("step", FieldState(np.where(x < 0.5, 1.0, 0.0))),
        ("bump", FieldState(0.5 * np.exp(-((x - 0.5) ** 2) / 0.02))),
    ]
    return grid, op, model, initials


class TestPlasticityLimit:
    def test_monotone_decrease(self, plasticity_study):
        rows, verdict = plasticity_study
        assert verdict["pass"]
        distances = [row["distance"] for row in rows]
        assert all(b < a for a, b in zip(distances, distances[1:]))
        assert distances[-1] < distances[0] / 8.0

    def test_near_linear_scaling(self, plasticity_study):
        _, verdict = plasticity_study
        assert verdict["fitted_slope"] == pytest.approx(1.0, abs=0.15)
        assert verdict["r2"] > 0.99

    def test_gamma_zero_distance_is_exactly_zero(self, op_201, bump_201):
        # the reference run and a fresh gamma = 0 run share the code path
        model = make_model(gamma=0.0)
        cfg = SolverConfig(method="rk4", dt=0.1, t_end=2.0)
        a = solve_global(model, op_201, bump_201, cfg)
        b = solve_global(make_model(gamma=0.0), op_201, bump_201, cfg)
        assert np.array_equal(a.values, b.values)

    def test_gamma_list_must_descend(self, op_201, bump_201):
        with pytest.raises(ValueError, match="descending"):
            plasticity_limit_study(make_model(), op_201, [0.1, 0.4], bump_201,
                                   SolverConfig(method="rk4", dt=0.05, t_end=1.0))

    def test_picard_refused_before_any_solve(self, monkeypatch):
        # picard's per-gamma segment length would give each run its own time
        # lattice, (12, 101) against (11, 101) here; refuse it up front
        import neuralfield.experiments as exp

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_global ran")

        monkeypatch.setattr(exp, "solve_global", no_solve)
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[101])
        op = build_operator(exponential_kernel(), grid, make_quadrature(grid))
        x = grid.points[:, 0]
        cfg = SolverConfig(method="picard", dt=0.05, t_end=0.5)
        with pytest.raises(ValueError, match="picard.*time lattice"):
            plasticity_limit_study(make_model(gamma=1.0), op, [0.4, 0.2],
                                   FieldState(np.exp(-x * x / 4.0)), cfg)


class TestContinuousDependence:
    def test_bound_holds_at_reference_q(self, op_201, bump_201):
        model = make_model(gamma=1.0)
        rows, verdict = continuous_dependence_study(model, op_201, bump_201, [0.2, 0.1, 0.05],
                                                    constants_of(model, op_201), rho=0.1,
                                                    dt=1e-3, slack_coeff=10.0)
        assert verdict["pass"]
        q = rows[0]["q"]
        assert q == pytest.approx(0.3215, abs=1e-3)
        slack = 10.0 * 1e-3 * 1e-3  # slack_coeff * dt^2
        for row in rows:
            assert row["measured_ratio"] <= 1.0 / (1.0 - q) + slack / row["eps"]

    def test_ratio_roughly_eps_independent(self, op_201, bump_201):
        model = make_model(gamma=0.5)
        rows, _ = continuous_dependence_study(model, op_201, bump_201, [0.2, 0.1, 0.05],
                                              constants_of(model, op_201))
        ratios = [row["measured_ratio"] for row in rows]
        assert (max(ratios) - min(ratios)) / max(ratios) < 0.10

    def test_zero_perturbation_identical(self, op_201, bump_201):
        model = make_model(gamma=0.5)
        rows, _ = continuous_dependence_study(model, op_201, bump_201, [0.0],
                                              constants_of(model, op_201))
        assert rows[0]["measured_ratio"] == 0.0


class TestContractionMeasure:
    def test_measured_ratio_under_bound(self, op_201):
        model = make_model(gamma=1.0)
        rows, verdict = contraction_measure(model, op_201, compute_constants(model, op_201),
                                            rho=0.1, n_pairs=200, seed=20240801)
        assert verdict["pass"]
        assert len(rows) == 200
        assert verdict["q"] == pytest.approx(0.3215, abs=1e-3)
        assert verdict["max_ratio"] <= 0.33

    def test_reproducible_from_seed(self, op_201):
        model = make_model(gamma=0.5)
        constants = compute_constants(model, op_201)
        a, _ = contraction_measure(model, op_201, constants, n_pairs=10, seed=7)
        b, _ = contraction_measure(model, op_201, constants, n_pairs=10, seed=7)
        assert [r["ratio"] for r in a] == [r["ratio"] for r in b]

    def test_identical_pairs_skipped(self, op_201, monkeypatch):
        import neuralfield.experiments as exp

        class ZeroRng:
            def uniform(self, lo, hi, size):
                return np.zeros(size)

        monkeypatch.setattr(exp.np.random, "default_rng", lambda seed: ZeroRng())
        model = make_model(gamma=0.5)
        rows, _ = contraction_measure(model, op_201, compute_constants(model, op_201),
                                      n_pairs=5, seed=0)
        assert rows == []  # zero-separation pairs never divide by zero

    def test_doubled_gamma_shifts_bound_exactly(self, op_201):
        constants = compute_constants(make_model(gamma=0.5), op_201)
        rho = 0.1
        q1 = contraction_factor(constants, 0.5, rho)
        q2 = contraction_factor(constants, 1.0, rho)
        shift = rho * 0.5 * (constants.firing_lipschitz + 2 * constants.learning_lipschitz) \
            * constants.kernel_l1_sup
        assert q2 - q1 == pytest.approx(shift, abs=1e-15)
        _, verdict = contraction_measure(make_model(gamma=1.0), op_201, constants, rho=rho,
                                         n_pairs=50, seed=3)
        assert verdict["max_ratio"] <= q2 + 0.01


class TestL1Bound:
    def test_bound_holds_including_step_data(self, unit_interval_setup):
        grid, op, model, initials = unit_interval_setup
        constants = compute_constants(model, op)
        rows, verdict = l1_bound_study(model, op, initials,
                                       SolverConfig(method="exp-euler", dt=0.05, t_end=20.0),
                                       constants, slack=1e-6)
        assert verdict["pass"]
        by_name = {row["initial"]: row for row in rows}
        # zero initial data: the bound is Cw |domain| alone
        assert by_name["zero"]["bound"] == pytest.approx(
            constants.kernel_l1_sup * grid.volume + 1e-6)
        assert np.isfinite(by_name["step"]["sup_l1"])

    def test_formula_instantiation_unit_constant_kernel(self):
        # w = 1 on [0, 1] gives Cw |domain| = 1, so the bound is ||u0||_1 + 1
        grid = Grid(bounds=[(0.0, 1.0)], npts=[101])
        quad = make_quadrature(grid)
        ones = SynapticKernel("tabulated",
                              {"matrix": np.ones((101, 101)), "nodes": grid.points})
        op = build_operator(ones, grid, quad)
        from neuralfield import FiringRate, LearningKernel, ModelSpec

        model = ModelSpec(ones, FiringRate("sigmoid"), LearningKernel(), gamma=0.0)
        u0 = [("constant", FieldState(np.full(101, 0.3)))]
        rows, verdict = l1_bound_study(model, op, u0,
                                       SolverConfig(method="exp-euler", dt=0.05, t_end=5.0),
                                       compute_constants(model, op))
        assert rows[0]["u0_l1"] == pytest.approx(0.3, abs=1e-12)
        assert rows[0]["bound"] == pytest.approx(1.3, abs=1e-5)
        assert verdict["pass"]
