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

from conftest import exponential_kernel, make_model


@pytest.fixture(scope="module")
def plasticity_study(op_201, bump_201):
    model = make_model(gamma=1.0)
    cfg = SolverConfig(method="rk4", dt=0.05, t_end=10.0)
    return plasticity_limit_study(model, op_201, [0.4, 0.2, 0.1, 0.05, 0.025],
                                  bump_201, t_end=10.0, cfg=cfg)


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
        study = plasticity_study
        assert study.passed
        distances = [row["distance"] for row in study.rows]
        assert all(b < a for a, b in zip(distances, distances[1:]))
        assert distances[-1] < distances[0] / 8.0

    def test_near_linear_scaling(self, plasticity_study):
        assert plasticity_study.fit["slope"] == pytest.approx(1.0, abs=0.15)
        assert plasticity_study.fit["r2"] > 0.99

    def test_gamma_zero_distance_is_exactly_zero(self, op_201, bump_201):
        # the reference run and a fresh gamma = 0 run share the code path
        model = make_model(gamma=0.0)
        cfg = SolverConfig(method="rk4", dt=0.1, t_end=2.0)
        a = solve_global(model, op_201, bump_201, cfg)
        b = solve_global(make_model(gamma=0.0), op_201, bump_201, cfg)
        assert np.array_equal(a.values, b.values)

    def test_gamma_list_must_descend(self, op_201, bump_201):
        with pytest.raises(ValueError, match="descending"):
            plasticity_limit_study(make_model(), op_201, [0.1, 0.4], bump_201, t_end=1.0)


class TestContinuousDependence:
    def test_bound_holds_at_reference_q(self, op_201, bump_201):
        model = make_model(gamma=1.0)
        study = continuous_dependence_study(model, op_201, bump_201,
                                            [0.2, 0.1, 0.05], rho=0.1)
        assert study.passed
        q = study.rows[0]["q"]
        assert q == pytest.approx(0.3215, abs=1e-3)
        for row in study.rows:
            assert row["measured_ratio"] <= 1.0 / (1.0 - q) + study.slack / row["eps"]

    def test_ratio_roughly_eps_independent(self, op_201, bump_201):
        model = make_model(gamma=0.5)
        study = continuous_dependence_study(model, op_201, bump_201, [0.2, 0.1, 0.05])
        ratios = [row["measured_ratio"] for row in study.rows]
        assert (max(ratios) - min(ratios)) / max(ratios) < 0.10

    def test_zero_perturbation_identical(self, op_201, bump_201):
        model = make_model(gamma=0.5)
        study = continuous_dependence_study(model, op_201, bump_201, [0.0])
        assert study.rows[0]["measured_ratio"] == 0.0


class TestContractionMeasure:
    def test_measured_ratio_under_bound(self, op_201):
        model = make_model(gamma=1.0)
        study = contraction_measure(model, op_201, rho=0.1, n_pairs=200, seed=20240801)
        assert study.passed
        assert len(study.rows) == 200
        assert study.fit["q"] == pytest.approx(0.3215, abs=1e-3)
        assert study.fit["max_ratio"] <= 0.33

    def test_reproducible_from_seed(self, op_201):
        model = make_model(gamma=0.5)
        a = contraction_measure(model, op_201, n_pairs=10, seed=7)
        b = contraction_measure(model, op_201, n_pairs=10, seed=7)
        assert [r["ratio"] for r in a.rows] == [r["ratio"] for r in b.rows]

    def test_identical_pairs_skipped(self, op_201, monkeypatch):
        import neuralfield.experiments as exp

        class ZeroRng:
            def uniform(self, lo, hi, size):
                return np.zeros(size)

        monkeypatch.setattr(exp.np.random, "default_rng", lambda seed: ZeroRng())
        study = contraction_measure(make_model(gamma=0.5), op_201, n_pairs=5, seed=0)
        assert study.rows == []  # zero-separation pairs never divide by zero

    def test_doubled_gamma_shifts_bound_exactly(self, op_201):
        constants = compute_constants(make_model(gamma=0.5), op_201.grid)
        rho = 0.1
        q1 = contraction_factor(constants, 0.5, rho)
        q2 = contraction_factor(constants, 1.0, rho)
        shift = rho * 0.5 * (constants.firing_lipschitz + 2 * constants.learning_lipschitz) \
            * constants.kernel_l1_sup
        assert q2 - q1 == pytest.approx(shift, abs=1e-15)
        study = contraction_measure(make_model(gamma=1.0), op_201, rho=rho,
                                    n_pairs=50, seed=3)
        assert study.fit["max_ratio"] <= q2 + 0.01


class TestL1Bound:
    def test_bound_holds_including_step_data(self, unit_interval_setup):
        grid, op, model, initials = unit_interval_setup
        study = l1_bound_study(model, op, initials, t_end=20.0)
        assert study.passed
        by_name = {row["initial"]: row for row in study.rows}
        # zero initial data: the bound is Cw |domain| alone
        constants = compute_constants(model, grid)
        assert by_name["zero"]["bound"] == pytest.approx(
            constants.kernel_l1_sup * grid.volume + study.slack)
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
        study = l1_bound_study(model, op, u0, t_end=5.0)
        assert study.rows[0]["u0_l1"] == pytest.approx(0.3, abs=1e-12)
        assert study.rows[0]["bound"] == pytest.approx(1.3, abs=1e-5)
        assert study.passed
