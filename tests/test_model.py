import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfield import (
    FiringRate,
    Grid,
    LearningKernel,
    ModelSpec,
    SynapticKernel,
    TheoryConstants,
    build_operator,
    compute_constants,
    contraction_factor,
    make_quadrature,
    max_segment_length,
)
from neuralfield.model import _analytic_l1_sup

from conftest import exponential_kernel
from oracles import dense_operator, estimate_lipschitz, kernel_table


SQRT_2_OVER_E = math.sqrt(2.0 / math.e)


class TestFiringRate:
    def test_sigmoid_symmetry(self):
        f = FiringRate("sigmoid", {"slope": 1.0, "threshold": 0.0})
        assert f(0.0) == 0.5

    def test_sigmoid_saturation(self):
        f = FiringRate("sigmoid")
        assert f(40.0) > 1.0 - 1e-12

    def test_linear_identity(self):
        f = FiringRate("linear")
        assert f(0.3) == 0.3

    def test_arctan_bounded_and_centered(self):
        f = FiringRate("scaled-arctan", {"scale": 2.0})
        s = np.linspace(-50, 50, 1001)
        v = f(s)
        assert np.all((v >= 0.0) & (v <= 1.0))
        assert f(0.0) == 0.5

    def test_clamped_zero_image(self):
        f = FiringRate("piecewise-linear-clamped", {"slope": 0.0})
        assert np.all(f(np.linspace(-5, 5, 101)) == 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FiringRate("heaviside")

    @pytest.mark.parametrize("kind,params", [
        ("sigmoid", {"slope": 2.0, "threshold": 0.3}),
        ("scaled-arctan", {"scale": 1.5}),
        ("piecewise-linear-clamped", {"slope": 0.8, "threshold": -0.2}),
    ])
    def test_bounded_kinds_in_unit_interval(self, kind, params):
        f = FiringRate(kind, params)
        v = f(np.linspace(-100, 100, 2001))
        assert np.all((v >= 0.0) & (v <= 1.0))

    @pytest.mark.parametrize("kind,params", [
        ("sigmoid", {"slope": 3.0, "threshold": 0.5}),
        ("scaled-arctan", {"scale": 2.0}),
        ("piecewise-linear-clamped", {"slope": 1.2, "threshold": 0.0}),
        ("linear", {}),
        # decreasing f: sup |f'| takes |slope| or |scale|
        ("sigmoid", {"slope": -1.0, "threshold": 0.0}),
        ("scaled-arctan", {"scale": -2.0}),
        ("piecewise-linear-clamped", {"slope": -0.8, "threshold": 0.3}),
    ])
    def test_lipschitz_constant_holds_on_samples(self, kind, params):
        f = FiringRate(kind, params)
        rng = np.random.default_rng(7)
        s = rng.uniform(-20, 20, size=10_000)
        t = rng.uniform(-20, 20, size=10_000)
        lhs = np.abs(f(s) - f(t))
        assert np.all(lhs <= f.lipschitz * np.abs(s - t) + 1e-12)

    def test_lipschitz_constant_is_attained(self):
        # estimate from below converges to the closed form
        f = FiringRate("sigmoid", {"slope": 2.0})
        est = estimate_lipschitz(f, -5, 5, n=20001)
        assert est <= f.lipschitz + 1e-12
        assert est > f.lipschitz * 0.999


class TestLearningKernel:
    def test_value_at_zero(self):
        g = LearningKernel()
        assert g(0.0) == 1.0

    def test_value_at_one(self):
        g = LearningKernel()
        assert g(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_even(self):
        g = LearningKernel()
        assert g(-1.0) == g(1.0)

    def test_decay_at_large_arguments(self):
        g = LearningKernel()
        assert g(30.0) < 1e-300 or g(30.0) == 0.0

    @given(st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=300)
    def test_lipschitz(self, a, b):
        g = LearningKernel()
        assert abs(g(a) - g(b)) <= g.lipschitz * abs(a - b) + 1e-12

    def test_width_scales_lipschitz(self):
        assert LearningKernel(params={"width": 2.0}).lipschitz == pytest.approx(SQRT_2_OVER_E / 2.0)


class TestSynapticKernel:
    def test_exponential_at_zero_distance(self):
        k = exponential_kernel()
        assert k.profile(0.0) == 0.5

    def test_exponential_at_unit_distance(self):
        k = exponential_kernel()
        assert k.profile(1.0) == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)

    def test_mexican_hat_zero_crossing(self):
        k = SynapticKernel("mexican-hat", {"scale": 1.0})
        assert k.profile(1.0) == 0.0

    def test_mexican_hat_not_positive(self):
        k = SynapticKernel("mexican-hat", {"scale": 1.0})
        assert not k.positive
        assert k.profile(3.0) < 0.0

    def test_isotropy(self):
        # w(x, y) depends on |x - y| only: symmetric and constant along diagonals
        w = kernel_table(exponential_kernel(), Grid(bounds=[(-3.0, 5.0)], npts=[9]))
        assert np.array_equal(w, w.T)
        assert w[2, 5] == w[5, 2] == w[0, 3]


class TestModelSpec:
    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(exponential_kernel(), FiringRate("sigmoid"), LearningKernel(), gamma=-0.1)

    def test_linear_firing_needs_gainfield_mode(self):
        with pytest.raises(ValueError, match="gain-field"):
            ModelSpec(exponential_kernel(), FiringRate("linear"), LearningKernel(), gamma=0.0)
        ModelSpec(exponential_kernel(), FiringRate("linear"), LearningKernel(),
                  gamma=0.0, mode="gain-field")


def constants_on(model, grid):
    return compute_constants(model, build_operator(model.kernel, grid, make_quadrature(grid)))


def row_sum_norm(op):
    """max_i sum_j |W_ij| of the dense oracle operator."""
    return float(np.abs(dense_operator(op)).sum(axis=1).max())


class TestConstants:
    def test_exponential_l1_on_effectively_unbounded_domain(self):
        # analytic integral of the exponential profile over the line is 2A/decay
        model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"), LearningKernel())
        c = constants_on(model, Grid(bounds=[(-30.0, 30.0)], npts=[11]))
        assert c.kernel_l1_sup == pytest.approx(1.0, abs=1e-12)
        assert c.method == "analytic"

    def test_sigmoid_lipschitz(self):
        model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"), LearningKernel())
        c = constants_on(model, Grid(bounds=[(-10, 10)], npts=[11]))
        assert c.firing_lipschitz == 0.25

    def test_gaussian_learning_lipschitz(self):
        model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"), LearningKernel())
        c = constants_on(model, Grid(bounds=[(-10, 10)], npts=[11]))
        assert c.learning_lipschitz == pytest.approx(SQRT_2_OVER_E, abs=1e-15)

    def test_row_sum_converges_to_analytic_cw(self):
        # the trapezoid row sum through the kink of exp(-|d|) is high by about
        # h^2/12 per unit jump of the slope, so the error quarters as h halves
        kernel = exponential_kernel()
        errors = []
        for n in (101, 201, 401, 801):
            grid = Grid(bounds=[(-10.0, 10.0)], npts=[n])
            op = build_operator(kernel, grid, make_quadrature(grid))
            errors.append(float(op.abs_apply(np.ones(n)).max()) - _analytic_l1_sup(kernel, grid))
        assert all(e > 0 for e in errors)
        for coarse, fine in zip(errors, errors[1:]):
            assert fine == pytest.approx(coarse / 4, rel=0.05)
        assert errors[2] == pytest.approx(0.05 ** 2 / 12, rel=0.01)

    def test_mexican_hat_takes_the_row_sum(self):
        model = ModelSpec(SynapticKernel("mexican-hat", {"scale": 1.0}),
                          FiringRate("sigmoid"), LearningKernel())
        c = constants_on(model, Grid(bounds=[(-10.0, 10.0)], npts=[2001]))
        assert c.method == "row-sum"
        # signed integral of the profile is 0 but the absolute one is 4/e on the line
        assert c.kernel_l1_sup == pytest.approx(4.0 / math.e, rel=1e-3)

    def test_row_sum_only_without_closed_form(self, monkeypatch):
        # the closed form leaves the operator unread; isotropic row sums
        # convolve and form no kernel matrix
        import neuralfield.discretization as discretization

        calls = []
        abs_apply = discretization.DiscreteOperator.abs_apply
        monkeypatch.setattr(discretization.DiscreteOperator, "abs_apply",
                            lambda op, v: calls.append(op) or abs_apply(op, v))
        monkeypatch.setattr(discretization.DiscreteOperator, "matrix",
                            property(lambda op: pytest.fail("kernel matrix formed")))
        model = ModelSpec(exponential_kernel(), FiringRate("sigmoid"), LearningKernel())
        hat = replace(model, kernel=SynapticKernel("mexican-hat", {"scale": 1.0}))
        for boundary in ("compact", "periodic"):
            assert constants_on(model, Grid([(-5, 5)], [41], boundary)).method == "analytic"
            assert calls == []
            assert constants_on(model, Grid([(0, 1), (0, 1)], [5, 5], boundary)).method \
                == "row-sum"
            assert constants_on(hat, Grid([(-5, 5)], [41], boundary)).method == "row-sum"
            assert len(calls) == 2
            calls.clear()

    @pytest.mark.parametrize("kernel", [
        SynapticKernel("exponential", {"amplitude": -0.7, "decay": 1.3}),
        SynapticKernel("mexican-hat", {"scale": 0.6}),
        "tabulated",
    ])
    @pytest.mark.parametrize("boundary", ["compact", "periodic"])
    @pytest.mark.parametrize("bounds, npts", [
        ([(-4.0, 6.0)], [37]),
        ([(-1.5, 0.5)], [8]),
        ([(-3.0, 2.0), (0.0, 7.0)], [9, 14]),
        ([(0.0, 1.0), (-2.0, 2.0)], [12, 5]),
    ])
    def test_grid_estimates_match_dense_oracle(self, kernel, boundary, bounds, npts):
        grid = Grid(bounds, npts, boundary)
        if kernel == "tabulated":
            # a signed, asymmetric table on this grid's nodes
            signs = np.where(np.arange(grid.n_total) % 3 == 0, -1.0, 1.0)
            matrix = np.abs(kernel_table(SynapticKernel("mexican-hat", {"scale": 0.8}), grid))
            matrix = matrix * signs[None, :] * (1.0 + np.arange(grid.n_total))[:, None] / 7.0
            nodes = grid.points[:, 0] if grid.dimension == 1 else grid.points
            kernel = SynapticKernel("tabulated", {"matrix": matrix, "nodes": nodes})
        model = ModelSpec(kernel, FiringRate("sigmoid"), LearningKernel())
        op = build_operator(kernel, grid, make_quadrature(grid))
        expected = row_sum_norm(op)
        c = compute_constants(model, op)
        if c.method == "analytic":
            # 1-D exponential: the closed form wins; check the row sum alone
            assert float(op.abs_apply(np.ones(grid.n_total)).max()) \
                == pytest.approx(expected, rel=1e-13, abs=0)
        else:
            assert c.method == "row-sum"
            assert c.kernel_l1_sup == pytest.approx(expected, rel=1e-13, abs=0)

    def test_2d_constants_form_no_n_by_n_array(self):
        import tracemalloc

        grid = Grid([(-10.0, 10.0), (-10.0, 10.0)], [81, 81])
        n = grid.n_total
        for kernel in (exponential_kernel(), SynapticKernel("mexican-hat", {"scale": 1.0})):
            model = ModelSpec(kernel, FiringRate("sigmoid"), LearningKernel())
            op = build_operator(kernel, grid, make_quadrature(grid))
            tracemalloc.start()
            try:
                c = compute_constants(model, op)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert c.method == "row-sum"
            assert peak < n * n * 8 / 4

    def test_constants_reject_negative(self):
        with pytest.raises(ValueError):
            TheoryConstants(kernel_l1_sup=-1.0, firing_lipschitz=0.25, learning_lipschitz=0.5)


def reference_constants(cw=1.0):
    return TheoryConstants(kernel_l1_sup=cw, firing_lipschitz=0.25,
                           learning_lipschitz=SQRT_2_OVER_E)


class TestContractionFactor:
    def test_reference_instance(self):
        # 0.1 * [1 + 0.25 + (0.25 + 2*sqrt(2/e))] with Cw = 1
        q = contraction_factor(reference_constants(), gamma=1.0, segment_length=0.1)
        assert q == pytest.approx(0.321553, abs=5e-7)
        assert q == pytest.approx(0.1 * (1.25 + (0.25 + 2 * SQRT_2_OVER_E)), abs=1e-15)

    def test_gamma_zero_reduces(self):
        q = contraction_factor(reference_constants(), gamma=0.0, segment_length=0.1)
        assert q == pytest.approx(0.125, abs=1e-15)

    def test_zero_segment(self):
        assert contraction_factor(reference_constants(), gamma=1.0, segment_length=0.0) == 0.0

    @given(st.floats(0.01, 2.0), st.floats(0.0, 3.0), st.floats(1.1, 4.0))
    @settings(max_examples=200)
    def test_linear_in_length_and_monotone_in_gamma(self, rho, gamma, factor):
        c = reference_constants()
        assert contraction_factor(c, gamma, rho * factor) == pytest.approx(
            factor * contraction_factor(c, gamma, rho), rel=1e-12)
        assert contraction_factor(c, gamma + 0.5, rho) >= contraction_factor(c, gamma, rho)


class TestMaxSegmentLength:
    def test_reference_instance(self):
        rho = max_segment_length(reference_constants(), gamma=1.0)
        assert rho == pytest.approx(0.155495, abs=1e-6)
        q_back = contraction_factor(reference_constants(), 1.0, rho)
        assert q_back == pytest.approx(0.5, abs=1e-14)

    def test_gamma_zero(self):
        assert max_segment_length(reference_constants(), 0.0) == pytest.approx(0.4, abs=1e-15)

    def test_monotone_decreasing_in_gamma(self):
        lengths = [max_segment_length(reference_constants(), g)
                   for g in (0.0, 1.0, 5.0, 50.0, 500.0)]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))
