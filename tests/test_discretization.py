import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neuralfield import (
    DiscreteOperator,
    FieldState,
    FiringRate,
    Grid,
    LearningKernel,
    ModelSpec,
    Quadrature,
    SynapticKernel,
    build_operator,
    make_quadrature,
)
from neuralfield import discretization
from neuralfield.discretization import (
    PLASTICITY_TOL,
    RangeFactor,
    apply_f_values,
    apply_j_values,
    convolve,
    kernel_spectrum,
    range_factor,
)
from neuralfield.model import FIRING_DEFAULTS
from conftest import exponential_kernel, make_model, zero_firing
from oracles import brute_force_apply_j, dense_j, dense_operator, fft_convolve, j_error_bound


class TestGrid:
    def test_compact_spacing_and_nodes(self):
        g = Grid(bounds=[(-1.0, 1.0)], npts=[5])
        assert g.spacing == (0.5,)
        assert np.array_equal(g.axis_nodes[0], [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert np.all(np.diff(g.axis_nodes[0]) > 0)

    def test_periodic_spacing_excludes_endpoint(self):
        g = Grid(bounds=[(0.0, 1.0)], npts=[4], boundary="periodic")
        assert g.spacing == (0.25,)
        assert np.array_equal(g.axis_nodes[0], [0.0, 0.25, 0.5, 0.75])

    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            Grid(bounds=[(0.0, 1.0)], npts=[2])

    def test_2d_lexicographic_points(self):
        g = Grid(bounds=[(0.0, 1.0), (0.0, 2.0)], npts=[3, 5])
        assert g.n_total == 15
        assert g.points.shape == (15, 2)
        # first axis varies slowest
        assert np.array_equal(g.points[0], [0.0, 0.0])
        assert np.array_equal(g.points[4], [0.0, 2.0])
        assert np.array_equal(g.points[5], [0.5, 0.0])
        assert g.volume == 2.0

    @pytest.mark.parametrize("npts, lattice", [([3], (4,)), ([38], (75,)), ([401], (800,)),
                                               ([41, 41], (80, 80)), ([9, 14], (16, 27))])
    def test_compact_lattice_is_the_smallest_even_embedding(self, npts, lattice):
        # lags -(n-1)..n-1 need m >= 2n - 2: lags n - 1 and -(n - 1) may
        # share index n - 1, where the even kernel takes the same value
        g = Grid(bounds=[(0.0, 1.0), (0.0, 2.0)][:len(npts)], npts=npts)
        assert g.fft_shape == lattice
        d = g.lag_distance()
        assert d.shape == lattice
        index, h = (0,) * (len(npts) - 1), g.spacing[-1]
        for k in range(npts[-1]):  # lag k at index k, lag -k at index m - k
            assert d[index + (k,)] == d[index + (-k,)] == pytest.approx(k * h)

    def test_periodic_minimal_image(self):
        g = Grid(bounds=[(0.0, 10.0)], npts=[10], boundary="periodic")
        d = g.lag_distance()
        assert d.shape == (10,)
        assert d[9] == pytest.approx(1.0)  # lag 9 wraps around to 1
        assert d.max() == pytest.approx(5.0)


class TestQuadrature:
    @given(st.integers(3, 400), st.floats(-5, 0), st.floats(1, 7))
    @settings(max_examples=100)
    def test_trapezoid_weights_sum_to_volume(self, n, a, b):
        g = Grid(bounds=[(a, b)], npts=[n])
        q = make_quadrature(g, "trapezoid")
        assert np.all(q.weights > 0)
        assert np.sum(q.weights) == pytest.approx(b - a, abs=1e-12)

    @given(st.integers(1, 150), st.floats(-5, 0), st.floats(1, 7))
    @settings(max_examples=100)
    def test_simpson_weights_sum_to_volume(self, half, a, b):
        n = 2 * half + 1
        g = Grid(bounds=[(a, b)], npts=[n])
        q = make_quadrature(g, "simpson")
        assert np.all(q.weights > 0)
        assert np.sum(q.weights) == pytest.approx(b - a, abs=1e-12)

    def test_simpson_needs_odd_node_count(self):
        g = Grid(bounds=[(0.0, 1.0)], npts=[4])
        with pytest.raises(ValueError, match="odd"):
            make_quadrature(g, "simpson")

    def test_simpson_rejected_on_periodic(self):
        g = Grid(bounds=[(0.0, 1.0)], npts=[5], boundary="periodic")
        with pytest.raises(ValueError, match="periodic"):
            make_quadrature(g, "simpson")

    def test_2d_weights_sum_to_area(self):
        g = Grid(bounds=[(0.0, 1.0), (0.0, 2.0)], npts=[5, 7])
        q = make_quadrature(g, "trapezoid")
        assert np.sum(q.weights) == pytest.approx(2.0, abs=1e-12)

    def test_simpson_integrates_cubics_exactly(self):
        g = Grid(bounds=[(0.0, 1.0)], npts=[21])
        q = make_quadrature(g, "simpson")
        x = g.points[:, 0]
        assert q.weights @ x ** 3 == pytest.approx(0.25, abs=1e-14)


class TestFieldState:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FieldState(np.array([0.0, np.nan, 1.0]))

    def test_values_read_only(self):
        s = FieldState(np.zeros(4))
        with pytest.raises(ValueError):
            s.values[0] = 1.0


class TestBuildOperator:
    def test_center_row_sum_against_analytic_integral(self):
        # analytic integral of the exponential profile over [-10, 10] at x = 0
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[2001])
        exact = 1.0 - math.exp(-10.0)
        trap = build_operator(exponential_kernel(), grid, make_quadrature(grid, "trapezoid"))
        # trapezoid carries ~8.3e-6 quadrature bias on this integrand (second
        # order with the kink on a node); simpson removes it
        assert trap.apply(np.ones(2001))[1000] == pytest.approx(exact, abs=1e-5)
        simp = build_operator(exponential_kernel(), grid, make_quadrature(grid, "simpson"))
        assert simp.apply(np.ones(2001))[1000] == pytest.approx(exact, abs=1e-6)

    def test_constant_kernel_row_sums(self):
        grid = Grid(bounds=[(0.0, 1.0)], npts=[3])
        ones = SynapticKernel("tabulated", {"matrix": np.ones((3, 3)), "nodes": grid.points})
        op = build_operator(ones, grid, make_quadrature(grid))
        assert np.allclose(op.apply(np.ones(3)), 1.0, atol=1e-15)

    def test_periodic_ring_is_circulant(self):
        grid = Grid(bounds=[(0.0, 10.0)], npts=[16], boundary="periodic")
        op = build_operator(exponential_kernel(), grid, make_quadrature(grid))
        w = dense_operator(op)
        for i in range(1, 16):
            assert np.max(np.abs(w[i] - np.roll(w[0], i))) < 1e-14

    def test_row_sums_bounded_by_l1_constant(self):
        from neuralfield.model import compute_constants

        grid = Grid(bounds=[(-10.0, 10.0)], npts=[401])
        op = build_operator(exponential_kernel(), grid, make_quadrature(grid))
        model = make_model(gamma=0.0)
        c = compute_constants(model, op)
        # within quadrature error of the analytic constant
        assert np.max(op.abs_apply(np.ones(401))) <= c.kernel_l1_sup + 1e-3

    def test_tabulated_kernel_grid_mismatch(self):
        grid = Grid(bounds=[(0.0, 1.0)], npts=[5])
        other = Grid(bounds=[(0.0, 2.0)], npts=[5])
        k = SynapticKernel("tabulated", {"matrix": np.eye(5), "nodes": other.points})
        with pytest.raises(ValueError, match="different grid"):
            build_operator(k, grid, make_quadrature(grid))


class TestApplyJ:
    def test_zero_firing_gives_zero(self, grid_201, quad_201, op_201):
        model = ModelSpec(exponential_kernel(), zero_firing(), LearningKernel(), gamma=0.8)
        u = np.sin(grid_201.points[:, 0])
        assert np.all(apply_j_values(model, op_201, u) == 0.0)

    def test_constant_state_factors_out(self, op_201):
        model = make_model(gamma=0.0)
        u = np.full(201, 0.7)
        expected = model.firing(0.7) * op_201.apply(np.ones(201))
        assert np.allclose(apply_j_values(model, op_201, u), expected, rtol=1e-14)

    def test_plasticity_factor_exact_on_constant_state(self, op_201):
        # g(0) = 1 makes the modulation (1 + gamma) exactly
        base = make_model(gamma=0.0)
        plastic = make_model(gamma=0.5)
        u = np.full(201, 0.3)
        j0 = apply_j_values(base, op_201, u)
        j1 = apply_j_values(plastic, op_201, u)
        assert np.allclose(j1, 1.5 * j0, rtol=1e-14)

    def test_against_brute_force_oracle(self):
        grid = Grid(bounds=[(-5.0, 5.0)], npts=[201])
        quad = make_quadrature(grid)
        op = build_operator(exponential_kernel(), grid, quad)
        model = make_model(gamma=0.7)
        u = np.exp(-grid.points[:, 0] ** 2 / 2.0)
        expected = brute_force_apply_j(model, grid, quad, u)
        assert np.max(np.abs(apply_j_values(model, op, u) - expected)) < 1e-13

    def test_brute_force_oracle_2d(self):
        grid = Grid(bounds=[(0.0, 2.0), (0.0, 2.0)], npts=[7, 7])
        quad = make_quadrature(grid)
        op = build_operator(exponential_kernel(), grid, quad)
        model = make_model(gamma=0.4)
        pts = grid.points
        u = np.exp(-((pts[:, 0] - 1) ** 2 + (pts[:, 1] - 1) ** 2))
        expected = brute_force_apply_j(model, grid, quad, u)
        assert np.max(np.abs(apply_j_values(model, op, u) - expected)) < 1e-13

    def test_sup_bound(self, op_201):
        # discrete analogue of the (1 + gamma) Cw estimate
        rng = np.random.default_rng(3)
        model = make_model(gamma=1.0)
        cap = (1.0 + model.gamma) * np.max(op_201.abs_apply(np.ones(201)))
        for _ in range(25):
            u = rng.uniform(-5, 5, size=201)
            assert np.max(np.abs(apply_j_values(model, op_201, u))) <= cap + 1e-12

    def test_dimension_mismatch(self, op_201):
        model = make_model()
        with pytest.raises(ValueError, match="nodes"):
            apply_j_values(model, op_201, np.zeros(100))
        for shape in [(2, 3, 201), (4, 100), ()]:  # a 3-D stack, a short last axis, a scalar
            with pytest.raises(ValueError, match="nodes"):
                apply_j_values(model, op_201, np.zeros(shape))

    def test_rotation_equivariance_on_ring(self):
        # gamma = 0 input term commutes with grid rotations on a periodic ring
        grid = Grid(bounds=[(0.0, 10.0)], npts=[32], boundary="periodic")
        op = build_operator(exponential_kernel(), grid, make_quadrature(grid))
        model = make_model(gamma=0.0)
        rng = np.random.default_rng(11)
        u = rng.uniform(-1, 1, size=32)
        for shift in (1, 5, 17):
            lhs = apply_j_values(model, op, np.roll(u, shift))
            rhs = np.roll(apply_j_values(model, op, u), shift)
            assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_trapezoid_vs_simpson_refinement(self):
        # smooth (gaussian) kernel: the rule difference shrinks at order >= 2
        diffs = []
        for n in (51, 101, 201):
            grid = Grid(bounds=[(-8.0, 8.0)], npts=[n])
            x = grid.points[:, 0]
            wmat = np.exp(-(((x[:, None] - x[None, :]) / 4.0) ** 2))
            kern = SynapticKernel("tabulated", {"matrix": wmat, "nodes": grid.points})
            model = ModelSpec(kern, FiringRate("sigmoid"), LearningKernel(), gamma=0.5)
            u = np.exp(-x * x / 2.0)
            j_trap = apply_j_values(model, build_operator(kern, grid, make_quadrature(grid, "trapezoid")), u)
            j_simp = apply_j_values(model, build_operator(kern, grid, make_quadrature(grid, "simpson")), u)
            diffs.append(np.max(np.abs(j_trap - j_simp)))
        assert diffs[0] / diffs[1] > 3.0
        assert diffs[1] / diffs[2] > 3.0


class TestApplyF:
    def test_zero_state_sigmoid(self, op_201):
        model = make_model(gamma=0.0)
        u = np.zeros(201)
        expected = 0.5 * op_201.apply(np.ones(201))
        assert np.allclose(apply_f_values(model, op_201, u), expected, rtol=1e-13)

    def test_zero_firing_is_pure_decay(self, grid_201, op_201):
        model = ModelSpec(exponential_kernel(), zero_firing(), LearningKernel(), gamma=0.3)
        u = np.cos(grid_201.points[:, 0])
        assert np.array_equal(apply_f_values(model, op_201, u), -u)


# (dimension, boundary, rule) of every grid kind the operator supports
GRID_KINDS = [
    (1, "compact", "trapezoid"), (1, "compact", "simpson"), (1, "periodic", "trapezoid"),
    (2, "compact", "trapezoid"), (2, "compact", "simpson"), (2, "periodic", "trapezoid"),
]


def small_grid(kind, sizes, half_length):
    """1-D grids take sizes[0] nodes, 2-D grids 3..20 nodes per axis."""
    dim, boundary, rule = kind
    npts = sizes[:1] if dim == 1 else [3 + k % 18 for k in sizes]
    npts = [2 * (k // 2) + 1 if rule == "simpson" else k for k in npts]
    grid = Grid(bounds=[(-half_length, half_length)] * dim, npts=npts, boundary=boundary)
    return grid, make_quadrature(grid, rule)


KERNEL_KINDS = ["exponential", "mexican-hat", "tabulated"]
FIRING_KINDS = list(FIRING_DEFAULTS)


def any_model(kernel_kind, firing_kind, gamma, width, grid, seed=0):
    """Tabulated kernels are a signed asymmetric random matrix on ``grid``."""
    if kernel_kind == "tabulated":
        n = grid.n_total
        table = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n))
        kernel = SynapticKernel("tabulated", {"matrix": table, "nodes": grid.points})
    elif kernel_kind == "exponential":
        kernel = exponential_kernel(amplitude=0.7, decay=0.8)
    else:
        kernel = SynapticKernel("mexican-hat", {"scale": 1.5})
    mode = "gain-field" if firing_kind == "linear" else "well-posed"
    return ModelSpec(kernel, FiringRate(firing_kind), LearningKernel("gaussian", {"width": width}),
                     gamma=gamma, mode=mode)


def random_field(n, seed, span, width, on_nodes):
    """A random field with max - min = span; with ``on_nodes`` some values
    sit exactly on the pivots of the factor J picks for it."""
    rng = np.random.default_rng(seed)
    u = 0.3 + span * rng.uniform(size=n)
    if span > 0:
        u[rng.permutation(n)[:2]] = 0.3, 0.3 + span
    if on_nodes:
        nodes = 0.3 + 0.5 * span + width * range_factor(u, width).pivots
        nodes = nodes[(nodes >= 0.3) & (nodes <= 0.3 + span)]
        picks = rng.permutation(n)[: min(n, nodes.size)]
        u[picks] = nodes[: picks.size]
    return u


def rounding_allowance(model, op, u):
    # FFT and summation-order rounding, relative to the scale of |W| f
    scale = np.max(np.abs(dense_operator(op)) @ np.abs(model.firing(u)))
    return 1e-13 * (1.0 + model.gamma) * float(scale)


fast_j_cases = dict(
    kind=st.sampled_from(GRID_KINDS),
    sizes=st.lists(st.integers(3, 120), min_size=2, max_size=2),
    half_length=st.floats(1.0, 10.0),
    kernel_kind=st.sampled_from(KERNEL_KINDS),
    firing_kind=st.sampled_from(FIRING_KINDS),
    gamma=st.floats(0.0, 4.0),
    width=st.floats(0.25, 4.0),
    span_over_width=st.one_of(st.just(0.0), st.floats(0.0, 16.0)),
    on_nodes=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)


class TestFastJ:
    # every kernel x firing kind x grid kind, the rest drawn
    @pytest.mark.parametrize("kind", GRID_KINDS)
    @pytest.mark.parametrize("firing_kind", FIRING_KINDS)
    @pytest.mark.parametrize("kernel_kind", KERNEL_KINDS)
    @given(**{name: case for name, case in fast_j_cases.items()
              if name not in ("kind", "kernel_kind", "firing_kind")})
    @settings(max_examples=12, deadline=None)
    def test_against_dense_formula_within_bound(self, kind, sizes, half_length, kernel_kind,
                                                firing_kind, gamma, width, span_over_width,
                                                on_nodes, seed):
        grid, quad = small_grid(kind, sizes, half_length)
        model = any_model(kernel_kind, firing_kind, gamma, width, grid, seed)
        op = build_operator(model.kernel, grid, quad)
        u = random_field(grid.n_total, seed, span_over_width * width, width, on_nodes)
        dense = dense_j(model, dense_operator(op), u)
        observed = np.max(np.abs(apply_j_values(model, op, u) - dense))
        assert observed <= j_error_bound(model, op, u) + rounding_allowance(model, op, u)

    @given(**{**fast_j_cases, "kind": st.sampled_from(
        [kind for kind in GRID_KINDS if kind[1] == "compact"])})
    @settings(max_examples=60, deadline=None)
    def test_against_brute_force_oracle(self, kind, sizes, half_length, kernel_kind,
                                        firing_kind, gamma, width, span_over_width,
                                        on_nodes, seed):
        # the oracle measures plain distances, so it covers compact grids only
        grid, quad = small_grid(kind, [k % 23 + 3 if kind[0] == 1 else k % 4 for k in sizes],
                                half_length)
        model = any_model(kernel_kind, firing_kind, gamma, width, grid, seed)
        op = build_operator(model.kernel, grid, quad)
        u = random_field(grid.n_total, seed, span_over_width * width, width, on_nodes)
        expected = brute_force_apply_j(model, grid, quad, u)
        bound = j_error_bound(model, op, u)
        assert np.max(np.abs(apply_j_values(model, op, u) - expected)) \
            <= bound + rounding_allowance(model, op, u)

    @given(kind=st.sampled_from(GRID_KINDS), sizes=st.lists(st.integers(3, 40), min_size=2, max_size=2),
           kernel_kind=st.sampled_from(KERNEL_KINDS),
           gained=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    # n = 3 (a lattice of 4) and n = 38, where 2n - 2 = 74 is not 5-smooth
    # and the lattice of 75 is odd, on the compact lines and squares
    @example(kind=(1, "compact", "trapezoid"), sizes=[3, 3], kernel_kind="exponential",
             gained=False, seed=0)
    @example(kind=(1, "compact", "trapezoid"), sizes=[38, 3], kernel_kind="mexican-hat",
             gained=True, seed=1)
    @example(kind=(2, "compact", "trapezoid"), sizes=[0, 0], kernel_kind="mexican-hat",
             gained=False, seed=2)
    @example(kind=(2, "compact", "trapezoid"), sizes=[17, 0], kernel_kind="exponential",
             gained=True, seed=3)
    @settings(max_examples=100, deadline=None)
    def test_operator_product_matches_matrix(self, kind, sizes, kernel_kind, gained, seed):
        grid, quad = small_grid(kind, sizes, 5.0)
        model = any_model(kernel_kind, "sigmoid", 0.0, 1.0, grid, seed)
        op = build_operator(model.kernel, grid, quad)
        rng = np.random.default_rng(seed)
        if gained:
            # the gain is a measure: the weights times a positive factor
            gain = rng.uniform(0.5, 2.0, size=grid.n_total)
            op = replace(op, quadrature=Quadrature(quad.weights * gain))
        v = rng.standard_normal((3, grid.n_total))
        matrix = dense_operator(op)
        scale = np.max(np.abs(matrix) @ np.abs(v.T))
        assert np.max(np.abs(op.apply(v) - (matrix @ v.T).T)) <= 1e-14 * scale
        assert np.max(np.abs(op.abs_apply(v[0]) - np.abs(matrix) @ np.abs(v[0]))) <= 1e-14 * scale

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("kernel_kind", KERNEL_KINDS)
    @pytest.mark.parametrize("kind", GRID_KINDS)
    def test_stack_equals_row_by_row_bitwise(self, kind, kernel_kind, gamma):
        grid, quad = small_grid(kind, [37, 12], 4.0)
        model = any_model(kernel_kind, "sigmoid", gamma, 1.0, grid, seed=7)
        op = build_operator(model.kernel, grid, quad)
        rng = np.random.default_rng(grid.n_total)
        for rows in (1, 4, 9):
            stack = rng.uniform(-2.0, 3.0, size=(rows, grid.n_total))
            stack[0] = 0.5  # a flat field among varied ones
            j = apply_j_values(model, op, stack)
            f = apply_f_values(model, op, stack)
            assert j.shape == f.shape == stack.shape
            for u, j_row, f_row in zip(stack, j, f):
                assert np.array_equal(j_row, apply_j_values(model, op, u))
                assert np.array_equal(f_row, apply_f_values(model, op, u))

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("kernel_kind", KERNEL_KINDS)
    @pytest.mark.parametrize("kind", GRID_KINDS)
    def test_chunks_equal_one_whole_batch_bitwise(self, monkeypatch, kind, kernel_kind, gamma,
                                                  rows):
        # one column per chunk (the last chunk is f alone), and chunks of 4
        # that split the basis rows and the stack
        grid, quad = small_grid(kind, [37, 12], 4.0)
        model = any_model(kernel_kind, "sigmoid", gamma, 1.0, grid, seed=7)
        stack = np.random.default_rng(grid.n_total).uniform(-2.0, 3.0, size=(6, grid.n_total))
        stack[0] = 0.5
        monkeypatch.setattr(discretization, "CHUNK_LINES", 1)
        monkeypatch.setattr(discretization, "CHUNK_BYTES", 2 ** 62)
        whole = build_operator(model.kernel, grid, quad)
        assert whole.chunk_rows > stack.shape[0] + range_factor(stack[1], 1.0).rank
        row_bytes = 8 * grid.n_total if whole.spectrum is None else whole.spectrum.nbytes
        monkeypatch.setattr(discretization, "CHUNK_BYTES", rows * row_bytes)
        chunked = build_operator(model.kernel, grid, quad)
        assert chunked.chunk_rows == rows
        assert range_factor(stack[1], 1.0).rank + 1 > rows
        for values in (stack, stack[1]):
            assert np.array_equal(apply_j_values(model, chunked, values),
                                  apply_j_values(model, whole, values))
            assert np.array_equal(apply_f_values(model, chunked, values),
                                  apply_f_values(model, whole, values))

    def test_gain_scaled_matrix_is_lazy_product(self):
        # a tabulated kernel under re-weighted nodes builds its matrix anew,
        # on first access, from the new weights
        grid = Grid(bounds=[(0.0, 1.0)], npts=[41])
        kern = SynapticKernel("tabulated", {"matrix": np.full((41, 41), 0.3), "nodes": grid.points})
        quad = make_quadrature(grid)
        op = build_operator(kern, grid, quad)
        gain = np.linspace(0.5, 1.5, 41)
        scaled = replace(op, quadrature=Quadrature(quad.weights * gain))
        assert "matrix" not in scaled.__dict__
        assert np.array_equal(scaled.matrix, dense_operator(scaled))
        assert np.allclose(scaled.matrix, op.matrix * gain[None, :], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("kind, params", [("exponential", {}), ("mexican-hat", {"scale": 1.0})])
    def test_isotropic_operator_has_no_matrix(self, grid_201, quad_201, kind, params):
        op = build_operator(SynapticKernel(kind, params), grid_201, quad_201)
        with pytest.raises(ValueError, match=kind):
            op.matrix  # noqa: B018

    def test_gamma_zero_is_the_operator_product(self, op_201, bump_201):
        model = make_model(gamma=0.0)
        u = bump_201.values
        assert j_error_bound(model, op_201, u) == 0.0
        assert np.array_equal(apply_j_values(model, op_201, u), op_201.apply(model.firing(u)))

    def test_constant_field_takes_the_smallest_bucket_within_bound(self, op_201):
        # a flat field is no special case: g = 1 on every pair, and J is
        # within its bound of (1 + gamma) W f
        model = make_model(gamma=0.6)
        u = np.full(201, 0.4)
        assert range_factor(u, 1.0).half_span == 2.0 ** -8
        dense = dense_j(model, dense_operator(op_201), u)
        bound = j_error_bound(model, op_201, u)
        assert 0.0 < bound < 1e-13
        assert np.max(np.abs(apply_j_values(model, op_201, u) - dense)) \
            <= bound + rounding_allowance(model, op_201, u)

    def test_rank_near_n_stays_on_the_factor_path(self):
        # 37 terms on 61 nodes: no grid size sends an isotropic kernel to a dense formula
        grid = Grid(bounds=[(-5.0, 5.0)], npts=[61])
        quad = make_quadrature(grid)
        model = make_model(gamma=1.0)
        op = build_operator(model.kernel, grid, quad)
        u = np.linspace(-4.0, 4.0, 61)
        assert range_factor(u, 1.0).rank == 37
        expected = brute_force_apply_j(model, grid, quad, u)
        assert np.max(np.abs(apply_j_values(model, op, u) - expected)) \
            <= j_error_bound(model, op, u) + rounding_allowance(model, op, u)

    def test_tabulated_kernel_takes_the_factor_within_bound(self):
        grid = Grid(bounds=[(0.0, 1.0)], npts=[41])
        quad = make_quadrature(grid)
        kern = SynapticKernel("tabulated", {"matrix": np.full((41, 41), 0.3), "nodes": grid.points})
        model = ModelSpec(kern, FiringRate("sigmoid"), LearningKernel(), gamma=0.5)
        op = build_operator(kern, grid, quad)
        u = np.sin(grid.points[:, 0])
        bound = j_error_bound(model, op, u)
        assert op.spectrum is None and 0.0 < bound < 1e-13
        got = apply_j_values(model, op, u)
        for expected in (dense_j(model, dense_operator(op), u),
                         brute_force_apply_j(model, grid, quad, u)):
            assert np.max(np.abs(got - expected)) <= bound + rounding_allowance(model, op, u)

    def test_no_dense_matrix_for_isotropic_kernels(self):
        import tracemalloc

        n = 2001
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[n])
        model = make_model(gamma=1.0)
        u = np.random.default_rng(5).uniform(-2.0, 2.0, size=n)
        tracemalloc.start()
        try:
            op = build_operator(model.kernel, grid, make_quadrature(grid))
            apply_j_values(model, op, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(op, DiscreteOperator) and "matrix" not in op.__dict__
        assert range_factor(u, 1.0).rank > 0
        assert peak < n * n * 8 / 4


def sampled_power(factor, points):
    """P(a) = 1 - sum_k N_k(a)^2 at normalised ``points``, as J evaluates N;
    the bucket's ends join them so that their centre is 0."""
    ends = [-factor.half_span, factor.half_span]
    basis = factor.basis(np.concatenate([points, ends]), 1.0)
    return 1.0 - np.sum(basis * basis, axis=0)[:-2]


def bucket_factor(k):
    """The factor of bucket k, whose half-span is 2^(k/4) widths."""
    half_span = 2.0 ** (k / 4)
    factor = range_factor(np.array([-half_span, half_span]), 1.0)
    assert factor.half_span == half_span
    return factor


class TestRangeFactor:
    @pytest.mark.parametrize("half_span, terms", [(0.5, 11), (1.0, 15), (2.0, 22), (4.0, 37)])
    def test_term_counts(self, half_span, terms):
        # spans in learning widths: the factor depends on span / width only
        factor = range_factor(np.array([-0.5 * half_span, 0.5 * half_span]), 0.5)
        assert factor.half_span == half_span and factor.rank == terms
        samples = discretization._samples(half_span)
        assert np.max(sampled_power(factor, samples)) <= PLASTICITY_TOL < factor.power_bound < 5e-14

    @pytest.mark.parametrize("k", range(-32, 9))
    def test_power_bound_covers_the_whole_bucket(self, k):
        # 50 points between neighbouring samples of the tabulation, so 50x
        # its density everywhere on [-H, H]
        factor = bucket_factor(k)
        m = discretization._samples(factor.half_span).size - 1
        dense = factor.half_span * np.cos(np.pi * np.arange(50 * m + 1) / (50 * m))
        assert np.max(sampled_power(factor, dense)) <= factor.power_bound
        # and the pivots interpolate g: P vanishes there to rounding
        assert np.max(np.abs(sampled_power(factor, factor.pivots))) < 1e-14

    def test_pair_error_within_power_bound(self):
        factor = bucket_factor(7)
        a = np.random.default_rng(7).uniform(-factor.half_span, factor.half_span, size=1500)
        basis = factor.basis(a, 1.0).copy()
        pairs = basis.T @ basis - np.exp(-np.subtract.outer(a, a) ** 2)
        assert np.max(np.abs(pairs)) <= factor.power_bound

    def test_one_factor_per_bucket(self):
        wide = range_factor(np.array([0.0, 3.0]), 1.0)
        assert range_factor(np.array([10.0, 12.9]), 1.0) is wide
        assert range_factor(np.array([0.0, 2.5]), 1.0) is not wide
        # flat and nearly flat fields share the smallest bucket, 2^-8 widths
        narrow = range_factor(np.array([0.0, 0.5e-8]), 1.0)
        assert range_factor(np.full(5, 0.7), 1.0) is narrow
        assert narrow.half_span == 2.0 ** -8 and narrow.rank == 3

    def test_import_tabulates_no_bucket(self):
        import subprocess
        import sys

        script = ("import neuralfield.cli, neuralfield.discretization as d\n"
                  "assert d._FACTORS == {}, sorted(d._FACTORS)\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("kernel_kind", ["exponential", "mexican-hat"])
    @pytest.mark.parametrize("terms", [2, 4, 8, 16])
    def test_bound_holds_where_the_factor_error_dominates(self, monkeypatch, kernel_kind, terms):
        # the leading terms of a factor are a factor of their own (L^-1 of a
        # leading block is the leading block of L^-1), with their own P-bar
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[301])
        model = any_model(kernel_kind, "sigmoid", 2.0, 1.0, grid)
        op = build_operator(model.kernel, grid, make_quadrature(grid))
        u = np.random.default_rng(terms).uniform(-3.0, 3.0, size=301)
        full = range_factor(u, 1.0)
        bucket = next(k for k, factor in discretization._FACTORS.items() if factor is full)
        truncated = RangeFactor(full.half_span, full.pivots[:terms], full.inverse[:terms, :terms])
        monkeypatch.setitem(discretization._FACTORS, bucket, truncated)
        dense = dense_j(model, dense_operator(op), u)
        observed = np.max(np.abs(apply_j_values(model, op, u) - dense))
        assert 1e-9 < observed <= j_error_bound(model, op, u)


def _plastic_case(shape):
    """gamma = 1 on a 401-node line (a random field, 22 terms) or on a 41 x 41
    square (a bump), with its operator."""
    model = make_model(gamma=1.0)
    if shape == (401,):
        grid = Grid(bounds=[(-10.0, 10.0)], npts=[401])
        u = np.random.default_rng(0).uniform(-2.0, 2.0, size=401)
    else:
        grid = Grid(bounds=[(-5.0, 5.0), (-5.0, 5.0)], npts=[41, 41])
        u = 4.0 * np.exp(-np.sum(grid.points ** 2, axis=1) / 4.0) - 1.0
    return model, build_operator(model.kernel, grid, make_quadrature(grid)), u


class TestWorkspaces:
    @pytest.mark.parametrize("boundary", ["compact", "periodic"])
    @pytest.mark.parametrize("npts", [[37], [8], [9, 14], [12, 5]])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 5)])
    def test_convolve_matches_whole_array_formula_bitwise(self, boundary, npts, batch):
        grid = Grid(bounds=[(-3.0, 2.0), (-1.0, 4.0)][:len(npts)], npts=npts, boundary=boundary)
        spectrum = kernel_spectrum(lambda d: (1.0 - d) * np.exp(-d), grid)
        rng = np.random.default_rng(len(batch) + grid.n_total)
        for _ in range(2):  # the second call reuses the workspaces
            v = rng.standard_normal(batch + (grid.n_total,))
            got = convolve(spectrum, grid, v)
            assert got.shape == v.shape
            assert np.array_equal(got, fft_convolve(spectrum, grid, v))

    @pytest.mark.parametrize("shape", [(401,), (41, 41)])
    def test_results_never_alias_workspaces(self, shape):
        model, op, u = _plastic_case(shape)
        first_j = apply_j_values(model, op, u)
        kept_j = first_j.copy()
        first_conv = convolve(op.spectrum, op.grid, np.vstack([u, -u]))
        kept_conv = first_conv.copy()
        second_j = apply_j_values(model, op, 0.5 * u)
        convolve(op.spectrum, op.grid, np.vstack([u, u, u]))
        assert np.array_equal(first_j, kept_j) and np.array_equal(first_conv, kept_conv)
        second_j[:] = np.nan
        first_conv[:] = np.nan
        assert np.array_equal(apply_j_values(model, op, u), kept_j)
        assert np.array_equal(convolve(op.spectrum, op.grid, np.vstack([u, -u])), kept_conv)

    def test_chunk_workspaces_stay_within_twice_the_budget(self, monkeypatch):
        # the whole 81 x 81 batch has 4.6 MB of spectrum; a grown slot is at
        # most twice its largest request
        monkeypatch.setattr(discretization, "_WORKSPACES", {})
        model = make_model(gamma=1.0)
        grid = Grid(bounds=[(-5.0, 5.0), (-5.0, 5.0)], npts=[81, 81])
        op = build_operator(model.kernel, grid, make_quadrature(grid))
        u = 4.0 * np.exp(-np.sum(grid.points ** 2, axis=1) / 4.0) - 1.0
        budget = discretization.CHUNK_BYTES
        assert (range_factor(u, 1.0).rank + 1) * op.spectrum.nbytes > 8 * budget
        for _ in range(2):
            apply_j_values(model, op, u)
        for slot in ("weighted", "spectrum", "real", "columns", "products"):
            assert discretization._WORKSPACES[slot].nbytes <= 2 * budget, slot

    @pytest.mark.parametrize("shape", [(401,), (41, 41)])
    def test_steady_state_j_allocates_less_than_one_spectrum_stack(self, shape):
        import tracemalloc

        model, op, u = _plastic_case(shape)
        rank = range_factor(u, 1.0).rank
        assert rank == 22 or shape != (401,)
        apply_j_values(model, op, u)  # warm-up: the workspaces grow here
        tracemalloc.start()
        try:
            apply_j_values(model, op, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (rank + 2) * math.prod(op.grid.fft_shape) * 16
