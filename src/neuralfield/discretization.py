"""Uniform grids, composite quadrature, and the discrete integral operators.

A grid turns the compact domain into nodes, a quadrature rule turns
integrals into weighted sums, and the operator applies the synaptic kernel
W[i, j] = w(x_i, x_j) * q_j.  On the uniform grid an isotropic kernel
depends only on the node lag, so W @ v is a convolution computed by FFT:
Toeplitz (zero-padded) on compact axes, circulant on periodic axes, block
Toeplitz or block circulant in 2-D.  Tabulated kernels keep a dense matrix.

The state-dependent plasticity factor [1 + gamma * g(u_i - u_j)] is applied
at evaluation time and never baked into W, so one operator serves every
gamma.  For convolution operators it is interpolated in the pre-synaptic
potential at Chebyshev points, with a rank chosen from an a-priori bound so
the interpolation error stays below 1e-14 relative to the input scale.

Results are deterministic: FFTs and numpy reductions use a fixed order
that does not depend on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .model import ModelSpec, SynapticKernel

QUADRATURE_RULES = ("trapezoid", "simpson")
BOUNDARIES = ("compact", "periodic")


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor-product grid on a box in 1 or 2 dimensions."""

    bounds: tuple
    npts: tuple
    boundary: str = "compact"

    def __post_init__(self):
        bounds = tuple((float(a), float(b)) for a, b in np.atleast_2d(np.asarray(self.bounds, dtype=float)))
        npts = tuple(int(n) for n in np.atleast_1d(self.npts))
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "npts", npts)
        if len(bounds) not in (1, 2):
            raise ValueError("only 1-D and 2-D grids are supported")
        if len(npts) != len(bounds):
            raise ValueError("need one node count per axis")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}")
        for (a, b), n in zip(bounds, npts):
            if not b > a:
                raise ValueError("axis bounds must satisfy a < b")
            if n < 3:
                raise ValueError("need at least 3 nodes per axis")

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    @cached_property
    def spacing(self) -> tuple:
        out = []
        for (a, b), n in zip(self.bounds, self.npts):
            out.append((b - a) / (n - 1) if self.boundary == "compact" else (b - a) / n)
        return tuple(out)

    @cached_property
    def axis_nodes(self) -> tuple:
        out = []
        for (a, b), n, h in zip(self.bounds, self.npts, self.spacing):
            if self.boundary == "compact":
                nodes = np.linspace(a, b, n)
            else:
                nodes = a + h * np.arange(n)
            nodes.flags.writeable = False
            out.append(nodes)
        return tuple(out)

    @cached_property
    def points(self) -> np.ndarray:
        """All nodes as an (n_total, dimension) array in lexicographic order."""
        if self.dimension == 1:
            pts = self.axis_nodes[0][:, None].copy()
        else:
            x, y = np.meshgrid(*self.axis_nodes, indexing="ij")
            pts = np.column_stack([x.ravel(), y.ravel()])
        pts.flags.writeable = False
        return pts

    @cached_property
    def n_total(self) -> int:
        return int(np.prod(self.npts))

    @property
    def volume(self) -> float:
        return float(np.prod([b - a for a, b in self.bounds]))

    @cached_property
    def fft_shape(self) -> tuple:
        """FFT lattice of the node-lag convolution: the node count on
        periodic axes, a fast length >= 2n - 1 on compact (zero-padded) axes."""
        if self.boundary == "periodic":
            return self.npts
        return tuple(_fft_length(2 * n - 1) for n in self.npts)

    def lag_distance(self) -> np.ndarray:
        """Length of every node lag: lags -(n-1)..n-1 on compact axes, the
        minimal images of lags 0..n-1 on periodic axes, one array axis per
        grid axis."""
        sq = 0.0
        for ax, (n, h) in enumerate(zip(self.npts, self.spacing)):
            if self.boundary == "periodic":
                lag = np.minimum(np.arange(n), n - np.arange(n))
            else:
                lag = np.abs(np.arange(1 - n, n))
            shape = [1] * self.dimension
            shape[ax] = lag.shape[0]
            sq = sq + ((lag * h) ** 2).reshape(shape)
        return np.sqrt(sq)

    def pairwise_distance(self) -> np.ndarray:
        """Distances |x_i - x_j|; periodic grids use the minimal image per axis."""
        pts = self.points
        sq = np.zeros((self.n_total, self.n_total))
        for ax in range(self.dimension):
            d = np.abs(pts[:, ax, None] - pts[None, :, ax])
            if self.boundary == "periodic":
                period = self.bounds[ax][1] - self.bounds[ax][0]
                d = np.minimum(d, period - d)
            sq += d * d
        return np.sqrt(sq)


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _axis_weights(n: int, h: float, rule: str, boundary: str) -> np.ndarray:
    if rule == "trapezoid":
        if boundary == "periodic":
            return np.full(n, h)
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        return w
    if rule == "simpson":
        if boundary == "periodic":
            raise ValueError("simpson weights are not defined on periodic grids; use trapezoid")
        if n % 2 == 0:
            raise ValueError("simpson rule requires an odd node count per axis")
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * (h / 3.0)
    raise ValueError(f"unknown quadrature rule {rule!r}")


@dataclass(frozen=True, eq=False)
class Quadrature:
    """Positive weights turning sums over nodes into integrals over the domain."""

    rule: str
    weights: np.ndarray
    grid: Grid

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be positive")

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * np.asarray(values, dtype=float)))

    def l1_norm(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * np.abs(np.asarray(values, dtype=float))))

    def l2_norm(self, values: np.ndarray) -> float:
        v = np.asarray(values, dtype=float)
        return float(np.sqrt(np.sum(self.weights * v * v)))


def make_quadrature(grid: Grid, rule: str = "trapezoid") -> Quadrature:
    per_axis = [
        _axis_weights(n, h, rule, grid.boundary)
        for n, h in zip(grid.npts, grid.spacing)
    ]
    weights = per_axis[0] if grid.dimension == 1 else np.outer(per_axis[0], per_axis[1]).ravel()
    return Quadrature(rule=rule, weights=weights, grid=grid)


@dataclass(frozen=True, eq=False)
class FieldState:
    """Field values sampled on the grid nodes at one time instant."""

    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v = v.copy() if v.flags.writeable else v
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise ValueError("field state contains non-finite values")
        if self.time < 0:
            raise ValueError("time must be nonnegative")


def kernel_matrix(kernel: SynapticKernel, grid: Grid) -> np.ndarray:
    """Raw kernel values w(x_i, x_j) on all node pairs."""
    if kernel.isotropic:
        return kernel.profile(grid.pairwise_distance())
    matrix = kernel.params["matrix"]
    nodes = kernel.params["nodes"]
    pts = grid.points
    sampled = nodes if nodes.ndim == 2 else nodes[:, None]
    if sampled.shape != pts.shape or not np.allclose(sampled, pts, atol=1e-12):
        raise ValueError("tabulated kernel was sampled on a different grid")
    return np.array(matrix, dtype=float)


def kernel_spectrum(profile, grid: Grid) -> np.ndarray:
    """Real FFT of a radial profile sampled at every node lag of the grid.

    Lag k on an axis of n nodes sits at FFT index k mod m (m the FFT
    length); on periodic axes that is the minimal image, on compact axes the
    m - (2n - 1) indices between lags n - 1 and -(n - 1) are zero padding.
    """
    column = profile(grid.lag_distance())
    if grid.boundary == "compact":
        pad = [(0, m - (2 * n - 1)) for n, m in zip(grid.npts, grid.fft_shape)]
        column = np.roll(np.pad(column, pad), [1 - n for n in grid.npts],
                         axis=tuple(range(grid.dimension)))
    return np.fft.rfftn(column, axes=tuple(range(grid.dimension)))


def convolve(spectrum: np.ndarray, grid: Grid, v: np.ndarray) -> np.ndarray:
    """sum_j c(x_i - x_j) v_j for the kernel c whose spectrum is given.

    The last axis of v runs over the grid nodes; leading axes are a batch,
    transformed together in one rfftn/irfftn pair.
    """
    axes = tuple(range(-grid.dimension, 0))
    fields = v.reshape(v.shape[:-1] + grid.npts)
    image = np.fft.irfftn(np.fft.rfftn(fields, s=grid.fft_shape, axes=axes) * spectrum,
                          s=grid.fft_shape, axes=axes)
    return image[(Ellipsis,) + tuple(slice(0, n) for n in grid.npts)].reshape(v.shape)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """The kernel-times-weights operator W[i, j] = w(x_i, x_j) * q_j * gain_j.

    Isotropic kernels carry the cached spectrum of their node-lag
    convolution and never form W; tabulated kernels (``spectrum`` None) are
    applied through the dense matrix.  ``matrix`` is built on first access.
    """

    kernel: SynapticKernel
    grid: Grid
    quadrature: Quadrature
    spectrum: np.ndarray | None = field(default=None, repr=False)
    gain: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        m = kernel_matrix(self.kernel, self.grid) * self.quadrature.weights[None, :]
        if self.gain is not None:
            m = m * self.gain[None, :]
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix contains non-finite entries")
        m.flags.writeable = False
        return m

    def _weighted(self, v: np.ndarray) -> np.ndarray:
        v = v * self.quadrature.weights
        return v if self.gain is None else v * self.gain

    def apply(self, v: np.ndarray) -> np.ndarray:
        """W @ v over the last axis of v; leading axes are a batch."""
        if self.spectrum is None:
            return v @ self.matrix.T
        return convolve(self.spectrum, self.grid, self._weighted(v))

    @cached_property
    def _abs_spectrum(self) -> np.ndarray:
        return kernel_spectrum(lambda d: np.abs(self.kernel.profile(d)), self.grid)

    def abs_apply(self, v: np.ndarray) -> np.ndarray:
        """|W| @ |v| over the last axis of v."""
        if self.spectrum is None:
            return np.abs(v) @ np.abs(self.matrix).T
        return convolve(self._abs_spectrum, self.grid, np.abs(self._weighted(v)))

    @property
    def abs_row_sums(self) -> np.ndarray:
        return self.abs_apply(np.ones(self.grid.n_total))

    def scaled_by_gain(self, gain: np.ndarray) -> "DiscreteOperator":
        """Operator for the effective kernel w(x, y) * gain(y)."""
        gain = np.asarray(gain, dtype=float)
        if gain.shape != (self.grid.n_total,):
            raise ValueError("gain must have one value per grid node")
        return replace(self, gain=gain if self.gain is None else self.gain * gain)


def build_operator(kernel: SynapticKernel, grid: Grid, quad: Quadrature) -> DiscreteOperator:
    if quad.weights.shape[0] != grid.n_total:
        raise ValueError("quadrature does not match grid")
    if not kernel.isotropic:
        op = DiscreteOperator(kernel=kernel, grid=grid, quadrature=quad)
        op.matrix  # noqa: B018  (validates the tabulated nodes and entries now)
        return op
    spectrum = kernel_spectrum(kernel.profile, grid)
    if not np.all(np.isfinite(spectrum)):
        raise ValueError("operator kernel contains non-finite entries")
    spectrum.flags.writeable = False
    return DiscreteOperator(kernel=kernel, grid=grid, quadrature=quad, spectrum=spectrum)


# Bernstein-ellipse parameters rho over which the interpolation bound is
# minimised, and the error the plasticity rank is chosen to reach.
_RHO = 1.0 + np.geomspace(1e-3, 1e4, 600)
_LOG_RHO = np.log(_RHO)
PLASTICITY_TOL = 1e-14
# Spans below this fraction of the learning width give g = 1 to within
# (span / width)^2 <= 1e-16, so the factor is the constant 1 + gamma.
FLAT_SPAN = 1e-8


def _log_envelope(r: float) -> np.ndarray:
    # log of 4 M(rho) / (rho - 1), M(rho) = exp((r (rho - 1/rho) / 2)^2) the
    # sup of exp(-(a - r s)^2) over the Bernstein ellipse in s
    return math.log(4.0) + (0.5 * r * (_RHO - 1.0 / _RHO)) ** 2 - np.log(_RHO - 1.0)


def chebyshev_bound(r: float, rank: int) -> float:
    """Sup error of degree-``rank`` Chebyshev interpolation of a gaussian.

    For g(a - y) = exp(-((a - y) / width)^2) on an interval of half-length
    r * width: min over rho > 1 of 4 M(rho) rho^-rank / (rho - 1)
    (Trefethen, Approximation Theory and Approximation Practice, Thm 8.2).
    """
    return float(np.exp(np.min(_log_envelope(r) - rank * _LOG_RHO)))


def chebyshev_rank(r: float) -> int:
    """Smallest degree whose :func:`chebyshev_bound` is <= PLASTICITY_TOL."""
    needed = (_log_envelope(r) - math.log(PLASTICITY_TOL)) / _LOG_RHO
    return max(1, math.ceil(float(np.min(needed))))


def plasticity_rank(model: ModelSpec, op: DiscreteOperator, values: np.ndarray) -> int | None:
    """Degree of the Chebyshev plasticity factor J uses for this field.

    0 means the factor is the constant 1 + gamma (gamma = 0 or a flat
    field); None means the dense formula is evaluated (tabulated kernels,
    or rank + 2 convolutions would exceed n / 4).
    """
    if op.spectrum is None:
        return None
    span = float(values.max() - values.min()) / model.learning.params["width"]
    if model.gamma == 0.0 or span <= FLAT_SPAN:
        return 0
    rank = chebyshev_rank(0.5 * span)
    return None if rank + 2 > values.shape[0] / 4 else rank


def j_error_bound(model: ModelSpec, op: DiscreteOperator, values: np.ndarray,
                  rank: int | None) -> float:
    """A-priori bound on |J(u) - J_exact(u)| from the plasticity factor.

    gamma * e * max_i sum_j |W[i,j] f(u_j)|, with e the interpolation error
    bound of ``rank`` as :func:`plasticity_rank` defines it; rounding is not
    included.  Zero where J is evaluated exactly.
    """
    if rank is None or model.gamma == 0.0:
        return 0.0
    span = float(values.max() - values.min()) / model.learning.params["width"]
    e = span * span if rank == 0 else chebyshev_bound(0.5 * span, rank)
    scale = float(np.max(op.abs_apply(model.firing(values))))
    return model.gamma * e * scale


def learned_factor_bound(gamma: float, span: float, rank: int) -> float:
    """A-priori bound on max |G - F M F^T| for the learned-kernel factor.

    Interpolating g in both potentials at rank + 1 Chebyshev points costs
    gamma * e * (1 + Lambda), e the :func:`chebyshev_bound` and Lambda <=
    1 + (2/pi) log(rank + 1); rank 0, the constant 1 +- gamma, costs
    gamma * span^2 (span in learning widths).  Times |Omega| it bounds the
    shift of each eigenvalue of the weighted split (Weyl).
    """
    if rank == 0:
        return gamma * span * span
    lebesgue = 1.0 + 2.0 / math.pi * math.log(rank + 1)
    return gamma * chebyshev_bound(0.5 * span, rank) * (1.0 + lebesgue)


def dense_apply_j(model: ModelSpec, op: DiscreteOperator, values: np.ndarray) -> np.ndarray:
    """The exact formula sum_j W[i,j] * (1 + gamma*g(u_i - u_j)) * f(u_j)."""
    rates = model.firing(values)
    weighted = op.matrix * rates[None, :]
    if model.gamma != 0.0:
        diff = values[:, None] - values[None, :]
        weighted = weighted * (1.0 + model.gamma * model.learning(diff))
    return weighted.sum(axis=1)


def chebyshev_nodes(lo: float, hi: float, rank: int) -> np.ndarray:
    """The rank + 1 Chebyshev points of the second kind on [lo, hi], ascending,
    with the end points exactly lo and hi."""
    nodes = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.pi * np.arange(rank + 1) / rank)
    nodes[0], nodes[-1] = lo, hi
    return nodes


def chebyshev_basis(values: np.ndarray, rank: int) -> tuple:
    """The rank + 1 Chebyshev points t_k on [min values, max values] and the
    Lagrange basis l_k(values) as a (rank + 1, n) array, barycentric formula."""
    nodes = chebyshev_nodes(float(values.min()), float(values.max()), rank)
    bary = np.where(np.arange(rank + 1) % 2 == 0, 1.0, -1.0)
    bary[[0, -1]] *= 0.5
    diff = values[None, :] - nodes[:, None]
    hits = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = bary[:, None] / diff
        basis = terms / terms.sum(axis=0)
    # a value on a node (always the extremes) interpolates exactly there
    exact = hits.any(axis=0)
    basis[:, exact] = hits[:, exact]
    return nodes, basis


def separable_apply_j(model: ModelSpec, op: DiscreteOperator, values: np.ndarray,
                      rank: int) -> np.ndarray:
    """J with g(u_i - y) interpolated in y at rank + 1 Chebyshev points t_k.

    J = W f + gamma * sum_k g(u - t_k) * W(l_k(u) f), with l_k the Lagrange
    basis on [min u, max u]; the rank + 2 products share one batched FFT.
    """
    rates = model.firing(values)
    nodes, basis = chebyshev_basis(values, rank)
    columns = np.concatenate([rates[None, :], basis * rates[None, :]])
    products = op.apply(columns)
    learned = model.learning(values[None, :] - nodes[:, None])
    return products[0] + model.gamma * (learned * products[1:]).sum(axis=0)


def apply_j_values(model: ModelSpec, op: DiscreteOperator, values: np.ndarray) -> np.ndarray:
    """Nonlinear input term: sum_j W[i,j] * (1 + gamma*g(u_i - u_j)) * f(u_j)."""
    if values.shape != (op.grid.n_total,):
        raise ValueError(f"state has {values.shape} values, grid has {op.grid.n_total} nodes")
    rank = plasticity_rank(model, op, values)
    if rank is None:
        return dense_apply_j(model, op, values)
    if rank == 0:
        return (1.0 + model.gamma) * op.apply(model.firing(values))
    return separable_apply_j(model, op, values, rank)


def apply_f_values(model: ModelSpec, op: DiscreteOperator, values: np.ndarray) -> np.ndarray:
    """Right-hand side of the evolution: -u + (input term)."""
    return apply_j_values(model, op, values) - values
