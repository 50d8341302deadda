"""Uniform grids, composite quadrature, and the discrete integral operators.

A grid turns the compact domain into nodes, a quadrature rule turns
integrals into weighted sums, and the operator applies the synaptic kernel
W[i, j] = w(x_i, x_j) * q_j.  On the uniform grid an isotropic kernel
depends only on the node lag, so W @ v is a convolution computed by FFT:
Toeplitz on compact axes, embedded in the smallest fast circulant of length
>= 2n - 2 with the input zero-padded, circulant on periodic axes, the block
forms in 2-D.  Only tabulated kernels have a dense matrix.  How W is
stored is private to :class:`DiscreteOperator` and :func:`build_operator`;
everything else applies it through ``apply``.  The q_j may be any positive
measure on the nodes: the gain-field probe's kernel w(x, y) phi(y) is w
under the weights q_j phi_j.  A :class:`FieldState` is a run's initial
field; every run starts at t = 0.

The state-dependent plasticity factor [1 + gamma * g(u_i - u_j)] is applied
at evaluation time and never baked into W, so one operator serves every
gamma.  The gaussian g takes its pivoted-Cholesky (Newton-basis) factor
g(a - b) ~ sum_k N_k(a) N_k(b), tabulated once per span bucket at first use
and stopped where the power function is below 1e-14, so J costs r + 1
operator products at the gaussian's numerical rank r, on every operator;
gamma = 0 is the only bypass.  J passes those products to the operator in
chunks of rows and adds the terms in k order, so it is bitwise that of one
whole batch.  A chunk's spectrum stays within ``CHUNK_BYTES`` = 512 KB:
of the 256-512 KB swept, the budget with the fewest chunks, whose J was
within 4% of one whole batch on 41 x 41 nodes and no slower on 81 x 81
(19-24% faster on 256 x 256).  With the simulate-2d benchmark config, a
256 x 256 ``simulate`` to t = 5 peaks at 140 MB instead of 268 MB, and a
512 x 512 one to t = 1 at 316 MB instead of 619 MB.

Results are bit-reproducible across BLAS thread counts: FFTs and numpy
reductions use a fixed order, the dense products of tabulated kernels are
BLAS-free ``einsum`` loops, and the basis product L^-1 g(s - X) of J goes
to BLAS in column blocks small enough to run on one thread
(``BASIS_PRODUCT_SIZE``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        periodic axes, a fast length >= 2n - 2 on compact (zero-padded) axes."""
        if self.boundary == "periodic":
            return self.npts
        return tuple(_fft_length(2 * n - 2) for n in self.npts)

    def lag_distance(self) -> np.ndarray:
        """Length min(k, m - k) h of the lag at FFT index k, m the lattice
        length, one array axis per grid axis: the minimal image on periodic
        axes, lag k or -(m - k) on compact ones, where the even kernel lets
        lags n - 1 and -(n - 1) share an index."""
        sq = 0.0
        for ax, (m, h) in enumerate(zip(self.fft_shape, self.spacing)):
            lag = np.minimum(np.arange(m), m - np.arange(m))
            shape = [1] * self.dimension
            shape[ax] = m
            sq = sq + ((lag * h) ** 2).reshape(shape)
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

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be positive")

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
    return Quadrature(weights=weights)


@dataclass(frozen=True, eq=False)
class FieldState:
    """Initial field values sampled on the grid nodes; every run starts at t = 0."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v = v.copy() if v.flags.writeable else v
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise ValueError("field state contains non-finite values")


def kernel_spectrum(profile, grid: Grid) -> np.ndarray:
    """Real FFT of a radial profile sampled at every lag of the grid's FFT
    lattice (:meth:`Grid.lag_distance`)."""
    return np.fft.rfftn(profile(grid.lag_distance()), axes=tuple(range(grid.dimension)))


# Flat buffers, one per slot, that J's large temporaries are viewed into.
# Each is kept, and regrown to at least twice its size when outgrown, so a
# steady-state J call neither allocates nor frees pages (freed pages went
# back to the kernel and were faulted in again by the next call).  The
# package evaluates J on one thread; concurrent calls would share them.
_WORKSPACES: dict = {}

# J's batched products go through ``op.apply`` in chunks of rows
# (:attr:`DiscreteOperator.chunk_rows`): as many as keep a chunk's spectrum
# within CHUNK_BYTES, and at least CHUNK_LINES last-axis lines, because
# numpy builds an FFT plan on every call at about the cost of one line's
# transform, so chunks of one or two 1-D rows would double J's FFT time.
CHUNK_BYTES = 512 * 1024
CHUNK_LINES = 32


def _workspace(slot: str, shape: tuple, dtype=float) -> np.ndarray:
    """A ``shape`` view into the buffer of ``slot``; its contents are
    undefined, and the next request for the slot overwrites them."""
    size = math.prod(shape)
    buffer = _WORKSPACES.get(slot)
    if buffer is None or buffer.size < size:
        grown = size if buffer is None else max(size, 2 * buffer.size)
        buffer = _WORKSPACES[slot] = np.empty(grown, dtype)
    return buffer[:size].reshape(shape)


def convolve(spectrum: np.ndarray, grid: Grid, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_j c(x_i - x_j) v_j for the kernel c whose spectrum is given.

    The last axis of v runs over the grid nodes; leading axes are a batch,
    transformed whole (J passes its batches in chunks of
    :attr:`DiscreteOperator.chunk_rows`, each within ``CHUNK_BYTES`` of
    spectrum).  The transforms are those of
    ``irfftn(rfftn(v, s) * spectrum, s)``, one axis at a time in
    workspaces: in 2-D the axis-0 pair runs in place over the zero-padded
    rows, and only the n0 rows kept afterwards take the last-axis inverse.
    Returns a new array, or writes ``out``, a C-contiguous array of v's
    shape, and returns it.
    """
    batch = v.shape[:-1]
    fields = v.reshape(batch + grid.npts)
    m_last = grid.fft_shape[-1]
    lattice = batch + grid.fft_shape[:-1] + (m_last // 2 + 1,)
    transform = _workspace("spectrum", lattice, complex)
    kept = transform[..., :grid.npts[0], :] if grid.dimension == 2 else transform
    np.fft.rfft(fields, m_last, axis=-1, out=kept)
    if grid.dimension == 2:
        transform[..., grid.npts[0]:, :] = 0.0
        np.fft.fft(transform, axis=-2, out=transform)
    np.multiply(transform, spectrum, out=transform)
    if grid.dimension == 2:
        np.fft.ifft(transform, axis=-2, out=transform)
    image = _workspace("real", batch + grid.npts[:-1] + (m_last,))
    np.fft.irfft(kept, m_last, axis=-1, out=image)
    if out is None:
        return image[..., :grid.npts[-1]].copy().reshape(v.shape)
    np.copyto(out.reshape(fields.shape), image[..., :grid.npts[-1]])
    return out


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """The kernel-times-weights operator W[i, j] = w(x_i, x_j) * q_j.

    Isotropic kernels carry the cached spectrum of their node-lag
    convolution and never form W: reading their ``matrix`` raises
    ValueError.  Tabulated kernels (``spectrum`` None) are applied through
    the dense ``matrix``, built on first access.  The weights q_j are those
    of any positive measure on the nodes, not only the quadrature rule's: a
    kernel w(x, y) phi(y) is ``w`` under the weights q_j phi_j.
    """

    kernel: SynapticKernel
    grid: Grid
    quadrature: Quadrature
    spectrum: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        if self.kernel.isotropic:
            raise ValueError(f"{self.kernel.kind} kernels are applied by convolution and have "
                             "no matrix")
        nodes = self.kernel.params["nodes"]
        sampled = nodes if nodes.ndim == 2 else nodes[:, None]
        pts = self.grid.points
        if sampled.shape != pts.shape or not np.allclose(sampled, pts, atol=1e-12):
            raise ValueError("tabulated kernel was sampled on a different grid")
        m = self.kernel.params["matrix"] * self.quadrature.weights[None, :]
        if not np.all(np.isfinite(m)):
            raise ValueError("operator matrix contains non-finite entries")
        m.flags.writeable = False
        return m

    def _weighted(self, v: np.ndarray) -> np.ndarray:
        return np.multiply(v, self.quadrature.weights, out=_workspace("weighted", v.shape))

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """W @ v over the last axis of v; leading axes are a batch.  Writes
        ``out`` (C-contiguous, v's shape) when given."""
        if self.spectrum is None:
            return np.einsum("ij,...j->...i", self.matrix, v, out=out)
        return convolve(self.spectrum, self.grid, self._weighted(v), out)

    @cached_property
    def chunk_rows(self) -> int:
        """Rows per chunk of a batch: as many as fit ``CHUNK_BYTES`` of
        spectrum, and enough for ``CHUNK_LINES`` last-axis transforms.  A
        dense operator counts its product row and has no transforms."""
        if self.spectrum is None:
            return max(1, CHUNK_BYTES // (8 * self.grid.n_total))
        lines = self.grid.n_total // self.grid.npts[-1]
        return max(CHUNK_BYTES // self.spectrum.nbytes, -(-CHUNK_LINES // lines))

    @cached_property
    def _abs_spectrum(self) -> np.ndarray:
        return kernel_spectrum(lambda d: np.abs(self.kernel.profile(d)), self.grid)

    def abs_apply(self, v: np.ndarray) -> np.ndarray:
        """|W| @ |v| over the last axis of v."""
        if self.spectrum is None:
            return np.einsum("ij,...j->...i", np.abs(self.matrix), np.abs(v))
        return convolve(self._abs_spectrum, self.grid, np.abs(self._weighted(v)))


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


PLASTICITY_TOL = 1e-14
# RangeFactor.basis multiplies L^-1 by column blocks of at most this many
# multiply-adds (r^2 per column): OpenBLAS runs a GEMM of m n k <= 65,536 *
# GEMM_MULTITHREAD_THRESHOLD (4) on one thread, so the blocks round the same
# at every BLAS thread count.
BASIS_PRODUCT_SIZE = 262_144
# One factor per bucket of half-spans 2^(k/4) learning widths, k >= -32,
# tabulated at its first use; narrower fields, flat ones included, take
# bucket -32.
_FACTORS: dict = {}


def _remainder(half_span: float, m: int) -> float:
    # min over rho of 4 M(rho) rho^-m / (rho - 1), M(rho) = exp(H^2 (rho - 1/rho)^2)
    rho = 1.0 + np.geomspace(1e-4, 1e2, 400)
    log_bound = (math.log(4.0) + (half_span * (rho - 1.0 / rho)) ** 2
                 - m * np.log(rho) - np.log(rho - 1.0))
    return float(np.exp(np.min(log_bound)))


def _samples(half_span: float) -> np.ndarray:
    """The points H cos(pi j / m), j = 0..m, on [-H, H]: m = 1024, doubled
    until the :func:`_remainder` of :attr:`RangeFactor.power_bound` is below
    PLASTICITY_TOL / 100."""
    m = 1024
    while _remainder(half_span, m) > 0.01 * PLASTICITY_TOL:
        m *= 2
    return half_span * np.cos(np.pi * np.arange(m + 1) / m)


@dataclass(frozen=True, eq=False)
class RangeFactor:
    """Newton-basis factor g(a - b) ~ sum_k N_k(a) N_k(b) of the range kernel.

    a and b are normalised potentials s = (u - mid) / width in [-H, H], H
    the ``half_span``, where g(a - b) = exp(-(a - b)^2).  ``pivots`` are the
    points X the greedy pivoted Cholesky chose, ``inverse`` is L^-1 for the
    Cholesky factor L of g(X - X), and N(a) = L^-1 g(a - X) (Mueller &
    Schaback, J. Approx. Theory 161, 2009).
    """

    half_span: float
    pivots: np.ndarray
    inverse: np.ndarray

    @property
    def rank(self) -> int:
        return self.pivots.shape[0]

    def basis(self, values: np.ndarray, width: float) -> np.ndarray:
        """N_k(s) at s = (values - mid) / width, mid the centre of the
        values' range, as an (r, n) workspace valid until the next call."""
        s = (values - 0.5 * (float(values.min()) + float(values.max()))) / width
        shape = (self.rank, s.shape[0])
        diff = np.subtract(s[None, :], self.pivots[:, None], out=_workspace("differences", shape))
        np.multiply(diff, diff, out=diff)
        np.exp(np.negative(diff, out=diff), out=diff)
        basis = _workspace("basis", shape)
        step = max(1, BASIS_PRODUCT_SIZE // self.rank ** 2)
        for start in range(0, shape[1], step):
            np.matmul(self.inverse, diff[:, start:start + step], out=basis[:, start:start + step])
        return basis

    @cached_property
    def power_bound(self) -> float:
        """P-bar >= P(a) = 1 - sum_k N_k(a)^2 for every a in [-H, H].

        The residual kernel E(a, b) = g(a - b) - sum_k N_k(a) N_k(b) is
        positive semidefinite, so |E(a, b)| <= sqrt(P(a) P(b)) <= P-bar.
        P is entire: in the kernel's Hilbert space P(a) = <Q k_a, Q k_a>,
        Q the orthogonal projection away from span{k_X}, so for complex
        z = x + iy, |P(z)| <= ||k_z||^2 = g(z - conj z) = exp(4 y^2), which
        on the Bernstein ellipse E_rho of [-H, H] is at most M(rho) =
        exp(H^2 (rho - 1/rho)^2).  So the degree-m Chebyshev interpolant p
        of P at the samples H cos(pi j / m) misses P by at most
        4 M(rho) rho^-m / (rho - 1) on [-H, H] (Trefethen, Approximation
        Theory and Approximation Practice, Thm 8.2), minimised over rho, and
        |p| <= sum_j |c_j| for its coefficients c_j: P-bar is that sum plus
        the remainder.  The samples are computed the way J computes N;
        their rounding, like J's, is not bounded apart.
        """
        samples = _samples(self.half_span)  # symmetric, so mid = 0
        m = samples.size - 1
        basis = self.basis(samples, 1.0)
        power = 1.0 - np.einsum("kj,kj->j", basis, basis)
        # coefficients from the FFT of the even extension of the samples
        coefficients = np.fft.rfft(np.concatenate([power, power[-2:0:-1]])).real / m
        coefficients[[0, -1]] *= 0.5
        return float(np.sum(np.abs(coefficients))) + _remainder(self.half_span, m)


def _tabulate(half_span: float) -> RangeFactor:
    """Greedy pivoted Cholesky of g(a - b) on the sample points of [-H, H].

    Each step takes the sample where the power function P = 1 - sum_k
    N_k^2 is largest as the next pivot x and adds the Newton function
    (g(a - x) - sum_k N_k(a) N_k(x)) / sqrt(P(x)), one matrix-vector
    product over the samples, until P <= PLASTICITY_TOL at every sample
    (Harbrecht, Peters & Schneider, Appl. Numer. Math. 62, 2012).
    """
    samples = _samples(half_span)
    power = np.ones_like(samples)
    newton = np.empty((32, samples.size))
    picks = []
    while True:
        pick = int(np.argmax(power))
        if power[pick] <= PLASTICITY_TOL:
            break
        k = len(picks)
        if k == newton.shape[0]:
            newton = np.concatenate([newton, np.empty_like(newton)])
        row = newton[k]
        np.subtract(samples, samples[pick], out=row)
        np.exp(-row * row, out=row)
        row -= newton[:k, pick] @ newton[:k]
        row /= math.sqrt(power[pick])
        power -= row * row
        picks.append(pick)
    # L[j, k] = N_k(x_j); its upper triangle is zero up to rounding
    lower = np.tril(newton[:len(picks), picks].T)
    return RangeFactor(half_span=half_span, pivots=samples[picks], inverse=np.linalg.inv(lower))


def range_factor(values: np.ndarray, width: float) -> RangeFactor:
    """The factor of the smallest bucket whose half-span covers ``values``."""
    half_span = 0.5 * float(values.max() - values.min()) / width
    bucket = math.floor(4.0 * math.log2(max(half_span, 2.0 ** -8)))
    while 2.0 ** (bucket / 4) < half_span:
        bucket += 1
    factor = _FACTORS.get(bucket)
    if factor is None:
        factor = _FACTORS[bucket] = _tabulate(2.0 ** (bucket / 4))
    return factor


def apply_j_values(model: ModelSpec, op: DiscreteOperator, values: np.ndarray) -> np.ndarray:
    """Nonlinear input term: sum_j W[i,j] * (1 + gamma*g(u_i - u_j)) * f(u_j).

    J = W f + gamma * sum_k N_k(u) * W(N_k(u) f) with the :class:`RangeFactor`
    of u, on every operator; gamma = 0 gives W f.  ``values`` is one field
    (n,) or a stack (T, n) of them; at gamma = 0 the rows of the stack, and
    else the columns N_0 f, ..., N_(r-1) f, f of each field, go through
    ``op.apply`` ``op.chunk_rows`` at a time (a chunk's spectrum within
    ``CHUNK_BYTES`` = 512 KB, see the module docstring), in order.  Each
    chunk's sum over k starts from the sum so far, so the terms add in k
    order and J is bitwise that of one whole batch.
    """
    if values.ndim not in (1, 2) or values.shape[-1] != op.grid.n_total:
        raise ValueError(f"state has {values.shape} values, grid has {op.grid.n_total} nodes")
    rates = model.firing(values)
    out = np.empty_like(rates)
    chunk = op.chunk_rows
    if model.gamma == 0.0:
        stack, image = np.atleast_2d(rates), np.atleast_2d(out)
        for start in range(0, stack.shape[0], chunk):
            op.apply(stack[start:start + chunk], image[start:start + chunk])
        return out
    width = model.learning.params["width"]
    for u, f, row in zip(np.atleast_2d(values), np.atleast_2d(rates), np.atleast_2d(out)):
        factor = range_factor(u, width)
        basis = factor.basis(u, width)
        for start in range(0, factor.rank + 1, chunk):
            stop = min(start + chunk, factor.rank + 1)
            terms = min(stop, factor.rank) - start  # the chunk's N_k; the last chunk ends with f
            columns = _workspace("columns", (stop - start, u.shape[0]))
            np.multiply(basis[start:start + terms], f, out=columns[:terms])
            columns[terms:] = f
            # row 0 carries the sum over the earlier chunks
            products = _workspace("products", (stop - start + 1, u.shape[0]))
            op.apply(columns, products[1:])
            plastic = products[1:terms + 1]
            np.multiply(basis[start:start + terms], plastic, out=plastic)
            if start:
                products[0] = row
            np.add.reduce(products[0 if start else 1:terms + 1], axis=0, out=row)
        np.add(products[-1], np.multiply(row, model.gamma, out=row), out=row)
    return out


def apply_f_values(model: ModelSpec, op: DiscreteOperator, values: np.ndarray) -> np.ndarray:
    """Right-hand side of the evolution: -u + (input term)."""
    return apply_j_values(model, op, values) - values
