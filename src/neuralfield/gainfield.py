"""Learned kernels, their spectral split, and the Schrodinger cross-check.

Once the field has settled to a stationary state u_inf, the plasticity
factor freezes into the symmetric kernel G(x, y) = 1 + gamma * g(u_inf(x) -
u_inf(y)).  G is positive semidefinite (a constant kernel plus a gaussian
kernel composed with the feature map x -> u_inf(x)), so it splits into
quadrature-orthonormal eigenfunctions.  The split is taken from G's
rank-(K + 2) factor: g interpolated in u_inf at K + 1 Chebyshev points, K
from J's rank rule and at least n_eigs - 2, then a thin QR in O(n K^2);
a rank above n / 4 takes the dense eigh.  The diagonal part of the split is
the pre-synaptic gain field phi_pre(y) = K_pre * sum_i sigma_i phi_i(y)^2.

For gain fields of the form (k^2 - V)/lambda together with the exponential
kernel exp(-lambda |x - y|) / (2 lambda), the stationary equation is
equivalent to the eigenproblem -u'' + V u = E u with E = k^2 - lambda^2,
because the kernel is the Green's function of (lambda^2 - d^2/dx^2).  The
cross-check below verifies that equivalence end to end on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from .discretization import (FLAT_SPAN, DiscreteOperator, FieldState, Grid, Quadrature, chebyshev_basis,
                             chebyshev_rank, convolve, kernel_spectrum, learned_factor_bound)
from .errors import BoxTooSmallError, NoBoundStateError, NotPSDError
from .model import FiringRate, LearningKernel, ModelSpec
from .solver import SolverConfig, Trajectory, solve_global


@dataclass(frozen=True, eq=False)
class LearnedKernel:
    """Plasticity factor frozen at a stationary state."""

    matrix: np.ndarray
    grid: Grid
    gamma: float
    source: np.ndarray
    learning: LearningKernel
    sign: str = "plus"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def diagonal_value(self) -> float:
        return 1.0 + self.gamma if self.sign == "plus" else 1.0 - self.gamma


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenpairs orthonormal under the quadrature inner product."""

    values: np.ndarray       # eigenvalues; descending for kernel splits,
    functions: np.ndarray    # ascending for Schrodinger operators
    weights: np.ndarray      # (n, k) columns are eigenfunctions on the grid
    path: str = "dense"      # "factor" for the low-rank split of a learned kernel
    error_bound: float = 0.0  # a-priori bound on |sigma_i - sigma_i(G)| of a factor split

    def gram(self) -> np.ndarray:
        return self.functions.T @ (self.weights[:, None] * self.functions)


@dataclass(frozen=True, eq=False)
class GainField:
    """Pre-synaptic multiplicative gain extracted from a kernel spectrum."""

    phi_pre: np.ndarray
    k_pre: float


@dataclass(frozen=True)
class PotentialSpec:
    """Potential for the stationary cross-check.

    square-well: V = 0 on |x| < half_width, ``height`` outside.  With the
    base gain k^2 equal to the height, the gain profile k^2 - V is compactly
    supported, which is what makes the stationary integral well defined.
    ``k_squared`` is the base gain, needed only for the gain profile.
    """

    shape: str = "square-well"
    half_width: float = 1.0
    height: float = 2.0
    values: np.ndarray | None = None
    k_squared: float | None = None

    def __post_init__(self):
        if self.shape not in ("square-well", "custom-tabulated"):
            raise ValueError(f"unknown potential shape {self.shape!r}")
        if self.shape == "square-well" and self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.shape == "custom-tabulated" and self.values is None:
            raise ValueError("custom-tabulated potential needs values")

    def gain_profile(self, nodes: np.ndarray) -> np.ndarray:
        """P(x) = k^2 - V(x)."""
        if self.k_squared is None:
            raise ValueError("gain profile needs k_squared")
        return self.k_squared - self.on_nodes(nodes)

    def on_nodes(self, nodes: np.ndarray) -> np.ndarray:
        if self.shape == "square-well":
            v = np.where(np.abs(nodes) < self.half_width, 0.0, self.height)
            # midpoint value at on-node jumps restores second-order accuracy
            v = np.where(np.abs(np.abs(nodes) - self.half_width) <= 1e-12,
                         0.5 * self.height, v)
            return v
        v = np.asarray(self.values, dtype=float)
        if v.shape != nodes.shape:
            raise ValueError("tabulated potential does not match the grid")
        return v


def build_learned_kernel(u_inf, model: ModelSpec, grid: Grid, sign: str = "plus") -> LearnedKernel:
    """Freeze the plasticity factor at a stationary state.

    ``sign='minus'`` flips the modulation to 1 - gamma*g for exploration;
    the default matches the dynamics.
    """
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    values = u_inf.values if isinstance(u_inf, FieldState) else np.asarray(u_inf, dtype=float)
    if values.shape != (grid.n_total,):
        raise ValueError("stationary state does not match the grid")
    diff = values[:, None] - values[None, :]
    s = 1.0 if sign == "plus" else -1.0
    # exactly symmetric: g is even and u_i - u_j = -(u_j - u_i) in floating point
    matrix = 1.0 + s * model.gamma * model.learning(diff)
    return LearnedKernel(matrix=matrix, grid=grid, gamma=model.gamma, source=values,
                         learning=model.learning, sign=sign)


def learned_factor(kernel: LearnedKernel, n_eigs: int = 0) -> tuple | None:
    """F, M and the :func:`learned_factor_bound` of G ~ F M F^T, or None.

    F = [1, L], L the (n, K + 1) Lagrange basis at Chebyshev points on
    [min u_inf, max u_inf], M = blockdiag(1, +-gamma g(t_k - t_l)), or
    diag(1 +- gamma, 0, ...) for gamma = 0 or a flat field.  K is
    max(chebyshev_rank(span / 2), n_eigs - 2); None when K + 2 > n / 4.
    """
    values = kernel.source
    span = float(values.max() - values.min()) / kernel.learning.params["width"]
    constant = kernel.gamma == 0.0 or span <= FLAT_SPAN
    rank = max(1 if constant else chebyshev_rank(0.5 * span), n_eigs - 2)
    if rank + 2 > values.shape[0] / 4:
        return None
    nodes, basis = chebyshev_basis(values, rank)
    middle = np.zeros((rank + 2, rank + 2))
    middle[0, 0] = kernel.diagonal_value if constant else 1.0
    if not constant:
        sign = 1.0 if kernel.sign == "plus" else -1.0
        middle[1:, 1:] = sign * kernel.gamma * kernel.learning(nodes[:, None] - nodes[None, :])
    factor = np.column_stack([np.ones_like(values), basis.T])
    return factor, middle, learned_factor_bound(kernel.gamma, span, 0 if constant else rank)


def mercer_decompose(kernel, quad: Quadrature, psd_tol: float = 1e-8,
                     residual_tol: float = 1e-8, n_eigs: int = 0) -> EigenSystem:
    """Split a symmetric kernel into quadrature-orthonormal eigenfunctions.

    Solves the symmetric eigenproblem of D^{1/2} G D^{1/2} with D the
    diagonal of quadrature weights, then maps eigenvectors back through
    D^{-1/2}; that makes sum_i sigma_i phi_i(x) phi_i(y) reproduce G and
    <phi_i, phi_j> = delta_ij under the weighted inner product.  A learned
    kernel is split in O(n K^2) from its :func:`learned_factor`: with
    D^{1/2} F = Q R and R M R^T = V diag(sigma) V^T, phi = D^{-1/2} Q V.
    Ndarray kernels and factors above rank n / 4 take the dense eigh.

    Raises NotPSDError when the smallest eigenvalue is more negative than
    psd_tol times the largest, or when the returned pairs miss the dense G.
    """
    g_matrix = kernel.matrix if isinstance(kernel, LearnedKernel) else np.asarray(kernel, dtype=float)
    if g_matrix.shape[0] != g_matrix.shape[1]:
        raise ValueError("kernel matrix must be square")
    # upper-triangle row blocks, so no n x n work array
    if max(float(np.max(np.abs(g_matrix[i:i + 128, i:] - g_matrix[i:, i:i + 128].T)))
           for i in range(0, g_matrix.shape[0], 128)) > 1e-10:
        raise ValueError("kernel matrix must be symmetric")
    sqrt_w = np.sqrt(quad.weights)
    split = learned_factor(kernel, n_eigs) if isinstance(kernel, LearnedKernel) else None
    if split is None:
        symm = sqrt_w[:, None] * g_matrix * sqrt_w[None, :]
        eigenvalues, vectors = eigh(0.5 * (symm + symm.T))
        path, bound = "dense", 0.0
    else:
        factor, middle, bound = split
        q, r = np.linalg.qr(sqrt_w[:, None] * factor)
        core = r @ middle @ r.T
        eigenvalues, small = eigh(0.5 * (core + core.T))
        vectors = q @ small
        path, bound = "factor", bound * float(quad.weights.sum())
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    top = float(eigenvalues[0]) if eigenvalues.size else 0.0
    bottom = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    if bottom < -psd_tol * max(top, 1.0):
        raise NotPSDError(
            f"kernel is not positive semidefinite: min eigenvalue {bottom:.6g} "
            f"against max {top:.6g}",
            min_eigenvalue=bottom,
        )
    functions = vectors / sqrt_w[:, None]

    # validate against the dense weighted operator: (G phi)(x_i) = sum_j q_j G_ij phi_j
    applied = g_matrix @ (quad.weights[:, None] * functions)
    residual = float(np.max(np.abs(applied - functions * eigenvalues[None, :])))
    scale = max(top, 1.0)
    if residual > residual_tol * scale:
        raise NotPSDError(
            f"eigendecomposition residual {residual:.3g} exceeds {residual_tol:.1g} * ||G||",
            min_eigenvalue=bottom,
        )
    return EigenSystem(values=eigenvalues, functions=functions, weights=quad.weights.copy(),
                       path=path, error_bound=bound)


def reconstruct_kernel(eig: EigenSystem, rank: int | None = None) -> np.ndarray:
    """sum_i sigma_i phi_i(x) phi_i(y) truncated to the leading ``rank`` terms."""
    k = eig.values.shape[0] if rank is None else rank
    f = eig.functions[:, :k]
    return (f * eig.values[None, :k]) @ f.T


def presynaptic_gain(eig: EigenSystem, k_pre: float = 1.0) -> GainField:
    """phi_pre(y) = K_pre * sum_i sigma_i |phi_i(y)|^2.

    At the factor's rank this equals K_pre times the kernel diagonal (to the
    split's error bound).  Eigenvalues below zero (roundoff residue of the
    PSD check) are clipped so the gain stays nonnegative.
    """
    if k_pre <= 0:
        raise ValueError("k_pre must be positive")
    sigma = np.clip(eig.values, 0.0, None)
    phi = k_pre * ((eig.functions * eig.functions) * sigma[None, :]).sum(axis=1)
    return GainField(phi_pre=phi, k_pre=k_pre)


def simulate_gainfield(op: DiscreteOperator, gain: GainField, firing: FiringRate,
                       u0: FieldState, cfg: SolverConfig) -> Trajectory:
    """Evolve the field under the effective kernel w(x, y) * phi_pre(y).

    Plasticity stays off (gamma = 0): the learned structure is frozen into
    the gain, which only the operator carries; the model keeps the raw
    kernel.  ``picard`` is refused, since its segment constants come from
    the model's kernel.  Gain-field mode admits the linear firing rate.
    """
    if cfg.method == "picard":
        raise ValueError("gain-field runs take exp-euler or rk4: picard constants "
                         "would describe the raw kernel, not the gained one")
    model = ModelSpec(kernel=op.kernel, firing=firing, learning=LearningKernel(),
                      gamma=0.0, mode="gain-field")
    return solve_global(model, op.scaled_by_gain(gain.phi_pre), u0, cfg)


def greens_convolve(lam: float, grid: Grid, values: np.ndarray) -> np.ndarray:
    """sum_j G(x_i - x_j) values_j for the Green's function of
    (lambda^2 - d^2/dx^2), G(x) = exp(-lambda|x|) / (2 lambda)."""
    spectrum = kernel_spectrum(lambda d: np.exp(-lam * d) / (2.0 * lam), grid)
    return convolve(spectrum, grid, values)


def greens_identity_check(lam: float, grid: Grid, quad: Quadrature, test_values=None) -> float:
    """Max interior residual of (lambda^2 - D^2)(G * h) - h.

    The identity is exact for the continuous convolution; on the grid the
    residual is quadrature plus finite-difference error and decays at second
    order under refinement.
    """
    if grid.dimension != 1 or grid.boundary != "compact":
        raise ValueError("the identity check runs on 1-D compact grids")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    nodes = grid.axis_nodes[0]
    h_vals = np.exp(-nodes ** 2) if test_values is None else np.asarray(test_values, dtype=float)
    conv = greens_convolve(lam, grid, quad.weights * h_vals)
    dx = grid.spacing[0]
    second = (conv[:-2] - 2.0 * conv[1:-1] + conv[2:]) / (dx * dx)
    residual = lam * lam * conv[1:-1] - second - h_vals[1:-1]
    return float(np.max(np.abs(residual)))


def schrodinger_fd(potential: PotentialSpec, grid: Grid, n_states: int = 1,
                   boundary_tol: float = 1e-6) -> EigenSystem:
    """Lowest eigenpairs of -d^2/dx^2 + V with Dirichlet ends.

    Standard second-order three-point discretization on the interior nodes.
    Eigenfunctions are returned on the full grid (zero at the ends) and
    normalized against the uniform interior weights, so they are
    quadrature-orthonormal.  Raises BoxTooSmallError when the ground state
    has not decayed at the boundary.
    """
    if grid.dimension != 1 or grid.boundary != "compact":
        raise ValueError("the eigensolver runs on 1-D compact grids")
    nodes = grid.axis_nodes[0]
    dx = grid.spacing[0]
    v = potential.on_nodes(nodes)
    interior = slice(1, len(nodes) - 1)
    diag = 2.0 / (dx * dx) + v[interior]
    off = np.full(len(nodes) - 3, -1.0 / (dx * dx))
    n_states = min(n_states, diag.shape[0])
    eigenvalues, vectors = eigh_tridiagonal(diag, off, select="i",
                                            select_range=(0, n_states - 1))
    # euclidean-orthonormal -> orthonormal under interior weights dx
    vectors = vectors / math.sqrt(dx)
    # a constant potential has no well to confine the state: the Dirichlet
    # walls are the physics and no boundary decay is expected
    if boundary_tol is not None and np.ptp(v) > 0:
        ground = np.abs(vectors[:, 0])
        edge = max(ground[0], ground[-1])
        if edge > boundary_tol * ground.max():
            raise BoxTooSmallError(
                f"ground state magnitude at the boundary is {edge / ground.max():.3g} "
                "of its peak; enlarge the box"
            )
    functions = np.zeros((len(nodes), n_states))
    functions[interior] = vectors
    weights = np.full(len(nodes), dx)
    weights[0] = weights[-1] = dx / 2.0
    return EigenSystem(values=eigenvalues, functions=functions, weights=weights)


@dataclass(frozen=True)
class CrossCheckReport:
    """Self-consistent well depth and the residual of the integral form."""

    lam: float
    v0: float
    k_squared: float
    energy: float
    residual_l2: float
    rayleigh_quotient: float
    bisection_iterations: int

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "V0": self.v0,
            "k2": self.k_squared,
            "E": self.energy,
            "residual_l2": self.residual_l2,
            "rayleigh_quotient": self.rayleigh_quotient,
            "bisection_iterations": self.bisection_iterations,
        }


def _ground_energy(v0: float, half_width: float, grid: Grid,
                   boundary_tol: float | None = 1e-6) -> tuple:
    pot = PotentialSpec(shape="square-well", half_width=half_width, height=v0)
    eig = schrodinger_fd(pot, grid, n_states=1, boundary_tol=boundary_tol)
    return float(eig.values[0]), eig.functions[:, 0]


def schrodinger_cross_check(lam: float, half_width: float, grid: Grid, quad: Quadrature,
                            v0_bracket: tuple | None = None, tol: float = 1e-8,
                            max_iter: int = 200) -> CrossCheckReport:
    """Verify the stationary equation against the eigenproblem route.

    Finds the well depth V0 solving V0 = E0(V0) + lambda^2 by bisection
    (E0 is the finite-difference ground energy of the square well of that
    depth), sets the base gain k^2 = V0 so the gain profile P = k^2 - V has
    compact support, and checks that the ground state is a fixed point of
    u -> G_lambda * (P u) in the quadrature L2 norm.  The relation
    E = k^2 - lambda^2 then holds by construction and is re-verified through
    the Rayleigh quotient.

    Raises NoBoundStateError when the bracket contains no solution, e.g.
    when the caller pins the search below lambda^2 where E = V0 - lambda^2
    would not be a positive bound-state energy.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    infinite_well_ground = (math.pi / (2.0 * half_width)) ** 2
    if v0_bracket is None:
        v0_bracket = (lam * lam + 1e-6, lam * lam + infinite_well_ground + 1.0)
    lo, hi = float(v0_bracket[0]), float(v0_bracket[1])
    if not hi > lo > 0:
        raise ValueError("bracket must satisfy 0 < lo < hi")

    def gap(v0: float) -> float:
        # sign probe only: skip the decay guard, shallow wells are legal here
        energy, _ = _ground_energy(v0, half_width, grid, boundary_tol=None)
        return v0 - energy - lam * lam

    gap_lo, gap_hi = gap(lo), gap(hi)
    if not gap_lo < 0 < gap_hi:
        raise NoBoundStateError(
            f"no self-consistent well depth in [{lo:.6g}, {hi:.6g}]: "
            f"gap endpoints {gap_lo:.6g}, {gap_hi:.6g}",
            bracket=(lo, hi),
        )
    iterations = 0
    while hi - lo > tol and iterations < max_iter:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    v0 = 0.5 * (lo + hi)

    _, psi = _ground_energy(v0, half_width, grid)
    nodes = grid.axis_nodes[0]
    pot = PotentialSpec(shape="square-well", half_width=half_width, height=v0, k_squared=v0)
    gain_profile = pot.gain_profile(nodes)  # compactly supported
    image = greens_convolve(lam, grid, quad.weights * gain_profile * psi)
    residual_l2 = quad.l2_norm(psi - image) / quad.l2_norm(psi)

    dx = grid.spacing[0]
    interior = slice(1, len(nodes) - 1)
    second = np.zeros_like(psi)
    second[interior] = (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / (dx * dx)
    hamiltonian = -second + pot.on_nodes(nodes) * psi
    rayleigh = float(np.sum(psi * hamiltonian) / np.sum(psi * psi))

    return CrossCheckReport(
        lam=lam,
        v0=v0,
        k_squared=v0,
        energy=v0 - lam * lam,
        residual_l2=residual_l2,
        rayleigh_quotient=rayleigh,
        bisection_iterations=iterations,
    )
