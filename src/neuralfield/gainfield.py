"""Learned kernels, their spectral split, and the Schrodinger cross-check.

Once the field has settled to a stationary state u_inf, the plasticity
factor freezes into the symmetric kernel G(x, y) = 1 + gamma * g(u_inf(x) -
u_inf(y)).  G is positive semidefinite (a constant kernel plus a gaussian
kernel composed with the feature map x -> u_inf(x)), so it splits into
quadrature-orthonormal eigenfunctions.  The split is taken from G's
rank-(K + 2) factor: g interpolated in u_inf at K + 1 Chebyshev points, K
from the degree rule J uses (``factor_degree``) and at least n_eigs - 2, then
a thin QR in O(n K^2); a rank above n / 4 takes the dense eigh.  The diagonal
part of the split is the pre-synaptic gain field, an array of
phi_pre(y) = K_pre * sum_i sigma_i phi_i(y)^2 that the gain-field probe takes.

For gain fields of the form (k^2 - V)/lambda together with the exponential
kernel exp(-lambda |x - y|) / (2 lambda), the stationary equation is
equivalent to the eigenproblem -u'' + V u = E u with E = k^2 - lambda^2,
because the kernel is the Green's function of (lambda^2 - d^2/dx^2).  The
cross-check below verifies that equivalence end to end on a grid for a
:func:`square_well`; :func:`schrodinger_fd` takes any V given on the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import (DiscreteOperator, FieldState, Grid, Quadrature, chebyshev_basis, convolve,
                             factor_degree, kernel_spectrum, learned_factor_bound)
from .errors import BoxTooSmallError, NoBoundStateError, NotPSDError
from .model import FiringRate, LearningKernel, ModelSpec
from .solver import SolverConfig, Trajectory, solve_global

# relative tolerance of the split's PSD check and of its residual against the dense G
MERCER_TOL = 1e-8
# largest ground-state magnitude at the box ends, relative to its peak
DECAY_TOL = 1e-6
# bisection of the cross-check's well depth: bracket width and step cap
BISECTION_TOL = 1e-8
BISECTION_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class LearnedKernel:
    """Plasticity factor frozen at a stationary state."""

    matrix: np.ndarray
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


def square_well(nodes: np.ndarray, half_width: float, height: float) -> np.ndarray:
    """V on the nodes: 0 on |x| < half_width, ``height`` outside, and the
    midpoint value on a node that sits on a jump."""
    v = np.where(np.abs(nodes) < half_width, 0.0, height)
    # midpoint value at on-node jumps restores second-order accuracy
    return np.where(np.abs(np.abs(nodes) - half_width) <= 1e-12, 0.5 * height, v)


def build_learned_kernel(u_inf, model: ModelSpec, grid: Grid, sign: str = "plus") -> LearnedKernel:
    """Freeze the plasticity factor at the stationary state array ``u_inf``.

    ``sign='minus'`` flips the modulation to 1 - gamma*g for exploration;
    the default matches the dynamics.
    """
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    if u_inf.shape != (grid.n_total,):
        raise ValueError("stationary state does not match the grid")
    diff = u_inf[:, None] - u_inf[None, :]
    s = 1.0 if sign == "plus" else -1.0
    # exactly symmetric: g is even and u_i - u_j = -(u_j - u_i) in floating point
    matrix = 1.0 + s * model.gamma * model.learning(diff)
    return LearnedKernel(matrix=matrix, gamma=model.gamma, source=u_inf,
                         learning=model.learning, sign=sign)


def learned_factor(kernel: LearnedKernel, n_eigs: int = 0) -> tuple | None:
    """F, M and the :func:`learned_factor_bound` of G ~ F M F^T, or None.

    F = [1, L], L the (n, K + 1) Lagrange basis at Chebyshev points on
    [min u_inf, max u_inf], M = blockdiag(1, +-gamma g(t_k - t_l)), or
    diag(1 +- gamma, 0, ...) for gamma = 0 or a flat field (degree 0).  K is
    the :func:`factor_degree`, at least 1 and n_eigs - 2; None when
    K + 2 > n / 4.
    """
    values = kernel.source
    span = float(values.max() - values.min()) / kernel.learning.params["width"]
    degree = factor_degree(kernel.gamma, span)
    rank = max(degree, 1, n_eigs - 2)
    if rank + 2 > values.shape[0] / 4:
        return None
    nodes, basis, _ = chebyshev_basis(values, rank)
    middle = np.zeros((rank + 2, rank + 2))
    middle[0, 0] = 1.0 if degree else kernel.diagonal_value
    if degree:
        sign = 1.0 if kernel.sign == "plus" else -1.0
        middle[1:, 1:] = sign * kernel.gamma * kernel.learning(nodes[:, None] - nodes[None, :])
    factor = np.column_stack([np.ones_like(values), basis.T])
    return factor, middle, learned_factor_bound(kernel.gamma, span, rank if degree else 0)


def mercer_decompose(kernel: LearnedKernel, quad: Quadrature, n_eigs: int = 0) -> EigenSystem:
    """Split a learned kernel into quadrature-orthonormal eigenfunctions.

    Solves the symmetric eigenproblem of D^{1/2} G D^{1/2} with D the
    diagonal of quadrature weights, then maps eigenvectors back through
    D^{-1/2}; that makes sum_i sigma_i phi_i(x) phi_i(y) reproduce G and
    <phi_i, phi_j> = delta_ij under the weighted inner product.  The kernel
    is split in O(n K^2) from its :func:`learned_factor`: with
    D^{1/2} F = Q R and R M R^T = V diag(sigma) V^T, phi = D^{-1/2} Q V.
    Factors above rank n / 4 take the dense eigh.  G is symmetric by
    construction (:func:`build_learned_kernel`).

    Raises NotPSDError when the smallest eigenvalue is more negative than
    ``MERCER_TOL`` times the largest, or when the returned pairs miss the
    dense G by more than ``MERCER_TOL`` times its norm.
    """
    sqrt_w = np.sqrt(quad.weights)
    split = learned_factor(kernel, n_eigs)
    if split is None:
        symm = sqrt_w[:, None] * kernel.matrix * sqrt_w[None, :]
        eigenvalues, vectors = np.linalg.eigh(0.5 * (symm + symm.T))
        path, bound = "dense", 0.0
    else:
        factor, middle, bound = split
        q, r = np.linalg.qr(sqrt_w[:, None] * factor)
        core = r @ middle @ r.T
        eigenvalues, small = np.linalg.eigh(0.5 * (core + core.T))
        vectors = q @ small
        path, bound = "factor", bound * float(quad.weights.sum())
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    top = float(eigenvalues[0]) if eigenvalues.size else 0.0
    bottom = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    if bottom < -MERCER_TOL * max(top, 1.0):
        raise NotPSDError(
            f"kernel is not positive semidefinite: min eigenvalue {bottom:.6g} "
            f"against max {top:.6g}",
            min_eigenvalue=bottom,
        )
    functions = vectors / sqrt_w[:, None]

    # validate against the dense weighted operator: (G phi)(x_i) = sum_j q_j G_ij phi_j
    applied = kernel.matrix @ (quad.weights[:, None] * functions)
    residual = float(np.max(np.abs(applied - functions * eigenvalues[None, :])))
    scale = max(top, 1.0)
    if residual > MERCER_TOL * scale:
        raise NotPSDError(
            f"eigendecomposition residual {residual:.3g} exceeds {MERCER_TOL:.1g} * ||G||",
            min_eigenvalue=bottom,
        )
    return EigenSystem(values=eigenvalues, functions=functions, weights=quad.weights.copy(),
                       path=path, error_bound=bound)


def reconstruct_kernel(eig: EigenSystem, rank: int | None = None) -> np.ndarray:
    """sum_i sigma_i phi_i(x) phi_i(y) truncated to the leading ``rank`` terms."""
    k = eig.values.shape[0] if rank is None else rank
    f = eig.functions[:, :k]
    return (f * eig.values[None, :k]) @ f.T


def presynaptic_gain(eig: EigenSystem, k_pre: float = 1.0) -> np.ndarray:
    """phi_pre(y) = K_pre * sum_i sigma_i |phi_i(y)|^2.

    At the factor's rank this equals K_pre times the kernel diagonal (to the
    split's error bound).  Eigenvalues below zero (roundoff residue of the
    PSD check) are clipped so the gain stays nonnegative.
    """
    if k_pre <= 0:
        raise ValueError("k_pre must be positive")
    sigma = np.clip(eig.values, 0.0, None)
    return k_pre * ((eig.functions * eig.functions) * sigma[None, :]).sum(axis=1)


def simulate_gainfield(op: DiscreteOperator, phi_pre: np.ndarray, firing: FiringRate,
                       u0: FieldState, cfg: SolverConfig) -> Trajectory:
    """Evolve the field under the effective kernel w(x, y) * phi_pre(y).

    Plasticity stays off (gamma = 0): the learned structure is frozen into
    the gain, which only the operator carries; the model keeps the raw
    kernel.  ``solve_global`` gets no constants, so it refuses picard, whose
    constants would describe the raw kernel.  Gain-field mode admits the
    linear firing rate.
    """
    model = ModelSpec(kernel=op.kernel, firing=firing, learning=LearningKernel(),
                      gamma=0.0, mode="gain-field")
    return solve_global(model, op.scaled_by_gain(phi_pre), u0, cfg)


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


class _Tridiagonal:
    """Symmetric tridiagonal matrix T with diagonal ``diag`` and every
    off-diagonal entry equal to ``off``: Sturm counts and inverse iteration.

    ``count_below(shift)`` is the number of eigenvalues below ``shift``:
    the negative pivots of the LDL^T factorization of T - shift (Sylvester's
    law of inertia), with pivots smaller than ``pivmin`` taken as -pivmin
    so a zero pivot neither divides by zero nor flips the count (Barth,
    Martin & Wilkinson, Numer. Math. 9, 1967).  ``eigenvalues`` bisects the
    lowest of them on those counts; ``eigenvector`` runs inverse iteration
    with the same factorization as a Thomas solve.
    """

    def __init__(self, diag: np.ndarray, off: float):
        self.diag = diag.tolist()
        self.off = off
        self.norm = float(np.max(np.abs(diag))) + 2.0 * abs(off)
        # Gershgorin discs hold the spectrum
        self.lower = float(diag.min()) - 2.0 * abs(off)
        self.upper = float(diag.max()) + 2.0 * abs(off)
        self.pivmin = np.finfo(float).tiny * max(1.0, off * off)

    def count_below(self, shift: float) -> int:
        count = 0
        off_sq = self.off * self.off
        pivmin = self.pivmin
        pivot = math.inf  # the first row has no off-diagonal term
        for a in self.diag:
            pivot = a - shift - off_sq / pivot
            if pivot <= pivmin:
                count += 1
                if pivot > -pivmin:
                    pivot = -pivmin
        return count

    def eigenvalues(self, k: int) -> list:
        """The k lowest eigenvalues, ascending, each bisected to a bracket of
        width 2 eps ||T||; every count also narrows the brackets above."""
        lo = [self.lower] * k
        hi = [self.upper] * k
        width = 2.0 * np.finfo(float).eps * self.norm
        for j in range(k):
            while hi[j] - lo[j] > width:
                mid = 0.5 * (lo[j] + hi[j])
                if not lo[j] < mid < hi[j]:
                    break
                below = self.count_below(mid)
                for i in range(j, k):
                    if i < below:
                        hi[i] = min(hi[i], mid)
                    else:
                        lo[i] = max(lo[i], mid)
        return [0.5 * (a + b) for a, b in zip(lo, hi)]

    def eigenvector(self, shift: float, lower_states: np.ndarray) -> np.ndarray:
        """Unit eigenvector for the eigenvalue nearest ``shift``.

        Inverse iteration from the fixed Weyl sequence x_k = 2 frac(k g) - 1,
        g = (sqrt 5 - 1) / 2, a start with no symmetry that would leave out
        the odd states.  Each step solves (T - shift) x = b by the Thomas
        algorithm, pivots below eps ||T|| raised to that size so a shift on an
        eigenvalue gives a large finite x, then removes the columns of
        ``lower_states`` (orthonormal vectors of the states below, which crowd
        close to this one above a shallow well) by Gram-Schmidt.  The sign is
        left to :func:`_on_grid`.
        """
        floor = np.finfo(float).eps * self.norm
        off_sq = self.off * self.off
        pivots = []
        pivot = math.inf
        for a in self.diag:
            pivot = a - shift - off_sq / pivot
            if abs(pivot) < floor:
                pivot = math.copysign(floor, pivot)
            pivots.append(pivot)
        # multipliers of the unit lower factor L, T - shift = L D L^T
        mult = [self.off / d for d in pivots[:-1]]
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        x = 2.0 * np.modf(np.arange(1, len(self.diag) + 1) * golden)[0] - 1.0
        # a shift within eps ||T|| of the eigenvalue damps every other
        # component by eps ||T|| / gap per step; three steps leave none
        for _ in range(3):
            rhs = x.tolist()
            y = rhs[0]
            forward = [y]
            for m, b in zip(mult, rhs[1:]):
                y = b - m * y
                forward.append(y)
            z = forward[-1] / pivots[-1]
            solved = [z]
            for m, y, d in zip(reversed(mult), reversed(forward[:-1]), reversed(pivots[:-1])):
                z = y / d - m * z
                solved.append(z)
            x = np.array(solved[::-1])
            x -= lower_states @ (lower_states.T @ x)
            x /= np.linalg.norm(x)
        return x


def _hamiltonian(potential_values: np.ndarray, dx: float) -> _Tridiagonal:
    """-d^2/dx^2 + V by three-point differences on the interior nodes
    (Dirichlet ends); ``potential_values`` holds V on the full grid."""
    return _Tridiagonal(2.0 / (dx * dx) + potential_values[1:-1], -1.0 / (dx * dx))


def _check_decay(ground: np.ndarray, potential_values: np.ndarray) -> None:
    """Raise BoxTooSmallError when the ground state has not decayed to
    ``DECAY_TOL`` of its peak at the ends of the box."""
    # a constant potential has no well to confine the state: the Dirichlet
    # walls are the physics and no boundary decay is expected
    if np.ptp(potential_values) == 0:
        return
    ground = np.abs(ground)
    edge = max(ground[0], ground[-1])
    if edge > DECAY_TOL * ground.max():
        raise BoxTooSmallError(
            f"ground state magnitude at the boundary is {edge / ground.max():.3g} "
            "of its peak; enlarge the box"
        )


def _on_grid(vectors: np.ndarray, dx: float) -> np.ndarray:
    """Interior unit vectors as full-grid columns: zero at the ends, orthonormal
    under the interior weights dx, first largest-magnitude value positive."""
    functions = np.zeros((vectors.shape[0] + 2, vectors.shape[1]))
    interior = vectors / math.sqrt(dx)
    peaks = interior[np.argmax(np.abs(interior), axis=0), np.arange(interior.shape[1])]
    functions[1:-1] = interior * np.sign(peaks)
    return functions


def schrodinger_fd(potential: np.ndarray, grid: Grid, n_states: int = 1) -> EigenSystem:
    """Lowest eigenpairs of -d^2/dx^2 + V with Dirichlet ends, V given by
    its values ``potential`` on the grid nodes.

    Standard second-order three-point discretization on the interior nodes.
    Eigenvalues are bisected on Sturm counts, eigenvectors taken by inverse
    iteration, the largest-magnitude component of each positive.
    Eigenfunctions are returned on the full grid (zero at the ends) and
    normalized against the uniform interior weights, so they are
    quadrature-orthonormal.  Raises BoxTooSmallError when the ground state
    has not decayed at the boundary.
    """
    if grid.dimension != 1 or grid.boundary != "compact":
        raise ValueError("the eigensolver runs on 1-D compact grids")
    nodes = grid.axis_nodes[0]
    dx = grid.spacing[0]
    hamiltonian = _hamiltonian(potential, dx)
    n_states = min(n_states, len(nodes) - 2)
    eigenvalues = hamiltonian.eigenvalues(n_states)
    vectors = np.zeros((len(nodes) - 2, n_states))
    for j, energy in enumerate(eigenvalues):
        vectors[:, j] = hamiltonian.eigenvector(energy, vectors[:, :j])
    _check_decay(vectors[:, 0], potential)
    weights = np.full(len(nodes), dx)
    weights[0] = weights[-1] = dx / 2.0
    return EigenSystem(values=np.array(eigenvalues), functions=_on_grid(vectors, dx),
                       weights=weights)


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


def schrodinger_cross_check(lam: float, half_width: float, grid: Grid,
                            quad: Quadrature) -> CrossCheckReport:
    """Verify the stationary equation against the eigenproblem route.

    Finds the well depth V0 solving V0 = E0(V0) + lambda^2 by bisection
    (E0 is the finite-difference ground energy of the square well of that
    depth), sets the base gain k^2 = V0 so the gain profile P = k^2 - V has
    compact support, and checks that the ground state is a fixed point of
    u -> G_lambda * (P u) in the quadrature L2 norm.  The relation
    E = k^2 - lambda^2 then holds by construction and is re-verified through
    the Rayleigh quotient.

    Each bisection probe needs only the sign of V0 - lambda^2 - E0(V0): it is
    positive exactly when the Sturm count of the well's Hamiltonian below
    V0 - lambda^2 is at least one.  The ground state at the final V0 comes
    from inverse iteration shifted at V0 - lambda^2.

    The bracket runs from just above lambda^2 (E must be a positive
    bound-state energy) to lambda^2 plus one more than the infinite well's
    ground energy.  Raises NoBoundStateError when it contains no solution,
    e.g. when the box is narrower than the well, so no node lies outside it.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    infinite_well_ground = (math.pi / (2.0 * half_width)) ** 2
    lo, hi = lam * lam + 1e-6, lam * lam + infinite_well_ground + 1.0

    nodes = grid.axis_nodes[0]
    dx = grid.spacing[0]
    # the unit-depth well; depth v0 scales it exactly
    well = square_well(nodes, half_width, 1.0)

    def bound_below(v0: float) -> bool:
        """E0(v0) < v0 - lambda^2; no decay guard, shallow wells are legal here."""
        return _hamiltonian(v0 * well, dx).count_below(v0 - lam * lam) >= 1

    if bound_below(lo) or not bound_below(hi):
        raise NoBoundStateError(
            f"no self-consistent well depth in [{lo:.6g}, {hi:.6g}]: V0 - E0(V0) - "
            "lambda^2 does not change sign from negative to positive",
            bracket=(lo, hi),
        )
    iterations = 0
    while hi - lo > BISECTION_TOL and iterations < BISECTION_MAX_ITER:
        mid = 0.5 * (lo + hi)
        if bound_below(mid):
            hi = mid
        else:
            lo = mid
        iterations += 1
    v0 = 0.5 * (lo + hi)

    ground = _hamiltonian(v0 * well, dx).eigenvector(v0 - lam * lam, np.zeros((nodes.size - 2, 0)))
    _check_decay(ground, well)
    psi = _on_grid(ground[:, None], dx)[:, 0]
    potential = v0 * well
    gain_profile = v0 - potential  # base gain k^2 = V0: compactly supported
    image = greens_convolve(lam, grid, quad.weights * gain_profile * psi)
    residual_l2 = quad.l2_norm(psi - image) / quad.l2_norm(psi)

    interior = slice(1, len(nodes) - 1)
    second = np.zeros_like(psi)
    second[interior] = (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / (dx * dx)
    hamiltonian = -second + potential * psi
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
