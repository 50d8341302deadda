"""Learned kernels, their spectral split, and the Schrodinger cross-check.

Once the field has settled to a stationary state u_inf, the plasticity
factor freezes into the symmetric kernel G(x, y) = 1 + gamma * g(u_inf(x) -
u_inf(y)), kept as that state and never as an n x n array.  G is positive
semidefinite (a constant kernel plus a gaussian kernel composed with the
feature map x -> u_inf(x)), so it splits into quadrature-orthonormal
eigenfunctions.  The split is taken on every grid and every state, flat
ones included, from the factor J uses: G ~ F M F^T with F = [1, N], N the
Newton basis of u_inf's :class:`~.discretization.RangeFactor`, and
M = diag(1, gamma I), PSD by construction (gamma = 0 leaves F = [1]); then
a thin QR in O(n r^2).  Its residual check reads G r + 1 rows at a time.
The split's diagonal sum_i sigma_i phi_i(y)^2 is G(y, y); the pre-synaptic
gain phi_pre(y) = K_pre G(y, y) that the gain-field probe takes is read
from G's closed form.

For gain fields of the form (k^2 - V)/lambda together with the exponential
kernel exp(-lambda |x - y|) / (2 lambda), the stationary equation is
equivalent to the eigenproblem -u'' + V u = E u with E = k^2 - lambda^2,
because the kernel is the Green's function of (lambda^2 - d^2/dx^2).  The
cross-check below verifies that equivalence end to end on a grid for a
:func:`square_well`; :func:`schrodinger_fd` takes any V given on the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .discretization import (DiscreteOperator, FieldState, Grid, Quadrature, convolve, kernel_spectrum,
                             range_factor)
from .errors import BoxTooSmallError, NoBoundStateError, NotPSDError
from .model import FiringRate, LearningKernel, ModelSpec
from .solver import SolverConfig, Trajectory, solve_global

# relative tolerance of the split's PSD check and of its residual against G
MERCER_TOL = 1e-8
# largest ground-state magnitude near the box ends, relative to its peak
DECAY_TOL = 1e-6
# the share of the box on each side where the ground state must have decayed
DECAY_MARGIN = 0.05


@dataclass(frozen=True, eq=False)
class LearnedKernel:
    """Plasticity factor frozen at a stationary state: G_ij = 1 + coupling * g(u_i - u_j)."""

    source: np.ndarray    # u_inf on the nodes, read-only
    learning: LearningKernel
    coupling: float       # gamma


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenpairs orthonormal under the quadrature inner product."""

    values: np.ndarray       # descending for kernel splits, ascending for Schrodinger
    functions: np.ndarray    # (n, k) columns are eigenfunctions on the grid
    error_bound: float = 0.0  # a-priori bound on |sigma_i - sigma_i(G)| of a factor split


def square_well(nodes: np.ndarray, half_width: float, height: float) -> np.ndarray:
    """V on the nodes: 0 on |x| < half_width, ``height`` outside, and the
    midpoint value on a node that sits on a jump."""
    v = np.where(np.abs(nodes) < half_width, 0.0, height)
    # midpoint value at on-node jumps restores second-order accuracy
    return np.where(np.abs(np.abs(nodes) - half_width) <= 1e-12, 0.5 * height, v)


def build_learned_kernel(u_inf, model: ModelSpec, grid: Grid) -> LearnedKernel:
    """Freeze the plasticity factor at the stationary state array ``u_inf``,
    kept as a read-only copy."""
    # always a copy: a read-only view can still have a writeable base
    source = np.array(u_inf, dtype=float)
    if source.shape != (grid.n_total,):
        raise ValueError("stationary state does not match the grid")
    source.flags.writeable = False
    return LearnedKernel(source=source, learning=model.learning, coupling=model.gamma)


def learned_factor(kernel: LearnedKernel, n_eigs: int = 0) -> tuple:
    """F, the diagonal of M, and a bound on max |G - F M F^T|.

    F = [1, N] with N the (n, r) Newton basis of the source's
    :func:`~.discretization.range_factor` and M = diag(1, gamma I); gamma = 0
    gives F = [1], M = (1).  The bound is gamma times the factor's
    :attr:`~.discretization.RangeFactor.power_bound`.  F takes zero columns
    (and M zeros) up to min(n_eigs, n) columns, so the split returns at
    least that many pairs.
    """
    values = kernel.source
    width = kernel.learning.params["width"]
    factor = None if kernel.coupling == 0.0 else range_factor(values, width)
    rank = 0 if factor is None else factor.rank
    bound = 0.0 if factor is None else kernel.coupling * factor.power_bound
    columns = np.zeros((values.shape[0], max(rank + 1, min(n_eigs, values.shape[0]))))
    columns[:, 0] = 1.0
    middle = np.zeros(columns.shape[1])
    middle[0] = 1.0
    if rank:
        columns[:, 1:rank + 1] = factor.basis(values, width).T
        middle[1:rank + 1] = kernel.coupling
    return columns, middle, bound


def mercer_decompose(kernel: LearnedKernel, quad: Quadrature, n_eigs: int = 0) -> EigenSystem:
    """Split a learned kernel into quadrature-orthonormal eigenfunctions.

    Solves the symmetric eigenproblem of D^{1/2} G D^{1/2} with D the
    diagonal of quadrature weights, then maps eigenvectors back through
    D^{-1/2}; that makes sum_i sigma_i phi_i(x) phi_i(y) reproduce G and
    <phi_i, phi_j> = delta_ij under the weighted inner product.  The kernel
    is split in O(n r^2) from its :func:`learned_factor`, on every grid: with
    D^{1/2} F = Q R and R M R^T = V diag(sigma) V^T, phi = D^{-1/2} Q V.
    |G - F M F^T| <= e entrywise gives ||D^{1/2} (G - F M F^T) D^{1/2}||_2
    <= e |Omega| (Frobenius), so by Weyl each sigma_i moves by at most
    that, the returned ``error_bound``.
    G is symmetric by construction (:func:`build_learned_kernel`).

    Raises NotPSDError when the smallest eigenvalue is more negative than
    ``MERCER_TOL`` times the largest, or when the returned pairs miss G by
    more than ``MERCER_TOL`` times its norm on any row; G is read in row
    blocks of the factor's width, so no n x n array is formed.
    """
    sqrt_w = np.sqrt(quad.weights)
    factor, middle, bound = learned_factor(kernel, n_eigs)
    q, r = np.linalg.qr(sqrt_w[:, None] * factor)
    core = (r * middle) @ r.T
    eigenvalues, small = np.linalg.eigh(0.5 * (core + core.T))
    vectors = q @ small
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    top, bottom = float(eigenvalues[0]), float(eigenvalues[-1])
    if bottom < -MERCER_TOL * max(top, 1.0):
        raise NotPSDError(
            f"kernel is not positive semidefinite: min eigenvalue {bottom:.6g} "
            f"against max {top:.6g}")
    functions = vectors / sqrt_w[:, None]

    # validate against G: (G phi)(x_i) = sum_j q_j G_ij phi_j, G from its closed
    # form, exactly symmetric: g is even and u_i - u_j = -(u_j - u_i) in floating point
    weighted = quad.weights[:, None] * functions
    residual = 0.0
    for start in range(0, functions.shape[0], factor.shape[1]):
        rows = slice(start, start + factor.shape[1])
        block = kernel.learning.in_place(np.subtract.outer(kernel.source[rows], kernel.source))
        block *= kernel.coupling
        block += 1.0
        miss = block @ weighted - functions[rows] * eigenvalues
        residual = max(residual, float(np.max(np.abs(miss))))
    scale = max(top, 1.0)
    if residual > MERCER_TOL * scale:
        raise NotPSDError(
            f"eigendecomposition residual {residual:.3g} exceeds {MERCER_TOL:.1g} * ||G||")
    return EigenSystem(values=eigenvalues, functions=functions,
                       error_bound=bound * float(quad.weights.sum()))


def presynaptic_gain(kernel: LearnedKernel, k_pre: float = 1.0) -> np.ndarray:
    """phi_pre(y) = K_pre G(y, y) = K_pre (1 + gamma g(0)) at every node.

    The Mercer sum K_pre sum_i sigma_i phi_i(y)^2 equals this to the split's
    error bound; the closed form has no rounding spread across nodes.
    """
    if k_pre <= 0:
        raise ValueError("k_pre must be positive")
    diagonal = kernel.learning.in_place(kernel.source - kernel.source)
    return k_pre * (1.0 + kernel.coupling * diagonal)


def simulate_gainfield(op: DiscreteOperator, phi_pre: np.ndarray, firing: FiringRate,
                       u0: FieldState, cfg: SolverConfig) -> Trajectory:
    """Evolve the field under the effective kernel w(x, y) * phi_pre(y).

    Plasticity stays off (gamma = 0): the learned structure is frozen into
    the gain, taken as the measure phi_pre(y) dy, so the operator is ``op``
    under the quadrature weights q_j phi_pre_j (phi_pre must be positive);
    the model keeps the raw kernel.  ``solve_global`` gets no constants, so
    it refuses picard, whose constants would describe the raw kernel.
    Gain-field mode admits the linear firing rate.
    """
    model = ModelSpec(kernel=op.kernel, firing=firing, learning=LearningKernel(),
                      gamma=0.0, mode="gain-field")
    measure = Quadrature(op.quadrature.weights * phi_pre)
    return solve_global(model, replace(op, quadrature=measure), u0, cfg)


def greens_convolve(lam: float, grid: Grid, values: np.ndarray) -> np.ndarray:
    """sum_j G(x_i - x_j) values_j for the Green's function of
    (lambda^2 - d^2/dx^2), G(x) = exp(-lambda|x|) / (2 lambda)."""
    spectrum = kernel_spectrum(lambda d: np.exp(-lam * d) / (2.0 * lam), grid)
    return convolve(spectrum, grid, values)


class _Tridiagonal:
    """Symmetric tridiagonal matrix T with diagonal ``diag`` and off-diagonal
    ``off`` (one entry per adjacent row pair): Sturm counts and inverse
    iteration.

    ``count_below(shift)`` is the number of eigenvalues below ``shift``:
    the negative pivots of the LDL^T factorization of T - shift (Sylvester's
    law of inertia), with pivots smaller than ``pivmin`` taken as -pivmin
    so a zero pivot neither divides by zero nor flips the count (Barth,
    Martin & Wilkinson, Numer. Math. 9, 1967).  ``eigenvalues`` bisects the
    lowest eigenvalues on those counts; ``eigenvector`` runs inverse
    iteration with the factorization's pivots as a Thomas solve.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        self.diag = diag
        self.off = off.tolist()
        # each row's diagonal entry and squared entry left of it, none on the first
        off_sq = [0.0] + (off * off).tolist()
        self.rows = list(zip(diag.tolist(), off_sq))
        self.pivmin = np.finfo(float).tiny * max(1.0, max(off_sq))

    def _radius(self) -> np.ndarray:
        """Each row's off-diagonal radius: an end row has one neighbour, a
        single row none."""
        off = np.abs(self.off)
        return np.concatenate([off, [0.0]]) + np.concatenate([[0.0], off])

    @cached_property
    def norm(self) -> float:
        """||T|| in the infinity norm, taken on first use: a Sturm count
        needs none."""
        return float(np.max(np.abs(self.diag) + self._radius()))

    def count_below(self, shift: float) -> int:
        pivmin = self.pivmin
        count = 0
        pivot = math.inf  # the first row has no off-diagonal term
        for a, off_sq in self.rows:
            pivot = a - shift - off_sq / pivot
            if pivot <= pivmin:
                if pivot > -pivmin:
                    pivot = -pivmin
                count += 1
        return count

    def eigenvalues(self, k: int, bracket=None) -> list:
        """The k lowest eigenvalues, ascending, each bisected to a bracket of
        width 2 eps ||T||; every count also narrows the brackets above.
        ``bracket`` is an interval (lo, hi) known to hold all k; by default
        the Gershgorin discs, which hold the whole spectrum."""
        if bracket is None:
            diag, radius = self.diag, self._radius()
            bracket = float(np.min(diag - radius)), float(np.max(diag + radius))
        lo, hi = [bracket[0]] * k, [bracket[1]] * k
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
        # the pivots D and multipliers of the unit lower factor L, T - shift = L D L^T
        floor = np.finfo(float).eps * self.norm
        pivots = []
        pivot = math.inf
        for a, off_sq in self.rows:
            pivot = a - shift - off_sq / pivot
            if abs(pivot) < floor:
                pivot = math.copysign(floor, pivot)
            pivots.append(pivot)
        mult = [e / d for e, d in zip(self.off, pivots)]
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        x = 2.0 * np.modf(np.arange(1, self.diag.size + 1) * golden)[0] - 1.0
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
    diag = 2.0 / (dx * dx) + potential_values[1:-1]
    return _Tridiagonal(diag, np.full(diag.size - 1, -1.0 / (dx * dx)))


class _CondensedWell:
    """The cross-check's depth problem on the well's core: the depths v0 at
    which H(v0) - (v0 - lambda^2) is singular are the eigenvalues of the
    symmetric tridiagonal ``core``.

    With T the three-point -d^2/dx^2 and ``well`` the unit-depth square well
    on the full grid, that matrix is T + lambda^2 - v0 D on the interior
    nodes, D = diag(1 - well).  Where D = 0 (the exterior) its rows are two
    constant chains T + lambda^2 that no depth changes.  Each chain is
    factored once from its box end toward the well and leaves the single
    correction -b^2/p on the end row of the core next to it, b = -1/dx^2
    the off-diagonal entry; the core spans the rows from the first to the
    last with D > 0.  Both chains share the diagonal a = 2/dx^2 + lambda^2
    = 2|b| cosh t, t = 2 asinh(lambda dx / 2), so their LDL^T pivots solve
    p_0 = a, p_k = a - b^2 / p_(k-1) in closed form:
    p_k = |b| sinh((k + 2) t) / sinh((k + 1) t)
    = |b| (cosh t + sinh t coth((k + 1) t)).  The corrected core A is the
    Schur complement of the chains, and the chains are positive definite
    (diagonally dominant), so by Haynsworth's inertia additivity (Linear
    Algebra Appl. 1, 1968) A - v0 D_c has exactly as many negative
    eigenvalues as the whole matrix, D_c the core's part of D.  By Sylvester's law of inertia that is the
    number of eigenvalues below v0 of ``core`` = D_c^{-1/2} A D_c^{-1/2}.
    An eigenvector y of ``core`` gives x = D_c^{-1/2} y on the core, which
    :meth:`extend` carries to the exterior by the chains' back substitution
    x_k = -b x_(k +- 1) / p_k.  ``first`` and ``last`` count the exterior
    rows left and right of the core.
    """

    def __init__(self, well: np.ndarray, lam: float, dx: float):
        inside = 1.0 - well[1:-1]  # D on the interior nodes: 1 inside, 1/2 on an edge node
        rows = np.flatnonzero(inside > 0.0)
        if rows.size == 0:
            raise NoBoundStateError(
                "no interior node lies inside the well: T + lambda^2 is positive definite at "
                "every depth, so no depth has a bound state")
        self.first, stop = int(rows[0]), int(rows[-1]) + 1
        self.last = inside.size - stop  # exterior rows right of the core
        off = -1.0 / (dx * dx)
        inside = inside[self.first:stop]
        exterior = 2.0 / (dx * dx) + lam * lam  # the diagonal where D = 0
        t = 2.0 * math.asinh(0.5 * lam * dx)
        pivots = -off * (math.cosh(t) + math.sinh(t) / np.tanh(
            t * np.arange(1, max(self.first, self.last) + 1)))
        # one step of each chain's back substitution: x_k / x_(k +- 1), box end last
        self.left_decay = -off / pivots[:self.first][::-1]
        self.right_decay = -off / pivots[:self.last][::-1]
        # A: T + lambda^2 on the core with the chains' corrections on its end rows
        base = np.full(inside.size, exterior)
        if self.first:
            base[0] -= off * off / pivots[self.first - 1]
        if self.last:
            base[-1] -= off * off / pivots[self.last - 1]
        self.scale = 1.0 / np.sqrt(inside)  # D_c^{-1/2}
        self.core = _Tridiagonal(base / inside, off / np.sqrt(inside[:-1] * inside[1:]))

    def extend(self, vector: np.ndarray) -> np.ndarray:
        """Unit vector on the interior nodes from an eigenvector of ``core``:
        D_c^{-1/2} ``vector`` on the core, extended outward."""
        core = self.scale * vector
        ground = np.concatenate([(core[0] * np.cumprod(self.left_decay))[::-1], core,
                                 core[-1] * np.cumprod(self.right_decay)])
        return ground / np.linalg.norm(ground)


def _check_decay(ground: np.ndarray, potential_values: np.ndarray) -> None:
    """Raise BoxTooSmallError when the ground state has not decayed to
    ``DECAY_TOL`` of its peak over the outer ``DECAY_MARGIN`` of the box on
    each side.  A margin of the box, not the end nodes, which the Dirichlet
    walls pull toward zero in proportion to dx, keeps the verdict the same
    on every grid."""
    # a constant potential has no well to confine the state: the Dirichlet
    # walls are the physics and no boundary decay is expected
    if np.ptp(potential_values) == 0:
        return
    ground = np.abs(ground)
    margin = max(1, math.ceil(DECAY_MARGIN * ground.size))
    edge = max(ground[:margin].max(), ground[-margin:].max())
    if edge > DECAY_TOL * ground.max():
        raise BoxTooSmallError(
            f"ground state magnitude near the boundary is {edge / ground.max():.3g} "
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
    return EigenSystem(values=np.array(eigenvalues), functions=_on_grid(vectors, dx))


def schrodinger_cross_check(lam: float, half_width: float, grid: Grid,
                            quad: Quadrature) -> tuple:
    """Verify the stationary equation against the eigenproblem route.

    Finds the well depth V0 solving V0 = E0(V0) + lambda^2 (E0 is the
    finite-difference ground energy of the square well of that depth), sets
    the base gain k^2 = V0 so the gain profile P = k^2 - V has compact
    support, and checks that the ground state is a fixed point of
    u -> G_lambda * (P u) in the quadrature L2 norm.  The relation
    E = k^2 - lambda^2 then holds by construction and is re-verified through
    the Rayleigh quotient.

    V0 is an eigenvalue, not a root: at V0 the matrix H(V0) - (V0 - lambda^2)
    = T + lambda^2 - V0 D, D = 0 outside the well, is singular and has no
    negative eigenvalue.  Its exterior is eliminated once and the core
    scaled by D_c^{-1/2} (:class:`_CondensedWell`, 101 of 1,999 interior
    rows on the default grid), so V0 is the lowest eigenvalue of that
    symmetric tridiagonal matrix, bisected on Sturm counts to 2 eps of its
    norm as :func:`schrodinger_fd` does.  The ground state is its inverse
    iteration vector, extended through the exterior chains' pivots and
    normalised over all interior nodes.

    V0 must lie in (lambda^2 + 1e-6, lambda^2 + (pi / (2 half_width))^2 + 1]:
    just above lambda^2 (E must be a positive bound-state energy) up to one
    more than the infinite well's ground energy.  Two Sturm counts check
    that, and the bisection starts from that range.  Raises
    NoBoundStateError when V0 lies outside it, e.g. when the box is
    narrower than the well, so no node lies outside it, or when no interior
    node lies inside the well.
    Returns the ``crosscheck.json`` payload and the condensation's sizes,
    ``{"core_nodes", "exterior_nodes": [left, right]}``.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    infinite_well_ground = (math.pi / (2.0 * half_width)) ** 2
    lo, hi = lam * lam + 1e-6, lam * lam + infinite_well_ground + 1.0

    nodes = grid.axis_nodes[0]
    dx = grid.spacing[0]
    # the unit-depth well; depth v0 scales it exactly
    well = square_well(nodes, half_width, 1.0)
    condensed = _CondensedWell(well, lam, dx)
    core = condensed.core

    if core.count_below(lo) or not core.count_below(hi):
        raise NoBoundStateError(
            f"the self-consistent well depth, the lowest eigenvalue of the well's scaled core, "
            f"lies outside ({lo:.6g}, {hi:.6g}]")
    v0 = core.eigenvalues(1, (lo, hi))[0]
    ground = condensed.extend(core.eigenvector(v0, np.zeros((core.diag.size, 0))))
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

    return {
        "lambda": lam,
        "V0": v0,
        "k2": v0,
        "E": v0 - lam * lam,
        "residual_l2": residual_l2,
        "rayleigh_quotient": rayleigh,
    }, {"core_nodes": core.diag.size, "exterior_nodes": [condensed.first, condensed.last]}
