"""Independent oracles used to freeze expected values.

Everything here is deliberately naive: pure-Python loops, dense n x n
operators built from closed forms, dense reference integrators, and
bisection on closed-form equations.  None of it shares
code with the paths under test, except :func:`j_error_bound`, the a-priori
bound that J's tests hold it to, which reads the package's range factor.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, eigh_tridiagonal

from neuralfield.discretization import range_factor


def _kernel(kernel, x, y, index):
    """w(x, y) from the closed form of the kind; tabulated by node index."""
    p = kernel.params
    if kernel.kind == "tabulated":
        return float(p["matrix"][index[tuple(x)], index[tuple(y)]])
    d = math.dist(x, y)
    if kernel.kind == "exponential":
        return p["amplitude"] * math.exp(-p["decay"] * d)
    z = d / p["scale"]
    return (1.0 - z) * math.exp(-z)


def _firing(firing, s):
    p = firing.params
    if firing.kind == "sigmoid":
        z = p["slope"] * (s - p["threshold"])
        return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
    if firing.kind == "scaled-arctan":
        return 0.5 + math.atan(p["scale"] * s) / math.pi
    if firing.kind == "linear":
        return s
    return min(max(p["slope"] * (s - p["threshold"]), 0.0), 1.0)


def _learning(learning, d):
    z = d / learning.params["width"]
    return math.exp(-z * z)


def brute_force_apply_j(model, grid, quad, u):
    """O(n^2) direct summation with unfused scalar arithmetic.

    w, f and g come from scalar ``math`` closed forms of their kinds, not
    from the package's callables.
    """
    n = grid.n_total
    pts = [tuple(float(c) for c in p) for p in grid.points]
    index = {}
    if model.kernel.kind == "tabulated":
        nodes = np.atleast_2d(np.asarray(model.kernel.params["nodes"], dtype=float).T).T
        index = {tuple(float(c) for c in node): k for k, node in enumerate(nodes)}
    out = []
    for i in range(n):
        acc = 0.0
        for j in range(n):
            term = _kernel(model.kernel, pts[i], pts[j], index) * float(quad.weights[j])
            term = term * (1.0 + model.gamma * _learning(model.learning, float(u[i] - u[j])))
            term = term * _firing(model.firing, float(u[j]))
            acc += term
        out.append(acc)
    return np.array(out)


def j_error_bound(model, op, values):
    """A-priori bound on |J(u) - J_exact(u)| from the plasticity factor.

    gamma * P-bar * max_i sum_j |W[i,j] f(u_j)|, with P-bar the
    ``RangeFactor.power_bound`` of u's factor; rounding is not included.
    Zero at gamma = 0, where J is W f.
    """
    if model.gamma == 0.0:
        return 0.0
    scale = float(np.max(op.abs_apply(model.firing(values))))
    return model.gamma * range_factor(values, model.learning.params["width"]).power_bound * scale


def fft_convolve(spectrum, grid, v):
    """irfftn(rfftn(v, s) * spectrum, s) cropped to the nodes, s the grid's
    FFT lattice: the whole-array formula ``convolve`` must match bit for bit."""
    axes = tuple(range(-grid.dimension, 0))
    fields = v.reshape(v.shape[:-1] + grid.npts)
    image = np.fft.irfftn(np.fft.rfftn(fields, s=grid.fft_shape, axes=axes) * spectrum,
                          s=grid.fft_shape, axes=axes)
    return image[(Ellipsis,) + tuple(slice(0, n) for n in grid.npts)].reshape(v.shape)


def kernel_table(kernel, grid):
    """w(x_i, x_j) on all node pairs, in numpy from the closed form of the
    kind (tabulated: its matrix); the distance takes the minimal image per
    axis on periodic grids."""
    p = kernel.params
    if kernel.kind == "tabulated":
        return np.array(p["matrix"], dtype=float)
    pts = np.asarray(grid.points)
    sq = np.zeros((pts.shape[0], pts.shape[0]))
    for ax, (a, b) in enumerate(grid.bounds):
        d = np.abs(pts[:, ax, None] - pts[None, :, ax])
        if grid.boundary == "periodic":
            d = np.minimum(d, (b - a) - d)
        sq += d * d
    d = np.sqrt(sq)
    if kernel.kind == "exponential":
        return p["amplitude"] * np.exp(-p["decay"] * d)
    z = d / p["scale"]
    return (1.0 - z) * np.exp(-z)


def dense_operator(op):
    """The dense W[i, j] = w(x_i, x_j) q_j of an operator, from
    :func:`kernel_table`."""
    return kernel_table(op.kernel, op.grid) * op.quadrature.weights[None, :]


def dense_j(model, matrix, u):
    """sum_j W[i, j] (1 + gamma g(u_i - u_j)) f(u_j) on a dense W, with f
    from the scalar closed form of its kind and g from the gaussian's."""
    rates = np.array([_firing(model.firing, float(s)) for s in u])
    z = (u[:, None] - u[None, :]) / model.learning.params["width"]
    return (matrix * (1.0 + model.gamma * np.exp(-z * z)) * rates[None, :]).sum(axis=1)


def scalar_ode_solution(row_sum, firing, u0, t_eval):
    """Dense reference integration of u' = -u + W * f(u) for a uniform field."""
    sol = solve_ivp(lambda t, y: -y + row_sum * firing(y), (0.0, float(t_eval[-1])),
                    [u0], rtol=1e-12, atol=1e-14, dense_output=True)
    return np.array([sol.sol(t)[0] for t in t_eval])


def bisect(fn, lo, hi, iterations=200):
    """Plain bisection; assumes fn(lo) < 0 < fn(hi)."""
    assert fn(lo) < 0 < fn(hi)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_fixed_point(row_sum, firing, hi=10.0):
    """Root of u = row_sum * f(u) for bounded f (u - row_sum*f crosses zero once)."""
    return bisect(lambda u: u - row_sum * firing(u), 0.0, hi)


def damped_fixed_point(j, u, damping, tol, max_iter=100_000):
    """The plain damped iteration u <- (1-a) u + a j(u), run until the
    residual sup |j(u) - u| falls below tol; returns the last iterate and
    the residual of every j evaluation, so len(residuals) is the call count."""
    residuals = []
    for _ in range(max_iter):
        ju = j(u)
        residuals.append(float(np.max(np.abs(ju - u))))
        if residuals[-1] < tol:
            break
        u = (1.0 - damping) * u + damping * ju
    return u, residuals


def finite_well_ground_energy(height, half_width):
    """Even ground state of the square well from the matching condition
    sqrt(E) tan(sqrt(E) a) = sqrt(V0 - E)."""
    cap = min(height, (math.pi / (2.0 * half_width)) ** 2) - 1e-12

    def matching(energy):
        k_in = math.sqrt(energy)
        return k_in * math.tan(k_in * half_width) - math.sqrt(height - energy)

    return bisect(matching, 1e-12, cap)


def learned_matrix(u, coupling, width):
    """G[i, j] = 1 + coupling * exp(-((u_i - u_j) / width)^2) on all node
    pairs, in numpy from the gaussian's closed form."""
    z = (u[:, None] - u[None, :]) / width
    return 1.0 + coupling * np.exp(-z * z)


def mercer_eigenvalues(matrix, weights):
    """Eigenvalues, descending, of D^(1/2) G D^(1/2) with D the diagonal of
    quadrature weights, by LAPACK through scipy."""
    sqrt_w = np.sqrt(weights)
    return eigh(sqrt_w[:, None] * matrix * sqrt_w[None, :], eigvals_only=True)[::-1]


def fd_schrodinger_eigenpairs(potential, dx, k):
    """The k lowest eigenpairs of the three-point -d^2/dx^2 + V on the
    interior nodes (Dirichlet ends) by LAPACK stebz/stein through scipy, with
    the infinity norm of that tridiagonal matrix.  Vectors are unit
    euclidean columns over the interior."""
    diag = 2.0 / (dx * dx) + np.asarray(potential[1:-1], dtype=float)
    off = np.full(diag.size - 1, -1.0 / (dx * dx))
    values, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    rows = np.abs(diag) + np.r_[0.0, np.abs(off)] + np.r_[np.abs(off), 0.0]
    return values, vectors, float(rows.max())


def square_well_fd_ground(nodes, dx, half_width, depth):
    """Ground energy and unit interior vector of the three-point
    -d^2/dx^2 + V on the full matrix, by LAPACK through
    :func:`fd_schrodinger_eigenpairs`.  V is the square well of ``depth``,
    built here from its definition: 0 on |x| < half_width, ``depth``
    outside, ``depth / 2`` on a node within 1e-12 of an edge."""
    edge = np.abs(nodes) - half_width
    potential = np.where(np.abs(edge) <= 1e-12, 0.5 * depth, np.where(edge < 0.0, 0.0, depth))
    values, vectors, _ = fd_schrodinger_eigenpairs(potential, dx, 1)
    return float(values[0]), vectors[:, 0]


def crank_nicolson_decay(u0, dt, n_steps):
    """Trapezoid-in-time discretization of u' = -u."""
    factor = (1.0 - 0.5 * dt) / (1.0 + 0.5 * dt)
    return np.array([u0 * factor ** n for n in range(n_steps + 1)])


def estimate_lipschitz(fn, lo, hi, n=4001):
    """Largest difference quotient of fn over adjacent samples of [lo, hi]:
    a lower bound of the Lipschitz constant that converges to it as n grows."""
    s = np.linspace(lo, hi, n)
    v = np.asarray(fn(s), dtype=float)
    return float(np.max(np.abs(np.diff(v)) / np.diff(s)))


def gram(eig, weights):
    """<phi_i, phi_j> of an eigensystem's functions under quadrature ``weights``."""
    return eig.functions.T @ (weights[:, None] * eig.functions)


def reconstruct_kernel(eig, rank=None):
    """sum_i sigma_i phi_i(x) phi_i(y) truncated to the leading ``rank`` terms."""
    k = eig.values.shape[0] if rank is None else rank
    f = eig.functions[:, :k]
    return (f * eig.values[None, :k]) @ f.T


def greens_identity_check(lam, grid, quad, test_values=None):
    """Max interior residual of (lambda^2 - D^2)(G * h) - h on a 1-D compact
    grid, G * h taken by the package's ``greens_convolve``.

    The identity is exact for the continuous convolution; on the grid the
    residual is quadrature plus finite-difference error and decays at second
    order under refinement.
    """
    from neuralfield.gainfield import greens_convolve

    nodes = grid.axis_nodes[0]
    h_vals = np.exp(-nodes ** 2) if test_values is None else np.asarray(test_values, dtype=float)
    conv = greens_convolve(lam, grid, quad.weights * h_vals)
    dx = grid.spacing[0]
    second = (conv[:-2] - 2.0 * conv[1:-1] + conv[2:]) / (dx * dx)
    return float(np.max(np.abs(lam * lam * conv[1:-1] - second - h_vals[1:-1])))
