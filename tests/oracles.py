"""Independent oracles used to freeze expected values.

Everything here is deliberately naive: pure-Python loops, dense reference
integrators, and bisection on closed-form equations.  None of it shares
code with the paths under test.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, eigh_tridiagonal


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


def fft_convolve(spectrum, grid, v):
    """irfftn(rfftn(v, s) * spectrum, s) cropped to the nodes, s the grid's
    FFT lattice: the whole-array formula ``convolve`` must match bit for bit."""
    axes = tuple(range(-grid.dimension, 0))
    fields = v.reshape(v.shape[:-1] + grid.npts)
    image = np.fft.irfftn(np.fft.rfftn(fields, s=grid.fft_shape, axes=axes) * spectrum,
                          s=grid.fft_shape, axes=axes)
    return image[(Ellipsis,) + tuple(slice(0, n) for n in grid.npts)].reshape(v.shape)


def abs_kernel_table(kernel, grid):
    """|w(x_i, x_j)| on all node pairs from the closed form of the kind; the
    distance takes the minimal image per axis on periodic grids."""
    pts = [tuple(float(c) for c in p) for p in grid.points]
    periods = [b - a for a, b in grid.bounds]
    index = {p: k for k, p in enumerate(pts)}
    rows = []
    for x in pts:
        row = []
        for y in pts:
            if kernel.kind == "tabulated":
                row.append(abs(_kernel(kernel, x, y, index)))
                continue
            d = [abs(xa - ya) for xa, ya in zip(x, y)]
            if grid.boundary == "periodic":
                d = [min(da, period - da) for da, period in zip(d, periods)]
            row.append(abs(_kernel(kernel, d, [0.0] * len(d), index)))
        rows.append(row)
    return np.array(rows)


def dense_l1_lower_sum(absw, grid):
    """Lower Riemann sum of each row of a dense |w| (n x n), max over rows.

    Each row is reshaped onto the grid and summed over its cells, taking the
    minimum of the cell's 2^d corners; periodic grids close the last cell of
    each axis around to the first node.
    """
    n_rows = absw.shape[0]
    if grid.dimension == 1:
        h = grid.spacing[0]
        if grid.boundary == "periodic":
            rolled = np.roll(absw, -1, axis=1)
            sums = (h * np.minimum(absw, rolled)).sum(axis=1)
        else:
            sums = (h * np.minimum(absw[:, :-1], absw[:, 1:])).sum(axis=1)
        return float(sums.max())
    n1, n2 = grid.npts
    cell = grid.spacing[0] * grid.spacing[1]
    best = 0.0
    for i in range(n_rows):
        tile = absw[i].reshape(n1, n2)
        if grid.boundary == "periodic":
            corners = np.minimum.reduce([
                tile, np.roll(tile, -1, 0), np.roll(tile, -1, 1),
                np.roll(np.roll(tile, -1, 0), -1, 1),
            ])
        else:
            corners = np.minimum.reduce([
                tile[:-1, :-1], tile[1:, :-1], tile[:-1, 1:], tile[1:, 1:],
            ])
        best = max(best, float(cell * corners.sum()))
    return best


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


def crank_nicolson_decay(u0, dt, n_steps):
    """Trapezoid-in-time discretization of u' = -u."""
    factor = (1.0 - 0.5 * dt) / (1.0 + 0.5 * dt)
    return np.array([u0 * factor ** n for n in range(n_steps + 1)])
