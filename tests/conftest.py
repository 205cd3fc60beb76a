"""Shared fixtures and independent oracles.

The oracles deliberately avoid the code paths they are used to check:
the part metric is re-derived by bisection on definiteness tests, the
spectral radius from characteristic polynomial roots, the whole Q edge
by edge from the message equations, and its loop core from Q's exact
zero pattern.
"""

import numpy as np
import pytest

from gabp.analysis import FIXED_POINT_MAX_ITERS, FIXED_POINT_TOL
from gabp.bp import EdgeStack, edge_views
from gabp.errors import DomainError
from gabp.model import FactorSpec, LinearGaussianModel, VariableSpec, random_model
from gabp.numerics import is_pd, is_symmetric, symmetrize


def rand_spd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return scale * (g @ g.T / (n + 2) + 0.5 * np.eye(n))


def part_metric_bisection(x, y, tol=1e-12):
    """Part metric via bisection: the smallest t with t*X - Y psd is
    lambda_max(X^-1 Y), found here with eigenvalue sign tests only."""

    def psd(a):
        return np.linalg.eigvalsh(a)[0] >= -1e-13 * max(1.0, abs(np.linalg.eigvalsh(a)[-1]))

    def lam_max(a, b):
        lo, hi = 0.0, 1.0
        while not psd(hi * a - b):
            hi *= 2.0
            if hi > 1e18:
                raise ValueError("bisection exploded")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if psd(mid * a - b):
                hi = mid
            else:
                lo = mid
            if hi - lo < tol * max(1.0, hi):
                break
        return hi

    return max(np.log(max(lam_max(x, y), 1e-300)),
               np.log(max(lam_max(y, x), 1e-300)), 0.0)


def charpoly_radius(a):
    """Spectral radius from the roots of the characteristic polynomial,
    with coefficients from the Faddeev-LeVerrier recurrence."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return float(np.max(np.abs(np.roots(coeffs)))) if n else 0.0


def variable_offsets(model):
    """Map variable id -> (start, dim) in the globally stacked state vector."""
    offsets = {}
    pos = 0
    for v in model.variables:
        offsets[v.id] = (pos, v.dim)
        pos += v.dim
    return offsets


def factor_offsets(model):
    """Map factor id -> (start, obs_dim) in the globally stacked observation."""
    offsets = {}
    pos = 0
    for f in model.factors:
        offsets[f.id] = (pos, f.obs_dim)
        pos += f.obs_dim
    return offsets


def stack_global(model):
    """Stack the model into global (A, R, W, y) in ascending-id order.

    Rows follow ascending factor id, columns ascending variable id. R and
    W come back block diagonal; absent coefficient blocks are zero.
    """
    voff = variable_offsets(model)
    foff = factor_offsets(model)
    nx, ny = sum(v.dim for v in model.variables), sum(f.obs_dim for f in model.factors)
    a = np.zeros((ny, nx))
    r = np.zeros((ny, ny))
    w = np.zeros((nx, nx))
    y = np.zeros(ny)
    for v in model.variables:
        s, d = voff[v.id]
        w[s:s + d, s:s + d] = v.prior_cov
    for f in model.factors:
        rs, rm = foff[f.id]
        r[rs:rs + rm, rs:rs + rm] = f.noise_cov
        y[rs:rs + rm] = f.obs
        for i in f.scope:
            cs, cd = voff[i]
            a[rs:rs + rm, cs:cs + cd] = f.coeff[i]
    return a, r, w, y


def dense_solution(model):
    """The oracle: the joint covariance (W^-1 + A^T R^-1 A)^-1 and mean cov A^T R^-1 y, stacked."""
    a, r, w, y = stack_global(model)
    rinv_a = np.linalg.solve(r, a)
    cov = np.linalg.inv(np.linalg.inv(w) + a.T @ rinv_a)
    return cov @ (rinv_a.T @ y), cov


def dense_marginals(model):
    """dense_solution by variable id: its (mean, covariance block); independent of gabp's solvers."""
    mean, cov = dense_solution(model)
    return {i: (mean[s:s + d], cov[s:s + d, s:s + d]) for i, (s, d) in variable_offsets(model).items()}


def mrf_marginals(j, h):
    """The field's exact marginal means and variances by one dense solve.

    DomainError unless J is finite, symmetric and positive definite.
    """
    j = np.asarray(j, dtype=float)
    if not np.isfinite(j).all() or not is_symmetric(j) or not is_pd(j):
        raise DomainError("information matrix must be positive definite")
    j = symmetrize(j)
    return np.linalg.solve(j, np.asarray(h, dtype=float)), np.diag(np.linalg.inv(j)).copy()


def factors_of_var(graph):
    """Each variable's factors in ascending id order, read off graph.f2v_edges: the oracles' neighbour lists."""
    out = {i: [] for i in graph.var_ids}
    for n, i in graph.f2v_edges:
        out[i].append(n)
    return out


def vars_of_factor(graph):
    """Each factor's variables in scope order, as a tuple read off graph.f2v_edges: the oracles' scopes."""
    out = {n: () for n in graph.factor_ids}
    for n, i in graph.f2v_edges:
        out[n] += (i,)
    return out


def oracle_core(model):
    """The 2-core as ("f", id)/("v", id) nodes: drop a node of degree <= 1, one at a time."""
    adj = {("v", v.id): set() for v in model.variables}
    adj.update({("f", f.id): set() for f in model.factors})
    for f in model.factors:
        for i in f.scope:
            adj[("f", f.id)].add(("v", i))
            adj[("v", i)].add(("f", f.id))
    while True:
        leaf = next((k for k, nbrs in adj.items() if len(nbrs) <= 1), None)
        if leaf is None:
            return set(adj)
        for k in adj.pop(leaf):
            adj[k].discard(leaf)


def information_iterates(model, graph, init, n=None):
    """J iterates 0..n of the information recursion from init, each a dict by f2v edge.

    A step is one synchronous information half over the whole stack,
    EdgeStack.information_half(fj, spreads, all, all): the f2v J of a
    sync run_bp, and the recursion whose fixed point
    information_fixed_point reaches by another schedule (it settles the
    hanging trees in two passes and iterates only the 2-core). With n
    None the iterates run up to the first whose step, the largest
    Frobenius change of any J, is below FIXED_POINT_TOL: the limit. It
    replays the engine's halves rather than checking their arithmetic.
    """
    stack = EdgeStack(model, graph)
    (fj, _), (spreads, _) = stack.init(init), stack.stores()
    out = [edge_views(stack.graph, fj[:-1].copy())]
    for _ in range(FIXED_POINT_MAX_ITERS if n is None else n):
        new = stack.information_half(fj, spreads, stack.all, stack.all)[2]
        step = np.max(np.linalg.norm(new - fj[:-1], axis=(1, 2)), initial=0.0)
        fj[:-1] = new
        out.append(edge_views(stack.graph, new))
        if n is None and step < FIXED_POINT_TOL:
            break
    return out


def v2f_layout(graph):
    """(start, dim) of each v2f edge in the stacked v2f vector, and the vector's length.

    The edges are stacked in canonical graph.v2f_edges order, each taking
    its variable's dim coordinates.
    """
    offsets, pos = {}, 0
    for (j, n) in graph.v2f_edges:
        offsets[(j, n)] = (pos, graph.var_dims[j])
        pos += graph.var_dims[j]
    return offsets, pos


def dense_q(model, graph, fp):
    """The whole Q of the frozen-J* mean recursion v <- b - Q v, edge by edge.

    Rows and columns follow v2f_layout. The block in row (j, n),
    column (z, k), for each factor k != n of j and each variable z != j
    of k, is J_{j->n}^-1 A_{k,j}^T M_{k,j}^-1 A_{k,z} with
    M_{k,j} = R_k + sum over the variables z' != j of k of
    A_{k,z'} J_{z'->k}^-1 A_{k,z'}^T, read from fp.v2f_j and the model.
    """
    offsets, dim = v2f_layout(graph)
    v2f = edge_views(fp.stack.graph, fp.v2f_j, v2f=True)
    factors = {f.id: f for f in model.factors}
    q, factors_of = np.zeros((dim, dim)), factors_of_var(graph)
    for (j, n), (rs, rd) in offsets.items():
        for k in factors_of[j]:
            if k == n:
                continue
            f = factors[k]
            others = [z for z in f.scope if z != j]
            core = f.noise_cov + sum(f.coeff[z] @ np.linalg.solve(v2f[(z, k)], f.coeff[z].T)
                                     for z in others)
            gain = f.coeff[j].T @ np.linalg.inv(core)
            for z in others:
                cs, cd = offsets[(z, k)]
                q[rs:rs + rd, cs:cs + cd] = np.linalg.solve(v2f[(j, n)], gain @ f.coeff[z])
    return q


def entry_core(q):
    """Coordinates of q left after peeling, pass by pass, every coordinate
    whose row or column has no off-diagonal nonzero among those left.

    Each peeled coordinate is a 1 x 1 diagonal block of a block-triangular
    permutation of q; the exact zero pattern decides, with no tolerance.
    """
    rows, cols = np.nonzero(q)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    left = np.ones(q.shape[0], dtype=bool)
    while True:
        peel = left & ((np.bincount(rows, minlength=len(left)) == 0)
                       | (np.bincount(cols, minlength=len(left)) == 0))
        if not peel.any():
            return np.flatnonzero(left)
        left &= ~peel
        keep = left[rows] & left[cols]
        rows, cols = rows[keep], cols[keep]


@pytest.fixture
def two_agent_unit_chain():
    """Two scalar agents, identity priors, two symmetric pair factors.

    The information recursion has the closed-form fixed point
    j* = (sqrt(5) - 1) / 2 on every factor-to-variable edge.
    """
    return LinearGaussianModel(
        variables=[VariableSpec(1, 1, np.eye(1)), VariableSpec(2, 1, np.eye(1))],
        factors=[
            FactorSpec(1, (1, 2), {1: np.eye(1), 2: np.eye(1)}, np.eye(1), np.array([1.0])),
            FactorSpec(2, (1, 2), {1: np.eye(1), 2: np.eye(1)}, np.eye(1), np.array([-1.0])),
        ],
    )


GOLDEN_EDGE_PRECISION = 0.6180339887498949


QUARTET_A = np.array([
    [2 / np.sqrt(6), 0.0, 1 / np.sqrt(2), 1 / np.sqrt(3)],
    [1 / np.sqrt(6), 1 / np.sqrt(3), 0.0, 0.0],
    [0.0, 1 / np.sqrt(3), 0.0, 1 / np.sqrt(3)],
])
QUARTET_PRIOR = np.array([6.0, 3.0, 2.0, 3.0])
QUARTET_J = np.array([
    [1.0, 1 / (3 * np.sqrt(2)), 1 / np.sqrt(3), np.sqrt(2) / 3],
    [1 / (3 * np.sqrt(2)), 1.0, 0.0, 1 / 3],
    [1 / np.sqrt(3), 0.0, 1.0, 1 / np.sqrt(6)],
    [np.sqrt(2) / 3, 1 / 3, 1 / np.sqrt(6), 1.0],
])
# Spectrum of I - |R| for the quartet, to four decimals; the negative
# eigenvalue is the point of the example: the field fails the
# walk-summability test yet the decomposed model still converges.
QUARTET_ABS_SPECTRUM = np.array([-0.0754, 0.9712, 1.4780, 1.6262])


def quartet_model(obs=(1.0, 1.0, 1.0)):
    """Four scalar agents, three single-row factors, one loop.

    Joint precision is QUARTET_J by construction: the prior precisions
    1/6, 1/3, 1/2, 1/3 plus A^T A restore the unit diagonal.
    """
    y = np.asarray(obs, dtype=float)
    variables = [
        VariableSpec(i + 1, 1, np.array([[QUARTET_PRIOR[i]]])) for i in range(4)
    ]
    factors = []
    for r in range(3):
        scope = tuple(c + 1 for c in range(4) if QUARTET_A[r, c] != 0.0)
        coeff = {c: np.array([[QUARTET_A[r, c - 1]]]) for c in scope}
        factors.append(FactorSpec(r + 1, scope, coeff, np.eye(1), np.array([y[r]])))
    return LinearGaussianModel(variables=variables, factors=factors)


@pytest.fixture
def quartet():
    return quartet_model()


def vague_prior_model():
    """Two scalar agents; x1 has prior variance 1e12, x2 variance 1.

    Factor 1 observes x1, factor 2 observes x1 + x2, with unit noise and
    unit observations. From zero messages the first variable-to-factor
    information matrix of x1 is its prior precision 1e-12, which the pd
    tolerance does not accept.
    """
    one = np.eye(1)
    return LinearGaussianModel(
        variables=[VariableSpec(1, 1, np.array([[1e12]])), VariableSpec(2, 1, one)],
        factors=[FactorSpec(1, (1,), {1: one}, one, np.ones(1)),
                 FactorSpec(2, (1, 2), {1: one, 2: one}, one, np.ones(1))],
    )


def ill_conditioned_noise_model():
    """random_model(seed=6, 6 agents, multi_loop, dims 2-3) with noise covariances of condition number 1e7.

    Its information recursion moves by about 1e-12 relative, 1.8e-5
    absolute, per iteration after 10000 iterations, so it never meets the
    absolute FIXED_POINT_TOL.
    """
    m = random_model(seed=6, n_agents=6, topology="multi_loop", dims=(2, 3))
    rng = np.random.default_rng(6)
    for f in m.factors:
        q, _ = np.linalg.qr(rng.standard_normal((f.obs_dim, f.obs_dim)))
        r = (q * np.logspace(0, -7, f.obs_dim)) @ q.T
        f.noise_cov = (r + r.T) / 2.0
    return m
