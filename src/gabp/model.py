"""Distributed linear Gaussian observation models.

A model is a collection of variables x_i ~ N(0, W_i) and observation
factors

    y_n = sum_{i in scope(n)} A_{n,i} x_i + z_n,      z_n ~ N(0, R_n),

with every coefficient block full column rank and every noise covariance
positive definite. Factor ids and variable ids live in separate
namespaces; a factor's scope is any nonempty set of variable ids, so the
same schema covers the symmetric one-factor-per-agent layout, tree
structured models, and the pairwise models produced by the MRF bridge.

shape_stacks groups the arrays of a model's specs by kind and shape, one
stack per group, read afresh on every call. validate_model's numerical
checks run on them, and pad_stacks writes them into the padded arrays of
the engine's EdgeStack and of centralized_solve, with no loop over specs.

centralized_solve is the one exact reference: the joint MMSE means and
each variable's covariance block, by Gaussian elimination along the
factor graph's leaf peel with one dense inverse on its 2-core.
certify's cross-check and `gabp solve` both read it.
"""

from dataclasses import dataclass, field

import numpy as np

from gabp.errors import DomainError
from gabp.graph import build_factor_graph, classify_topology
from gabp.numerics import has_full_column_rank, is_pd, is_symmetric


@dataclass
class VariableSpec:
    """One latent vector variable with a zero-mean Gaussian prior."""

    id: int
    dim: int
    prior_cov: np.ndarray

    def __post_init__(self):
        self.prior_cov = np.atleast_2d(np.asarray(self.prior_cov, dtype=float))


@dataclass
class FactorSpec:
    """One vector observation tying together the variables in its scope.

    coeff maps each variable id in the scope to its (obs_dim x var_dim)
    coefficient block. The scope is kept sorted ascending, repeats
    included; stacked quantities built from a factor follow that order.
    """

    id: int
    scope: tuple
    coeff: dict
    noise_cov: np.ndarray
    obs: np.ndarray

    def __post_init__(self):
        self.scope = tuple(sorted(int(i) for i in self.scope))
        self.coeff = {int(i): np.atleast_2d(np.asarray(a, dtype=float)) for i, a in self.coeff.items()}
        self.noise_cov = np.atleast_2d(np.asarray(self.noise_cov, dtype=float))
        self.obs = np.atleast_1d(np.asarray(self.obs, dtype=float))

    @property
    def obs_dim(self):
        return self.obs.shape[0]


@dataclass
class LinearGaussianModel:
    """Variables plus factors, each list kept sorted ascending by id."""

    variables: list
    factors: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.variables = sorted(self.variables, key=lambda v: v.id)
        self.factors = sorted(self.factors, key=lambda f: f.id)


def shape_stacks(variables, factors=()):
    """The specs' arrays by kind as [(positions, stack)], one stack per shape in first-seen order.

    Kinds: "cov", the priors then the noise covariances; "obs"; "coeff",
    listed f.coeff[i] for f in factors for i in f.scope (graph.f2v_edges
    order). Read from the specs on every call: their arrays may be reassigned.
    """
    listing = {"cov": [v.prior_cov for v in variables] + [f.noise_cov for f in factors],
               "obs": [f.obs for f in factors], "coeff": [f.coeff[i] for f in factors for i in f.scope]}
    out = {}
    for kind, arrays in listing.items():
        groups = {}
        for k, x in enumerate(arrays):
            groups.setdefault(x.shape, []).append(k)
        out[kind] = [(np.array(idx), np.array([arrays[k] for k in idx])) for idx in groups.values()]
    return out


def precision_stacks(priors):
    """[(positions, W^-1 stack)] for the prior groups of shape_stacks: the one place a prior is inverted."""
    return [(idx, np.linalg.inv(w)) for idx, w in priors]


def pad_stacks(groups, out):
    """out with each stack of groups, [(rows, stack)], written into the top-left corner of its rows."""
    for rows, x in groups:
        out[(rows,) + tuple(slice(n) for n in x.shape[1:])] = x
    return out


def validate_model(model):
    """Check every model assumption and return the list of violations.

    An empty list means the model is admissible: unique ids, consistent
    shapes, finite entries, symmetric positive definite priors and noise
    covariances, and full column rank for every coefficient block. The
    report strings are meant to be readable as-is in CLI output.

    A Python pass checks ids, scopes and shapes. shape_stacks then stacks
    the arrays of the variables and factors that pass it, once, and each
    numerical check runs once per kind and shape of array. A variable or
    factor that fails the structure pass gets no numerical check; a
    non-finite array stops its variable or factor, and an asymmetric
    covariance its pd check (and, for a noise covariance, its factor's
    rank checks).
    """
    reports = []                  # the problems of each variable and factor, in model order
    specs, owners = [], []        # the variables and factors that pass, and their reports
    seen, dims = set(), {v.id: v.dim for v in model.variables}  # a duplicate id: the last one's dim
    for v in model.variables:
        problems = []
        reports.append(problems)
        if v.id in seen:
            problems.append(f"duplicate variable id {v.id}")
            continue
        seen.add(v.id)
        if v.dim < 1:
            problems.append(f"variable {v.id}: dim must be >= 1, got {v.dim}")
        elif v.prior_cov.shape != (v.dim, v.dim):
            problems.append(f"variable {v.id}: prior_cov shape {v.prior_cov.shape} != ({v.dim}, {v.dim})")
        else:
            specs.append(v)
            owners.append(problems)

    nv, seen_f = len(specs), set()
    for f in model.factors:
        problems = []
        reports.append(problems)
        if f.id in seen_f:
            problems.append(f"duplicate factor id {f.id}")
            continue
        seen_f.add(f.id)
        if not f.scope:
            problems.append(f"factor {f.id}: empty scope")
            continue
        missing = [i for i in f.scope if i not in dims]
        if missing:
            problems.append(f"factor {f.id}: scope references unknown variables {missing}")
            continue
        repeated = sorted({i for i, j in zip(f.scope, f.scope[1:]) if i == j})
        if repeated:
            problems.append(f"factor {f.id}: scope repeats variables {repeated}")
            continue
        if set(f.coeff) != set(f.scope):
            problems.append(f"factor {f.id}: coefficient keys {sorted(f.coeff)} "
                            f"do not match scope {list(f.scope)}")
            continue
        if f.obs.ndim != 1:
            problems.append(f"factor {f.id}: obs must be a vector, got shape {f.obs.shape}")
            continue
        m = f.obs_dim
        for i in f.scope:
            if f.coeff[i].shape != (m, dims[i]):
                problems.append(f"factor {f.id}: coeff[{i}] shape {f.coeff[i].shape} != ({m}, {dims[i]})")
        if problems:
            continue
        if f.noise_cov.shape != (m, m):
            problems.append(f"factor {f.id}: noise_cov shape {f.noise_cov.shape} != ({m}, {m})")
            continue
        specs.append(f)
        owners.append(problems)

    # A report that is still empty after a check means its owner goes on to the next.
    stacks, sizes = shape_stacks(specs[:nv], specs[nv:]), [len(f.scope) for f in specs[nv:]]
    first = np.cumsum(sizes, dtype=int) - sizes  # each factor's first coeff position
    owner = {"cov": np.arange(len(specs)), "obs": np.arange(nv, len(specs))}
    owner["coeff"] = np.repeat(owner["obs"], sizes)

    def check(tests):
        """Report each live owner's entry that fails its kind's test, which runs once per kind and shape."""
        live = np.array([not r for r in owners], dtype=bool)
        for kind, (test, message) in tests.items():
            bad = []
            for idx, stack in stacks[kind]:
                keep = live[owner[kind][idx]]
                if keep.any():
                    bad += idx[keep][~test(stack[keep])].tolist()
            for k in sorted(bad):
                p = owner[kind][k]
                name = (f"coeff[{specs[p].scope[k - first[p - nv]]}]" if kind == "coeff" else
                        "obs" if kind == "obs" else "prior_cov" if p < nv else "noise_cov")
                owners[p].append(f"{'variable' if p < nv else 'factor'} {specs[p].id}: {name} {message}")

    finite = (lambda x: np.isfinite(x).reshape(len(x), -1).all(axis=1), "is not finite")
    check({"obs": finite, "cov": finite, "coeff": finite})
    check({"cov": (is_symmetric, "is not symmetric")})
    check({"cov": (is_pd, "is not positive definite"),
           "coeff": (has_full_column_rank, "does not have full column rank")})
    return [p for r in reports for p in r]


def require_valid(model):
    """Raise DomainError with the full report when the model is inadmissible."""
    problems = validate_model(model)
    if problems:
        raise DomainError("model validation failed:\n  " + "\n  ".join(problems))


@dataclass
class CentralizedSolution:
    """The joint MMSE mean, stacked by ascending variable id, and each variable's mean and covariance."""

    mean: np.ndarray
    means: dict
    covs: dict


def centralized_solve(model, graph=None):
    """Joint MMSE estimate x_hat = (W^-1 + A^T R^-1 A)^-1 A^T R^-1 y, with each variable's covariance.

    This is the exact answer message passing is expected to reproduce,
    by Gaussian elimination of K = [[-R, A], [A^T, W^-1]] on (-r, x): the
    x-block of K^-1 is the joint covariance. Only the factor graph's
    2-core is inverted densely; the hanging trees are eliminated in the
    rounds of graph.peel, on one state per node padded to a common size
    q: [R_n | y_n] for a factor (its noise covariance and observation,
    which absorb what is eliminated into it) and [J_j | h_j] for a
    variable (its prior's precision and information plus those of every
    factor folded into it).

    * A leaf factor n folds A^T R_n^-1 A and A^T R_n^-1 y_n into its one
      live variable.
    * A leaf variable j leaves its one live factor n by the Schur
      complement of the factor's block, which in noise form is
      R_n += A_nj J_j^-1 A_nj^T and y_n -= A_nj J_j^-1 h_j: the fill
      stays inside the factor.

    Both are one step on a node's state [M | b] and its edge's block B (A
    on the factor side, -A^T on the variable side): G = M^-1 [B | b | sI],
    s = -1 for a factor and +1 for a variable, and the neighbour's state
    gains G_B^T [B | b]; the nodes of a round take one stacked solve. One
    dense inverse of the core variables' J, with the core factors'
    A^T R^-1 A, is their block of K^-1 and gives their means from h and
    the core factors' A^T R^-1 y; a core factor's block is
    -R^-1 + sum_st G_s S_st G_t^T over the pairs (s, t) of its core rows.
    Back-substitution in reverse order gives every other node from the
    same G and its neighbour's value v and block S (selected inversion,
    Takahashi, Fagan & Chin 1973): the value G_b - G_B v (a factor's
    residual R_n^-1 (y_n - A x), a variable's mean J_j^-1 (h_j + A^T r_n))
    and the block s M^-1 + G_B S G_B^T. No array of the whole joint
    precision's size is formed.
    """
    graph = graph or build_factor_graph(model)
    peel = graph.peel
    n_f, n = len(model.factors), len(peel.core)
    dims = np.array([v.dim for v in model.variables], dtype=int)
    stacks = shape_stacks((), model.factors)
    d = int(dims.max(initial=0))
    q = max([d] + [y.shape[1] for _, y in stacks["obs"]])
    eye = np.eye(q)
    # node states (factors, variables, a sentinel) and A per f2v row (a last zero one for hung = -1)
    state = np.zeros((n + 1, q, q + 1))
    state[:, :, :q] = eye
    priors = precision_stacks(shape_stacks(model.variables)["cov"])
    pad_stacks(stacks["cov"] + [(n_f + idx, w) for idx, w in priors], state)
    pad_stacks(stacks["obs"], state[..., q])
    a = pad_stacks(stacks["coeff"], np.zeros((len(graph.pairs) + 1, q, q)))

    # each removed node's [B | b | sI], B = A from a factor and -A^T from a variable; parent -1
    # reaches the sentinels
    b = a[peel.hung]
    variable = (peel.order >= n_f)[:, None, None]
    rhs = np.zeros((len(b), q, 2 * q + 1))
    rhs[:, :, :q] = np.where(variable, -b.swapaxes(1, 2), b)
    rhs[:, :, q + 1:] = np.where(variable, eye, -eye)
    steps = []
    for removed, _, _ in peel.rounds:
        nodes = state[peel.order[removed]]
        rhs[removed, :, q] = nodes[..., q]
        g = np.linalg.solve(nodes[..., :q], rhs[removed])
        np.add.at(state, peel.parent[removed], g[..., :q].swapaxes(1, 2) @ rhs[removed, :, :q + 1])
        steps.append(g)

    # each node's value and block of K^-1
    val, cov = np.zeros((n + 1, q)), np.zeros((n + 1, q, q))
    rows = np.flatnonzero(peel.core_edges)
    if len(rows):
        # The core system on its variables' real slots, each pad slot sent to the spare last one,
        # from the core factors' G = R^-1 [A | y | -I] on each pair (s, t) of their core rows.
        f, v = graph.pairs[rows].T
        cv = np.flatnonzero(peel.core[n_f:]) + n_f
        real = np.arange(d) < dims[cv - n_f, None]
        size = int(real.sum())
        slot = np.where(real, np.cumsum(real).reshape(real.shape) - 1, size)
        u = slot[np.searchsorted(cv, v)]  # each core row's variable slots
        first = np.searchsorted(f, f)
        width = np.searchsorted(f, f, side="right") - first
        s = np.repeat(np.arange(len(rows)), width)
        t = np.arange(len(s)) - np.repeat(np.cumsum(width) - width - first, width)
        ry = state[f]
        ay = np.concatenate([a[rows], ry[..., q:], np.broadcast_to(-eye, (len(rows), q, q))], axis=2)
        g = np.linalg.solve(ry[..., :q], ay)
        ga = g[..., :d]
        precision, information = np.zeros((size + 1, size + 1)), np.zeros(size + 1)
        precision[slot[:, :, None], slot[:, None, :]] = state[cv, :d, :d]
        np.add.at(precision, (u[s, :, None], u[t, None, :]), ga[s].swapaxes(1, 2) @ ay[t, :, :d])
        information[slot] = state[cv, :d, q]
        np.add.at(information, u, (ga.swapaxes(1, 2) @ ay[..., q:q + 1])[..., 0])
        core = np.zeros_like(precision)
        core[:-1, :-1] = np.linalg.inv(precision[:-1, :-1])
        val[cv, :d] = (core @ information)[slot]
        cov[cv, :d, :d] = core[slot[:, :, None], slot[:, None, :]]
        val[f] = g[..., q]
        np.subtract.at(val, f, (g[..., :q] @ val[v, :, None])[..., 0])
        cov[f] = g[..., q + 1:]
        np.add.at(cov, f[s], ga[s] @ core[u[s, :, None], u[t, None, :]] @ ga[t].swapaxes(1, 2))
    for (removed, _, _), g in zip(reversed(peel.rounds), reversed(steps)):
        k, p, gb = peel.order[removed], peel.parent[removed], g[..., :q]
        val[k] = g[..., q] - (gb @ val[p, :, None])[..., 0]
        cov[k] = g[..., q + 1:] + gb @ cov[p] @ gb.swapaxes(1, 2)
    variables = list(enumerate(model.variables, start=n_f))
    return CentralizedSolution(mean=val[n_f:n][np.arange(q) < dims[:, None]],
                               means={v.id: val[k, :v.dim] for k, v in variables},
                               covs={v.id: cov[k, :v.dim, :v.dim] for k, v in variables})


def _random_spd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n + 2))
    return scale * (g @ g.T / (n + 2) + 0.5 * np.eye(n))


def random_model(seed, n_agents, dims=(1, 3), topology="multi_loop",
                 coeff_scale=1.0, noise_scale=1.0):
    """Deterministic random model whose factor graph has the requested shape.

    topology is one of "forest", "single_loop_plus_forest", "multi_loop".
    dims is a fixed int or an inclusive (lo, hi) range for per-variable
    dimensions. The generated model always passes validate_model and its
    factor graph always classifies as requested (the generator raises if
    the request is infeasible, e.g. a loop with a single agent).
    """
    if isinstance(dims, int):
        lo, hi = dims, dims
    else:
        lo, hi = dims
    if lo < 1 or lo > hi:
        raise DomainError(f"dims need 1 <= low <= high, got {dims}")
    if topology == "single_loop":
        topology = "single_loop_plus_forest"
    if n_agents < 1:
        raise DomainError("need at least one agent")
    if topology in ("single_loop_plus_forest", "multi_loop") and n_agents < 2:
        raise DomainError(f"topology {topology} needs at least two agents")
    if topology not in ("forest", "single_loop_plus_forest", "multi_loop"):
        raise DomainError(f"unknown topology {topology!r}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
    var_ids = list(range(1, n_agents + 1))
    var_dims = {i: int(rng.integers(lo, hi + 1)) for i in var_ids}

    # Grow a spanning forest of factor scopes, so the bipartite factor
    # graph stays acyclic; loops are closed afterwards by extra factors
    # inside the single component. trees maps each tree's root to its
    # members in ascending id; a merged tree keeps the first picked root.
    scopes = []
    trees = {i: [i] for i in var_ids}
    while len(trees) > 1:
        arity = int(min(rng.integers(2, 4), len(trees)))
        picked = [int(r) for r in rng.choice(sorted(trees), size=arity, replace=False)]
        scopes.append(tuple(sorted(int(rng.choice(trees[r])) for r in picked)))
        trees[picked[0]] = sorted(i for r in picked for i in trees.pop(r))

    for i in var_ids:
        if rng.random() < 0.3 or not scopes:
            scopes.append((i,))

    if topology == "single_loop_plus_forest":
        extra = 1
    elif topology == "multi_loop":
        extra = int(rng.integers(2, 5))
    else:
        extra = 0
    for _ in range(extra):
        # An arity-3 factor closes two cycles at once, so a single-loop
        # request must stick to pairs.
        if topology == "single_loop_plus_forest" or n_agents < 3:
            arity = 2
        else:
            arity = int(rng.integers(2, 4))
        members = rng.choice(var_ids, size=arity, replace=False)
        scopes.append(tuple(sorted(int(i) for i in members)))

    variables = [
        VariableSpec(id=i, dim=var_dims[i], prior_cov=_random_spd(rng, var_dims[i]))
        for i in var_ids
    ]
    factors = []
    for k, scope in enumerate(scopes, start=1):
        m = max(var_dims[i] for i in scope) + int(rng.integers(0, 2))
        coeff = {i: coeff_scale * rng.standard_normal((m, var_dims[i])) for i in scope}
        factors.append(
            FactorSpec(
                id=k,
                scope=scope,
                coeff=coeff,
                noise_cov=_random_spd(rng, m, scale=noise_scale),
                obs=rng.standard_normal(m),
            )
        )

    model = LinearGaussianModel(variables=variables, factors=factors)
    require_valid(model)
    got = classify_topology(build_factor_graph(model)).overall
    if got != topology:
        raise DomainError(
            f"generator produced topology {got!r} instead of {topology!r} (seed {seed})"
        )
    return model
