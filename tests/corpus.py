"""Model corpora shared between the unit tests and the acceptance run.

The frustrated family exists because balanced pairwise models cannot
push the mean-recursion spectral radius past one: their joint precision
always splits into width-two columns. Single-row arity-3 factors with
one small and two large coefficients break that structure, and a few
seeds land well above radius one.
"""

from functools import lru_cache

import numpy as np

from gabp.model import FactorSpec, LinearGaussianModel, VariableSpec, random_model


def frustrated_model(seed, n=4, gain=6.0, tau=30.0, n_extra=6):
    rng = np.random.default_rng(seed)
    variables = [VariableSpec(i, 1, np.array([[tau]])) for i in range(1, n + 1)]
    factors = []
    fid = 0
    for i in range(1, n):
        fid += 1
        factors.append(FactorSpec(fid, (i, i + 1),
                                  {i: np.array([[1.0]]), i + 1: np.array([[1.0]])},
                                  np.eye(1), rng.standard_normal(1)))
    for _ in range(n_extra):
        scope = tuple(sorted(rng.choice(range(1, n + 1), size=3, replace=False).tolist()))
        c = rng.permutation([1.0, gain, -gain]) * rng.choice([-1, 1], size=3)
        coeff = {int(v): np.array([[float(c[k])]]) for k, v in enumerate(scope)}
        fid += 1
        factors.append(FactorSpec(fid, scope, coeff, np.eye(1), rng.standard_normal(1)))
    return LinearGaussianModel(variables=variables, factors=factors)


# (n, n_extra, gain, seed) tuples known to land at rho >= 1.02. Found by
# sweeping the frustrated family; kept pinned so the corpus is stable.
DIVERGENT_RECIPES = [
    (4, 5, 4.0, 4), (4, 5, 4.0, 6), (4, 5, 4.0, 7), (4, 5, 4.0, 45),
    (4, 5, 6.0, 4), (4, 5, 6.0, 6), (4, 5, 6.0, 45),
    (4, 6, 4.0, 7), (4, 6, 4.0, 45), (4, 6, 6.0, 7), (4, 6, 6.0, 45),
    (5, 5, 4.0, 8), (5, 5, 4.0, 49), (5, 6, 4.0, 8), (5, 6, 6.0, 8),
    (5, 8, 4.0, 8), (5, 8, 4.0, 17), (5, 8, 6.0, 8), (5, 8, 6.0, 16),
]

# The showcase divergent instance: rho about 1.19, message means pass
# the 1e12 guard within a few hundred iterations.
SHOWCASE_DIVERGENT = (4, 6, 6.0, 7)


@lru_cache(maxsize=None)
def forest_corpus():
    """Fifty forest models, up to 20 agents, variable dims up to 3."""
    out = []
    for seed in range(50):
        n_agents = 3 + seed % 18
        out.append(random_model(seed=seed, n_agents=n_agents, dims=(1, 3),
                                topology="forest"))
    return tuple(out)


@lru_cache(maxsize=None)
def loopy_corpus():
    """Fifty loopy models: 25 single-loop, 25 multi-loop."""
    out = []
    for seed in range(25):
        out.append(random_model(seed=seed, n_agents=4 + seed % 8, dims=(1, 3),
                                topology="single_loop"))
    for seed in range(25):
        out.append(random_model(seed=100 + seed, n_agents=4 + seed % 8, dims=(1, 3),
                                topology="multi_loop"))
    return tuple(out)


@lru_cache(maxsize=None)
def mixed_corpus():
    """At least one hundred models with spectral radii on both sides of
    one, skipping the borderline band (0.98, 1.02).

    Returns a list of (label, model) pairs; radii are computed by the
    caller so this module stays free of analysis imports.
    """
    out = []
    for seed in range(45):
        out.append((f"random-multi-{seed}",
                    random_model(seed=seed, n_agents=5 + seed % 4, dims=(1, 2),
                                 topology="multi_loop",
                                 coeff_scale=1.0 + (seed % 3))))
    for seed in range(30):
        out.append((f"frustrated-low-{seed}",
                    frustrated_model(seed, n=5, gain=2.0, n_extra=5)))
    for (n, n_extra, gain, seed) in DIVERGENT_RECIPES:
        out.append((f"frustrated-high-{n}-{n_extra}-{gain}-{seed}",
                    frustrated_model(seed, n=n, gain=gain, n_extra=n_extra)))
    for seed in range(10):
        out.append((f"frustrated-mid-{seed}",
                    frustrated_model(seed, n=4, gain=3.0, n_extra=5)))
    return tuple(out)


CLI_MIXED_TOPOLOGIES = ("forest", "single_loop", "multi_loop")


def cli_mixed_models():
    """The 18 models of the benchmark's cli-mixed workload (its observations aside)."""
    return [(f"cli-mixed-{k}", random_model(seed=k + 1, n_agents=8 + round(16 * k / 17),
                                            dims=(1, 1 + (k // 3) % 3),
                                            topology=CLI_MIXED_TOPOLOGIES[k % 3]))
            for k in range(18)]


def relabelled(model, shift):
    """The model with every variable and factor id moved up by shift, which keeps their order."""
    return LinearGaussianModel(
        variables=[VariableSpec(v.id + shift, v.dim, v.prior_cov) for v in model.variables],
        factors=[FactorSpec(f.id + shift, [i + shift for i in f.scope],
                            {i + shift: a for i, a in f.coeff.items()}, f.noise_cov, f.obs)
                 for f in model.factors])


def random_walk_summable(seed, n=6, target_radius=0.7):
    """Normalized J = I - R with the absolute spectral radius pinned."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n))
    r = (r + r.T) / 2
    np.fill_diagonal(r, 0.0)
    lam = np.max(np.abs(np.linalg.eigvalsh(np.abs(r))))
    r *= target_radius / lam
    h = rng.standard_normal(n)
    return np.eye(n) - r, h


def grid_field(side, coupling=0.22, seed=0):
    """Unit-diagonal J of a side x side 4-neighbour grid, couplings uniform
    in (-coupling, coupling), drawn cell by cell (lower neighbour, then
    right neighbour).

    At side 20 the Perron vector of |R| has entries down to about 5.7e-10,
    so a width-two split scaled by it, with a tolerance applied in scaled
    units, silently drops the rows at that end. The split's scaling
    u = comparison(J - omega I)^-1 1 stays at or above 1 / (1 - omega).
    """
    rng = np.random.default_rng(seed)
    n = side * side
    j = np.eye(n)
    for r in range(side):
        for c in range(side):
            i = r * side + c
            for k, inside in ((i + side, r + 1 < side), (i + 1, c + 1 < side)):
                if inside:
                    j[i, k] = j[k, i] = rng.uniform(-coupling, coupling)
    return j
