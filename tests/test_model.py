import copy
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from conftest import (QUARTET_A, QUARTET_J, QUARTET_PRIOR, dense_solution, quartet_model, rand_spd,
                      stack_global, variable_offsets)
from corpus import cli_mixed_models, forest_corpus, grid_field, loopy_corpus, mixed_corpus
from gabp.errors import DomainError
from gabp.graph import build_factor_graph
from gabp.model import (FactorSpec, LinearGaussianModel, VariableSpec, centralized_solve, random_model,
                        require_valid, validate_model)
from gabp.mrf import mrf_to_linear_gaussian
from gabp.numerics import PSD_TOL, RANK_TOL, SYM_TOL


def small_model():
    rng = np.random.default_rng(5)
    return LinearGaussianModel(
        variables=[
            VariableSpec(1, 2, rand_spd(rng, 2)),
            VariableSpec(2, 1, rand_spd(rng, 1)),
        ],
        factors=[
            FactorSpec(1, (1, 2), {1: rng.standard_normal((3, 2)),
                                   2: rng.standard_normal((3, 1))},
                       rand_spd(rng, 3), rng.standard_normal(3)),
            FactorSpec(2, (2,), {2: np.array([[2.0]])}, np.eye(1), np.array([0.3])),
        ],
    )


def test_validate_accepts_good_model():
    assert validate_model(small_model()) == []


def test_validate_reports_structural_problems():
    bad = LinearGaussianModel(
        variables=[
            VariableSpec(1, 1, np.array([[1.0]])),
            VariableSpec(1, 1, np.array([[1.0]])),           # duplicate id
            VariableSpec(3, 2, np.array([[1.0]])),           # shape mismatch
        ],
        factors=[
            FactorSpec(1, (1, 9), {1: np.array([[1.0]]), 9: np.array([[1.0]])},
                       np.eye(1), np.array([1.0])),          # unknown variable
        ],
    )
    problems = validate_model(bad)
    text = "\n".join(problems)
    assert "duplicate" in text
    assert "unknown" in text
    assert "shape" in text
    assert len(problems) == 3
    with pytest.raises(DomainError):
        require_valid(bad)


def test_validate_reports_semantic_problems():
    bad = LinearGaussianModel(
        variables=[VariableSpec(1, 1, np.array([[-1.0]]))],  # prior not pd
        factors=[
            FactorSpec(1, (1,), {1: np.array([[1.0]])},
                       np.array([[0.0]]), np.array([1.0])),  # noise not pd
            FactorSpec(2, (1,), {1: np.array([[0.0]])},      # rank deficient
                       np.eye(1), np.array([0.0])),
        ],
    )
    problems = validate_model(bad)
    text = "\n".join(problems)
    assert "prior_cov is not positive definite" in text
    assert "noise_cov is not positive definite" in text
    assert "full column rank" in text
    assert len(problems) == 3


def test_validate_reports_an_obs_that_is_not_a_vector():
    one = np.eye(1)
    bad = LinearGaussianModel(
        variables=[VariableSpec(1, 1, one), VariableSpec(2, 1, one)],
        factors=[FactorSpec(1, (1,), {1: one}, one, np.array([[1.0, 2.0]])),
                 FactorSpec(2, (1, 2), {1: one, 2: one}, one, np.ones(1))],
    )
    assert validate_model(bad) == ["factor 1: obs must be a vector, got shape (1, 2)"]
    with pytest.raises(DomainError):
        require_valid(bad)


def test_validate_rejects_asymmetric_covariances():
    m = LinearGaussianModel(
        variables=[VariableSpec(1, 2, np.array([[1.0, 0.3], [0.0, 1.0]]))],
        factors=[FactorSpec(1, (1,), {1: np.eye(2)}, np.eye(2), np.zeros(2))],
    )
    assert any("symmetric" in p for p in validate_model(m))


def reference_validate(model):
    """validate_model one matrix at a time, with plain numpy and the shared tolerances."""

    def symmetric(x):
        return not x.size or not np.max(np.abs(x - x.T)) > SYM_TOL * max(1.0, np.max(np.abs(x)))

    def pd(x):
        w = np.linalg.eigvalsh((x + x.T) / 2.0) if x.size else np.ones(1)
        return w[0] > PSD_TOL * max(1.0, w[-1])

    def full_rank(a):
        if a.shape[1] == 0 or a.shape[0] < a.shape[1]:
            return a.shape[1] == 0
        sv = np.linalg.svd(a, compute_uv=False)
        return sv[-1] > RANK_TOL * sv[0]

    problems, seen, dims = [], set(), {v.id: v.dim for v in model.variables}
    for v in model.variables:
        name = f"variable {v.id}: prior_cov"
        if v.id in seen:
            problems.append(f"duplicate variable id {v.id}")
            continue
        seen.add(v.id)
        if v.dim < 1:
            problems.append(f"variable {v.id}: dim must be >= 1, got {v.dim}")
        elif v.prior_cov.shape != (v.dim, v.dim):
            problems.append(f"{name} shape {v.prior_cov.shape} != ({v.dim}, {v.dim})")
        elif not np.isfinite(v.prior_cov).all():
            problems.append(f"{name} is not finite")
        elif not symmetric(v.prior_cov):
            problems.append(f"{name} is not symmetric")
        elif not pd(v.prior_cov):
            problems.append(f"{name} is not positive definite")
    seen = set()
    for f in model.factors:
        if f.id in seen:
            problems.append(f"duplicate factor id {f.id}")
            continue
        seen.add(f.id)
        m = len(f.obs)
        if not f.scope:
            problems.append(f"factor {f.id}: empty scope")
        elif any(i not in dims for i in f.scope):
            problems.append(f"factor {f.id}: scope references unknown variables "
                            f"{[i for i in f.scope if i not in dims]}")
        elif set(f.coeff) != set(f.scope):
            problems.append(f"factor {f.id}: coefficient keys {sorted(f.coeff)} "
                            f"do not match scope {list(f.scope)}")
        elif any(f.coeff[i].shape != (m, dims[i]) for i in f.scope):
            problems += [f"factor {f.id}: coeff[{i}] shape {f.coeff[i].shape} != ({m}, {dims[i]})"
                         for i in f.scope if f.coeff[i].shape != (m, dims[i])]
        elif f.noise_cov.shape != (m, m):
            problems.append(f"factor {f.id}: noise_cov shape {f.noise_cov.shape} != ({m}, {m})")
        else:
            arrays = [("obs", f.obs), ("noise_cov", f.noise_cov)]
            arrays += [(f"coeff[{i}]", f.coeff[i]) for i in f.scope]
            bad = [f"factor {f.id}: {name} is not finite" for name, x in arrays
                   if not np.isfinite(x).all()]
            if bad:
                problems += bad
            elif not symmetric(f.noise_cov):
                problems.append(f"factor {f.id}: noise_cov is not symmetric")
            else:
                if not pd(f.noise_cov):
                    problems.append(f"factor {f.id}: noise_cov is not positive definite")
                problems += [f"factor {f.id}: coeff[{i}] does not have full column rank"
                             for i in f.scope if not full_rank(f.coeff[i])]
    return problems


def _pick(items, rng):
    return items[int(rng.integers(len(items)))]


def _dup_variable(vs, fs, rng):
    vs.append(copy.deepcopy(_pick(vs, rng)))


def _dup_factor(vs, fs, rng):
    fs.append(copy.deepcopy(_pick(fs, rng)))


def _unknown_scope(vs, fs, rng):
    k = int(rng.integers(len(fs)))
    f = fs[k]
    fs[k] = FactorSpec(f.id, f.scope + (999,), {**f.coeff, 999: np.ones((f.obs_dim, 1))},
                       f.noise_cov, f.obs)


def _drop_coeff(vs, fs, rng):
    f = _pick(fs, rng)
    f.coeff.pop(_pick(sorted(f.coeff), rng), None)


def _zero_dim(vs, fs, rng):
    _pick(vs, rng).dim = 0


def _prior_shape(vs, fs, rng):
    v = _pick(vs, rng)
    v.prior_cov = np.eye(v.dim + 1)


def _coeff_shape(vs, fs, rng):
    f = _pick(fs, rng)
    f.coeff[_pick(f.scope, rng)] = np.ones((f.obs_dim + 1, 1))


def _noise_shape(vs, fs, rng):
    f = _pick(fs, rng)
    f.noise_cov = np.eye(f.obs_dim + 1)


def _non_finite(vs, fs, rng):
    x = _pick([v.prior_cov for v in vs]
              + [x for f in fs for x in (f.obs, f.noise_cov, *f.coeff.values())], rng)
    x.flat[int(rng.integers(x.size))] = _pick([np.nan, np.inf, -np.inf], rng)


def _asymmetric(vs, fs, rng):
    # within the tolerance, just past it, or far past it
    covs = [x for x in [v.prior_cov for v in vs] + [f.noise_cov for f in fs]
            if x.ndim == 2 and x.shape[0] == x.shape[1] > 1]
    if covs:
        x = _pick(covs, rng)
        x[0, -1] += _pick([1e-13, 3e-12, 1e-3, 0.5], rng) * max(1.0, np.max(np.abs(x)))


def _negate_cov(vs, fs, rng):
    x = _pick([v.prior_cov for v in vs] + [f.noise_cov for f in fs], rng)
    x *= -1.0


def _zero_noise(vs, fs, rng):
    _pick(fs, rng).noise_cov[...] = 0.0


def _zero_coeff(vs, fs, rng):
    f = _pick(fs, rng)
    f.coeff[_pick(sorted(f.coeff), rng)][...] = 0.0


def _over_wide(vs, fs, rng):
    # one observation row, so a block of a variable with dim 2 is wider than tall
    f = _pick(fs, rng)
    f.obs, f.noise_cov = f.obs[:1], f.noise_cov[:1, :1]
    f.coeff = {i: a[:1] for i, a in f.coeff.items()}


def _one_factor(vs, fs, rng):
    # several faults in one factor, where the order of the checks shows
    f = [_pick(fs, rng)]
    for _ in range(int(rng.integers(2, 4))):
        _pick((_non_finite, _asymmetric, _negate_cov, _zero_noise, _zero_coeff, _over_wide), rng)(
            [], f, rng)


CORRUPTIONS = (_dup_variable, _dup_factor, _unknown_scope, _drop_coeff, _zero_dim,
               _prior_shape, _coeff_shape, _noise_shape, _non_finite, _non_finite,
               _asymmetric, _asymmetric, _negate_cov, _zero_noise, _zero_coeff, _over_wide,
               _one_factor, _one_factor)


def test_validate_model_matches_the_per_matrix_transcription_on_corrupted_models():
    rng = np.random.default_rng(10)
    problems = []
    for _ in range(6):
        for label, model in mixed_corpus():
            vs, fs = copy.deepcopy(model.variables), copy.deepcopy(model.factors)
            for _ in range(int(rng.integers(1, 4))):
                _pick(CORRUPTIONS, rng)(vs, fs, rng)
            bad = LinearGaussianModel(variables=vs, factors=fs)
            want = reference_validate(bad)
            assert validate_model(bad) == want, label
            problems += want
    assert len(problems) >= 600
    for kind in ("duplicate variable", "duplicate factor", "unknown variables", "do not match",
                 "dim must be", "prior_cov shape", "] shape", "noise_cov shape", "obs is not finite",
                 "prior_cov is not finite", "noise_cov is not finite", "] is not finite",
                 "prior_cov is not symmetric", "noise_cov is not symmetric",
                 "prior_cov is not positive", "noise_cov is not positive", "full column rank"):
        assert any(kind in p for p in problems), kind


def test_validate_model_runs_one_eigvalsh_per_covariance_shape_and_one_svd_per_block_shape(
        monkeypatch):
    model = random_model(seed=3, n_agents=60, dims=(1, 3))
    calls = Counter()
    for name in ("eigvalsh", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, _name=name, **k: calls.update([_name]) or _real(*a, **k))
    assert validate_model(model) == []
    covs = {v.prior_cov.shape for v in model.variables} | {f.noise_cov.shape for f in model.factors}
    blocks = {a.shape for f in model.factors for a in f.coeff.values()}
    assert len(covs) < 8 and len(blocks) < 20 < len(model.factors)
    assert calls == {"eigvalsh": len(covs), "svd": len(blocks)}


def test_factor_scope_sorted_and_obs_dim():
    f = FactorSpec(1, (2, 1), {1: np.ones((2, 1)), 2: np.ones((2, 1))},
                   np.eye(2), np.zeros(2))
    assert f.scope == (1, 2)
    assert f.obs_dim == 2


def test_stack_global_layout_on_quartet():
    a, r, w, y = stack_global(quartet_model())
    np.testing.assert_allclose(a, QUARTET_A, atol=1e-15)
    np.testing.assert_allclose(r, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(w, np.diag(QUARTET_PRIOR), atol=1e-15)
    np.testing.assert_allclose(y, np.ones(3), atol=1e-15)
    prec = np.linalg.inv(w) + a.T @ np.linalg.solve(r, a)
    np.testing.assert_allclose(prec, QUARTET_J, atol=1e-12)


def test_variable_offsets_ascending():
    m = small_model()
    offs = variable_offsets(m)
    assert offs[1] == (0, 2)
    assert offs[2] == (2, 1)


@pytest.mark.parametrize("seed,topology", [
    (0, "forest"), (1, "forest"), (2, "single_loop"), (3, "multi_loop"), (4, "multi_loop"),
])
def test_centralized_solve_matches_dense_stacked_solve(seed, topology):
    # the dense route on the stacked model: (W^-1 + A^T R^-1 A)^-1 A^T R^-1 y
    m = random_model(seed=seed, n_agents=12, dims=(1, 3), topology=topology)
    a, r, w, y = stack_global(m)
    rinv_a = np.linalg.solve(r, a)
    cov = np.linalg.inv(np.linalg.inv(w) + a.T @ rinv_a)
    mean = cov @ (rinv_a.T @ y)

    sol = centralized_solve(m)
    np.testing.assert_allclose(sol.mean, mean, rtol=1e-10, atol=1e-10 * np.max(np.abs(mean)))
    for i, (s, d) in variable_offsets(m).items():
        block = cov[s:s + d, s:s + d]
        np.testing.assert_allclose(sol.covs[i], block, rtol=1e-10, atol=1e-10 * np.max(np.abs(block)))


def test_centralized_solve_without_factors_returns_the_priors():
    rng = np.random.default_rng(8)
    m = LinearGaussianModel(variables=[VariableSpec(1, 2, rand_spd(rng, 2)),
                                       VariableSpec(2, 3, rand_spd(rng, 3))], factors=[])
    sol = centralized_solve(m)
    np.testing.assert_array_equal(sol.mean, np.zeros(5))
    for v in m.variables:
        np.testing.assert_allclose(sol.covs[v.id], v.prior_cov, rtol=1e-12)


def test_centralized_solve_matches_block_assembly():
    # independent route: accumulate the joint precision factor by factor
    m = small_model()
    offs = variable_offsets(m)
    total = sum(v.dim for v in m.variables)
    prec = np.zeros((total, total))
    info = np.zeros(total)
    for v in m.variables:
        s, d = offs[v.id]
        prec[s:s + d, s:s + d] += np.linalg.inv(v.prior_cov)
    for f in m.factors:
        rinv = np.linalg.inv(f.noise_cov)
        for i in f.scope:
            si, di = offs[i]
            info[si:si + di] += f.coeff[i].T @ rinv @ f.obs
            for j in f.scope:
                sj, dj = offs[j]
                prec[si:si + di, sj:sj + dj] += f.coeff[i].T @ rinv @ f.coeff[j]
    expected = np.linalg.solve(prec, info)

    sol = centralized_solve(m)
    np.testing.assert_allclose(sol.mean, expected, atol=1e-12)
    for v in m.variables:
        s, d = offs[v.id]
        np.testing.assert_allclose(sol.means[v.id], expected[s:s + d], atol=1e-12)
        np.testing.assert_allclose(sol.covs[v.id],
                                   np.linalg.inv(prec)[s:s + d, s:s + d], atol=1e-12)


def assert_exact_means(model, label=""):
    """centralized_solve's means and every per-variable covariance against the dense oracle."""
    sol = centralized_solve(model)
    want, cov = dense_solution(model)
    assert sol.mean.shape == want.shape, label
    np.testing.assert_allclose(sol.mean, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want), initial=0.0),
                               err_msg=str(label))
    assert sorted(sol.covs) == [v.id for v in model.variables], label
    for i, (s, d) in variable_offsets(model).items():
        block = cov[s:s + d, s:s + d]
        np.testing.assert_allclose(sol.covs[i], block, rtol=0.0, atol=1e-12 * np.max(np.abs(block)),
                                   err_msg=f"{label} variable {i}")


def test_joint_mean_matches_the_dense_oracle_on_every_corpus_and_bench_model():
    models = list(mixed_corpus()) + [(f"forest-{k}", m) for k, m in enumerate(forest_corpus())]
    models += [(f"loopy-{k}", m) for k, m in enumerate(loopy_corpus())] + cli_mixed_models()
    models += [(f"bench-{n}", random_model(seed=1, n_agents=n, topology="multi_loop"))
               for n in (480, 520)]
    models += [(f"grid-{side}", mrf_to_linear_gaussian(grid_field(side))[0]) for side in (10, 20)]
    for label, model in models:
        assert_exact_means(model, label)


def test_centralized_solve_forms_no_array_of_the_joint_precisions_size():
    # the dense route holds the D x D precision and its inverse; the elimination stays far below one
    import tracemalloc

    m = random_model(seed=1, n_agents=480, topology="multi_loop")
    tracemalloc.start()
    try:
        centralized_solve(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(v.dim for v in m.variables) ** 2 * 8


def test_joint_mean_of_an_empty_model_is_empty():
    sol = centralized_solve(LinearGaussianModel(variables=[], factors=[]))
    assert sol.mean.shape == (0,) and sol.means == sol.covs == {}


def test_joint_mean_without_factors_is_the_prior_mean():
    rng = np.random.default_rng(3)
    m = LinearGaussianModel(variables=[VariableSpec(1, 2, rand_spd(rng, 2)),
                                       VariableSpec(4, 1, rand_spd(rng, 1))], factors=[])
    np.testing.assert_array_equal(centralized_solve(m).mean, np.zeros(3))


def test_a_variable_without_factors_keeps_its_prior_mean():
    m = small_model()
    m = LinearGaussianModel(variables=m.variables + [VariableSpec(3, 2, 2.0 * np.eye(2))],
                            factors=m.factors)
    peel = build_factor_graph(m).peel
    # factors 1-2 are nodes 0-1 and variables 1-3 nodes 2-4: variable 3 leaves in round one, alone
    assert dict(zip(peel.order[peel.rounds[0][0]].tolist(), peel.hung.tolist())) == {1: 2, 2: 0, 4: -1}
    np.testing.assert_array_equal(centralized_solve(m).mean[3:], np.zeros(2))
    assert_exact_means(m)


def test_joint_mean_on_a_forest_eliminates_everything():
    for seed in range(5):
        m = random_model(seed=seed, n_agents=12, dims=(1, 3), topology="forest")
        assert not build_factor_graph(m).peel.core.any()
        assert_exact_means(m, seed)


def test_joint_mean_on_a_single_loop_solves_only_the_loop():
    for seed in range(5):
        m = random_model(seed=seed, n_agents=12, dims=(1, 3), topology="single_loop")
        g = build_factor_graph(m)
        peel = g.peel
        core = g.pairs[peel.core_edges]
        # the core is one cycle: every core node keeps exactly two core edges
        assert len(core) == peel.core.sum() > 0
        assert set(np.bincount(core.ravel(), minlength=len(peel.core))[peel.core].tolist()) == {2}
        assert_exact_means(m, seed)


def test_an_arity_3_factor_is_eliminated_down_to_one_variable():
    # factor 1 over (1, 2, 3) hangs off variable 3 of the loop 3-4-5: variables 1 and 2
    # leave into it, then it folds into 3
    rng = np.random.default_rng(11)
    dims = {1: 2, 2: 1, 3: 3, 4: 1, 5: 2}
    variables = [VariableSpec(i, d, rand_spd(rng, d)) for i, d in dims.items()]
    scopes = {1: (1, 2, 3), 2: (3, 4), 3: (4, 5), 4: (3, 5)}
    factors = [FactorSpec(n, scope, {i: rng.standard_normal((3, dims[i])) for i in scope},
                          rand_spd(rng, 3), rng.standard_normal(3)) for n, scope in scopes.items()]
    m = LinearGaussianModel(variables=variables, factors=factors)
    g = build_factor_graph(m)
    peel = g.peel
    # nodes: factors 1-4 are 0-3, variables 1-5 are 4-8
    rounds = [peel.order[removed].tolist() for removed, _, _ in peel.rounds]
    assert rounds == [[4, 5], [0]]
    assert peel.hung.tolist() == [g.f2v_index[(1, 1)], g.f2v_index[(1, 2)], g.f2v_index[(1, 3)]]
    assert peel.core.tolist() == [False, True, True, True, False, False, True, True, True]
    assert_exact_means(m)


def test_joint_mean_with_unary_factors_only():
    rng = np.random.default_rng(12)
    variables = [VariableSpec(i, 2, rand_spd(rng, 2)) for i in (1, 2, 3)]
    factors = [FactorSpec(n, (i,), {i: rng.standard_normal((m, 2))}, rand_spd(rng, m),
                          rng.standard_normal(m))
               for n, (i, m) in enumerate([(1, 2), (1, 3), (2, 1), (3, 2), (3, 2)], start=1)]
    m = LinearGaussianModel(variables=variables, factors=factors)
    assert not build_factor_graph(m).peel.core.any()
    assert_exact_means(m)


def test_joint_mean_takes_nothing_from_the_engine():
    # the exact means check the engine, so nothing they import may be gabp.bp or gabp.analysis
    import ast
    import importlib.util
    import inspect
    from pathlib import Path

    seen, todo = set(), ["gabp.model"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(ast.parse(Path(importlib.util.find_spec(name).origin).read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("gabp"):
                todo.append(node.module)
            elif isinstance(node, ast.Import):
                todo += [a.name for a in node.names if a.name.startswith("gabp")]
    assert seen == {"gabp.model", "gabp.graph", "gabp.errors", "gabp.numerics"}
    assert "EdgeStack" not in inspect.getsource(centralized_solve)


def test_random_model_deterministic_and_valid():
    a = random_model(seed=42, n_agents=9, topology="multi_loop")
    b = random_model(seed=42, n_agents=9, topology="multi_loop")
    assert [v.id for v in a.variables] == [v.id for v in b.variables]
    for fa, fb in zip(a.factors, b.factors):
        assert fa.scope == fb.scope
        np.testing.assert_array_equal(fa.noise_cov, fb.noise_cov)
        np.testing.assert_array_equal(fa.obs, fb.obs)
    assert validate_model(a) == []


@pytest.mark.parametrize("topology", ["forest", "single_loop", "multi_loop"])
def test_random_model_topologies(topology):
    from gabp.graph import build_factor_graph, classify_topology
    want = "single_loop_plus_forest" if topology == "single_loop" else topology
    for seed in (0, 1, 2):
        m = random_model(seed=seed, n_agents=7, dims=(1, 3), topology=topology)
        assert classify_topology(build_factor_graph(m)).overall == want
        assert all(1 <= v.dim <= 3 for v in m.variables)


# sha1 of each generated model file. The generator's stream must not
# change: every seeded test, corpus and benchmark input is drawn from it.
RANDOM_MODEL_DIGESTS = [
    ((0, 1, "forest", (1, 3)), "3c6fa32e8d2d161f7b212e23716643334c9e4992"),
    ((3, 2, "single_loop", (1, 3)), "d0866b78fd426c2eed4fa752821549f39ddd40c5"),
    ((5, 3, "multi_loop", (1, 3)), "023d2cca8cca2bcd5072b48c7cef6065e971daea"),
    ((7, 2, "forest", 2), "126a65524335b9a84326e26374d2d24add048226"),
    ((11, 5, "multi_loop", (1, 2)), "3c7f394ce9789ccf3956b809cc048c1958ccc1bc"),
    ((1, 17, "single_loop", (1, 3)), "c95ded482826450a036db4c8b5df0cb2ee08820b"),
    ((2, 64, "forest", (1, 3)), "9f5342fda8c7dbe70c402c85a52bedccc8475210"),
    ((4, 200, "multi_loop", (1, 3)), "55582550192edcdf1e18961aebe2fb090da52e1e"),
    ((42, 9, "multi_loop", (1, 3)), "2a70e7f7069815e058ab55bb9e6e1033857c3b73"),
    ((9, 33, "forest", 1), "5f53f7c62c0c15023d8e21d278b6c865ce72dc6a"),
    ((13, 3, "forest", (2, 3)), "ed7feeeb0d0d7a3d3486a940c40f007e8724c9af"),
    ((1, 480, "multi_loop", (1, 3)), "fbf9bd312e29ccb7eb2bddf128efb9fddf88f780"),
]


@pytest.mark.parametrize("case, digest", RANDOM_MODEL_DIGESTS)
def test_random_model_stream_is_pinned(case, digest):
    from gabp.io import model_to_json
    seed, n_agents, topology, dims = case
    m = random_model(seed=seed, n_agents=n_agents, topology=topology, dims=dims)
    text = json.dumps(model_to_json(m), sort_keys=True)
    assert hashlib.sha1(text.encode()).hexdigest() == digest


def test_random_model_rejects_bad_arguments():
    with pytest.raises(DomainError):
        random_model(seed=0, n_agents=0)
    with pytest.raises(DomainError):
        random_model(seed=0, n_agents=5, topology="pretzel")
    with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
        random_model(seed=-1, n_agents=5)
    for dims in (0, (0, 3), (1, 0), (3, 2)):
        with pytest.raises(DomainError, match="dims"):
            random_model(seed=0, n_agents=5, dims=dims)
