import numpy as np
import pytest

from conftest import (GOLDEN_EDGE_PRECISION, charpoly_radius, dense_marginals, dense_q, entry_core,
                      factors_of_var, information_iterates, quartet_model, rand_spd, v2f_layout)
from corpus import (SHOWCASE_DIVERGENT, cli_mixed_models, forest_corpus, frustrated_model,
                    loopy_corpus, mixed_corpus)
from gabp.analysis import (MEAN_RECURSION_TOL, assemble_q, certify, compute_bounds,
                           decide_mean_convergence, fit_contraction_rate,
                           information_fixed_point, two_phase_mean_recursion)
from gabp.bp import BpOptions, EdgeStack, Message, edge_views, run_bp
from gabp.errors import DomainError, IterationBudgetError
from gabp.graph import build_factor_graph, classify_topology
from gabp.model import random_model
from gabp.numerics import part_metric, psd_compare


def affine_offset(model, g, fp):
    """b of the mean recursion v <- -Q v + b, edge by edge from the message equations.

    b is the v2f means one mean step makes from zero v2f means: each
    factor k sends K_{k->j} y_k, K = A_j^T M^-1 with M = R_k + sum over
    the other variables z of A_z J_{z->k}^-1 A_z^T, and the v2f mean is
    J_{j->n}^-1 times the sum of what the factors k != n send.
    """
    offsets, total = v2f_layout(g)
    v2f = edge_views(fp.stack.graph, fp.v2f_j, v2f=True)
    factors = {f.id: f for f in model.factors}
    b, factors_of = np.zeros(total), factors_of_var(g)
    for (j, n), (start, dim) in offsets.items():
        sent = np.zeros(dim)
        for k in factors_of[j]:
            if k == n:
                continue
            f = factors[k]
            core = f.noise_cov + sum(f.coeff[z] @ np.linalg.solve(v2f[(z, k)], f.coeff[z].T)
                                     for z in f.scope if z != j)
            sent += f.coeff[j].T @ np.linalg.solve(core, f.obs)
        b[start:start + dim] = np.linalg.solve(v2f[(j, n)], sent)
    return b


def test_upper_bound_is_sensor_information(quartet):
    g = build_factor_graph(quartet)
    _, upper = compute_bounds(quartet, g)
    for f in quartet.factors:
        for i in f.scope:
            expected = f.coeff[i].T @ np.linalg.solve(f.noise_cov, f.coeff[i])
            np.testing.assert_allclose(upper[(f.id, i)], expected, atol=1e-14)


def test_lower_bound_equals_first_zero_init_iterate(quartet):
    # dual route: compute_bounds builds L in closed form; the recursion
    # reaches the same matrices after exactly one step from zero
    g = build_factor_graph(quartet)
    lower, _ = compute_bounds(quartet, g)
    first = information_iterates(quartet, g, "zero", 1)[1]
    for e in g.f2v_edges:
        np.testing.assert_allclose(lower[e], first[e], atol=1e-12)


def test_lower_bound_is_the_first_zero_init_iterate_bit_for_bit():
    # the bound and the recursion share one information half, so the
    # first step from zero messages reproduces L exactly, padding included
    model = random_model(seed=5, n_agents=30, dims=(1, 3), topology="multi_loop")
    g = build_factor_graph(model)
    lower, _ = compute_bounds(model, g)
    first = information_iterates(model, g, "zero", 1)[1]
    for e in g.f2v_edges:
        np.testing.assert_array_equal(lower[e], first[e])


def test_information_iterates_are_the_engine_f2v_j_bit_for_bit(quartet):
    g = build_factor_graph(quartet)
    iterates = information_iterates(quartet, g, "zero")
    for k in range(len(iterates)):
        res = run_bp(quartet, g, options=BpOptions(max_iters=k))
        assert res.iterations == k
        for e in g.f2v_edges:
            np.testing.assert_array_equal(res.messages["f2v"][e].J, iterates[k][e])


def test_golden_ratio_fixed_point(two_agent_unit_chain):
    fp = information_fixed_point(two_agent_unit_chain)
    for j in edge_views(fp.stack.graph, fp.f2v_j).values():
        assert j[0, 0] == pytest.approx(GOLDEN_EDGE_PRECISION, abs=1e-12)
    # v2f companions: prior precision 1 plus the other factor's message
    for j in edge_views(fp.stack.graph, fp.v2f_j, v2f=True).values():
        assert j[0, 0] == pytest.approx(1.0 + GOLDEN_EDGE_PRECISION, abs=1e-12)


def test_fixed_point_is_init_invariant(quartet):
    g = build_factor_graph(quartet)
    ref = information_fixed_point(quartet, g, init="zero")
    rng = np.random.default_rng(3)
    custom = {e: rand_spd(rng, 1, scale=2.0) for e in g.f2v_edges}
    for fp in (
        information_fixed_point(quartet, g, init="upper"),
        information_fixed_point(quartet, g, init="lower"),
        information_fixed_point(quartet, g, init=custom),
    ):
        got, want = edge_views(fp.stack.graph, fp.f2v_j), edge_views(ref.stack.graph, ref.f2v_j)
        for e in g.f2v_edges:
            np.testing.assert_allclose(got[e], want[e], atol=1e-10)


def test_zero_init_iterates_are_monotone_and_sandwiched(quartet):
    g = build_factor_graph(quartet)
    lower, upper = compute_bounds(quartet, g)
    hist = information_iterates(quartet, g, "zero")
    for ell in range(1, len(hist)):
        for e in g.f2v_edges:
            assert psd_compare(hist[ell][e], lower[e])
            assert psd_compare(upper[e], hist[ell][e])
            if ell >= 2:
                assert psd_compare(hist[ell][e], hist[ell - 1][e])


def test_upper_init_iterates_are_nonincreasing(quartet):
    g = build_factor_graph(quartet)
    hist = information_iterates(quartet, g, "upper")
    for ell in range(1, len(hist)):
        for e in g.f2v_edges:
            assert psd_compare(hist[ell - 1][e], hist[ell][e])


def test_lower_init_saves_exactly_one_iteration(quartet):
    g = build_factor_graph(quartet)
    # the sync recursion: L is its first iterate from zero, so from L it stops one step earlier
    assert len(information_iterates(quartet, g, "lower")) == len(information_iterates(quartet, g, "zero")) - 1
    # the core iterations: lower init starts the core between the zero start and its first iterate
    from_zero = information_fixed_point(quartet, g, init="zero")
    from_lower = information_fixed_point(quartet, g, init="lower")
    assert from_lower.iterations <= from_zero.iterations
    assert from_zero.iterations - from_lower.iterations <= 1


def test_fixed_point_budget_error(quartet, monkeypatch):
    for max_iters in (2, 0):
        monkeypatch.setattr("gabp.analysis.FIXED_POINT_MAX_ITERS", max_iters)
        with pytest.raises(IterationBudgetError):
            information_fixed_point(quartet)


def test_q_block_sparsity_pattern(quartet):
    g = build_factor_graph(quartet)
    fp = information_fixed_point(quartet, g)
    qs = assemble_q(quartet, g, fp)
    q, (offsets, dim) = dense_q(quartet, g, fp), v2f_layout(g)
    assert q.shape == (dim, dim)
    neighbors_of_var = {j: set(ks) for j, ks in factors_of_var(g).items()}
    scope = {f.id: set(f.scope) for f in quartet.factors}
    for (j, n) in g.v2f_edges:
        rs, rd = offsets[(j, n)]
        for (z, k) in g.v2f_edges:
            cs, cd = offsets[(z, k)]
            block = q[rs:rs + rd, cs:cs + cd]
            on_pattern = (k in neighbors_of_var[j] and k != n
                          and z in scope[k] and z != j)
            if not on_pattern:
                assert np.all(block == 0.0)
    # the quartet loop makes Q genuinely non-nilpotent
    assert qs.rho > 0.1


def test_engine_one_step_equals_affine_map(quartet, monkeypatch):
    # dual route: one synchronous engine iteration started at the fixed
    # point with arbitrary means must realize v' = -Q v + b exactly
    g = build_factor_graph(quartet)
    monkeypatch.setattr("gabp.analysis.FIXED_POINT_TOL", 1e-14)
    fp = information_fixed_point(quartet, g)
    q, (offsets, total) = dense_q(quartet, g, fp), v2f_layout(g)
    f2v, v2f = edge_views(fp.stack.graph, fp.f2v_j), edge_views(fp.stack.graph, fp.v2f_j, v2f=True)

    rng = np.random.default_rng(7)
    x = rng.standard_normal(total)

    # f2v means consistent with v2f means x at the frozen fixed point
    f2v_means = {}
    factors = {f.id: f for f in quartet.factors}
    for (n, i) in g.f2v_edges:
        f = factors[n]
        core = f.noise_cov.copy()
        resid = f.obs.copy()
        for z in f.scope:
            if z == i:
                continue
            az = f.coeff[z]
            core = core + az @ np.linalg.solve(v2f[(z, n)], az.T)
            start, dim = offsets[(z, n)]
            resid = resid - az @ x[start:start + dim]
        ai = f.coeff[i]
        jmat = ai.T @ np.linalg.solve(core, ai)
        f2v_means[(n, i)] = np.linalg.solve(jmat, ai.T @ np.linalg.solve(core, resid))

    init = {e: Message(J=f2v[e].copy(), v=f2v_means[e]) for e in g.f2v_edges}
    res = run_bp(quartet, g, init=init, options=BpOptions(max_iters=1))
    got = np.zeros(total)
    for e, (start, dim) in offsets.items():
        got[start:start + dim] = res.messages["v2f"][e].v

    expected = -q @ x + affine_offset(quartet, g, fp)
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_forest_q_is_nilpotent():
    m = random_model(seed=4, n_agents=8, topology="forest")
    g = build_factor_graph(m)
    fp = information_fixed_point(m, g)
    qs = assemble_q(m, g, fp)
    assert qs.rho < 1e-10
    power = np.linalg.matrix_power(dense_q(m, g, fp), len(g.v2f_edges))
    assert np.max(np.abs(power)) < 1e-12
    # every edge of a forest is peeled: the core is empty and rho exactly 0
    assert qs.q.shape == (0, 0) and qs.rho == 0.0


def test_spectral_radius_route_agreement(quartet):
    g = build_factor_graph(quartet)
    fp = information_fixed_point(quartet, g)
    qs = assemble_q(quartet, g, fp)
    # charpoly root-finding carries its own conditioning error, so the
    # agreement tolerance is looser than machine precision
    assert qs.rho == pytest.approx(charpoly_radius(qs.q), rel=1e-6)


def test_two_phase_converges_to_linear_solve(quartet):
    multi_loop = random_model(seed=1, n_agents=8, dims=(1, 3), topology="multi_loop")
    for model in (quartet, multi_loop):
        g = build_factor_graph(model)
        fp = information_fixed_point(model, g)
        q = dense_q(model, g, fp)
        b = affine_offset(model, g, fp)
        mr = two_phase_mean_recursion(fp)
        assert mr.status == "converged"
        direct = np.linalg.solve(np.eye(q.shape[0]) + q, b)
        np.testing.assert_allclose(mr.v, direct, atol=1e-8)

        # the engine's mean half takes exactly the steps of the dense loop on Q's core C, from zero,
        # with the coordinates off C held at their solution: those C reads run toward C and are
        # settled before the loop (Q is block triangular in the order toward, C, away)
        c = entry_core(q)
        b_c = b[c] - q[c] @ direct + q[np.ix_(c, c)] @ direct[c]
        x = np.zeros(len(c))
        for dense_iterations in range(1, 20_001):
            x, prev = b_c - q[np.ix_(c, c)] @ x, x
            if np.max(np.abs(x - prev)) < MEAN_RECURSION_TOL:
                break
        assert 0 < len(c) < len(b) and mr.iterations == dense_iterations

        for v, (mean, _) in dense_marginals(model).items():
            np.testing.assert_allclose(mr.means[v], mean, atol=1e-8)


def test_two_phase_diverges_above_radius_one():
    n, n_extra, gain, seed = SHOWCASE_DIVERGENT
    m = frustrated_model(seed, n=n, gain=gain, n_extra=n_extra)
    g = build_factor_graph(m)
    fp = information_fixed_point(m, g)
    qs = assemble_q(m, g, fp)
    assert qs.rho > 1.02
    mr = two_phase_mean_recursion(fp)
    assert mr.status == "diverged"


def test_the_mean_recursion_takes_one_f2v_step_per_iteration_after_priming(monkeypatch):
    # one step primes the store; a diverged iteration, one mean half, still takes its own
    # on the core rows: the hanging trees' rows take their f2v steps in the passes around the loop
    calls, half = [], EdgeStack.mean_half  # calls: each call's f2v rows, its last argument
    monkeypatch.setattr(EdgeStack, "mean_half", lambda st, *args: calls.append(args[-1]) or half(st, *args))
    n, n_extra, gain, seed = SHOWCASE_DIVERGENT
    divergent = frustrated_model(seed, n=n, gain=gain, n_extra=n_extra)
    for model, status, extra in ((quartet_model(), "converged", 1), (divergent, "diverged", 1)):
        fp = information_fixed_point(model)
        core = np.flatnonzero(fp.stack.graph.peel.core_edges)
        calls.clear()
        mr = two_phase_mean_recursion(fp)
        assert mr.status == status
        assert sum(np.array_equal(rows, core) for rows in calls) == mr.iterations + extra > 1


def test_decide_mean_convergence_branches():
    assert decide_mean_convergence(5.0, "forest") == "guaranteed_by_topology"
    assert decide_mean_convergence(5.0, "single_loop_plus_forest") == "guaranteed_by_topology"
    assert decide_mean_convergence(0.5, "multi_loop") == "converges_rho_lt_1"
    assert decide_mean_convergence(1.5, "multi_loop") == "diverges_rho_ge_1"
    assert decide_mean_convergence(0.9995, "multi_loop") == "borderline"
    assert decide_mean_convergence(1.0005, "multi_loop") == "borderline"
    # just outside the band the verdict is decided again
    assert decide_mean_convergence(1.0015, "multi_loop") == "diverges_rho_ge_1"
    assert decide_mean_convergence(0.9985, "multi_loop") == "converges_rho_lt_1"


def test_fit_contraction_rate_recovers_geometric_decay():
    d0, c = 0.8, 0.55
    seq = [d0 * c ** ell for ell in range(1, 12)]
    fit = fit_contraction_rate(seq)
    assert fit.c == pytest.approx(c, rel=1e-6)
    assert fit.n_points == len(seq)


def test_fit_contraction_rate_stops_at_floor_and_infs():
    seq = [0.5, 0.25, 0.125, 1e-15, 0.5]
    fit = fit_contraction_rate(seq)
    assert fit.n_points == 3
    # a float64 array that ends in NaN, as the metric column of a run without a reference does
    on_array = fit_contraction_rate(np.array([0.5, 0.25, 0.125, np.nan, 0.5]))
    assert (on_array.c, on_array.n_points) == (fit.c, 3)
    with pytest.raises(DomainError, match="got 0"):
        fit_contraction_rate(np.full(5, np.nan))
    with pytest.raises(DomainError):
        fit_contraction_rate([0.5, 0.25])
    with pytest.raises(DomainError):
        fit_contraction_rate([np.inf, 0.5, 0.25, 0.125])
    # four usable points whose minimum ends a rise: the decaying suffix is 3.0, 0.5
    with pytest.raises(DomainError, match="decaying suffix has fewer than 3 points"):
        fit_contraction_rate([1.0, 2.0, 3.0, 0.5])


def test_fit_contraction_rate_uses_decaying_suffix():
    # a flat transient before clean decay must not poison the fit
    seq = [0.5, 0.5, 0.5, 0.4, 0.2, 0.1, 0.05, 0.025]
    fit = fit_contraction_rate(seq)
    assert fit.c == pytest.approx(0.5, rel=0.1)
    assert fit.window[0] >= 3


def test_fit_contraction_rate_cuts_a_flat_noise_tail():
    # clean decay to 7e-12, then flat at a noise floor above it but above
    # PART_METRIC_FLOOR, as the part metric to a tol-limited J* behaves
    seq = [0.7 * 0.1 ** ell for ell in range(12)] + [3.2e-11] * 9
    fit = fit_contraction_rate(seq)
    assert fit.c == pytest.approx(0.1, rel=1e-9)
    assert fit.window == (1, 12)


def test_certify_builds_one_stack_with_or_without_the_cross_check(quartet, monkeypatch):
    from gabp.bp import EdgeStack

    calls = []
    real_init, real_lower = EdgeStack.__init__, EdgeStack.lower_bound
    monkeypatch.setattr(EdgeStack, "__init__",
                        lambda self, *args: calls.append("__init__") or real_init(self, *args))

    def lower_bound(self):
        # count computations of the bound, not reads of the stack's cached copy
        if self._lower is None:
            calls.append("lower_bound")
        return real_lower(self)

    monkeypatch.setattr(EdgeStack, "lower_bound", lower_bound)
    certify(quartet)
    # the cross-check's run_bp runs on the fixed point's stack, and its "lower" init reuses the bound
    assert calls == ["__init__", "lower_bound"]
    calls.clear()
    certify(quartet, cross_check=False)
    assert calls == ["__init__", "lower_bound"]


def test_certify_full_report(quartet):
    rep = certify(quartet)
    assert rep.topology == "single_loop_plus_forest"
    assert rep.diameter == 4
    assert rep.bounds_hold
    assert rep.verdict == "guaranteed_by_topology"
    assert 0.0 < rep.rho_q < 1.0
    assert rep.mean_recursion_status == "converged"
    assert rep.bp_status == "converged"
    assert rep.max_mean_error < 1e-8
    assert rep.fitted_rate is not None and 0.0 < rep.fitted_rate < 1.0
    d = rep.to_dict()
    assert set(d) >= {"topology", "rho_q", "verdict", "bounds_hold",
                      "mean_recursion_status", "bp_status", "max_mean_error"}


def test_certify_without_cross_check(quartet):
    rep = certify(quartet, cross_check=False)
    assert rep.bp_status is None
    assert rep.verdict == "guaranteed_by_topology"


def test_certify_on_divergent_model():
    n, n_extra, gain, seed = SHOWCASE_DIVERGENT
    m = frustrated_model(seed, n=n, gain=gain, n_extra=n_extra)
    rep = certify(m)
    assert rep.verdict == "diverges_rho_ge_1"
    assert rep.mean_recursion_status == "diverged"
    assert rep.bp_status == "diverged"


def dense_radius(q):
    return float(np.max(np.abs(np.linalg.eigvals(q)))) if q.size else 0.0


def test_rho_and_verdict_match_dense_eigvals_of_the_whole_q_on_every_corpus_model():
    models = list(mixed_corpus()) + [(f"forest-{k}", m) for k, m in enumerate(forest_corpus())]
    models += [(f"loopy-{k}", m) for k, m in enumerate(loopy_corpus())]
    for label, model in models:
        g = build_factor_graph(model)
        fp = information_fixed_point(model, g)
        qs = assemble_q(model, g, fp)
        dense = dense_radius(dense_q(model, g, fp))
        assert qs.rho == pytest.approx(dense, abs=1e-10), label
        topo = classify_topology(g).overall
        assert decide_mean_convergence(qs.rho, topo) == decide_mean_convergence(dense, topo), label
        if label.startswith("forest"):
            assert qs.rho == 0.0, label


def test_certify_mean_error_matches_the_centralized_means(quartet, monkeypatch):
    import gabp.analysis as analysis

    runs, real = [], analysis.run_bp
    monkeypatch.setattr(analysis, "run_bp", lambda *a, **k: runs.append(real(*a, **k)) or runs[-1])
    models = [quartet, random_model(seed=1, n_agents=30, dims=(1, 3), topology="multi_loop"),
              random_model(seed=2, n_agents=12, dims=(1, 3), topology="forest")]
    for model in models:
        rep = certify(model)
        assert rep.bp_status == "converged"
        exact = dense_marginals(model)
        expected = max(float(np.max(np.abs(runs[-1].beliefs[v].mean - mean))) for v, (mean, _) in exact.items())
        assert rep.max_mean_error == pytest.approx(expected, rel=0.0, abs=1e-12)


def test_certify_runs_eigvals_once_on_the_core_and_never_on_a_forest(monkeypatch):
    # a multi-loop model whose loops carry hanging trees
    model = random_model(seed=1, n_agents=40, dims=(1, 3), topology="multi_loop")
    g = build_factor_graph(model)
    core_dim = len(entry_core(dense_q(model, g, information_fixed_point(model, g))))
    shapes, real = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or real(a))
    rep = certify(model)
    assert rep.topology == "multi_loop" and rep.rho_q > 0.0
    assert shapes == [(core_dim, core_dim)]
    assert 0 < core_dim < v2f_layout(g)[1]

    shapes.clear()
    rep = certify(random_model(seed=3, n_agents=20, dims=(1, 3), topology="forest"))
    assert rep.topology == "forest" and rep.rho_q == 0.0
    assert shapes == []


def core_coordinates(g, core):
    """Coordinates, in the v2f_layout, of the v2f edges whose stack rows core keeps."""
    return [c for (j, n), (s, d) in v2f_layout(g)[0].items() if core[g.f2v_index[(n, j)]]
            for c in range(s, s + d)]


def test_loop_core_is_the_entry_level_peel_and_q_is_the_whole_q_on_it():
    # the entry-level peel of the whole Q's exact zeros is the reference for the structural one
    models = list(mixed_corpus()) + [(f"forest-{k}", m) for k, m in enumerate(forest_corpus())]
    models += [(f"loopy-{k}", m) for k, m in enumerate(loopy_corpus())] + cli_mixed_models()
    models += [(f"bench-{n}", random_model(seed=1, n_agents=n, topology="multi_loop"))
               for n in (480, 520)]
    for label, model in models:
        g = build_factor_graph(model)
        fp = information_fixed_point(model, g)
        core = g.peel.core_edges
        assert core.dtype == bool and core.shape == (len(g.f2v_edges),), label
        q = dense_q(model, g, fp)
        coords = core_coordinates(g, core)
        np.testing.assert_array_equal(coords, entry_core(q), err_msg=label)

        qs = assemble_q(model, g, fp)
        np.testing.assert_allclose(qs.q, q[np.ix_(coords, coords)], rtol=0.0, atol=1e-12,
                                   err_msg=label)


def test_certify_allocates_no_array_as_large_as_the_whole_q():
    import tracemalloc

    model = random_model(seed=1, n_agents=480, topology="multi_loop")
    dim = v2f_layout(build_factor_graph(model))[1]
    tracemalloc.start()
    try:
        certify(model, cross_check=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dim * dim * 8, (peak, dim)


def test_certify_with_the_cross_check_allocates_no_array_as_large_as_the_joint_precision():
    import tracemalloc

    model = random_model(seed=1, n_agents=480, topology="multi_loop")
    tracemalloc.start()
    try:
        report = certify(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.bp_status == "converged" and report.max_mean_error < 1e-8
    dim = sum(v.dim for v in model.variables)
    assert peak < dim ** 2 * 8, (peak, dim)


def test_forests_run_no_core_iterations():
    for k, model in enumerate(forest_corpus()):
        fp = information_fixed_point(model)
        mr = two_phase_mean_recursion(fp)
        assert fp.iterations == 0 and (mr.status, mr.iterations) == ("converged", 0), k
        # the two passes alone settle every message exactly
        for v, (mean, _) in dense_marginals(model).items():
            np.testing.assert_allclose(mr.means[v], mean, rtol=0.0, atol=1e-10, err_msg=str(k))


def test_fixed_point_is_the_limit_of_the_sync_recursion_on_every_corpus_model():
    models = list(mixed_corpus()) + [(f"forest-{k}", m) for k, m in enumerate(forest_corpus())]
    models += [(f"loopy-{k}", m) for k, m in enumerate(loopy_corpus())] + cli_mixed_models()
    for label, model in models:
        g = build_factor_graph(model)
        fp = information_fixed_point(model, g)
        got, limit = edge_views(fp.stack.graph, fp.f2v_j), information_iterates(model, g, "zero")[-1]
        scale = max((np.linalg.norm(j) for j in limit.values()), default=0.0)
        assert max((np.linalg.norm(got[e] - limit[e]) for e in g.f2v_edges), default=0.0) <= 1e-12 * scale, label


def test_a_stack_keeps_no_run_state():
    # the halves keep their spreads and pulls in stores their callers own, so runs may share one stack
    model = random_model(seed=1, n_agents=40, dims=(1, 3), topology="multi_loop")
    fp = information_fixed_point(model)
    st, kept = fp.stack, (fp.f2v_j.copy(), fp.v2f_j.copy(), fp.gain.copy())
    st.lower_bound()
    before = {name: x.copy() for name, x in vars(st).items() if isinstance(x, np.ndarray)}
    for schedule in ("sync", "seq"):
        run_bp(model, st.graph, init="lower", options=BpOptions(schedule=schedule), reference=fp)
    two_phase_mean_recursion(fp)
    two_phase_mean_recursion(fp)
    assemble_q(model, st.graph, fp)
    after = {name: x for name, x in vars(st).items() if isinstance(x, np.ndarray)}
    assert after.keys() == before.keys()
    assert all(np.array_equal(after[name], x) for name, x in before.items())
    assert all(np.array_equal(x, y) for x, y in zip((fp.f2v_j, fp.v2f_j, fp.gain), kept))


def test_the_mean_recursion_reads_only_the_fixed_point():
    # a run on the same stack in between, or the recursion's own last run, must not seed
    # the core, whose step 0 starts from zero means
    model = random_model(seed=1, n_agents=40, dims=(1, 3), topology="multi_loop")
    fp = information_fixed_point(model)
    first = two_phase_mean_recursion(fp)
    run_bp(model, fp.stack.graph, init="lower", reference=fp)
    for again in (two_phase_mean_recursion(fp), two_phase_mean_recursion(fp)):
        assert (again.status, again.iterations) == (first.status, first.iterations)
        assert np.array_equal(again.v, first.v)
