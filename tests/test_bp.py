import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (dense_marginals, factors_of_var, full_sweep_run, ill_conditioned_noise_model,
                      information_iterates, message_init, quartet_model, rand_spd, vague_prior_model)
from corpus import (SHOWCASE_DIVERGENT, cli_mixed_models, forest_corpus, frustrated_model,
                    grid_field, loopy_corpus, mixed_corpus)
from gabp.bp import (Belief, BpOptions, EdgeStack, Message, compute_beliefs,
                     edge_views, make_init, run_bp)
from gabp.errors import DomainError, ExistenceViolation
from gabp.graph import build_factor_graph
from gabp.model import FactorSpec, LinearGaussianModel, VariableSpec, random_model
from gabp.mrf import mrf_to_linear_gaussian
from gabp.numerics import is_pd, is_psd, is_symmetric, part_metric, part_metric_to, psd_compare


def tree_model():
    rng = np.random.default_rng(8)
    variables = [
        VariableSpec(1, 2, rand_spd(rng, 2)),
        VariableSpec(2, 1, rand_spd(rng, 1)),
        VariableSpec(3, 3, rand_spd(rng, 3)),
    ]
    factors = [
        FactorSpec(1, (1, 2), {1: rng.standard_normal((3, 2)),
                               2: rng.standard_normal((3, 1))},
                   rand_spd(rng, 3), rng.standard_normal(3)),
        FactorSpec(2, (2, 3), {2: rng.standard_normal((4, 1)),
                               3: rng.standard_normal((4, 3))},
                   rand_spd(rng, 4), rng.standard_normal(4)),
        FactorSpec(3, (3,), {3: rng.standard_normal((3, 3))},
                   rand_spd(rng, 3), rng.standard_normal(3)),
    ]
    return LinearGaussianModel(variables=variables, factors=factors)


def max_mean_error(beliefs, oracle):
    return max(float(np.max(np.abs(beliefs[v].mean - mean))) for v, (mean, _) in oracle.items())


def max_cov_error(beliefs, oracle):
    return max(float(np.max(np.abs(beliefs[v].cov - cov))) for v, (_, cov) in oracle.items())


def test_tree_beliefs_are_exact():
    m = tree_model()
    res = run_bp(m)
    sol = dense_marginals(m)
    assert res.status == "converged"
    assert max_mean_error(res.beliefs, sol) < 1e-10
    assert max_cov_error(res.beliefs, sol) < 1e-10


def test_quartet_converges_from_every_init(quartet):
    sol = dense_marginals(quartet)
    for init in ("zero", "lower", "upper"):
        res = run_bp(quartet, init=init)
        assert res.status == "converged"
        assert max_mean_error(res.beliefs, sol) < 1e-8


def test_sync_runs_are_bitwise_deterministic(quartet):
    g = build_factor_graph(quartet)
    a, b = (run_bp(quartet, g, options=BpOptions(record_messages=True)) for _ in range(2))
    assert a.iterations == b.iterations
    for res in (a, b):
        assert len(res.trajectory.rows) == res.iterations * (len(g.f2v_edges) + len(g.v2f_edges))
    assert (a.trajectory.v2f_edges, a.trajectory.f2v_edges) == (b.trajectory.v2f_edges, b.trajectory.f2v_edges)
    np.testing.assert_array_equal(a.trajectory.rows, b.trajectory.rows)  # nan where nan, else equal
    for v in a.beliefs:
        np.testing.assert_array_equal(a.beliefs[v].mean, b.beliefs[v].mean)


@pytest.mark.parametrize("schedule", ["seq", "random"])
def test_schedules_agree_on_the_limit(schedule):
    m = random_model(seed=21, n_agents=6, topology="multi_loop")
    sol = dense_marginals(m)
    base = run_bp(m)
    other = run_bp(m, options=BpOptions(schedule=schedule, seed=5))
    assert base.status == other.status == "converged"
    assert max_mean_error(base.beliefs, sol) < 1e-8
    assert max_mean_error(other.beliefs, sol) < 1e-8
    for v in sol:
        np.testing.assert_allclose(base.beliefs[v].mean, other.beliefs[v].mean,
                                   atol=1e-7)


def test_random_schedule_depends_on_seed():
    m = random_model(seed=21, n_agents=6, topology="multi_loop")
    a = run_bp(m, options=BpOptions(schedule="random", seed=1, max_iters=3))
    b = run_bp(m, options=BpOptions(schedule="random", seed=2, max_iters=3))
    diff = 0.0
    for e in a.messages["f2v"]:
        diff = max(diff, float(np.max(np.abs(a.messages["f2v"][e].J
                                             - b.messages["f2v"][e].J))))
    assert diff > 0.0


def test_make_init_strategies(quartet):
    g = build_factor_graph(quartet)
    zero = make_init(quartet, g, "zero")
    assert all(np.all(m.J == 0) and np.all(m.v == 0) for m in zero.values())
    lower = make_init(quartet, g, "lower")
    upper = make_init(quartet, g, "upper")
    for e in g.f2v_edges:
        assert lower[e].J.shape == upper[e].J.shape == (1, 1)
        assert lower[e].J[0, 0] <= upper[e].J[0, 0]
    with pytest.raises(DomainError):
        make_init(quartet, g, "sideways")


def test_make_init_custom_validation(quartet):
    g = build_factor_graph(quartet)
    good = {e: Message(J=np.array([[0.1]]), v=np.zeros(1)) for e in g.f2v_edges}
    out = make_init(quartet, g, good)
    assert set(out) == set(g.f2v_edges)

    missing = dict(good)
    missing.pop(g.f2v_edges[0])
    with pytest.raises(DomainError):
        make_init(quartet, g, missing)

    bad = dict(good)
    bad[g.f2v_edges[0]] = Message(J=np.array([[-1.0]]), v=np.zeros(1))
    with pytest.raises(DomainError):
        make_init(quartet, g, bad)


def test_run_accepts_message_dict_init(quartet):
    g = build_factor_graph(quartet)
    init = {e: Message(J=np.array([[0.2]]), v=np.array([0.3])) for e in g.f2v_edges}
    res = run_bp(quartet, g, init=init)
    assert res.status == "converged"
    sol = dense_marginals(quartet)
    assert max_mean_error(res.beliefs, sol) < 1e-8


def test_run_rejects_incomplete_or_misshapen_dict_init(quartet):
    g = build_factor_graph(quartet)
    init = make_init(quartet, g, "zero")
    missing = dict(init)
    missing.pop(g.f2v_edges[0])
    with pytest.raises(DomainError, match="missing edge"):
        run_bp(quartet, g, init=missing)
    misshapen = dict(init)
    misshapen[g.f2v_edges[0]] = Message(J=np.zeros((2, 2)), v=np.zeros(2))
    with pytest.raises(DomainError, match="wrong shape"):
        run_bp(quartet, g, init=misshapen)


def test_every_entry_point_rejects_a_non_psd_dict_init(quartet):
    from gabp.analysis import information_fixed_point
    g = build_factor_graph(quartet)
    init = {e: np.array([[0.1]]) for e in g.f2v_edges}
    init[g.f2v_edges[1]] = np.array([[-1.0]])
    messages = set()
    for call in (lambda: run_bp(quartet, g, init=init),
                 lambda: information_fixed_point(quartet, g, init=init),
                 lambda: make_init(quartet, g, init)):
        with pytest.raises(DomainError, match="non-psd") as exc:
            call()
        messages.add(str(exc.value))
    assert messages == {f"custom init edge {g.f2v_edges[1]} has a non-psd information matrix"}


@pytest.mark.parametrize("case", ["unknown edge", "asymmetric"])
def test_every_entry_point_rejects_an_unknown_edge_or_an_asymmetric_dict_init(case):
    from gabp.analysis import information_fixed_point
    m = tree_model()
    g = build_factor_graph(m)
    init = {(n, i): np.eye(g.var_dims[i]) for n, i in g.f2v_edges}
    if case == "unknown edge":
        edge = (99, 1)
        init[edge] = np.array([[-5.0]])
        expected = f"init edge {edge} is not in the factor graph"
    else:
        edge = (1, 1)
        init[edge] = np.array([[1.0, 0.5], [0.0, 1.0]])
        expected = f"init edge {edge} has an asymmetric information matrix"
    messages = set()
    for call in (lambda: run_bp(m, g, init=init),
                 lambda: information_fixed_point(m, g, init=init),
                 lambda: make_init(m, g, init)):
        with pytest.raises(DomainError) as exc:
            call()
        messages.add(str(exc.value))
    assert messages == {expected}


def test_dict_init_rejects_a_pair_value(quartet):
    g = build_factor_graph(quartet)
    init = {e: np.array([[0.1]]) for e in g.f2v_edges}
    init[g.f2v_edges[0]] = (np.array([[0.1]]), np.zeros(1))
    with pytest.raises(DomainError, match="neither a Message nor a matrix"):
        run_bp(quartet, g, init=init)


def test_budget_exhaustion_reports_max_iters(quartet):
    res = run_bp(quartet, options=BpOptions(max_iters=2))
    assert res.status == "max_iters"
    assert res.iterations == 2
    assert res.beliefs is not None


def test_divergent_instance_passes_the_guard():
    n, n_extra, gain, seed = SHOWCASE_DIVERGENT
    m = frustrated_model(seed, n=n, gain=gain, n_extra=n_extra)
    res = run_bp(m)
    assert res.status == "diverged"
    assert res.beliefs is None
    max_dj, max_dv, _ = res.trajectory.per_iteration[-1]
    assert max_dv > 1e12 or not math.isfinite(max_dv)
    # the information part still settled: J deltas were tiny at the end
    assert max_dj < 1e-10


def test_a_default_run_retains_no_per_edge_rows():
    # frustrated-low-8 of the mixed corpus uses its whole budget; with one
    # row per edge per iteration, 1,000 iterations retained 8.3 MB
    model = frustrated_model(8, n=5, gain=2.0, n_extra=5)
    tracemalloc.start()
    try:
        res = run_bp(model, options=BpOptions(max_iters=1_000))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.status == "max_iters"
    assert res.trajectory.rows.shape == (0, 3)
    assert len(res.trajectory.per_iteration) == res.iterations == 1_000
    assert retained < 3e6, retained


def traced_run(model, **kwargs):
    """run_bp's result and the traced memory it retains."""
    tracemalloc.start()
    try:
        res = run_bp(model, **kwargs)
        return res, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_the_per_iteration_record_costs_at_most_32_bytes_an_iteration():
    # one dict per iteration retained about 155 B each: 2.73 MB at 10,000
    model = frustrated_model(8, n=5, gain=2.0, n_extra=5)
    run_bp(model, options=BpOptions(max_iters=10))  # lazy imports are not per-iteration cost
    short, short_bytes = traced_run(model, options=BpOptions(max_iters=1_000))
    long, long_bytes = traced_run(model, options=BpOptions(max_iters=10_000))
    assert short.status == long.status == "max_iters"
    assert len(long.trajectory.per_iteration) == 10_000
    np.testing.assert_array_equal(long.trajectory.per_iteration[:1_000], short.trajectory.per_iteration)
    assert long_bytes < 1.6e6, long_bytes
    assert (long_bytes - short_bytes) / 9_000 <= 32, (short_bytes, long_bytes)


def test_a_recorded_grid_run_retains_at_most_64_bytes_a_row():
    # one Python 7-tuple per row retained about 195 B each on this grid
    from gabp.analysis import information_fixed_point
    model = mrf_to_linear_gaussian(grid_field(20), np.linspace(-1.0, 1.0, 400))[0]
    g = build_factor_graph(model)
    ref = information_fixed_point(model, g)
    run_bp(model, g, init="lower", reference=ref)  # fills the shared stack's caches
    plain, plain_bytes = traced_run(model, graph=g, init="lower", reference=ref)
    res, recorded_bytes = traced_run(model, graph=g, init="lower", reference=ref,
                                     options=BpOptions(record_messages=True))
    assert res.iterations == plain.iterations
    rows = len(res.trajectory.rows)
    assert rows == res.iterations * (len(g.f2v_edges) + len(g.v2f_edges)) > 0
    assert (recorded_bytes - plain_bytes) / rows <= 64, (plain_bytes, recorded_bytes, rows)


def test_a_result_builds_its_messages_when_first_read():
    # one Message per f2v and per v2f edge, built eagerly, retained about 390 KB on this grid
    model = mrf_to_linear_gaussian(grid_field(10))[0]
    g = build_factor_graph(model)
    run_bp(model, g)  # lazy imports are not the result's
    res, retained = traced_run(model, graph=g)
    assert "messages" not in vars(res)
    assert retained < 150e3, retained
    messages = res.messages
    assert res.messages is messages
    assert list(messages["f2v"]) == g.f2v_edges and list(messages["v2f"]) == g.v2f_edges


def test_trajectory_records_are_read_only_float_views(quartet):
    from gabp.analysis import information_fixed_point
    g = build_factor_graph(quartet)
    n = len(g.f2v_edges)
    for ref in (None, information_fixed_point(quartet, g)):
        res = run_bp(quartet, g, reference=ref, options=BpOptions(record_messages=True))
        traj = res.trajectory
        assert traj.per_iteration.shape == (res.iterations, 3) and traj.rows.shape == (res.iterations * 2 * n, 3)
        for records in (traj.per_iteration, traj.rows):
            assert records.dtype == np.float64
            assert not records.flags.writeable and not records.flags.owndata  # the run's buffer, not a copy
            with pytest.raises(ValueError):
                records[0, 0] = 0.0
        assert traj.v2f_edges == g.v2f_edges and traj.f2v_edges == g.f2v_edges
        assert traj.metric_from == (2 * n if ref is None else n)
        blocks = traj.rows.reshape(res.iterations, 2 * n, 3)
        assert np.isnan(blocks[0, :n, :2]).all() and not np.isnan(blocks[1:, :, :2]).any()
        assert np.isnan(blocks[:, :n, 2]).all()  # v2f rows never carry a metric
        if ref is None:
            assert np.isnan(traj.per_iteration[:, 2]).all() and np.isnan(blocks[:, :, 2]).all()
        else:
            assert np.array_equal(traj.per_iteration[:, 2], blocks[:, n:, 2].max(axis=1))
            assert np.isfinite(blocks[:, n:, 2]).all()


def test_trajectory_rows_are_each_edges_change_between_iterations():
    # the messages after iteration k are the final messages of a k-iteration sync run
    model = random_model(seed=7, n_agents=10, dims=(1, 3), topology="multi_loop")
    g = build_factor_graph(model)
    res = run_bp(model, g, init="lower", options=BpOptions(max_iters=5, record_messages=True))
    assert res.iterations == 5
    states = [run_bp(model, g, init="lower", options=BpOptions(max_iters=k)).messages for k in range(1, 6)]
    labels = [("v2f", e) for e in g.v2f_edges] + [("f2v", e) for e in g.f2v_edges]
    checked = 0
    for it, block in enumerate(res.trajectory.rows.reshape(5, len(labels), 3), 1):
        for (kind, edge), (dj, dv, _) in zip(labels, block):
            if it > 1:
                new, old = states[it - 1][kind][edge], states[it - 2][kind][edge]
                assert dj == pytest.approx(np.linalg.norm(new.J - old.J), rel=1e-12, abs=1e-300)
                assert dv == pytest.approx(np.max(np.abs(new.v - old.v)), rel=1e-12, abs=1e-300)
                checked += 1
    assert checked == 4 * (len(g.f2v_edges) + len(g.v2f_edges))


def test_strict_mode_passes_on_healthy_models(quartet):
    res = run_bp(quartet, options=BpOptions(strict=True))
    assert res.status == "converged"
    from gabp.numerics import is_psd
    # the messages after iteration k are the final messages of a k-iteration run
    for k in range(1, res.iterations + 1):
        messages = run_bp(quartet, options=BpOptions(strict=True, max_iters=k)).messages
        for msg in messages["f2v"].values():
            assert is_psd(msg.J)
        for msg in messages["v2f"].values():
            assert is_psd(msg.J)


def test_strict_mode_on_an_ill_conditioned_noise_model():
    # Noise covariances with condition number 1e7 leave A^T R^-1 A
    # asymmetric by more than symmetrize accepts; strict mode decides on
    # the kernel's symmetric information matrices, so it ends like the
    # plain run.
    m = ill_conditioned_noise_model()
    assert run_bp(m, options=BpOptions(max_iters=3)).status == "max_iters"
    assert run_bp(m, options=BpOptions(strict=True, max_iters=3)).status == "max_iters"


def test_strict_mode_stops_on_a_non_pd_incoming_message():
    m = vague_prior_model()
    plain = run_bp(m)
    assert (plain.status, plain.iterations) == ("converged", 3)
    with pytest.raises(ExistenceViolation, match=re.escape(
            "variable-to-factor message (1 -> 1) not pd at iteration 1")):
        run_bp(m, options=BpOptions(strict=True))


def _per_dim(fn, dims, *stacks):
    """fn once per dim d on the real d x d blocks of the rows of that dim."""
    out = np.zeros(len(dims))
    for d in np.unique(dims).tolist():
        rows = np.flatnonzero(dims == d)
        out[rows] = fn(*(x[rows, :d, :d] for x in stacks))
    return out


def test_padded_checks_and_metrics_equal_those_of_the_real_blocks_bit_for_bit():
    # is_psd, is_symmetric and psd_compare read the padded stacks as they
    # are; pd verdicts and part metrics read them after inner_pad. With the
    # real blocks scaled by 1e10, lambda_max passes 1e9, where the pd bar
    # PSD_TOL * lambda_max reaches an identity pad's eigenvalue 1.
    from gabp.analysis import information_fixed_point
    mixed = 0
    for k, model in enumerate([m for _, m in cli_mixed_models()] + list(loopy_corpus())):
        fp = information_fixed_point(model)
        st = fp.stack
        mixed += len(set(st.dims.tolist())) > 1
        for scale in (1.0, 1e10):
            f2v = [np.where(st.pad == 1.0, x, scale * x) for x in (st.lower_bound(), st.upper_bound(), fp.f2v_j)]
            for x in f2v + [np.where(st.pad == 1.0, fp.v2f_j, scale * fp.v2f_j)]:
                assert np.array_equal(is_pd(st.inner_pad(x)), _per_dim(is_pd, st.dims, x)), (k, scale)
                assert np.array_equal(is_psd(x), _per_dim(is_psd, st.dims, x)), (k, scale)
                assert np.array_equal(is_symmetric(x), _per_dim(is_symmetric, st.dims, x)), (k, scale)
            for x in f2v:
                for y in f2v:
                    assert np.array_equal(psd_compare(x, y), _per_dim(psd_compare, st.dims, x, y)), (k, scale)
                    got = part_metric_to(st.inner_pad(y))(st.inner_pad(x))
                    want = _per_dim(lambda a, b: part_metric_to(b)(a), st.dims, x, y)
                    assert np.array_equal(got, want), (k, scale)
    assert mixed >= 50


def test_strict_mode_converges_where_an_identity_pad_would_fail_the_pd_bar():
    # tiny priors and large coefficients: lambda_max of the v2f and f2v
    # information matrices is far above 1e9, so an identity pad would fail
    # the pd check on the 1-dim variable's edges at iteration 1
    rng = np.random.default_rng(0)
    factors = [FactorSpec(n, (1, 2), {1: 1e5 * rng.standard_normal((3, 1)), 2: 1e5 * rng.standard_normal((3, 2))},
                          np.eye(3), rng.standard_normal(3)) for n in (1, 2)]
    m = LinearGaussianModel([VariableSpec(1, 1, 2e-9 * np.eye(1)), VariableSpec(2, 2, 2e-9 * np.eye(2))], factors)
    for schedule, iterations in [("sync", 18), ("seq", 8)]:
        res = run_bp(m, init="lower", options=BpOptions(schedule=schedule, strict=True))
        assert (res.status, res.iterations) == ("converged", iterations), schedule


def test_run_rejects_a_negative_seed(quartet):
    for schedule in ("sync", "random"):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            run_bp(quartet, options=BpOptions(schedule=schedule, seed=-1))


def test_run_rejects_an_unknown_schedule(quartet):
    with pytest.raises(DomainError, match="unknown schedule 'x'"):
        run_bp(quartet, options=BpOptions(schedule="x"))


def test_run_rejects_invalid_tolerances_and_budgets(quartet):
    for opts in (BpOptions(tol_j=math.nan), BpOptions(tol_j=0.0), BpOptions(tol_j=math.inf),
                 BpOptions(tol_v=-1.0), BpOptions(tol_v=math.nan), BpOptions(max_iters=-3)):
        with pytest.raises(DomainError, match="must be"):
            run_bp(quartet, options=opts)
    assert run_bp(quartet, options=BpOptions(max_iters=0)).iterations == 0


def test_run_rejects_the_fixed_point_of_another_graph(quartet):
    from gabp.analysis import information_fixed_point
    with pytest.raises(DomainError, match="another graph"):
        run_bp(quartet, init="lower", reference=information_fixed_point(random_model(seed=3, n_agents=5)))
    # same edges, other variable dims
    one, two = (random_model(seed=3, n_agents=5, dims=d) for d in (1, 2))
    with pytest.raises(DomainError, match="another graph"):
        run_bp(one, init="lower", reference=information_fixed_point(two))


def test_a_reference_from_an_equal_structure_model_leaves_the_run_on_its_own_model():
    # same A, R, W and graph object, other observations: J* is shared, the beliefs are not
    from gabp.analysis import information_fixed_point
    model, other = quartet_model(), quartet_model(obs=(2.0, -1.0, 0.5))
    g = build_factor_graph(other)
    res = run_bp(other, g, init="lower", reference=information_fixed_point(model, g))
    own = run_bp(other, g, init="lower")
    theirs = run_bp(model, g, init="lower")
    assert (res.status, res.iterations) == (own.status, own.iterations)
    for vid, b in own.beliefs.items():
        np.testing.assert_array_equal(res.beliefs[vid].mean, b.mean)
        np.testing.assert_array_equal(res.beliefs[vid].cov, b.cov)
        assert not np.allclose(res.beliefs[vid].mean, theirs.beliefs[vid].mean)


def test_trajectory_schema(quartet):
    g = build_factor_graph(quartet)
    from gabp.analysis import information_fixed_point
    res = run_bp(quartet, g, init="lower", reference=information_fixed_point(quartet, g),
                 options=BpOptions(record_messages=True))
    assert res.trajectory.initial_part_metric is not None
    assert res.trajectory.initial_part_metric > 0.0

    rows = res.trajectory.rows
    n = len(g.v2f_edges)
    assert len(rows) == res.iterations * (n + len(g.f2v_edges))
    v2f, f2v = rows[:n], rows[n:n + len(g.f2v_edges)]  # iteration one
    assert np.isnan(v2f).all()
    assert np.isfinite(f2v).all() and (f2v[:, 2] >= 0.0).all()
    # per-iteration aggregates decay to below tolerance at the end
    max_dj, max_dv, _ = res.trajectory.per_iteration[-1]
    assert max_dj < 1e-10 and max_dv < 1e-10
    # part metric against the fixed point shrinks over the run
    pms = res.trajectory.per_iteration[:, 2]
    assert pms[-1] < pms[0]


def test_trajectory_part_metrics_match_part_metric_on_every_corpus_model():
    # run_bp factors the reference once; numerics.part_metric re-checks both sides
    from gabp.analysis import information_fixed_point
    models = [m for _, m in mixed_corpus()] + list(forest_corpus()) + list(loopy_corpus())
    for k, model in enumerate(models):
        g = build_factor_graph(model)
        fp = information_fixed_point(model, g)
        ref = edge_views(fp.stack.graph, fp.f2v_j)
        res = run_bp(model, g, init="lower", reference=fp,
                     options=BpOptions(max_iters=8, record_messages=True))
        lower = make_init(model, g, "lower")
        assert res.trajectory.initial_part_metric == pytest.approx(
            max(part_metric(lower[e].J, ref[e]) for e in g.f2v_edges), rel=1e-9), k
        assert len(res.trajectory.rows) == res.iterations * (len(g.f2v_edges) + len(g.v2f_edges))
        got = res.trajectory.rows.reshape(res.iterations, -1, 3)[:, len(g.v2f_edges):, 2]  # f2v part metrics
        # a sync run's f2v J are the information recursion's iterates
        iterates = information_iterates(model, g, "lower", res.iterations)
        for it in range(1, res.iterations + 1):
            for d in {j.shape[0] for j in ref.values()}:
                edges = [e for e in g.f2v_edges if ref[e].shape[0] == d]
                want = part_metric(np.stack([iterates[it][e] for e in edges]),
                                   np.stack([ref[e] for e in edges]))
                np.testing.assert_allclose([got[it - 1, g.f2v_index[e]] for e in edges], want,
                                           rtol=1e-9, atol=0.0, err_msg=f"model {k} iter {it}")


def test_reference_part_metrics_equal_a_per_dim_part_metric_to_loop_bit_for_bit():
    # mixed_corpus's random-multi-3: edges of dims 1 and 2
    from gabp.analysis import information_fixed_point
    model = random_model(seed=3, n_agents=8, dims=(1, 2), topology="multi_loop")
    g = build_factor_graph(model)
    fp = information_fixed_point(model, g)
    res = run_bp(model, g, init="lower", reference=fp, options=BpOptions(record_messages=True))
    dims = np.array([g.var_dims[i] for _, i in g.f2v_edges])
    assert res.status == "converged" and set(dims.tolist()) == {1, 2}
    metrics = {d: (rows, part_metric_to(fp.f2v_j[rows, :d, :d]))
               for d in (1, 2) for rows in [np.flatnonzero(dims == d)]}
    n = len(g.f2v_edges)
    for it, state in enumerate(information_iterates(model, g, "lower", res.iterations)):
        want = np.empty(n)
        for d, (rows, metric) in metrics.items():
            want[rows] = metric(np.stack([state[g.f2v_edges[e]] for e in rows]))
        if it == 0:
            assert res.trajectory.initial_part_metric == want.max()
            continue
        assert np.array_equal(res.trajectory.rows[(2 * it - 1) * n:2 * it * n, 2], want), it
        assert res.trajectory.per_iteration[it - 1, 2] == want.max(), it


def test_trajectory_part_metric_is_inf_for_a_reference_that_is_not_pd(quartet):
    g = build_factor_graph(quartet)
    from gabp.analysis import information_fixed_point
    fp = information_fixed_point(quartet, g)
    bad = g.f2v_edges[0]
    fp.f2v_j[g.f2v_index[bad]] = 0.0
    res = run_bp(quartet, g, init="lower", reference=fp,
                 options=BpOptions(max_iters=3, record_messages=True))
    assert res.trajectory.initial_part_metric == math.inf
    assert len(res.trajectory.rows) == res.iterations * (len(g.f2v_edges) + len(g.v2f_edges))
    f2v = res.trajectory.rows.reshape(res.iterations, -1, 3)[:, len(g.v2f_edges):, 2]
    is_bad = np.arange(len(g.f2v_edges)) == g.f2v_index[bad]
    assert np.array_equal(f2v == math.inf, np.tile(is_bad, (res.iterations, 1)))


def test_belief_container_shapes(quartet):
    res = run_bp(quartet)
    for vid, b in res.beliefs.items():
        assert isinstance(b, Belief)
        assert b.mean.shape == (1,)
        assert b.cov.shape == (1, 1)
        assert b.cov[0, 0] > 0.0


def _beliefs_per_variable(model, graph, fj, fh):
    """The belief assembly one variable at a time from f2v stores by row: (mean, cov) by variable id.

    The precision is W^-1 plus the messages' Js in factor order, the
    information the sum of their potentials J v.
    """
    out, factors_of = {}, factors_of_var(graph)
    for v in model.variables:
        prec = np.linalg.inv(v.prior_cov)
        rhs = np.zeros(v.dim)
        for n in factors_of[v.id]:
            e = graph.f2v_index[(n, v.id)]
            prec = prec + fj[e, :v.dim, :v.dim]
            rhs = rhs + fh[e, :v.dim]
        cov = np.linalg.inv((prec + prec.T) / 2.0)
        out[v.id] = (cov @ rhs, cov)
    return out


def test_grouped_beliefs_equal_the_per_variable_assembly_bit_for_bit():
    rng = np.random.default_rng(4)
    models = list(forest_corpus()) + list(loopy_corpus()) + [m for _, m in mixed_corpus()]
    for model in models + [random_model(seed=1, n_agents=480)]:
        g = build_factor_graph(model)
        stack = EdgeStack(model, g)
        fj, fv = stack.init("lower")
        fh = rng.standard_normal(fv.shape)
        got = compute_beliefs(stack, fj, fh)
        want = _beliefs_per_variable(model, g, fj, fh)
        assert list(got) == [v.id for v in model.variables]
        for vid, (mean, cov) in want.items():
            assert np.array_equal(got[vid].mean, mean) and np.array_equal(got[vid].cov, cov)


def test_a_largest_variable_without_factors_gets_exact_beliefs():
    # the 3-dim variable has no factor, so every edge is 1-dim: the prior
    # store is padded to the variables' largest dim, not the edges'
    from gabp.analysis import information_fixed_point, two_phase_mean_recursion
    rng = np.random.default_rng(11)
    one = np.eye(1)
    m = LinearGaussianModel(
        variables=[VariableSpec(1, 1, rand_spd(rng, 1)), VariableSpec(2, 3, rand_spd(rng, 3)),
                   VariableSpec(3, 1, rand_spd(rng, 1))],
        factors=[FactorSpec(1, (1, 3), {1: rng.standard_normal((2, 1)), 3: rng.standard_normal((2, 1))},
                            rand_spd(rng, 2), rng.standard_normal(2)),
                 FactorSpec(2, (3,), {3: one}, one, rng.standard_normal(1))])
    sol = dense_marginals(m)
    res = run_bp(m)
    assert res.status == "converged"
    assert max_mean_error(res.beliefs, sol) < 1e-12
    assert max_cov_error(res.beliefs, sol) < 1e-12
    mr = two_phase_mean_recursion(information_fixed_point(m))
    assert mr.status == "converged" and list(mr.means) == [1, 2, 3]
    for vid, (mean, _) in sol.items():
        np.testing.assert_allclose(mr.means[vid], mean, rtol=0, atol=1e-12)


def _padded(stack, iterate):
    """An information_iterates dict as the engine's padded f2v stack: each block top-left, the identity pad."""
    fj = stack.pad.copy()
    for e, edge in enumerate(stack.graph.f2v_edges):
        d = stack.dims[e]
        fj[e, :d, :d] = iterate[edge]
    return fj


def test_moved_rows_part_metric_is_a_full_recompute_bit_for_bit_on_a_model_with_hanging_trees():
    from gabp.analysis import information_fixed_point
    model = random_model(seed=1, n_agents=40, dims=(1, 3), topology="multi_loop")
    g = build_factor_graph(model)
    fp = information_fixed_point(model, g)
    assert not g.peel.core_edges.all()
    res = run_bp(model, g, init="lower", reference=fp, options=BpOptions(record_messages=True))
    stack, n = fp.stack, len(g.f2v_edges)
    metric = part_metric_to(stack.inner_pad(fp.f2v_j))
    states = [_padded(stack, it) for it in information_iterates(model, g, "lower", res.iterations)]
    want = [metric(stack.inner_pad(fj)) for fj in states]
    assert res.trajectory.initial_part_metric == want[0].max()
    for it in range(1, res.iterations + 1):
        assert np.array_equal(res.trajectory.rows[(2 * it - 1) * n:2 * it * n, 2], want[it]), it
        assert res.trajectory.per_iteration[it - 1, 2] == want[it].max(), it
    # the hanging trees settle first: iterations that moved some rows but not all took the selection
    moved = [(a != b).any(axis=(1, 2)).sum() for a, b in zip(states[1:], states)]
    assert any(0 < k < n for k in moved) and moved[-1] < n


def test_a_row_whose_move_underflows_its_frobenius_norm_is_still_re_measured(monkeypatch):
    import gabp.bp
    from gabp.analysis import information_fixed_point

    # every J of this model is 2^-532 times the seed model's, so each J step squares to below the
    # smallest double and the run records dJ_fro 0 for rows whose J still moves
    c = 2.0 ** 266
    base = random_model(seed=1, n_agents=12, dims=(1, 3), topology="multi_loop")
    model = LinearGaussianModel(
        variables=[VariableSpec(v.id, v.dim, v.prior_cov * c * c) for v in base.variables],
        factors=[FactorSpec(f.id, f.scope, {i: a / c for i, a in f.coeff.items()}, f.noise_cov, f.obs / c)
                 for f in base.factors])
    g = build_factor_graph(model)
    n = len(g.f2v_edges)
    calls, real = [], part_metric_to

    def spying(ref):
        metric = real(ref)
        return lambda x, rows=slice(None): calls.append(np.arange(n)[rows]) or metric(x, rows)

    monkeypatch.setattr(gabp.bp, "part_metric_to", spying)
    res = run_bp(model, g, init="lower", reference=information_fixed_point(model, g),
                 options=BpOptions(record_messages=True))
    states = [_padded(EdgeStack(model, g), it) for it in information_iterates(model, g, "lower", res.iterations)]
    moved = [np.flatnonzero((a != b).any(axis=(1, 2))) for a, b in zip(states[1:], states)]
    # one call over every row at the start, then one per iteration that moved a row, over those rows
    assert [rows.tolist() for rows in calls] == [list(range(n))] + [rows.tolist() for rows in moved if len(rows)]
    dj = res.trajectory.rows.reshape(res.iterations, 2 * n, 3)[:, n:, 0]
    assert any((dj[it, rows] == 0.0).any() for it, rows in enumerate(moved))


def _outcome(run, *args, **kwargs):
    """run(*args, **kwargs), or the message of the ExistenceViolation it raised."""
    try:
        return run(*args, **kwargs)
    except ExistenceViolation as exc:
        return str(exc)


def _assert_same_run(res, want, label):
    """Two BpResults (or two strict-mode failures) agree bit for bit: records, beliefs and both message dicts."""
    if isinstance(res, str) or isinstance(want, str):
        assert res == want, label
        return
    assert (res.status, res.iterations) == (want.status, want.iterations), label
    for name in ("per_iteration", "rows"):
        assert getattr(res.trajectory, name).tobytes() == getattr(want.trajectory, name).tobytes(), (label, name)
    assert res.trajectory.initial_part_metric == want.trajectory.initial_part_metric, label
    assert (res.beliefs is None) == (want.beliefs is None), label
    for vid, b in (res.beliefs or {}).items():
        assert (b.mean.tobytes(), b.cov.tobytes()) == (want.beliefs[vid].mean.tobytes(),
                                                       want.beliefs[vid].cov.tobytes()), (label, vid)
    for kind in ("f2v", "v2f"):
        for edge, msg in res.messages[kind].items():
            other = want.messages[kind][edge]
            assert (msg.J.tobytes(), msg.v.tobytes()) == (other.J.tobytes(), other.v.tobytes()), (label, kind, edge)


def parity_models():
    """The mixed corpus, the cli-mixed models, the forests and the 10 x 10 grid, by label."""
    models = list(mixed_corpus()) + cli_mixed_models() + [(f"forest-{k}", m) for k, m in enumerate(forest_corpus())]
    return models + [("grid-10", mrf_to_linear_gaussian(grid_field(10), np.linspace(-1.0, 1.0, 100))[0])]


@pytest.mark.parametrize("schedule", ["sync", "seq", "random"])
def test_run_bp_is_the_full_sweep_bit_for_bit(monkeypatch, schedule):
    # settled tree rows and a frozen information half leave every output as stepping every row gives it;
    # each model takes one of the eight (init, strict) pairs in turn, recorded with a reference
    from gabp.analysis import information_fixed_point

    rows, real = [], EdgeStack.information_half

    def counting(self, fj, spreads, v2f_rows, f2v_rows):
        every = np.arange(len(self.dims))
        rows.append(len(every[v2f_rows]) + len(every[f2v_rows]))
        return real(self, fj, spreads, v2f_rows, f2v_rows)

    monkeypatch.setattr(EdgeStack, "information_half", counting)
    fewer_calls = fewer_rows = 0
    for k, (label, model) in enumerate(parity_models()):
        g = build_factor_graph(model)
        ref = information_fixed_point(model, g)
        init = ("zero", "lower", "upper", message_init(g, k))[k % 4]
        opts = BpOptions(schedule=schedule, seed=5, strict=k // 4 % 2 == 1, record_messages=True, max_iters=100)
        rows.clear()
        want = _outcome(full_sweep_run, model, g, init=init, options=opts, reference=ref)
        oracle_rows = rows.copy()
        rows.clear()
        _assert_same_run(_outcome(run_bp, model, g, init=init, options=opts, reference=ref), want, label)
        fewer_calls += len(rows) < len(oracle_rows)
        fewer_rows += sum(rows) < sum(oracle_rows)
    # the corpus exercises both: runs whose J froze, and runs that left settled rows out
    assert fewer_calls >= 10 and fewer_rows >= 100


def _first_stationary_iteration(model, init, max_iters=200):
    """The first iteration after which every J holds the bytes it held before it, from the full sweep."""
    states = []
    full_sweep_run(model, init=init, options=BpOptions(max_iters=max_iters), states=states)
    before = [EdgeStack(model, build_factor_graph(model)).init(init)[0][:-1]]
    js = [np.stack([before[0], np.zeros_like(before[0])])] + [jm for jm, _ in states]
    return next(t for t in range(1, len(js)) if js[t].tobytes() == js[t - 1].tobytes())


def test_the_information_half_and_strict_checks_stop_once_j_is_byte_stationary(monkeypatch):
    import gabp.bp

    model = dict(mixed_corpus())["frustrated-low-8"]
    first = _first_stationary_iteration(model, "lower")
    calls, pd_calls, real, real_pd = [], [], EdgeStack.information_half, gabp.bp.is_pd
    monkeypatch.setattr(EdgeStack, "information_half", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(gabp.bp, "is_pd", lambda x: pd_calls.append(1) or real_pd(x))
    opts = BpOptions(max_iters=10_000)
    res = run_bp(model, init="lower", options=opts)
    assert (res.status, res.iterations) == ("max_iters", 10_000) and first < 100
    # the lower bound is one information half, then a sync run makes one an iteration, none after the
    # first stationary one
    assert len(calls) == 1 + first and pd_calls == []
    calls.clear()
    strict = run_bp(model, init="lower", options=BpOptions(max_iters=10_000, strict=True))
    # strict mode adds one v2f and one f2v is_pd an iteration, up to the same iteration
    assert len(calls) == 1 + first and len(pd_calls) == 2 * first
    _assert_same_run(strict, res, "strict")


@pytest.mark.parametrize("nudge", [-0.0, 2.0 ** -600])
def test_a_j_that_moves_only_in_a_zeros_sign_or_below_the_norms_underflow_is_not_stationary(monkeypatch, nudge):
    # -0.0 == 0.0, and a move of 2^-600 squares to 0 in dJ_fro: only a byte compare sees either
    from corpus import loopy_corpus

    model = loopy_corpus()[41]
    g = build_factor_graph(model)
    stack = EdgeStack(model, g)
    first = _first_stationary_iteration(model, "lower")
    row = np.flatnonzero(g.peel.core_edges & (stack.dims == 1))[0]
    assert stack.pad.shape[1] == 3  # so row's pad has a zero at (1, 2), off its real block
    calls, real = [], EdgeStack.information_half

    def nudged(self, fj, spreads, v2f_rows, f2v_rows):
        jv, gain, jn = real(self, fj, spreads, v2f_rows, f2v_rows)
        calls.append(1)
        if len(calls) == 1 + first:  # a sync run's iteration `first`, after the lower bound
            at = np.flatnonzero(np.arange(len(self.dims))[f2v_rows] == row)[0]
            assert jn[at, 1, 2] == 0.0
            jn[at, 1, 2] = jn[at, 2, 1] = nudge
        return jv, gain, jn

    monkeypatch.setattr(EdgeStack, "information_half", nudged)
    res = run_bp(model, g, init="lower", options=BpOptions(record_messages=True))
    if nudge:
        assert res.trajectory.rows.reshape(res.iterations, -1, 3)[first - 1, len(g.f2v_edges) + row, 0] == 0.0
    # iteration `first` moved a J, so the next one steps J again; the run still freezes before it ends
    assert 1 + first < len(calls) < 1 + res.iterations
