"""End-to-end acceptance checks, one test per numbered criterion.

Every tolerance asserted here is the one the criterion states. Corpus
construction lives in corpus.py so a failure in this file always
implicates the library, not the test data. Runtime-limited criteria
time themselves with perf_counter.
"""

import time

import numpy as np
import pytest

import gabp
from conftest import (QUARTET_A, QUARTET_ABS_SPECTRUM, QUARTET_J,
                      QUARTET_PRIOR, dense_marginals, dense_q, information_iterates, mrf_marginals,
                      quartet_model, rand_spd)
from corpus import (DIVERGENT_RECIPES, SHOWCASE_DIVERGENT, forest_corpus,
                    frustrated_model, loopy_corpus, mixed_corpus,
                    random_walk_summable)
from gabp.analysis import (assemble_q, compute_bounds, fit_contraction_rate,
                           two_phase_mean_recursion)
from gabp.bp import BpOptions, edge_views
from gabp.errors import DomainError
from gabp.graph import build_factor_graph, classify_topology
from gabp.mrf import factor_width_two, mrf_to_linear_gaussian
from gabp.numerics import part_metric, psd_compare

PART_FLOOR = 1e-13


def full_corpus():
    """Every convergent model the corpus offers, labeled."""
    out = [("quartet", quartet_model())]
    out += [(f"forest-{k}", m) for k, m in enumerate(forest_corpus())]
    out += [(f"loopy-{k}", m) for k, m in enumerate(loopy_corpus())]
    return out


def test_criterion_01_quartet_not_walk_summable():
    start = time.perf_counter()
    r = np.eye(4) - QUARTET_J
    spectrum = np.sort(np.linalg.eigvalsh(np.eye(4) - np.abs(r)))
    elapsed = time.perf_counter() - start
    np.testing.assert_allclose(spectrum, QUARTET_ABS_SPECTRUM, atol=5e-4)
    assert spectrum[0] < 0.0
    assert elapsed < 1.0


def test_criterion_02_decomposition_identity():
    recomposed = np.diag(1.0 / QUARTET_PRIOR) + QUARTET_A.T @ QUARTET_A
    np.testing.assert_allclose(recomposed, QUARTET_J, atol=1e-12)


def test_criterion_03_single_loop_convergence():
    start = time.perf_counter()
    model = quartet_model()
    graph = build_factor_graph(model)
    assert classify_topology(graph).overall == "single_loop_plus_forest"
    oracle = dense_marginals(model)
    for init in ("zero", "lower", "upper"):
        res = gabp.run_bp(model, graph, init=init)
        assert res.status == "converged", init
        for vid, (mean, _) in oracle.items():
            np.testing.assert_allclose(res.beliefs[vid].mean, mean, atol=1e-8)
    assert time.perf_counter() - start < 5.0


def test_criterion_04_forest_exactness():
    for label, model in full_corpus():
        if not label.startswith("forest"):
            continue
        graph = build_factor_graph(model)
        topo = classify_topology(graph)
        res = gabp.run_bp(model, graph)
        assert res.status == "converged", label
        assert res.iterations <= topo.diameter + 2, (label, res.iterations, topo.diameter)
        oracle = dense_marginals(model)
        for vid, (mean, _) in oracle.items():
            np.testing.assert_allclose(res.beliefs[vid].mean, mean, atol=1e-8,
                                       err_msg=label)
        fp = gabp.information_fixed_point(model, graph)
        qsys = assemble_q(model, graph, fp)
        assert qsys.rho < 1e-10, label
        # nilpotency is structural, so the power of the whole Q vanishes exactly
        q = dense_q(model, graph, fp)
        assert not np.any(np.linalg.matrix_power(q, q.shape[0])), label


def test_criterion_05_fixed_point_uniqueness():
    rng = np.random.default_rng(77)
    for k, model in enumerate(loopy_corpus()):
        graph = build_factor_graph(model)
        ref = gabp.information_fixed_point(model, graph, init="zero")
        upper = gabp.information_fixed_point(model, graph, init="upper")
        custom = {e: rand_spd(rng, graph.var_dims[e[1]]) for e in graph.f2v_edges}
        alt = gabp.information_fixed_point(model, graph, init=custom)
        upper_j, alt_j, ref_j = (edge_views(fp.stack.graph, fp.f2v_j) for fp in (upper, alt, ref))
        for edge in graph.f2v_edges:
            np.testing.assert_allclose(upper_j[edge], ref_j[edge], atol=1e-8,
                                       err_msg=f"loopy-{k} upper {edge}")
            np.testing.assert_allclose(alt_j[edge], ref_j[edge], atol=1e-8,
                                       err_msg=f"loopy-{k} custom {edge}")


@pytest.fixture(scope="module")
def recorded_runs():
    """Zero- and upper-init sync recursion histories up to their limits, and zero- and lower-init iteration counts.

    The counts are pairs: the sync recursion's steps to its limit, and
    information_fixed_point's core iterations.
    """
    runs = []
    for label, model in full_corpus():
        graph = build_factor_graph(model)
        bounds = compute_bounds(model, graph)
        histories = [information_iterates(model, graph, init) for init in ("zero", "upper")]
        counts = {init: (len(information_iterates(model, graph, init)) - 1,
                         gabp.information_fixed_point(model, graph, init=init).iterations)
                  for init in ("zero", "lower")}
        runs.append((label, graph, bounds, *histories, counts["zero"], counts["lower"]))
    return runs


def test_criterion_06_bound_sandwich(recorded_runs):
    for label, graph, (lower, upper), *histories, _, _ in recorded_runs:
        for history in histories:
            for ell in range(1, len(history)):
                for edge in graph.f2v_edges:
                    assert psd_compare(history[ell][edge], lower[edge]), \
                        (label, ell, edge)
                    assert psd_compare(upper[edge], history[ell][edge]), \
                        (label, ell, edge)


def test_criterion_07_initialization_monotonicity(recorded_runs):
    for label, graph, _, zero_history, upper_history, zero, lower in recorded_runs:
        for ell in range(1, len(zero_history)):
            for edge in graph.f2v_edges:
                assert psd_compare(zero_history[ell][edge], zero_history[ell - 1][edge]), \
                    (label, "zero", ell, edge)
        for ell in range(1, len(upper_history)):
            for edge in graph.f2v_edges:
                assert psd_compare(upper_history[ell - 1][edge], upper_history[ell][edge]), \
                    (label, "upper", ell, edge)
        assert lower[0] <= zero[0] and lower[1] <= zero[1], label


def test_criterion_08_rho_iff_mean_convergence(monkeypatch):
    monkeypatch.setattr("gabp.analysis.MEAN_RECURSION_MAX_ITERS", 100_000)
    kept = n_conv = n_div = 0
    for label, model in mixed_corpus():
        graph = build_factor_graph(model)
        fp = gabp.information_fixed_point(model, graph)
        qsys = assemble_q(model, graph, fp)
        if abs(qsys.rho - 1.0) < 1e-3:
            continue
        kept += 1
        phase = two_phase_mean_recursion(fp)
        if qsys.rho < 1.0:
            n_conv += 1
            assert phase.status == "converged", (label, qsys.rho, phase.status)
            for vid, (mean, _) in dense_marginals(model).items():
                np.testing.assert_allclose(phase.means[vid], mean, atol=1e-6, err_msg=label)
        else:
            n_div += 1
            assert phase.status == "diverged", (label, qsys.rho, phase.status)
    assert kept >= 100, kept
    assert n_conv > 0 and n_div > 0, (n_conv, n_div)

    # a pinned instance well past the threshold blows up in the full engine
    n, n_extra, gain, seed = SHOWCASE_DIVERGENT
    model = frustrated_model(seed, n=n, gain=gain, n_extra=n_extra)
    graph = build_factor_graph(model)
    fp = gabp.information_fixed_point(model, graph)
    assert assemble_q(model, graph, fp).rho >= 1.02
    res = gabp.run_bp(model, graph)
    assert res.status == "diverged"
    peak = max(float(np.max(np.abs(m.v)))
               for side in ("f2v", "v2f") for m in res.messages[side].values())
    assert peak > 1e12


def test_criterion_09_geometric_contraction():
    n_fits = 0
    for label, model in full_corpus():
        graph = build_factor_graph(model)
        fp = gabp.information_fixed_point(model, graph)
        res = gabp.run_bp(model, graph, init="lower", reference=fp)
        assert res.status == "converged", label
        d0 = res.trajectory.initial_part_metric
        seq = res.trajectory.per_iteration[:, 2]
        usable = []
        for d in seq:
            if not np.isfinite(d) or d <= PART_FLOOR:
                break
            usable.append(d)
        if d0 is not None and np.isfinite(d0) and d0 > PART_FLOOR and len(usable) >= 2:
            # witness constant for the geometric envelope; the
            # least-squares fit below averages the decay and sits under
            # early-window ratios whenever the decay accelerates, so it
            # cannot anchor a pointwise bound at d_0
            witness = max((usable[ell - 1] / d0) ** (1.0 / ell)
                          for ell in range(2, len(usable) + 1))
            assert witness < 1.0, (label, witness)
            for ell in range(2, len(usable) + 1):
                assert usable[ell - 1] <= (witness ** ell) * d0 * (1.0 + 1e-12), \
                    (label, ell)
        try:
            fit = fit_contraction_rate(seq)
        except DomainError:
            continue  # fewer than 3 usable points: rate absent by contract
        n_fits += 1
        assert fit.c < 1.0, (label, fit.c)
    assert n_fits >= 50, n_fits


def test_criterion_10_part_metric_properties():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        x, y = rand_spd(rng, n), rand_spd(rng, n)
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        dxy = part_metric(x, y)
        dab = part_metric(a, b)
        assert part_metric(x + a, y + b) <= max(dxy, dab) + 1e-9
        assert abs(part_metric(np.linalg.inv(x), np.linalg.inv(y)) - dxy) <= 1e-9


def test_criterion_11_factor_width_two_bridge():
    for seed in range(50):
        j, h = random_walk_summable(seed)
        fw = factor_width_two(j)
        target = j - fw.omega * np.eye(j.shape[0])
        assert np.linalg.norm(fw.v @ fw.v.T - target, ord="fro") <= 1e-8, seed
        assert int(np.max((np.abs(fw.v) > 0).sum(axis=0))) <= 2, seed
        model, _ = mrf_to_linear_gaussian(j, h)
        graph = build_factor_graph(model)
        fp = gabp.information_fixed_point(model, graph)
        assert assemble_q(model, graph, fp).rho < 1.0, seed
        res = gabp.run_bp(model, graph)
        assert res.status == "converged", seed
        means, _ = mrf_marginals(j, h)
        for i in range(j.shape[0]):
            assert abs(res.beliefs[i + 1].mean[0] - means[i]) <= 1e-8, seed


def test_criterion_12_strict_runs_stay_pd():
    for label, model in full_corpus():
        graph = build_factor_graph(model)
        res = gabp.run_bp(model, graph, options=BpOptions(strict=True))
        assert res.status == "converged", label
    res = gabp.run_bp(quartet_model(), init="upper", options=BpOptions(strict=True))
    assert res.status == "converged"
    # mean divergence never breaches the information-side guarantee
    for (n, n_extra, gain, seed) in DIVERGENT_RECIPES[:5]:
        model = frustrated_model(seed, n=n, gain=gain, n_extra=n_extra)
        res = gabp.run_bp(model, options=BpOptions(strict=True))
        assert res.status == "diverged", (seed, res.status)
