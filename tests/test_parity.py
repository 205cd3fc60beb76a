"""The stacked engine against a per-edge transcription of the recursions.

The reference below loops over edges with dicts, straight from the
message equations, and shares no code with gabp.bp: only the model, the
factor graph's edge lists and compute_bounds' lower matrices come from
gabp.
"""

import numpy as np
import pytest

from conftest import factors_of_var, oracle_core, vars_of_factor
from corpus import grid_field
from gabp.analysis import compute_bounds, information_fixed_point
from gabp.bp import BpOptions, edge_views, run_bp
from gabp.graph import build_factor_graph
from gabp.model import random_model
from gabp.mrf import mrf_to_linear_gaussian


def _v2f(factors_of, prec, fj, fv, j, n):
    others = [k for k in factors_of[j] if k != n]
    jm = prec[j] + sum(fj[k, j] for k in others)
    return jm, np.linalg.solve(jm, sum((fj[k, j] @ fv[k, j] for k in others), np.zeros(len(jm))))


def _f2v(factors, vj, vv, n, i):
    f = factors[n]
    others = [j for j in f.scope if j != i]
    core = f.noise_cov + sum(f.coeff[j] @ np.linalg.solve(vj[j, n], f.coeff[j].T) for j in others)
    gain = np.linalg.solve(core, f.coeff[i]).T
    jm = (gain @ f.coeff[i] + (gain @ f.coeff[i]).T) / 2.0
    resid = f.obs - sum((f.coeff[j] @ vv[j, n] for j in others), np.zeros(f.obs_dim))
    return jm, np.linalg.solve(jm, gain @ resid)


def reference_bp(model, init_j, schedule="sync", seed=0, tol=1e-10, means=True, max_iters=500):
    """(iterations, f2v J, f2v v, belief means); means=False iterates J alone to tol (sync)."""
    g = build_factor_graph(model)
    factors_of = factors_of_var(g)
    prec = {v.id: np.linalg.inv(v.prior_cov) for v in model.variables}
    factors = {f.id: f for f in model.factors}
    fj = dict(init_j)
    fv = {e: np.zeros(len(m)) for e, m in fj.items()}
    vj, vv = {}, {}
    rng = np.random.default_rng(seed)
    for it in range(1, max_iters + 1):
        old = [dict(x) for x in (fj, fv, vj, vv)]
        order = list(g.factor_ids)
        if schedule == "random":
            rng.shuffle(order)
        for block in [order] if schedule == "sync" else [[n] for n in order]:
            for n in block:
                for j in factors[n].scope:
                    vj[j, n], vv[j, n] = _v2f(factors_of, prec, fj, fv, j, n)
            for n in block:
                for i in factors[n].scope:
                    fj[n, i], fv[n, i] = _f2v(factors, vj, vv, n, i)
        deltas = [np.linalg.norm(fj[e] - old[0][e]) for e in fj]
        if means:
            deltas += [np.max(np.abs(fv[e] - old[1][e])) for e in fv]
            deltas += [max(np.linalg.norm(vj[e] - old[2][e]), np.max(np.abs(vv[e] - old[3][e])))
                       if it > 1 else np.inf for e in vj]
        if max(deltas) < tol:
            break
    beliefs = {}
    for i, ks in factors_of.items():
        p = prec[i] + sum(fj[n, i] for n in ks)
        beliefs[i] = np.linalg.solve(p, sum(fj[n, i] @ fv[n, i] for n in ks))
    return it, fj, fv, beliefs


def reference_core_iterations(model, limit, tol=1e-12):
    """Sync J iterations, from zero, of the 2-core's f2v edges alone, all other f2v J held at limit, to tol.

    Those other messages are the hanging trees': the core reads only the
    ones running toward it, which the schedule settles before the loop.
    """
    g = build_factor_graph(model)
    factors_of = factors_of_var(g)
    prec = {v.id: np.linalg.inv(v.prior_cov) for v in model.variables}
    factors = {f.id: f for f in model.factors}
    core = oracle_core(model)
    edges = [(n, i) for n, i in g.f2v_edges if {("f", n), ("v", i)} <= core]
    fj = dict(limit)
    fj.update({(n, i): np.zeros((g.var_dims[i],) * 2) for n, i in edges})
    fv = {e: np.zeros(len(m)) for e, m in fj.items()}
    vv = {(i, n): np.zeros(g.var_dims[i]) for n, i in g.f2v_edges}
    vj = {(i, n): _v2f(factors_of, prec, fj, fv, i, n)[0] for n, i in g.f2v_edges}
    it, delta = 0, (np.inf if edges else 0.0)
    while delta >= tol:
        it += 1
        vj.update({(i, n): _v2f(factors_of, prec, fj, fv, i, n)[0] for n, i in edges})
        new = {e: _f2v(factors, vj, vv, *e)[0] for e in edges}
        delta = max(np.linalg.norm(new[e] - fj[e]) for e in edges)
        fj.update(new)
    return it


def _models():
    for topology in ("forest", "single_loop", "multi_loop"):
        yield topology, random_model(seed=5, n_agents=9, dims=(1, 3), topology=topology)
    for side in (1, 3):
        j = grid_field(side)
        h = np.random.default_rng(side).standard_normal(side * side)
        yield f"grid{side}", mrf_to_linear_gaussian(j, h)[0]


def test_models_cover_the_edge_cases():
    graphs = [build_factor_graph(m) for _, m in _models()]
    assert any(len(s) == 1 for g in graphs for s in vars_of_factor(g).values())
    assert any(len(f) == 1 for g in graphs for f in factors_of_var(g).values())
    assert any(len(set(g.var_dims.values())) == 3 for g in graphs)


def _close(got, want, tol=1e-12):
    scale = max(float(np.max(np.abs(w))) for w in want.values())
    worst = max(float(np.max(np.abs(np.asarray(got[k]) - w))) for k, w in want.items())
    assert worst <= tol * scale, (worst, scale)


@pytest.mark.parametrize("schedule", ["sync", "seq", "random"])
@pytest.mark.parametrize("label,model", list(_models()))
def test_engine_matches_per_edge_reference(label, model, schedule):
    g = build_factor_graph(model)
    lower, _ = compute_bounds(model, g)
    iters, fj, fv, beliefs = reference_bp(model, lower, schedule, seed=4)
    res = run_bp(model, g, init="lower", options=BpOptions(schedule=schedule, seed=4))
    assert res.status == "converged" and res.iterations == iters
    _close({e: m.J for e, m in res.messages["f2v"].items()}, fj)
    # the means are compared through J v: a message's J can be ill conditioned
    # (cond 3e5 on the forest model), and v then carries cond(J) times the
    # rounding of J, in the reference as much as in the engine
    _close({e: fj[e] @ m.v for e, m in res.messages["f2v"].items()},
           {e: fj[e] @ v for e, v in fv.items()})
    _close({i: b.mean for i, b in res.beliefs.items()}, beliefs)


@pytest.mark.parametrize("label,model", list(_models()))
def test_fixed_point_matches_per_edge_reference(label, model):
    g = build_factor_graph(model)
    zero = {(n, i): np.zeros((g.var_dims[i],) * 2) for n, i in g.f2v_edges}
    _, fj, _, _ = reference_bp(model, zero, tol=1e-12, means=False)
    fp = information_fixed_point(model, g)
    assert fp.iterations == reference_core_iterations(model, fj)
    _close(edge_views(fp.stack.graph, fp.f2v_j), fj)
