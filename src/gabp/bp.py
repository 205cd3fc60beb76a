"""The message-passing engine.

Messages are Gaussians in information form: a message carries an
information matrix J and a mean vector v. Each update splits into two
halves, and this module holds the only implementation of each; the
analysis module reuses both.

* The information half never reads a mean:
  J_{j->n} = W_j^-1 + sum_{k != n} J_{k->j}, and (J_{n->i}, K_{n->i}) with
  K = A_i^T M^-1, M = R_n + sum_{j != i} A_j J_{j->n}^-1 A_j^T,
  J_{n->i} = K A_i.
* The mean half reuses K:
  v_{j->n} = J_{j->n}^-1 sum_{k != n} J_{k->j} v_{k->j}, and
  v_{n->i} = J_{n->i}^-1 K (y_n - sum_{j != i} A_j v_{j->n}).

One outer iteration updates every variable-to-factor edge and every
factor-to-variable edge exactly once. A schedule is a choice of factor
blocks for one shared sweep: the sweep over a block first refreshes every
variable-to-factor message into the block from the current
factor-to-variable state, then every factor-to-variable message out of
the block.

* "sync": one block of all factors, so every update reads the previous
  iteration's state. Deterministic bit for bit.
* "seq": one block per factor in ascending factor id, a Gauss-Seidel
  sweep in which later factors see earlier updates.
* "random": one block per factor in a freshly permuted order each
  iteration, driven by the run's seed.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from gabp.errors import DomainError, ExistenceViolation
from gabp.graph import build_factor_graph
from gabp.numerics import is_pd, is_psd, part_metric

log = logging.getLogger("gabp")

DIVERGENCE_GUARD = 1e12


@dataclass
class Message:
    J: np.ndarray
    v: np.ndarray


@dataclass
class BpOptions:
    tol_j: float = 1e-10
    tol_v: float = 1e-10
    max_iters: int = 10_000
    schedule: str = "sync"
    seed: int = 0
    strict: bool = False
    divergence_guard: float = DIVERGENCE_GUARD
    record_messages: bool = False


@dataclass
class BpTrajectory:
    """Per-edge and per-iteration convergence measurements.

    rows holds one record per edge per iteration:
    (iteration, kind, source id, target id, Frobenius change of J,
    max-abs change of v, part metric to the reference or nan).
    per_iteration aggregates the maxima; part_metric there is the largest
    factor-to-variable part metric to the reference fixed point, or None
    when no reference was supplied.
    """

    rows: list = field(default_factory=list)
    per_iteration: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    initial_part_metric: float = None


@dataclass
class Belief:
    mean: np.ndarray
    cov: np.ndarray


@dataclass
class BpResult:
    status: str
    iterations: int
    messages: dict
    trajectory: BpTrajectory
    beliefs: dict


def make_init(model, graph, strategy="zero", custom=None):
    """Initial factor-to-variable messages for every edge.

    strategy is "zero", "lower", "upper" or "custom". The bound inits
    place the edge-wise lower/upper envelopes of the information
    recursion on every edge with zero mean vectors; "custom" takes a dict
    mapping (factor, variable) to a Message, a (J, v) pair or a bare
    information matrix (zero mean), whose information matrices must be
    psd.
    """
    out = {}
    if strategy == "zero":
        for (n, i) in graph.f2v_edges:
            d = graph.var_dims[i]
            out[(n, i)] = Message(J=np.zeros((d, d)), v=np.zeros(d))
        return out
    if strategy in ("lower", "upper"):
        from gabp.analysis import compute_bounds

        bounds = compute_bounds(model, graph)
        source = bounds.lower if strategy == "lower" else bounds.upper
        for (n, i) in graph.f2v_edges:
            out[(n, i)] = Message(J=source[(n, i)].copy(), v=np.zeros(graph.var_dims[i]))
        return out
    if strategy == "custom":
        if custom is None:
            raise DomainError("custom init requested but no messages supplied")
        for (n, i) in graph.f2v_edges:
            if (n, i) not in custom:
                raise DomainError(f"custom init is missing edge ({n}, {i})")
            d = graph.var_dims[i]
            entry = custom[(n, i)]
            if isinstance(entry, Message):
                entry = (entry.J, entry.v)
            elif isinstance(entry, np.ndarray):
                entry = (entry, np.zeros(d))
            msg = Message(J=np.array(entry[0], dtype=float), v=np.array(entry[1], dtype=float))
            if msg.J.shape != (d, d) or msg.v.shape != (d,):
                raise DomainError(f"custom init edge ({n}, {i}) has wrong shape")
            if not is_psd(msg.J):
                raise DomainError(f"custom init edge ({n}, {i}) has a non-psd information matrix")
            out[(n, i)] = msg
        return out
    raise DomainError(f"unknown init strategy {strategy!r}")


def v2f_information(prior_prec, graph, f2v_j, j, n):
    """Information half, variable j to factor n: J = W_j^-1 + sum_{k != n} J_{k->j}."""
    jmat = prior_prec[j].copy()
    for k in graph.neighbors_of_var[j]:
        if k != n:
            jmat = jmat + f2v_j[(k, j)]
    return jmat


def f2v_information(model, graph, v2f_j, n, i):
    """Information half, factor n to variable i: returns (J_{n->i}, K_{n->i}).

    K = A_i^T M^-1 with M = R_n + sum_{j != i} A_j J_{j->n}^-1 A_j^T; it is
    the map the mean half applies to the factor's residual.
    """
    f = model.factor(n)
    core = f.noise_cov
    for j in graph.neighbors_of_factor[n]:
        if j != i:
            a = f.coeff[j]
            core = core + a @ np.linalg.solve(v2f_j[(j, n)], a.T)
    gain = np.linalg.solve(core, f.coeff[i]).T
    jmat = gain @ f.coeff[i]
    return (jmat + jmat.T) / 2.0, gain


def v2f_mean(graph, f2v_j, f2v_v, jmat, j, n):
    """Mean half, variable j to factor n: v = J^-1 sum_{k != n} J_{k->j} v_{k->j}."""
    rhs = np.zeros(graph.var_dims[j])
    for k in graph.neighbors_of_var[j]:
        if k != n:
            rhs = rhs + f2v_j[(k, j)] @ f2v_v[(k, j)]
    return np.linalg.solve(jmat, rhs)


def f2v_mean(model, graph, v2f_v, jmat, gain, n, i):
    """Mean half, factor n to variable i: v = J^-1 K (y_n - sum_{j != i} A_j v_{j->n})."""
    f = model.factor(n)
    resid = f.obs
    for j in graph.neighbors_of_factor[n]:
        if j != i:
            resid = resid - f.coeff[j] @ v2f_v[(j, n)]
    return np.linalg.solve(jmat, gain @ resid)


def existence_check(model, graph, v2f, n, i):
    """True when the factor-to-variable update for edge (n, i) is well defined.

    The update integrates out the other scope variables; the integral
    exists exactly when the stacked quadratic form

        A^T R^-1 A + blockdiag(J of incoming messages)

    over those variables is positive definite. With psd initialization
    this always holds, but manually crafted message states can break it.
    v2f maps each incoming edge to its Message or its information matrix.
    """
    f = model.factor(n)
    others = [j for j in graph.neighbors_of_factor[n] if j != i]
    if not others:
        return True
    a_blk = np.hstack([f.coeff[j] for j in others])
    core = a_blk.T @ np.linalg.solve(f.noise_cov, a_blk)
    pos = 0
    for j in others:
        d = graph.var_dims[j]
        incoming = v2f[(j, n)]
        core[pos:pos + d, pos:pos + d] += getattr(incoming, "J", incoming)
        pos += d
    return is_pd(core)


def _sweep(model, graph, prior_prec, state, block, strict, it):
    """Refresh the v2f messages into a block of factors, then the block's f2v messages."""
    fj, fv, vj, vv = state
    for n in block:
        for j in graph.neighbors_of_factor[n]:
            vj[(j, n)] = v2f_information(prior_prec, graph, fj, j, n)
            vv[(j, n)] = v2f_mean(graph, fj, fv, vj[(j, n)], j, n)
    for n in block:
        for i in graph.neighbors_of_factor[n]:
            if strict and not existence_check(model, graph, vj, n, i):
                raise ExistenceViolation(f"update for edge ({n} -> {i}) undefined at iteration {it}")
            fj[(n, i)], gain = f2v_information(model, graph, vj, n, i)
            fv[(n, i)] = f2v_mean(model, graph, vv, fj[(n, i)], gain, n, i)


def _largest_mean(means):
    """Largest absolute mean entry, inf when any entry is not finite."""
    peak = float(np.max(np.abs(np.concatenate([np.zeros(0), *means])), initial=0.0))
    return peak if np.isfinite(peak) else math.inf


def _delta(old_j, new_j, old_v, new_v):
    dj = float(np.linalg.norm(new_j - old_j, ord="fro"))
    dv = float(np.max(np.abs(new_v - old_v))) if new_v.size else 0.0
    return dj, dv


def _messages(jmats, means):
    """Message objects in canonical edge order; the arrays are shared, not copied."""
    return {e: Message(J=jmats[e], v=means[e]) for e in sorted(jmats)}


def compute_beliefs(model, graph, messages):
    """Marginal beliefs from the current factor-to-variable messages."""
    f2v = messages["f2v"]
    beliefs = {}
    for v in model.variables:
        prec = np.linalg.inv(v.prior_cov)
        rhs = np.zeros(v.dim)
        for n in graph.neighbors_of_var[v.id]:
            msg = f2v[(n, v.id)]
            prec = prec + msg.J
            rhs = rhs + msg.J @ msg.v
        cov = np.linalg.inv((prec + prec.T) / 2.0)
        beliefs[v.id] = Belief(mean=cov @ rhs, cov=cov)
    return beliefs


def _part_metric_or_inf(jmat, jstar):
    try:
        return part_metric(jmat, jstar)
    except ValueError:
        return math.inf


def run_bp(model, graph=None, init="zero", options=None, custom_init=None, reference=None):
    """Run message passing until tolerance, budget, or the divergence guard.

    Parameters
    ----------
    model : LinearGaussianModel
    graph : FactorGraph, optional
        Built from the model when omitted.
    init : str or dict
        Init strategy name, or a ready dict of (factor, variable) -> Message.
    options : BpOptions
    custom_init : dict, optional
        Messages for init="custom".
    reference : dict, optional
        (factor, variable) -> fixed-point information matrix; when given,
        the trajectory records per-edge part metrics to it.

    Returns
    -------
    BpResult with status "converged", "max_iters" or "diverged". Beliefs
    are computed for the final state unless the run diverged.

    Notes
    -----
    Convergence is declared when both the largest Frobenius change of any
    information matrix and the largest max-abs change of any mean vector
    fall below their tolerances over one full iteration. The divergence
    guard trips when any mean-vector entry exceeds the guard in absolute
    value (or stops being finite).
    """
    if graph is None:
        graph = build_factor_graph(model)
    opts = options or BpOptions()
    if opts.schedule not in ("sync", "seq", "random"):
        raise DomainError(f"unknown schedule {opts.schedule!r}")
    start = init if isinstance(init, dict) else make_init(model, graph, init, custom=custom_init)
    # The engine state is plain dicts of information matrices and means;
    # updates replace entries and never write into an array.
    fj = {e: m.J.copy() for e, m in start.items()}
    fv = {e: m.v.copy() for e, m in start.items()}
    vj, vv = {}, {}
    prior_prec = {v.id: np.linalg.inv(v.prior_cov) for v in model.variables}
    traj = BpTrajectory()
    if reference is not None:
        traj.initial_part_metric = max(
            (_part_metric_or_inf(fj[e], jstar) for e, jstar in reference.items()), default=0.0)

    rng = np.random.default_rng(opts.seed)
    status = "max_iters"
    iterations = 0

    for it in range(1, opts.max_iters + 1):
        iterations = it
        old_fj, old_fv, old_vj, old_vv = dict(fj), dict(fv), dict(vj), dict(vv)
        order = list(graph.factor_ids)
        if opts.schedule == "random":
            rng.shuffle(order)
        for block in [order] if opts.schedule == "sync" else [[n] for n in order]:
            _sweep(model, graph, prior_prec, (fj, fv, vj, vv), block, opts.strict, it)

        if opts.strict:
            for kind, edges, jmats in (("variable-to-factor", graph.v2f_edges, vj),
                                       ("factor-to-variable", graph.f2v_edges, fj)):
                for (a, b) in edges:
                    if not is_pd(jmats[(a, b)]):
                        raise ExistenceViolation(
                            f"{kind} message ({a} -> {b}) not pd at iteration {it}"
                        )

        max_dj = 0.0
        max_dv = 0.0
        pm_worst = None
        for (j, n) in graph.v2f_edges:
            if (j, n) in old_vj:
                dj, dv = _delta(old_vj[(j, n)], vj[(j, n)], old_vv[(j, n)], vv[(j, n)])
                max_dj = max(max_dj, dj)
                max_dv = max(max_dv, dv)
            else:
                dj, dv = math.nan, math.nan
                max_dj, max_dv = math.inf, math.inf
            traj.rows.append((it, "v2f", j, n, dj, dv, None))
        for (n, i) in graph.f2v_edges:
            dj, dv = _delta(old_fj[(n, i)], fj[(n, i)], old_fv[(n, i)], fv[(n, i)])
            pm = None
            if reference is not None and (n, i) in reference:
                pm = _part_metric_or_inf(fj[(n, i)], reference[(n, i)])
                pm_worst = pm if pm_worst is None else max(pm_worst, pm)
            traj.rows.append((it, "f2v", n, i, dj, dv, pm))
            max_dj = max(max_dj, dj)
            max_dv = max(max_dv, dv)

        traj.per_iteration.append(
            {"iter": it, "max_dj": max_dj, "max_dv": max_dv, "part_metric": pm_worst}
        )
        if opts.record_messages:
            traj.snapshots.append({"f2v": _messages(fj, fv), "v2f": _messages(vj, vv)})
        log.debug("bp iter %d: max_dj=%.3e max_dv=%.3e", it, max_dj, max_dv)

        if _largest_mean([*fv.values(), *vv.values()]) > opts.divergence_guard:
            status = "diverged"
            break
        if max_dj < opts.tol_j and max_dv < opts.tol_v:
            status = "converged"
            break

    messages = {"f2v": _messages(fj, fv), "v2f": _messages(vj, vv)}
    beliefs = None if status == "diverged" else compute_beliefs(model, graph, messages)
    return BpResult(status=status, iterations=iterations, messages=messages,
                    trajectory=traj, beliefs=beliefs)
