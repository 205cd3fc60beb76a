"""Convergence analysis for the message-passing recursions.

Three separate questions are answered here:

1. Where do the information matrices go? The update of the
   factor-to-variable information matrices is a self-contained recursion
   independent of the observations; it has a unique positive definite
   fixed point between explicit edge-wise lower and upper envelopes, and
   converges to it from any psd initialization.
2. Do the mean vectors follow? With the information matrices frozen at
   the fixed point, the variable-to-factor means obey a stacked affine
   iteration v <- -Q v + b; it converges for every starting point exactly
   when the spectral radius of Q is below one, and on trees Q is
   nilpotent.
3. How fast? The information recursion contracts the part metric to the
   fixed point; an empirical geometric rate is fitted from a recorded
   trajectory.

The analysis reuses the engine's information half and mean half
(gabp.bp): the fixed point iterates the information half alone, Q is
built from the gains K that half returns at J*, and the beliefs of the
two-phase run come from the mean half and compute_beliefs.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from gabp.bp import (BpOptions, Message, compute_beliefs, f2v_information, f2v_mean,
                     make_init, run_bp, v2f_information)
from gabp.errors import DomainError, IterationBudgetError
from gabp.graph import build_factor_graph, classify_topology
from gabp.model import centralized_solve, require_valid
from gabp.numerics import psd_compare, spectral_radius, symmetrize

log = logging.getLogger("gabp")

BORDERLINE_BAND = 1e-3
FIXED_POINT_TOL = 1e-12
PART_METRIC_FLOOR = 1e-13


@dataclass
class EdgeBounds:
    """Edge-wise envelopes of the information recursion.

    For the edge from factor n to variable i:

        upper = A_ni^T R_n^-1 A_ni
        lower = A_ni^T (R_n + sum_{j in scope, j != i} A_nj W_j A_nj^T)^-1 A_ni

    After one iteration from any psd start, every information matrix sits
    between its lower and upper bound in the Loewner order.
    """

    lower: dict
    upper: dict


def compute_bounds(model, graph):
    lower = {}
    upper = {}
    for (n, i) in graph.f2v_edges:
        f = model.factor(n)
        a_i = f.coeff[i]
        upper[(n, i)] = symmetrize(a_i.T @ np.linalg.solve(f.noise_cov, a_i))
        spread = f.noise_cov.copy()
        for j in graph.neighbors_of_factor[n]:
            if j == i:
                continue
            a_j = f.coeff[j]
            spread = spread + a_j @ model.variable(j).prior_cov @ a_j.T
        lower[(n, i)] = symmetrize(a_i.T @ np.linalg.solve(spread, a_i))
    return EdgeBounds(lower=lower, upper=upper)


@dataclass
class FixedPoint:
    """Fixed point of the information recursion on both edge kinds.

    gain holds K_{n->i} = A_i^T M^-1 at J*, the map the mean half applies
    to each factor's residual once the information side is frozen.
    """

    f2v: dict
    v2f: dict
    gain: dict
    iterations: int
    history: list = None


def information_fixed_point(model, graph=None, init="zero", tol=FIXED_POINT_TOL,
                            max_iters=10_000, record=False, custom=None):
    """Iterate the information half of the engine alone until it stops moving.

    The mean vectors play no role here, so this is the cheapest way to
    obtain the fixed point J* that the full engine converges to. init
    accepts the engine's strategies (see make_init); "custom" takes a
    dict of psd matrices (or messages) per edge. Raises
    IterationBudgetError if tol is not reached within max_iters.
    """
    if graph is None:
        graph = build_factor_graph(model)
    prior_prec = {v.id: np.linalg.inv(v.prior_cov) for v in model.variables}

    def v2f_of(f2v):
        return {(j, n): v2f_information(prior_prec, graph, f2v, j, n)
                for (j, n) in graph.v2f_edges}

    f2v = {e: m.J for e, m in make_init(model, graph, init, custom=custom).items()}
    history = [dict(f2v)] if record else None
    for it in range(1, max_iters + 1):
        v2f = v2f_of(f2v)
        new_f2v = {(n, i): f2v_information(model, graph, v2f, n, i)[0]
                   for (n, i) in graph.f2v_edges}
        delta = max((float(np.linalg.norm(new_f2v[e] - f2v[e], ord="fro"))
                     for e in graph.f2v_edges), default=0.0)
        f2v = new_f2v
        if record:
            history.append(dict(f2v))
        if delta < tol:
            v2f = v2f_of(f2v)
            gain = {(n, i): f2v_information(model, graph, v2f, n, i)[1]
                    for (n, i) in graph.f2v_edges}
            log.debug("information fixed point reached after %d iterations", it)
            return FixedPoint(f2v=f2v, v2f=v2f, gain=gain, iterations=it, history=history)
    raise IterationBudgetError(
        f"information recursion did not reach tol={tol:g} within {max_iters} iterations "
        f"(last delta {delta:.3e})"
    )


@dataclass
class QSystem:
    """Stacked affine system v <- -Q v + b for the frozen-J* mean recursion.

    Rows and columns run over variable-to-factor edges in canonical
    order; offsets maps an edge to its (start, dim) slice. The block in
    row (j, n), column (z, k) is nonzero exactly when factor k is another
    neighbor of j and z another neighbor of factor k (the two-hop
    dependency of the message equations).
    """

    q: np.ndarray
    b: np.ndarray
    offsets: dict
    edges: list
    rho: float


def assemble_q(model, graph, fixed_point):
    """Q blocks J_{j->n}^-1 K_{k->j} A_z and b from K_{k->j} y_k, K from the fixed point."""
    dim = graph.total_v2f_dim
    q = np.zeros((dim, dim))
    b = np.zeros(dim)
    for (j, n) in graph.v2f_edges:
        row, dj = graph.v2f_offsets[(j, n)]
        jjn = fixed_point.v2f[(j, n)]
        acc = np.zeros(dj)
        for k in graph.neighbors_of_var[j]:
            if k == n:
                continue
            f = model.factor(k)
            gain = fixed_point.gain[(k, j)]
            acc = acc + gain @ f.obs
            for z in graph.neighbors_of_factor[k]:
                if z != j:
                    col, dz = graph.v2f_offsets[(z, k)]
                    q[row:row + dj, col:col + dz] = np.linalg.solve(jjn, gain @ f.coeff[z])
        b[row:row + dj] = np.linalg.solve(jjn, acc)

    return QSystem(q=q, b=b, offsets=dict(graph.v2f_offsets), edges=list(graph.v2f_edges),
                   rho=spectral_radius(q))


@dataclass
class MeanRecursionResult:
    status: str
    iterations: int
    v: np.ndarray


def two_phase_mean_recursion(qsys, v0=None, tol=1e-10, max_iters=20_000, guard=1e12):
    """Iterate the stacked mean recursion with the information side frozen.

    Returns status "converged", "diverged" (guard exceeded or values not
    finite) or "max_iters".
    """
    v = np.zeros_like(qsys.b) if v0 is None else np.asarray(v0, dtype=float).copy()
    status = "max_iters"
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        v_new = qsys.b - qsys.q @ v
        dv = np.max(np.abs(v_new - v)) if v.size else 0.0
        v = v_new
        peak = np.max(np.abs(v)) if v.size else 0.0
        if not np.isfinite(peak) or peak > guard:
            status = "diverged"
            break
        if dv < tol:
            status = "converged"
            break
    return MeanRecursionResult(status=status, iterations=iterations, v=v)


def beliefs_from_v2f_means(model, graph, fixed_point, qsys, v_stacked):
    """Belief means implied by a converged stacked mean vector.

    Completes the two-phase run: the engine's mean half turns the stacked
    variable-to-factor means into factor-to-variable means at J*, and
    compute_beliefs combines them into per-variable means.
    """
    v2f = {e: v_stacked[s:s + d] for e, (s, d) in qsys.offsets.items()}
    f2v = {(n, i): Message(J=fixed_point.f2v[(n, i)],
                           v=f2v_mean(model, graph, v2f, fixed_point.f2v[(n, i)],
                                      fixed_point.gain[(n, i)], n, i))
           for (n, i) in graph.f2v_edges}
    beliefs = compute_beliefs(model, graph, {"f2v": f2v})
    return {vid: b.mean for vid, b in beliefs.items()}


def decide_mean_convergence(rho, topology, band=BORDERLINE_BAND):
    """Map a spectral radius and a topology report onto a verdict string.

    Forests and single loops are convergent regardless of rho, so they
    short-circuit to "guaranteed_by_topology". Otherwise the decision is
    by rho against 1, with an inconclusive band of width ``band`` around
    it.
    """
    kind = getattr(topology, "overall", topology)
    if kind in ("forest", "single_loop_plus_forest"):
        return "guaranteed_by_topology"
    if abs(rho - 1.0) < band:
        return "borderline"
    if rho < 1.0:
        return "converges_rho_lt_1"
    return "diverges_rho_ge_1"


@dataclass
class RateFit:
    c: float
    slope: float
    window: tuple
    n_points: int


def fit_contraction_rate(part_metrics, floor=PART_METRIC_FLOOR):
    """Geometric rate from a sequence of part-metric distances to J*.

    part_metrics is the per-iteration sequence d_1, d_2, ... from a
    recorded trajectory. Entries at or below the numerical floor (or not
    finite) end the usable range; the fit runs over the longest decaying
    suffix of what remains and needs at least three points. Returns the
    fitted c = exp(slope of log d against iteration).
    """
    usable = []
    for idx, d in enumerate(part_metrics, start=1):
        if d is None or not math.isfinite(d) or d <= floor:
            break
        usable.append((idx, d))
    if len(usable) < 3:
        raise DomainError(
            f"need at least 3 finite part metrics above {floor:g} to fit a rate, got {len(usable)}"
        )
    end = len(usable)
    start = end - 1
    while start > 0 and usable[start - 1][1] > usable[start][1]:
        start -= 1
    window = usable[start:]
    if len(window) < 3:
        raise DomainError("decaying suffix has fewer than 3 points")
    xs = np.array([p[0] for p in window], dtype=float)
    ys = np.log(np.array([p[1] for p in window], dtype=float))
    slope, _ = np.polyfit(xs, ys, 1)
    return RateFit(c=float(np.exp(slope)), slope=float(slope),
                   window=(window[0][0], window[-1][0]), n_points=len(window))


@dataclass
class ConvergenceReport:
    """Everything certify() measured about one model."""

    topology: str
    components: list
    diameter: int
    rho_q: float
    verdict: str
    bounds_hold: bool
    fixed_point_iterations: int
    mean_recursion_status: str
    mean_recursion_iterations: int
    bp_status: str = None
    bp_iterations: int = None
    max_mean_error: float = None
    fitted_rate: float = None
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "topology": self.topology,
            "components": self.components,
            "diameter": self.diameter,
            "rho_q": self.rho_q,
            "verdict": self.verdict,
            "bounds_hold": self.bounds_hold,
            "fixed_point_iterations": self.fixed_point_iterations,
            "mean_recursion_status": self.mean_recursion_status,
            "mean_recursion_iterations": self.mean_recursion_iterations,
            "bp_status": self.bp_status,
            "bp_iterations": self.bp_iterations,
            "max_mean_error": self.max_mean_error,
            "fitted_rate": self.fitted_rate,
            "notes": self.notes,
        }


def certify(model, graph=None, cross_check=True, bp_options=None):
    """Full convergence certificate for one model.

    Computes the topology class, the information fixed point with its
    bounds, the mean-recursion spectral radius and verdict, and (unless
    cross_check is False) an actual engine run compared against the
    centralized solution, plus a fitted contraction rate when the
    trajectory supports one.
    """
    require_valid(model)
    if graph is None:
        graph = build_factor_graph(model)
    topo = classify_topology(graph)
    bounds = compute_bounds(model, graph)
    fp = information_fixed_point(model, graph)
    bounds_hold = all(
        psd_compare(fp.f2v[e], bounds.lower[e]) and psd_compare(bounds.upper[e], fp.f2v[e])
        for e in graph.f2v_edges
    )
    qsys = assemble_q(model, graph, fp)
    verdict = decide_mean_convergence(qsys.rho, topo)
    mean_run = two_phase_mean_recursion(qsys)

    report = ConvergenceReport(
        topology=topo.overall,
        components=[
            {"nodes": c.nodes, "edges": c.edges, "independent_cycles": c.independent_cycles,
             "kind": c.kind, "diameter": c.diameter}
            for c in topo.components
        ],
        diameter=topo.diameter,
        rho_q=qsys.rho,
        verdict=verdict,
        bounds_hold=bounds_hold,
        fixed_point_iterations=fp.iterations,
        mean_recursion_status=mean_run.status,
        mean_recursion_iterations=mean_run.iterations,
    )

    if cross_check:
        opts = bp_options or BpOptions()
        result = run_bp(model, graph, init="lower", options=opts, reference=fp.f2v)
        report.bp_status = result.status
        report.bp_iterations = result.iterations
        if result.status == "converged":
            exact = centralized_solve(model)
            report.max_mean_error = max(
                float(np.max(np.abs(result.beliefs[v.id].mean - exact.means[v.id])))
                if v.dim else 0.0
                for v in model.variables
            )
        metrics = [rec["part_metric"] for rec in result.trajectory.per_iteration]
        try:
            report.fitted_rate = fit_contraction_rate(metrics).c
        except DomainError as exc:
            report.notes.append(f"rate fit skipped: {exc}")
    return report
