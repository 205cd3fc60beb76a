"""Convergence analysis for the message-passing recursions.

Three separate questions are answered here:

1. Where do the information matrices go? The update of the
   factor-to-variable information matrices is a self-contained recursion
   independent of the observations; it has a unique positive definite
   fixed point between explicit edge-wise lower and upper envelopes, and
   converges to it from any psd initialization.
2. Do the mean vectors follow? With the information matrices frozen at
   the fixed point, the engine's mean half is a stacked affine iteration
   v <- -Q v + b on the variable-to-factor means; it converges for every
   starting point exactly when the spectral radius of Q is below one. On
   trees Q is nilpotent: the messages outside the loops only add zero
   eigenvalues, Q keeps only the edges of the factor graph's 2-core
   (graph.peel.core_edges), and rho on a forest is exactly 0.
3. How fast? The information recursion contracts the part metric to the
   fixed point; an empirical geometric rate is fitted from a recorded
   trajectory.

The analysis runs on the engine's EdgeStack (gabp.bp, whose docstring
gives the stack layout), one half call per pair of row sets: the fixed
point and the mean recursion iterate theirs on (core, core) between
_settle's passes over the trees (one call a round), and
FixedPoint keeps J* only as the stacks: J of both edge kinds and the
gains K, with no per-edge copy (bp.edge_views gives one on demand).
assemble_q builds the blocks of Q's loop core from them, with one
stacked solve per pair of gather slots, for rho(Q) only; the whole Q is
never formed. The mean recursion is the engine's mean
half at J*, and compute_beliefs turns its final f2v potentials into the
belief means. certify reads the edge bounds off fp.stack (the lower one
computed once per stack) and gives run_bp the FixedPoint as its
reference; compute_bounds gives the stack's two envelopes as dict views.
Its cross-check compares the engine's means with those of
model.centralized_solve, which eliminates the same peel's hanging trees
and inverts only the core, and takes nothing from the engine.
"""

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from gabp.bp import EdgeStack, compute_beliefs, diverged, edge_views, run_bp
from gabp.errors import DomainError, IterationBudgetError
from gabp.graph import build_factor_graph, classify_topology
from gabp.model import centralized_solve, require_valid
from gabp.numerics import psd_compare, spectral_radius

log = logging.getLogger("gabp")

BORDERLINE_BAND = 1e-3
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITERS = 10_000
MEAN_RECURSION_TOL = 1e-10
MEAN_RECURSION_MAX_ITERS = 20_000
PART_METRIC_FLOOR = 1e-13


def compute_bounds(model, graph):
    """The edge-wise envelopes (lower, upper), dicts by f2v edge of views of EdgeStack.lower_bound and upper_bound."""
    stack = EdgeStack(model, graph)
    return edge_views(graph, stack.lower_bound()), edge_views(graph, stack.upper_bound())


@dataclass
class FixedPoint:
    """Fixed point of the information recursion on both edge kinds, as the kernel's stacks at J*.

    stack is the EdgeStack they are laid out on, f2v_j and v2f_j hold
    J_{n->i} and J_{i->n} by stack row (bp.edge_views gives them by edge),
    and gain holds K_{n->i} = A_i^T M^-1, the map the mean half applies
    to each factor's residual once the information side is frozen.
    """

    gain: np.ndarray
    iterations: int
    stack: EdgeStack
    f2v_j: np.ndarray
    v2f_j: np.ndarray


def _settle(peel, step, away=False):
    """Step the hanging trees' messages toward the 2-core, or away from it, in one pass (see graph.LeafPeel).

    step(v2f_rows, f2v_rows) is one half. No two nodes of a round are adjacent, so each round is one
    call: (var_rows, factor_rows) toward the core, (factor_rows, var_rows) away from it.
    """
    for _, var_rows, factor_rows in reversed(peel.rounds) if away else peel.rounds:
        step(*((factor_rows, var_rows) if away else (var_rows, factor_rows)))


def information_fixed_point(model, graph=None, init="zero"):
    """Iterate the information half of the engine alone until it stops moving.

    The mean vectors play no role here, so this is the cheapest way to
    obtain the fixed point J* that the full engine converges to. Each
    iteration is one synchronous J half over the core rows, between the
    passes of _settle, so init (see EdgeStack.init) seeds only those and
    iterations is 0 on a forest. Raises IterationBudgetError if
    FIXED_POINT_TOL is not reached within FIXED_POINT_MAX_ITERS.
    """
    if graph is None:
        graph = build_factor_graph(model)
    stack = EdgeStack(model, graph)
    (fj, _), (spreads, _) = stack.init(init), stack.stores()

    def step(v2f_rows, f2v_rows):
        fj[f2v_rows] = stack.information_half(fj, spreads, v2f_rows, f2v_rows)[2]

    _settle(graph.peel, step)
    core, delta, it = np.flatnonzero(graph.peel.core_edges), math.inf, 0
    while len(core) and delta >= FIXED_POINT_TOL:
        if it == FIXED_POINT_MAX_ITERS:
            raise IterationBudgetError(
                f"information recursion did not reach tol={FIXED_POINT_TOL:g} within "
                f"{FIXED_POINT_MAX_ITERS} iterations (last delta {delta:.3e})")
        it += 1
        new = stack.information_half(fj, spreads, core, core)[2]
        delta = float(np.max(np.linalg.norm(new - fj[core], axis=(1, 2)), initial=0.0))
        fj[core] = new
    _settle(graph.peel, step, away=True)
    jv, gain, _ = stack.information_half(fj, spreads, stack.all, stack.all)
    log.debug("information fixed point reached after %d core iterations", it)
    return FixedPoint(gain=gain, iterations=it, stack=stack, f2v_j=fj[:-1], v2f_j=jv)


@dataclass
class QSystem:
    """Q of the frozen-J* mean recursion v <- -Q v + b, on its loop core only.

    b is not kept: the recursion itself (two_phase_mean_recursion) runs
    on the engine's mean half. The block in row (j, n), column (z, k) of
    the whole Q is nonzero only when factor k is another neighbor of j
    and z another neighbor of factor k (the two-hop dependency of the
    message equations). q keeps the v2f edges of graph.peel.core_edges, in
    canonical order; the edges it peels add only zero eigenvalues, so
    rho is rho of the whole Q, and 0.0 with an empty q on a forest.
    """

    q: np.ndarray
    rho: float


def _v2f_coords(stack, keep):
    """Coordinates of the twin v2f edges of the rows keep marks, packed in canonical v2f order.

    Returns each row's coordinate per padded slot and the mask of the
    real slots of the kept rows. With every row kept this is the layout
    of the whole stacked v2f vector, Q's coordinates.
    """
    rows = stack.v2f_rows[keep[stack.v2f_rows]]
    start = np.zeros(len(stack.dims), dtype=int)
    start[rows] = np.cumsum(stack.dims[rows]) - stack.dims[rows]
    width = np.arange(stack.w.shape[-1])
    return start[:, None] + width, (width < stack.dims[:, None]) & keep[:, None]


def assemble_q(model, graph, fixed_point):
    """Q's loop-core blocks J_{j->n}^-1 K_{k->j} A_{k,z}, read from the kernel's stacks, and rho(Q).

    Stack row e holds Q's block row for its twin v2f edge (j, n). One pass
    of the loop fills, for all core rows at once, the block of one other
    factor k of j (a column of others_of_var) and one other variable z of
    k; blocks whose (z, k) is off the core are dropped.
    """
    st, gain = fixed_point.stack, fixed_point.gain
    core = st.graph.peel.core_edges
    coords, real = _v2f_coords(st, core)
    rows = np.flatnonzero(core)
    jv, row_coords, row_real = fixed_point.v2f_j[rows], coords[rows], real[rows]
    q = np.zeros((int(real.sum()),) * 2)
    for kj in st.others_of_var[rows].T:
        for kz in st.others_of_factor[kj].T:
            keep = ((kj >= 0) & (kz >= 0))[:, None, None] & row_real[:, :, None] & real[kz][:, None, :]
            block = np.linalg.solve(jv, gain[kj] @ st.a[kz])
            q[np.broadcast_to(row_coords[:, :, None], keep.shape)[keep],
              np.broadcast_to(coords[kz][:, None, :], keep.shape)[keep]] = block[keep]
    return QSystem(q=q, rho=spectral_radius(q))


@dataclass
class MeanRecursionResult:
    status: str
    iterations: int
    v: np.ndarray
    means: dict


def two_phase_mean_recursion(fixed_point):
    """Iterate the engine's mean half from zero v2f means, its J frozen at J*.

    The core rows iterate between the passes of _settle. Step 0 is the
    f2v step alone from zero v2f means, (none, core) on this call's own
    store of pulls; each iteration is one mean half (core, core), then bp.diverged:
    exactly v <- b - Q v, as Q's block is J_{j->n}^-1 K_{k->j} A_{k,z}.
    Returns status "converged" (step below MEAN_RECURSION_TOL, at 0
    iterations on a forest), "diverged" (any mean) or "max_iters" after
    MEAN_RECURSION_MAX_ITERS, v in the whole Q's canonical v2f order, and
    the belief means by variable id from the last f2v store (None if
    diverged).
    """
    st, gain, jv = fixed_point.stack, fixed_point.gain, fixed_point.v2f_j
    vv = np.zeros(st.w.shape[:2])
    fh, (_, pulls) = np.zeros((len(vv) + 1, vv.shape[1])), st.stores()

    def step(v2f_rows, f2v_rows):
        vv[v2f_rows], fh[f2v_rows] = st.mean_half(fh, pulls, jv[v2f_rows], gain[f2v_rows], v2f_rows, f2v_rows)

    _settle(st.graph.peel, step)
    core = np.flatnonzero(st.graph.peel.core_edges)
    status, iterations, dv = "converged", 0, math.inf if len(core) else 0.0
    step(st.none, core)
    while dv >= MEAN_RECURSION_TOL:
        if iterations == MEAN_RECURSION_MAX_ITERS:
            status = "max_iters"
            break
        iterations += 1
        old = vv[core]
        step(core, core)
        dv = np.max(np.abs(vv[core] - old), initial=0.0)
        if diverged(vv[core]):
            status = "diverged"
            break
    _settle(st.graph.peel, step, away=True)
    if diverged(vv):
        status = "diverged"
    coords, real = _v2f_coords(st, np.ones(len(st.dims), dtype=bool))
    v = np.zeros(int(real.sum()))
    v[coords[real]] = vv[real]
    means = None
    if status != "diverged":
        means = {vid: b.mean for vid, b in compute_beliefs(st, fixed_point.f2v_j, fh).items()}
    return MeanRecursionResult(status=status, iterations=iterations, v=v, means=means)


def decide_mean_convergence(rho, kind):
    """Map a spectral radius and a topology kind (TopologyReport.overall) onto a verdict string.

    Forests and single loops are convergent regardless of rho, so they
    short-circuit to "guaranteed_by_topology". Otherwise the decision is
    by rho against 1, with an inconclusive band of width BORDERLINE_BAND
    around it.
    """
    if kind in ("forest", "single_loop_plus_forest"):
        return "guaranteed_by_topology"
    if abs(rho - 1.0) < BORDERLINE_BAND:
        return "borderline"
    if rho < 1.0:
        return "converges_rho_lt_1"
    return "diverges_rho_ge_1"


@dataclass
class RateFit:
    c: float
    window: tuple
    n_points: int


def fit_contraction_rate(part_metrics):
    """Geometric rate from a sequence or array of part-metric distances to J*.

    part_metrics is the per-iteration sequence d_1, d_2, ..., such as a
    trajectory's per_iteration[:, 2]. A non-finite entry (NaN for a run
    without a reference) or one at or below PART_METRIC_FLOOR ends the
    usable range, which is then cut at its first minimum
    so that a flat tail at the reference's own noise floor does not count.
    The fit runs over the longest decaying suffix of what remains and
    needs at least three points. Returns c = exp(slope of log d against
    iteration).
    """
    usable = []
    for idx, d in enumerate(part_metrics, start=1):
        if not math.isfinite(d) or d <= PART_METRIC_FLOOR:
            break
        usable.append((idx, d))
    if len(usable) < 3:
        raise DomainError(
            f"need at least 3 finite part metrics above {PART_METRIC_FLOOR:g} to fit a rate, got {len(usable)}"
        )
    end = 1 + min(range(len(usable)), key=lambda k: usable[k][1])
    start = end - 1
    while start > 0 and usable[start - 1][1] > usable[start][1]:
        start -= 1
    window = usable[start:end]
    if len(window) < 3:
        raise DomainError("decaying suffix has fewer than 3 points")
    xs = np.array([p[0] for p in window], dtype=float)
    ys = np.log(np.array([p[1] for p in window], dtype=float))
    slope, _ = np.polyfit(xs, ys, 1)
    return RateFit(c=float(np.exp(slope)), window=(window[0][0], window[-1][0]), n_points=len(window))


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
        return asdict(self)


def certify(model, cross_check=True):
    """Full convergence certificate for one model.

    Computes the topology class, the information fixed point with its
    bounds, the mean-recursion spectral radius and verdict, and (unless
    cross_check is False) an actual engine run compared against the
    exact joint means, plus a fitted contraction rate when the trajectory
    supports one. The exact means (model.centralized_solve) eliminate the
    factor graph's hanging trees and invert only its 2-core densely, so
    no array of the whole joint precision's size is formed.
    """
    require_valid(model)
    graph = build_factor_graph(model)
    topo = classify_topology(graph)
    fp = information_fixed_point(model, graph)
    st = fp.stack
    bounds_hold = bool(psd_compare(fp.f2v_j, st.lower_bound()).all()
                       and psd_compare(st.upper_bound(), fp.f2v_j).all())
    rho = assemble_q(model, graph, fp).rho
    verdict = decide_mean_convergence(rho, topo.overall)
    mean_run = two_phase_mean_recursion(fp)

    report = ConvergenceReport(
        topology=topo.overall,
        components=[asdict(c) for c in topo.components],
        diameter=topo.diameter,
        rho_q=rho,
        verdict=verdict,
        bounds_hold=bounds_hold,
        fixed_point_iterations=fp.iterations,
        mean_recursion_status=mean_run.status,
        mean_recursion_iterations=mean_run.iterations,
    )

    if cross_check:
        result = run_bp(model, graph, init="lower", reference=fp)
        report.bp_status = result.status
        report.bp_iterations = result.iterations
        if result.status == "converged":
            means = np.concatenate([np.zeros(0)] + [result.beliefs[v.id].mean for v in model.variables])
            exact = centralized_solve(model, graph).mean
            report.max_mean_error = float(np.max(np.abs(means - exact), initial=0.0))
        try:
            report.fitted_rate = fit_contraction_rate(result.trajectory.per_iteration[:, 2]).c
        except DomainError as exc:
            report.notes.append(f"rate fit skipped: {exc}")
    return report
