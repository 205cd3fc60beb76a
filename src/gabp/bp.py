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
  v_{n->i} = J_{n->i}^-1 K (y_n - sum_{j != i} A_j v_{j->n}), whose
  information form K (y_n - ...) = J_{n->i} v_{n->i} is the mean half's
  f2v state; v_{n->i} is one solve from it.

Each half is one EdgeStack call on a pair of row sets (v2f_rows,
f2v_rows): it steps the v2f messages of v2f_rows, keeps A J^-1 A^T or
A v for them in a store its caller owns (EdgeStack.stores), then steps
the f2v messages of f2v_rows from that store. The stack keeps no run
state, so runs may share one: a run_bp reuses its reference's stack if
built from the same model and graph objects.

The stack's constant blocks are filled from the model's
shape_stacks by index arrays, with no loop over edges. Row e of every
stack belongs to the factor-to-variable edge graph.f2v_edges[e] = (n, i)
and to its twin, the variable-to-factor edge (i, n); it reads its factor
and variable at their graph positions, graph.pairs[e], never by id.
Blocks are padded to the largest edge dim D and observation dim P:
A_{n,i} sits top-left in a zero (P, D) block, while R_n, W_i^-1 and
every information matrix carry c I in their pad, c > 0 (c = 1 + k in a
v2f J with k other factors), so each solve and inverse stays block
diagonal and the pad never mixes into the real block. Each check and
metric runs once on a whole stack and gives every row its real block's
result: symmetry and psd checks read it as it is (psd_compare's pad is
0), pd checks and part metrics read inner_pad's copy. Two gather arrays
replace the neighbor loops: others_of_var[e] lists the rows (k, i),
k != n, and others_of_factor[e] the rows (n, j), j != i, both padded
with -1, which reads a zero row kept at the end of every gathered store.

The stack also holds the edge-wise envelopes of the information
recursion (lower_bound is one information half from zero messages,
upper_bound is A_i^T R_n^-1 A_i) and the one init path, EdgeStack.init,
for run_bp, information_fixed_point and make_init: "zero", "lower",
"upper", or a dict over exactly the edges with finite, symmetric, psd
information matrices, the precondition of the paper's convergence results.
Edge dicts enter only there, and leave only through edge_views.
The analysis builds Q for rho(Q) on the rows with both ends in the
factor graph's 2-core (graph.peel.core_edges). compute_beliefs adds
the f2v stores by var_of_row to prior: every W_i^-1, identity-padded to max dim_i >= D.

One outer iteration updates every edge of both kinds exactly once. A
schedule is a list of row blocks, each the rows of a set of factors;
the sweep over a block is one information half and one mean half on
the pair (block, block). The f2v means, which no sweep reads, are
solved once per iteration after the last block.

* "sync": one block of all factors, so every update reads the previous
  iteration's state. Deterministic bit for bit.
* "seq": one factor at a time in ascending factor id, a Gauss-Seidel
  sweep in which later factors see earlier updates.
* "random": one factor at a time in a freshly permuted order each
  iteration, driven by the run's seed.

Strict mode requires pd v2f information matrices from each block's
information half before anything is stored or its mean half runs
(A^T R^-1 A is psd, so each update's existence core A^T R^-1 A +
blockdiag(J) is then pd) and pd f2v ones after each
iteration. run_bp keeps two message stacks, jm (2, E+1, D, D) and vm
(2, E+1, D): axis 0 is the edge kind, f2v then the v2f twin, each with
the trailing zero row, so an iteration makes one copy, one delta pass
and one divergence test over both kinds. BpResult keeps (graph, jm, vm)
and builds its message dicts only when they are read. A run appends
its records to two array("d") buffers and returns them as read-only
float64 (n, 3) views with no copy (BpTrajectory).
"""

import logging
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from gabp.errors import DomainError, ExistenceViolation
from gabp.graph import build_factor_graph
from gabp.model import pad_stacks, precision_stacks, shape_stacks
from gabp.numerics import is_pd, is_psd, is_symmetric, part_metric_to

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
    record_messages: bool = False


@dataclass
class BpTrajectory:
    """A run's convergence records as read-only float64 (n, 3) arrays, each a view of its buffer.

    per_iteration has one row per iteration: the largest Frobenius change
    of any J, the largest max-abs change of any v, and the largest f2v
    part metric to the reference, NaN when the run had none. rows holds,
    when BpOptions.record_messages is set, one block of 2E rows per
    iteration with the same three columns per edge: block row r is the
    v2f edge v2f_edges[r] for r < E, then the f2v edge f2v_edges[r - E],
    both the graph's own lists; unrecorded, rows is empty. Rows from
    metric_from on carry a part metric (the f2v rows of a run with a
    reference, none otherwise); the others hold NaN there, as do
    iteration one's v2f dJ and dv, which had no previous value.
    """

    per_iteration: np.ndarray
    rows: np.ndarray
    v2f_edges: list
    f2v_edges: list
    metric_from: int
    initial_part_metric: float = None


def _frozen(buf):
    """An array("d") of row triples as a read-only (n, 3) float64 view, with no copy."""
    out = np.frombuffer(buf).reshape(-1, 3)
    out.flags.writeable = False
    return out


@dataclass
class Belief:
    mean: np.ndarray
    cov: np.ndarray


@dataclass
class BpResult:
    """A run's outcome; messages is built from the run's final stacks when first read.

    messages holds the "f2v" and "v2f" dicts of Messages by edge, views of jm[0], vm[0] and jm[1], vm[1].
    """

    status: str
    iterations: int
    trajectory: BpTrajectory
    beliefs: dict
    _stores: tuple = field(repr=False, compare=False)

    @cached_property
    def messages(self):
        graph, jm, vm = self._stores
        return {"f2v": edge_views(graph, jm[0], vm[0]), "v2f": edge_views(graph, jm[1], vm[1], v2f=True)}


def edge_views(graph, jm, vm=None, v2f=False):
    """Each stack row's real block by canonical f2v edge (n, i), or by its twin v2f edge (i, n).

    Values are views of jm, or Messages with views of jm and vm. Only the
    graph is read, so a run's result keeps it and not the EdgeStack.
    """
    out = {}
    for edge in graph.v2f_edges if v2f else graph.f2v_edges:
        n, i = edge[::-1] if v2f else edge
        e, d = graph.f2v_index[(n, i)], graph.var_dims[i]
        out[edge] = jm[e, :d, :d] if vm is None else Message(J=jm[e, :d, :d], v=vm[e, :d])
    return out


def _others(group, order):
    """Per row, the other rows of its group in the order `order` lists them, padded with -1 to a common width.

    order lists every row once, the groups by ascending index, each group's rows together.
    """
    count = np.bincount(group)
    start, width = (np.cumsum(count) - count)[group], int(count.max(initial=1))
    k = start[:, None] + np.arange(width)
    members = np.where(k < (start + count[group])[:, None], order[np.minimum(k, len(order) - 1)], -1)
    return members[members != np.arange(len(group))[:, None]].reshape(len(group), width - 1)


class EdgeStack:
    """A model's edges as padded constant stacks, and the kernel's two halves.

    The layout is in the module docstring. Stores that the halves gather
    from have len(edges) + 1 rows, the last one zero. Nothing a run
    writes is kept here but the cached lower bound.
    """

    def __init__(self, model, graph):
        self.model, self.graph = model, graph
        n_edges = len(graph.f2v_edges)
        self.all, self.none = slice(0, n_edges), slice(0, 0)
        factor_of_row, var_node = graph.pairs.T
        self.var_of_row = var_node - len(graph.factor_ids)
        self.var_dims = np.array([v.dim for v in model.variables], dtype=int)
        self.dims = self.var_dims[self.var_of_row]
        stacks = shape_stacks((), model.factors)
        d_max = int(self.dims.max(initial=0))
        p_max = max((x.shape[1] for _, x in stacks["obs"]), default=0)
        self.prior = pad_stacks(precision_stacks(shape_stacks(model.variables)["cov"]),
                                np.tile(np.eye(int(self.var_dims.max(initial=0))), (len(self.var_dims), 1, 1)))
        self.pad = np.where(np.arange(d_max) < self.dims[:, None, None], 0.0, np.eye(d_max))
        self.w = self.prior[self.var_of_row, :d_max, :d_max]
        self.a = pad_stacks(stacks["coeff"], np.zeros((n_edges + 1, p_max, d_max)))
        self.r = pad_stacks(stacks["cov"], np.tile(np.eye(p_max), (len(model.factors), 1, 1)))[factor_of_row]
        self.y = pad_stacks(stacks["obs"], np.zeros((len(model.factors), p_max)))[factor_of_row]
        self.v2f_rows = np.argsort(self.var_of_row, kind="stable")
        self.others_of_var = _others(self.var_of_row, self.v2f_rows)
        self.others_of_factor = _others(factor_of_row, np.arange(n_edges))
        self.first_row = np.searchsorted(factor_of_row, np.arange(len(model.factors) + 1)).tolist()
        self._lower = None

    def blocks(self, order):
        """Row blocks of a sweep that visits the factors, by position in graph.factor_ids, one at a time in order.

        A factor's rows are contiguous, first_row[n] to first_row[n + 1].
        Consecutive factors that share no variable read none of each
        other's messages, so each run of them is one block and the sweep
        over it equals the one-factor-at-a-time sweep.
        """
        out, seen, var_of_row = [], set(), self.var_of_row.tolist()
        for n in order:
            start, stop = self.first_row[n], self.first_row[n + 1]
            if not out or seen.intersection(var_of_row[start:stop]):
                out.append([])
                seen = set()
            out[-1] += range(start, stop)
            seen.update(var_of_row[start:stop])
        return [np.array(rows, dtype=int) for rows in out]

    def lower_bound(self):
        """L_{n->i} = A_i^T (R_n + sum_{j != i} A_j W_j A_j^T)^-1 A_i for every row.

        This is one information half over every row from a zero f2v store,
        so it equals the first iterate of the recursion from a zero start.
        It is computed once per stack; callers only read it (init copies it).
        """
        if self._lower is None:
            zero = np.zeros((len(self.a),) + self.pad.shape[1:])
            self._lower = self.information_half(zero, self.stores()[0], self.all, self.all)[2]
        return self._lower

    def upper_bound(self):
        """U_{n->i} = A_i^T R_n^-1 A_i for every row, with the identity pad: the f2v step alone, from zero spreads."""
        return self.information_half(self.pad, self.stores()[0], self.none, self.all)[2]

    def init(self, init="zero"):
        """(J, v) stacks with a trailing zero row for an init strategy or a dict.

        init is "zero", "lower" or "upper" (zero means), or a dict over
        every edge of Messages or bare Js (zero mean); run_bp lists its checks.
        """
        if isinstance(init, dict):
            for edge in init:
                if edge not in self.graph.f2v_index:
                    raise DomainError(f"init edge {edge} is not in the factor graph")
            jm, vm = self.init("zero")
            for e, edge in enumerate(self.graph.f2v_edges):
                d = self.dims[e]
                if edge not in init:
                    raise DomainError(f"init is missing edge {edge}")
                entry = init[edge]
                if isinstance(entry, np.ndarray):
                    entry = Message(J=entry, v=np.zeros(d))
                if not isinstance(entry, Message):
                    raise DomainError(f"init edge {edge} is neither a Message nor a matrix")
                jmat, vec = np.asarray(entry.J, dtype=float), np.asarray(entry.v, dtype=float)
                if jmat.shape != (d, d) or vec.shape != (d,):
                    raise DomainError(f"init edge {edge} has wrong shape")
                jm[e, :d, :d] = jmat
                vm[e, :d] = vec
            bad = np.flatnonzero(~(np.isfinite(jm).all(axis=(1, 2)) & np.isfinite(vm).all(axis=1)))
            if bad.size:
                raise DomainError(f"init edge {self.graph.f2v_edges[bad[0]]} is not finite")
            bad = np.flatnonzero(~is_symmetric(jm[:-1]))
            if bad.size:
                raise DomainError(f"init edge {self.graph.f2v_edges[bad[0]]} has an asymmetric information matrix")
            bad = np.flatnonzero(~is_psd(jm[:-1]))
            if bad.size:
                raise DomainError(f"custom init edge {self.graph.f2v_edges[bad[0]]} has a non-psd information matrix")
            return jm, vm
        if init == "zero":
            jm = self.pad
        elif init == "lower":
            jm = self.lower_bound()
        elif init == "upper":
            jm = self.upper_bound()
        else:
            raise DomainError(f"unknown init strategy {init!r}")
        jm = np.concatenate([jm, np.zeros((1,) + jm.shape[1:])])
        return jm, np.zeros(jm.shape[:2])

    def inner_pad(self, x, rows=slice(None)):
        """x, a stack of the rows, with each pad diagonal entry set to the row's (0, 0) entry, inside its spectrum."""
        return np.where(self.pad[rows] == 1.0, x[:, :1, :1], x)

    def stores(self):
        """Zero stores, owned by the caller, for the spreads A_i J_{i->n}^-1 A_i^T and pulls A_i v_{i->n}."""
        return np.zeros(self.a.shape[:2] + (self.a.shape[1],)), np.zeros(self.a.shape[:2])

    def information_half(self, fj, spreads, v2f_rows, f2v_rows):
        """(J_{i->n} of v2f_rows' twins, K_{n->i} and J_{n->i} of f2v_rows); fj is the whole f2v store."""
        jv = self.w[v2f_rows] + fj[self.others_of_var[v2f_rows]].sum(axis=1)
        a = self.a[v2f_rows]
        spreads[v2f_rows] = a @ np.linalg.solve(jv, a.swapaxes(1, 2))
        a = self.a[f2v_rows]
        core = self.r[f2v_rows] + spreads[self.others_of_factor[f2v_rows]].sum(axis=1)
        gain = np.linalg.solve(core, a).swapaxes(1, 2)
        jmat = gain @ a
        return jv, gain, (jmat + jmat.swapaxes(1, 2)) / 2.0 + self.pad[f2v_rows]

    def mean_half(self, fh, pulls, jv, gain, v2f_rows, f2v_rows):
        """(v_{i->n} of v2f_rows' twins at J jv, J_{n->i} v_{n->i} of f2v_rows at K gain); fh is the whole f2v store."""
        vv = np.linalg.solve(jv, fh[self.others_of_var[v2f_rows]].sum(axis=1)[..., None])[..., 0]
        pulls[v2f_rows] = (self.a[v2f_rows] @ vv[..., None])[..., 0]
        resid = self.y[f2v_rows] - pulls[self.others_of_factor[f2v_rows]].sum(axis=1)
        return vv, (gain @ resid[..., None])[..., 0]


def make_init(model, graph, strategy="zero"):
    """Initial factor-to-variable messages for every edge: a dict view of EdgeStack.init.

    strategy is any init run_bp takes; "lower" and "upper" place the edge-wise
    envelopes of the information recursion on every edge, with zero means.
    """
    stack = EdgeStack(model, graph)
    return edge_views(graph, *stack.init(strategy))


def _sweep(stack, jm, vm, fh, stores, rows, strict, it):
    """One information half, then one mean half, over a block of factors' rows: (rows, rows) each."""
    jv, gain, jn = stack.information_half(jm[0], stores[0], rows, rows)
    if strict:
        bad = np.arange(len(stack.dims))[rows][~is_pd(stack.inner_pad(jv, rows))]
        if bad.size:
            j, n = stack.graph.v2f_edges[np.isin(stack.v2f_rows, bad).argmax()]
            raise ExistenceViolation(f"variable-to-factor message ({j} -> {n}) not pd at iteration {it}")
    vm[1, rows], fh[rows] = stack.mean_half(fh, stores[1], jv, gain, rows, rows)
    jm[1, rows], jm[0, rows] = jv, jn


def diverged(store):
    """The divergence guard: an entry of the store exceeds DIVERGENCE_GUARD in magnitude or is not finite."""
    peak = np.abs(store).max(initial=0.0)
    return not np.isfinite(peak) or peak > DIVERGENCE_GUARD


def compute_beliefs(stack, fj, fh):
    """Beliefs by variable id from the f2v stores fj (J_{n->i}) and fh (J_{n->i} v_{n->i}) by row.

    A variable's precision is its prior plus its messages' J in factor
    (row) order; the covariances come from one inverse of the padded
    stack, whose pads are positive multiples of the identity.
    """
    prec, rhs, d_max = stack.prior.copy(), np.zeros(stack.prior.shape[:2]), fj.shape[-1]
    np.add.at(prec[:, :d_max, :d_max], stack.var_of_row, fj[stack.all])
    np.add.at(rhs[:, :d_max], stack.var_of_row, fh[stack.all])
    covs = np.linalg.inv((prec + prec.swapaxes(1, 2)) / 2.0)
    means = (covs @ rhs[..., None])[..., 0]
    return {vid: Belief(mean=mean[:d], cov=cov[:d, :d])
            for vid, d, mean, cov in zip(stack.graph.var_ids, stack.var_dims.tolist(), means, covs)}


def run_bp(model, graph=None, init="zero", options=None, reference=None):
    """Run message passing until tolerance, budget, or the divergence guard.

    Parameters
    ----------
    model : LinearGaussianModel
    graph : FactorGraph, optional
        Built from the model when omitted.
    init : str or dict
        Init strategy name, or a dict mapping every (factor, variable)
        edge to a Message or a bare J (zero mean). A missing or unknown
        edge, any other value, a wrong shape, a value that is not finite
        or a J that is not symmetric and psd raises DomainError.
    options : BpOptions
        tol_j and tol_v must be finite and positive, max_iters and seed
        non-negative, or DomainError is raised.
    reference : FixedPoint, optional
        information_fixed_point of this model's graph (other edges or dims
        raise DomainError); the trajectory records part metrics to its f2v_j.

    Returns
    -------
    BpResult with status "converged", "max_iters" or "diverged". Beliefs
    are computed for the final state unless the run diverged. Its
    trajectory holds per_iteration, shape (iterations, 3), and rows,
    shape (iterations * 2E, 3) if recorded and (0, 3) otherwise; the
    BpTrajectory docstring gives their columns, row labels and NaNs.

    Notes
    -----
    Convergence is declared when both the largest Frobenius change of any
    information matrix and the largest max-abs change of any mean vector
    fall below their tolerances over one full iteration. The divergence
    guard trips when any mean-vector entry exceeds DIVERGENCE_GUARD in
    absolute value (or stops being finite). Both edge kinds share the
    stacks jm and vm, axis 0 (f2v, v2f), row e the edge (n, i) and its
    twin (i, n); the result keeps them with the graph for its messages.
    """
    if graph is None:
        graph = build_factor_graph(model)
    opts = options or BpOptions()
    if opts.schedule not in ("sync", "seq", "random"):
        raise DomainError(f"unknown schedule {opts.schedule!r}")
    if opts.seed < 0:
        raise DomainError(f"seed must be non-negative, got {opts.seed}")
    if not all(math.isfinite(t) and t > 0 for t in (opts.tol_j, opts.tol_v)):
        raise DomainError(f"tol_j and tol_v must be finite and positive, got {opts.tol_j}, {opts.tol_v}")
    if opts.max_iters < 0:
        raise DomainError(f"max_iters must be non-negative, got {opts.max_iters}")
    own = reference is not None and reference.stack.model is model and reference.stack.graph is graph
    stack = reference.stack if own else EdgeStack(model, graph)
    jm, vm = (np.stack([x, np.zeros_like(x)]) for x in stack.init(init))
    fh, stores = (jm[0] @ vm[0, ..., None])[..., 0], stack.stores()
    n_edges = len(graph.f2v_edges)
    stats, records, initial = array("d"), array("d"), None
    take = np.concatenate([n_edges + stack.v2f_rows, np.arange(n_edges)])  # block row -> index in dj.ravel()
    pm = max_pm = math.nan
    if reference is not None:
        if reference.stack.graph.f2v_edges != graph.f2v_edges or not np.array_equal(reference.stack.dims, stack.dims):
            raise DomainError("reference fixed point belongs to another graph")
        metric = part_metric_to(stack.inner_pad(reference.f2v_j))  # the reference is constant: factor it once
        pm = metric(stack.inner_pad(jm[0, :-1]))  # per row, re-measured only where J moves
        initial = float(np.max(pm, initial=0.0))

    rng = np.random.default_rng(opts.seed)
    blocks = [stack.all] if opts.schedule == "sync" else stack.blocks(range(len(graph.factor_ids)))
    status = "max_iters"
    iterations = 0

    for it in range(1, opts.max_iters + 1):
        iterations = it
        old_j, old_v = jm[:, :-1].copy(), vm[:, :-1].copy()
        if opts.schedule == "random":
            order = list(range(len(graph.factor_ids)))
            rng.shuffle(order)
            blocks = stack.blocks(order)
        for rows in blocks:
            _sweep(stack, jm, vm, fh, stores, rows, opts.strict, it)
        vm[0, :-1] = np.linalg.solve(jm[0, :-1], fh[:-1, :, None])[..., 0]

        if opts.strict:
            bad = np.flatnonzero(~is_pd(stack.inner_pad(jm[0, :-1])))
            if bad.size:
                n, i = graph.f2v_edges[bad[0]]
                raise ExistenceViolation(f"factor-to-variable message ({n} -> {i}) not pd at iteration {it}")

        dj = np.linalg.norm(jm[:, :-1] - old_j, axis=(2, 3))
        dv = np.abs(vm[:, :-1] - old_v).max(axis=2, initial=0.0)
        if it == 1:
            dj[1] = dv[1] = math.nan  # the v2f messages had no previous value
            max_dj = max_dv = math.inf
        else:
            max_dj, max_dv = float(dj.max(initial=0.0)), float(dv.max(initial=0.0))
        if reference is not None:
            moved = np.flatnonzero((jm[0, :-1] != old_j[0]).any(axis=(1, 2)))  # not dj > 0: it can underflow
            rows = stack.all if len(moved) == n_edges else moved
            if len(moved):
                pm[rows] = metric(stack.inner_pad(jm[0, rows], rows), rows)
            max_pm = pm.max(initial=0.0)
        if opts.record_messages:
            block = np.full((2 * n_edges, 3), math.nan)
            block[:, 0], block[:, 1] = dj.ravel()[take], dv.ravel()[take]
            block[n_edges:, 2] = pm
            records.frombytes(block.tobytes())
        stats.extend((max_dj, max_dv, max_pm))
        log.debug("bp iter %d: max_dj=%.3e max_dv=%.3e", it, max_dj, max_dv)

        if diverged(vm):
            status = "diverged"
            break
        if max_dj < opts.tol_j and max_dv < opts.tol_v:
            status = "converged"
            break

    traj = BpTrajectory(_frozen(stats), _frozen(records), graph.v2f_edges, graph.f2v_edges,
                        n_edges if reference is not None else 2 * n_edges, initial)
    return BpResult(status=status, iterations=iterations, trajectory=traj, _stores=(graph, jm, vm),
                    beliefs=None if status == "diverged" else compute_beliefs(stack, jm[0], fh))
