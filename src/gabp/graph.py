"""Bipartite factor graphs over linear Gaussian models.

Edges are identified by id pairs and always enumerated in a canonical
order: factor-to-variable edges as (factor, variable) ascending first on
the factor then on the variable, variable-to-factor edges as
(variable, factor) ascending first on the variable then on the factor.
Every stacked vector or matrix in the analysis module follows these
orders, so they are fixed here once.

One breadth-first search out of every node at once, over uint64
bitsets of the nodes each node reaches, gives the connected components,
their cycle counts (hence the topology classes) and their exact
diameters. One leaf peel gives the trees that hang off the loops, in an
order that eliminates them leaf by leaf, and the 2-core left over. Both
number the nodes factors first (factor_ids order), then variables
(var_ids order).
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gabp.errors import DomainError


@dataclass
class FactorGraph:
    var_ids: list
    factor_ids: list
    var_dims: dict
    neighbors_of_factor: dict
    neighbors_of_var: dict
    f2v_edges: list
    v2f_edges: list

    def __post_init__(self):
        self.f2v_index = {e: k for k, e in enumerate(self.f2v_edges)}

    @cached_property
    def peel(self):
        """The graph's LeafPeel, computed once and shared by its readers."""
        return leaf_peel(self)


def build_factor_graph(model):
    """Adjacency structure of the model's bipartite factor graph."""
    nf = {}
    nv = {i: [] for i in (v.id for v in model.variables)}
    for f in model.factors:
        nf[f.id] = tuple(f.scope)
        for i in f.scope:
            if i not in nv:
                raise DomainError(f"factor {f.id} references unknown variable {i}")
            nv[i].append(f.id)
    nv = {i: tuple(sorted(ids)) for i, ids in nv.items()}
    f2v = [(n, i) for n in sorted(nf) for i in nf[n]]
    v2f = [(j, n) for j in sorted(nv) for n in nv[j]]
    return FactorGraph(
        var_ids=sorted(nv),
        factor_ids=sorted(nf),
        var_dims={v.id: v.dim for v in model.variables},
        neighbors_of_factor=nf,
        neighbors_of_var=nv,
        f2v_edges=f2v,
        v2f_edges=v2f,
    )


@dataclass
class ComponentInfo:
    nodes: int
    edges: int
    independent_cycles: int
    kind: str
    diameter: int


@dataclass
class TopologyReport:
    """Per-component cycle structure plus the worst class over components.

    kind ranking: forest < single_loop_plus_forest < multi_loop. The
    overall diameter is the largest bipartite-component diameter, counted
    in edges.
    """

    overall: str
    components: list
    diameter: int

    @property
    def n_components(self):
        return len(self.components)


# kind by independent cycle count 0, 1 or more; also the ranking of kinds
_KINDS = ("forest", "single_loop_plus_forest", "multi_loop")


def _node_pairs(graph):
    """The f2v edges as (factor node, variable node) pairs, in f2v order, and the node count."""
    factor = {n: k for k, n in enumerate(graph.factor_ids)}
    var = {i: len(factor) + k for k, i in enumerate(graph.var_ids)}
    pairs = np.array([(factor[n], var[i]) for (n, i) in graph.f2v_edges], dtype=np.intp)
    return pairs.reshape(-1, 2), len(factor) + len(var)


@dataclass
class LeafPeel:
    """The factor graph's hanging trees, removed leaf by leaf, and the 2-core left over.

    pairs holds each f2v edge as (factor node, variable node). Each round
    removes every live node with at most one live edge, except that a
    variable whose one live neighbour is a factor of the same round
    waits for the next; so no two nodes of a round are adjacent. order
    lists the removed nodes round by round, round r being
    order[bounds[r]:bounds[r + 1]]; order[k] hung from the node parent[k]
    by the edge of f2v row hung[k], both -1 if it had no live edge left
    (the last node of a tree). core marks the nodes no round removes,
    the 2-core: each keeps at least two edges inside it, and it is empty
    exactly on a forest.
    """

    pairs: np.ndarray
    order: np.ndarray
    parent: np.ndarray
    hung: np.ndarray
    bounds: list
    core: np.ndarray

    @property
    def core_edges(self):
        """Bool mask of the f2v edges with both ends in the core."""
        return self.core[self.pairs[:, 0]] & self.core[self.pairs[:, 1]]

    @property
    def overall(self):
        """The worst topology class over components, read off the core alone.

        A component's core is empty on a tree and a single cycle (every
        core degree 2) on one loop; with more independent cycles it has a
        node of core degree 3 or more.
        """
        degree = np.bincount(self.pairs[self.core_edges].ravel(), minlength=len(self.core))
        return _KINDS[0] if not self.core.any() else _KINDS[1 + int(degree.max() >= 3)]


def leaf_peel(graph):
    """Remove every node of degree <= 1, round after round, until only the 2-core is left (LeafPeel).

    One walk over the edges: a node joins the next round when its live
    degree drops to 1, so the peel costs O(nodes + edges) however deep
    the trees hang.
    """
    pairs, n = _node_pairs(graph)
    n_f = len(graph.factor_ids)
    ends = pairs.tolist()
    rows_at = [[] for _ in range(n)]
    for e, (f, v) in enumerate(ends):
        rows_at[f].append(e)
        rows_at[v].append(e)
    degree = [len(rows) for rows in rows_at]
    edge_live, live = [True] * len(ends), [True] * n
    leaves, order, parent, hung, bounds = [k for k in range(n) if degree[k] <= 1], [], [], [], [0]
    while leaves:
        later = []
        for k in sorted(leaves):
            e = next((e for e in rows_at[k] if edge_live[e]), -1)
            if k >= n_f and e >= 0 and degree[ends[e][0]] == 1:
                later.append(k)
            else:
                order.append(k)
                parent.append(sum(ends[e]) - k if e >= 0 else -1)
                hung.append(e)
        for k, p, e in zip(order[bounds[-1]:], parent[bounds[-1]:], hung[bounds[-1]:]):
            live[k] = False
            if e >= 0:
                edge_live[e] = False
                degree[p] -= 1
                if degree[p] == 1:
                    later.append(p)
        bounds.append(len(order))
        leaves = later
    return LeafPeel(pairs=pairs, order=np.array(order, dtype=np.intp), parent=np.array(parent, dtype=np.intp),
                    hung=np.array(hung, dtype=np.intp), bounds=bounds, core=np.array(live, dtype=bool))


def _reach(graph):
    """Each node's eccentricity and final reach row, from one BFS out of all sources at once.

    Row k of reach is a bitset of the nodes within s edges of node k
    after step s: each step ORs in the rows of k's neighbours, so the
    last step at which row k grows is the eccentricity of k, and the
    final row is k's whole component. Returns the f2v edges as node
    pairs, the eccentricities and the final rows.
    """
    pairs, n = _node_pairs(graph)
    head = np.concatenate([pairs[:, 0], pairs[:, 1]])
    tail = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.argsort(head, kind="stable")
    head, tail = head[order], tail[order]
    starts = np.flatnonzero(np.diff(head, prepend=-1))
    heads = head[starts]

    nodes = np.arange(n)
    # at least one word per row, so a graph with no nodes still has a column to scan
    reach = np.zeros((n, n // 64 + 1), dtype=np.uint64)
    reach[nodes, nodes // 64] = np.left_shift(np.uint64(1), (nodes % 64).astype(np.uint64))
    ecc = np.zeros(n, dtype=np.intp)
    for step in itertools.count(1):
        old = reach[heads]
        new = old | np.bitwise_or.reduceat(reach[tail], starts, axis=0)
        grew = np.any(new != old, axis=1)
        if not grew.any():
            return pairs, ecc, reach
        reach[heads] = new
        ecc[heads[grew]] = step


def classify_topology(graph):
    """Classify each connected component by its independent cycle count.

    One bit-parallel BFS (_reach) gives the components, their cycle
    counts and their diameters. Each node's component is labelled by its
    lowest node (factors first), the lowest set bit of its final reach
    row, and components come in label order. A component with E edges
    and N nodes has E - N + 1 independent cycles: 0 means forest, 1
    means a single loop with trees hanging off, anything more is
    multi_loop. Its diameter is the largest eccentricity among its
    nodes, exact on every topology. The BFS costs
    O(diameter * E * N / 64) word operations and N^2 / 8 bytes for N
    nodes and E edges.
    """
    pairs, ecc, reach = _reach(graph)
    word = np.argmax(reach != 0, axis=1)
    low = reach[np.arange(len(reach)), word]
    label = 64 * word + np.log2(low & (~low + np.uint64(1))).astype(np.intp)
    root = label == np.arange(len(label))
    comp = (np.cumsum(root) - 1)[label]
    n_nodes = np.bincount(comp)
    n_edges = np.bincount(comp[pairs[:, 0]], minlength=len(n_nodes))
    diameters = np.zeros_like(n_nodes)
    np.maximum.at(diameters, comp, ecc)
    components = [ComponentInfo(nodes=n, edges=e, independent_cycles=e - n + 1,
                                kind=_KINDS[min(e - n + 1, 2)], diameter=d)
                  for n, e, d in zip(n_nodes.tolist(), n_edges.tolist(), diameters.tolist())]
    overall = max((c.kind for c in components), key=_KINDS.index, default="forest")
    diameter = max((c.diameter for c in components), default=0)
    return TopologyReport(overall=overall, components=components, diameter=diameter)


def to_dot(graph):
    """GraphViz source: variables as circles, factors as squares."""
    lines = ["graph factor_graph {"]
    for i in graph.var_ids:
        lines.append(f'  x{i} [shape=circle, label="x{i}"];')
    for n in graph.factor_ids:
        lines.append(f'  f{n} [shape=square, label="f{n}"];')
    for (n, i) in graph.f2v_edges:
        lines.append(f"  f{n} -- x{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
