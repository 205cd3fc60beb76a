"""Bipartite factor graphs over linear Gaussian models.

Edges are identified by id pairs and always enumerated in a canonical
order: factor-to-variable edges as (factor, variable) ascending first on
the factor then on the variable, variable-to-factor edges as
(variable, factor) ascending first on the variable then on the factor.
Every stacked vector or matrix in the analysis module follows these
orders, so they are fixed here once.

FactorGraph.pairs numbers the nodes once: factors 0..F-1 in factor_ids
order, then variable k of var_ids as F + k. Every array over nodes or
edges reads that numbering, so an id, which may be any integer, never
enters a numpy array.

One leaf peel gives the trees that hang off the loops, in an order that
eliminates them leaf by leaf, and the 2-core left over. It is the only
pass over every node: one walk over its trees and one breadth-first
search over uint64 bitsets of the core's nodes alone give the connected
components, their cycle counts (hence the topology classes, decided
only in classify_topology) and their exact diameters.
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
    f2v_edges: list
    v2f_edges: list

    def __post_init__(self):
        self.f2v_index = {e: k for k, e in enumerate(self.f2v_edges)}

    @cached_property
    def pairs(self):
        """Each f2v edge as (factor node, variable node), an (E, 2) array in the module's node numbering."""
        factor = {n: k for k, n in enumerate(self.factor_ids)}
        var = {i: len(factor) + k for k, i in enumerate(self.var_ids)}
        return np.array([(factor[n], var[i]) for n, i in self.f2v_edges], dtype=np.intp).reshape(-1, 2)

    @cached_property
    def peel(self):
        """The graph's LeafPeel, computed once and shared by its readers."""
        return leaf_peel(self)


def build_factor_graph(model):
    """Adjacency structure of the model's bipartite factor graph."""
    dims = {v.id: v.dim for v in model.variables}
    for f in model.factors:
        for i in f.scope:
            if i not in dims:
                raise DomainError(f"factor {f.id} references unknown variable {i}")
    nf = {f.id: tuple(f.scope) for f in model.factors}
    f2v = [(n, i) for n in sorted(nf) for i in nf[n]]
    return FactorGraph(
        var_ids=sorted(dims),
        factor_ids=sorted(nf),
        var_dims=dims,
        f2v_edges=f2v,
        v2f_edges=sorted((i, n) for n, i in f2v),
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


# kind by independent cycle count 0, 1 or more; also the ranking of kinds
_KINDS = ("forest", "single_loop_plus_forest", "multi_loop")


@dataclass
class LeafPeel:
    """The factor graph's hanging trees, removed leaf by leaf, and the 2-core left over.

    Nodes are numbered as in FactorGraph.pairs. Each round removes every
    live node with at most one live edge, except that a variable whose
    one live neighbour is a factor of the same round waits for the next;
    so no two nodes of a round are adjacent. order lists the removed
    nodes round by round; order[k] hung from the node parent[k] by the
    edge of f2v row hung[k], both -1 if it had no live edge left (the
    last node of a tree). rounds is the plan its readers follow: per
    round (nodes, var_rows, factor_rows), the slice of order it removes
    and the hung rows of its variables and of its factors. core marks the
    nodes no round removes, the 2-core: each keeps at least two edges
    inside it, and it is empty exactly on a forest.

    core_edges marks the f2v edges with both ends in the core, whose twin
    v2f edges carry Q's spectrum. Q's block row for the twin of stack row
    e reads the twins of the rows others_of_factor[others_of_var[e]]; its
    diagonal blocks are zero. In a tree hanging off the core, the
    messages toward the core read only messages below them, and no core
    message reads those running away from it: in the order (toward,
    core, away) Q is block triangular with nilpotent tree blocks, so the
    trees add only zero eigenvalues. Exact, with no tolerance; no edge on
    a forest. For the same reason one pass over rounds toward the core,
    and one back, settles every message of the trees.
    """

    order: np.ndarray
    parent: np.ndarray
    hung: np.ndarray
    rounds: list
    core: np.ndarray
    core_edges: np.ndarray


def leaf_peel(graph):
    """Remove every node of degree <= 1, round after round, until only the 2-core is left (LeafPeel).

    One walk over the edges: a node joins the next round when its live
    degree drops to 1, so the peel costs O(nodes + edges) however deep
    the trees hang.
    """
    n_f = len(graph.factor_ids)
    ends = graph.pairs.tolist()
    n = n_f + len(graph.var_ids)
    rows_at = [[] for _ in range(n)]
    for e, (f, v) in enumerate(ends):
        rows_at[f].append(e)
        rows_at[v].append(e)
    degree = [len(rows) for rows in rows_at]
    edge_live, live = [True] * len(ends), [True] * n
    leaves, order, parent, hung, rounds = [k for k in range(n) if degree[k] <= 1], [], [], [], []
    while leaves:
        later, start, rows = [], len(order), ([], [])
        for k in sorted(leaves):
            e = next((e for e in rows_at[k] if edge_live[e]), -1)
            if k >= n_f and e >= 0 and degree[ends[e][0]] == 1:
                later.append(k)
            else:
                order.append(k)
                parent.append(sum(ends[e]) - k if e >= 0 else -1)
                hung.append(e)
                if e >= 0:
                    rows[k < n_f].append(e)
        rounds.append((slice(start, len(order)), *(np.array(r, dtype=np.intp) for r in rows)))
        for k, p, e in zip(order[start:], parent[start:], hung[start:]):
            live[k] = False
            if e >= 0:
                edge_live[e] = False
                degree[p] -= 1
                if degree[p] == 1:
                    later.append(p)
        leaves = later
    order, parent, hung = (np.array(x, dtype=np.intp) for x in (order, parent, hung))
    core = np.array(live, dtype=bool)
    return LeafPeel(order, parent, hung, rounds, core, core_edges=core[graph.pairs].all(axis=1))


def _lowest_bit(rows):
    """Index of each uint64 bitset row's lowest set bit, -1 for an empty row."""
    word = np.argmax(rows != 0, axis=1)
    low = rows[np.arange(len(rows)), word]
    # low & -low keeps the lowest set bit 2^b, whose frexp exponent is b + 1 (0 for an empty word)
    return 64 * word + np.frexp((low & (~low + np.uint64(1))).astype(float))[1] - 1


def _reach(pairs, height):
    """Each node's far reach and its component, from one BFS out of every node at once.

    pairs are the edges of a 2-core, its nodes numbered 0..C-1 by
    descending height. After step s, row k of reach is the bitset of the
    nodes within s edges of k, so the lowest bit new at step s is the
    highest node at distance s: far[k] is the largest d(k, b) + height[b]
    over the nodes b != k of k's component, whose lowest node is the
    lowest bit of the final row. O(diameter * E * C / 64) word operations
    and C^2 / 8 bytes.
    """
    head, tail = np.concatenate([pairs, pairs[:, ::-1]]).T
    order = np.argsort(head)
    tail, starts = tail[order], np.flatnonzero(np.diff(head[order], prepend=-1))
    nodes = np.arange(len(height))
    reach = np.zeros((len(nodes), len(nodes) // 64 + 1), dtype=np.uint64)
    reach[nodes, nodes // 64] = np.left_shift(np.uint64(1), (nodes % 64).astype(np.uint64))
    far = np.zeros(len(nodes), dtype=np.intp)
    for step in itertools.count(1):
        new = reach | np.bitwise_or.reduceat(reach[tail], starts, axis=0)
        first = _lowest_bit(new & ~reach)
        if (first < 0).all():
            return far, _lowest_bit(reach)
        far = np.where(first >= 0, np.maximum(far, step + height[first]), far)
        reach = new


def classify_topology(graph):
    """Classify each connected component by its independent cycle count.

    One walk over the leaf peel (graph.peel), children before parents,
    gives each node's height (the depth of the trees hanging below it)
    and the longest path through it inside those trees; a removed node
    joins its parent's component. One bit-parallel BFS over the 2-core
    alone (_reach) gives the core's components and, since a shortest path
    between the trees hanging off core nodes a != b runs through the
    core, each component's exact diameter: its longest in-tree path or
    largest height[a] + d(a, b) + height[b]. Components come in the order
    of their lowest node (factors first). A component with E edges and N
    nodes has E - N + 1 independent cycles: 0 means forest, 1 means a
    single loop with trees hanging off, anything more is multi_loop.
    """
    peel = graph.peel
    n = len(peel.core)
    order, parent = peel.order.tolist(), peel.parent.tolist()
    height, longest = [0] * n, [0] * n
    for k, p in zip(order, parent):
        if p >= 0:
            longest[p] = max(longest[p], height[p] + height[k] + 1)
            height[p] = max(height[p], height[k] + 1)
    height, longest, rep = np.array(height, dtype=np.intp), np.array(longest, dtype=np.intp), np.arange(n)
    core = np.flatnonzero(peel.core)
    if len(core):
        core = core[np.argsort(-height[core])]
        number = np.zeros(n, dtype=np.intp)
        number[core] = np.arange(len(core))
        far, low = _reach(number[graph.pairs[peel.core_edges]], height[core])
        longest[core] = np.maximum(longest[core], height[core] + far)
        rep[core] = core[low]
    rep = rep.tolist()
    for k, p in zip(reversed(order), reversed(parent)):
        if p >= 0:
            rep[k] = rep[p]
    # a component's first node in numbering order is its lowest
    _, first, inverse = np.unique(rep, return_index=True, return_inverse=True)
    comp = np.argsort(np.argsort(first))[inverse]
    n_nodes = np.bincount(comp)
    n_edges = np.bincount(comp[graph.pairs[:, 0]], minlength=len(n_nodes))
    diameters = np.zeros_like(n_nodes)
    np.maximum.at(diameters, comp, longest)
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
