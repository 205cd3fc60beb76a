"""Bipartite factor graphs over linear Gaussian models.

Edges are identified by id pairs and always enumerated in a canonical
order: factor-to-variable edges as (factor, variable) ascending first on
the factor then on the variable, variable-to-factor edges as
(variable, factor) ascending first on the variable then on the factor.
Every stacked vector or matrix in the analysis module follows these
orders, so they are fixed here once.

Topology classes come from each connected component's cycle count, and
the exact diameter from one breadth-first search out of every node at
once, over uint64 bitsets of the nodes each node reaches.
"""

import itertools
from collections import deque
from dataclasses import dataclass

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
        offsets = {}
        pos = 0
        for (j, n) in self.v2f_edges:
            d = self.var_dims[j]
            offsets[(j, n)] = (pos, d)
            pos += d
        self.v2f_offsets = offsets
        self.total_v2f_dim = pos


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


def _adjacency(graph):
    adj = {("v", i): [] for i in graph.var_ids}
    adj.update({("f", n): [] for n in graph.factor_ids})
    for (n, i) in graph.f2v_edges:
        adj[("f", n)].append(("v", i))
        adj[("v", i)].append(("f", n))
    return adj


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


_RANK = {"forest": 0, "single_loop_plus_forest": 1, "multi_loop": 2}


def _eccentricities(graph):
    """Eccentricity of every node, from one BFS out of all sources at once.

    Nodes are numbered variables first (graph.var_ids order), then
    factors (graph.factor_ids order). Row k of reach is a bitset of the
    nodes within s edges of node k after step s: each step ORs in the
    rows of k's neighbours, so the last step at which row k grows is the
    eccentricity of k. Returns the node numbering and the eccentricities.
    """
    index = {("v", i): k for k, i in enumerate(graph.var_ids)}
    index.update({("f", n): len(index) + k for k, n in enumerate(graph.factor_ids)})
    pairs = np.array([(index[("f", n)], index[("v", i)]) for (n, i) in graph.f2v_edges],
                     dtype=np.intp).reshape(-1, 2)
    head = np.concatenate([pairs[:, 0], pairs[:, 1]])
    tail = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.argsort(head, kind="stable")
    head, tail = head[order], tail[order]
    starts = np.flatnonzero(np.diff(head, prepend=-1))
    heads = head[starts]

    nodes = np.arange(len(index))
    reach = np.zeros((len(index), -(-len(index) // 64)), dtype=np.uint64)
    reach[nodes, nodes // 64] = np.left_shift(np.uint64(1), (nodes % 64).astype(np.uint64))
    ecc = np.zeros(len(index), dtype=np.intp)
    for step in itertools.count(1):
        old = reach[heads]
        new = old | np.bitwise_or.reduceat(reach[tail], starts, axis=0)
        grew = np.any(new != old, axis=1)
        if not grew.any():
            return index, ecc
        reach[heads] = new
        ecc[heads[grew]] = step


def classify_topology(graph):
    """Classify each connected component by its independent cycle count.

    A component with E edges and N nodes has E - N + 1 independent
    cycles: 0 means forest, 1 means a single loop with trees hanging off,
    anything more is multi_loop.

    A component's diameter is the largest eccentricity among its nodes,
    exact on every topology. The bit-parallel BFS behind it costs
    O(diameter * E * N / 64) word operations and N^2 / 8 bytes for N
    nodes and E edges.
    """
    adj = _adjacency(graph)
    index, ecc = _eccentricities(graph)
    unvisited = set(adj)
    components = []
    while unvisited:
        start = min(unvisited)
        members = set()
        queue = deque([start])
        members.add(start)
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in members:
                    members.add(w)
                    queue.append(w)
        unvisited -= members
        n_nodes = len(members)
        n_edges = sum(len(adj[u]) for u in members) // 2
        cycles = n_edges - n_nodes + 1
        if cycles == 0:
            kind = "forest"
        elif cycles == 1:
            kind = "single_loop_plus_forest"
        else:
            kind = "multi_loop"
        diameter = int(max(ecc[index[u]] for u in members))
        components.append(
            ComponentInfo(nodes=n_nodes, edges=n_edges, independent_cycles=cycles,
                          kind=kind, diameter=diameter)
        )
    overall = max((c.kind for c in components), key=_RANK.get, default="forest")
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
