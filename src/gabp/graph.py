"""Bipartite factor graphs over linear Gaussian models.

Edges are identified by id pairs and always enumerated in a canonical
order: factor-to-variable edges as (factor, variable) ascending first on
the factor then on the variable, variable-to-factor edges as
(variable, factor) ascending first on the variable then on the factor.
Every stacked vector or matrix in the analysis module follows these
orders, so they are fixed here once.
"""

from collections import deque
from dataclasses import dataclass

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


def _bfs_ecc(adj, start, members):
    dist = {start: 0}
    queue = deque([start])
    far = 0
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                far = max(far, dist[w])
                queue.append(w)
    if len(dist) != len(members):
        raise AssertionError("BFS did not cover the component")
    return far


def classify_topology(graph):
    """Classify each connected component by its independent cycle count.

    A component with E edges and N nodes has E - N + 1 independent
    cycles: 0 means forest, 1 means a single loop with trees hanging off,
    anything more is multi_loop.
    """
    adj = _adjacency(graph)
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
        diameter = max(_bfs_ecc(adj, u, members) for u in members)
        components.append(
            ComponentInfo(nodes=n_nodes, edges=n_edges, independent_cycles=cycles,
                          kind=kind, diameter=diameter)
        )
    overall = max((c.kind for c in components), key=_RANK.get, default="forest")
    diameter = max((c.diameter for c in components), default=0)
    return TopologyReport(overall=overall, components=components, diameter=diameter)


def to_dot(graph, name="factor_graph"):
    """GraphViz source: variables as circles, factors as squares."""
    lines = [f"graph {name} {{"]
    for i in graph.var_ids:
        lines.append(f'  x{i} [shape=circle, label="x{i}"];')
    for n in graph.factor_ids:
        lines.append(f'  f{n} [shape=square, label="f{n}"];')
    for (n, i) in graph.f2v_edges:
        lines.append(f"  f{n} -- x{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
