import hashlib
import json
import tracemalloc
from collections import deque
from dataclasses import asdict

import numpy as np
import pytest

from conftest import factors_of_var, oracle_core, quartet_model, rand_spd, v2f_layout, vars_of_factor
from gabp.analysis import _v2f_coords
from gabp.bp import EdgeStack
from gabp.errors import DomainError
from gabp.graph import FactorGraph, build_factor_graph, classify_topology, leaf_peel, to_dot
from gabp.model import FactorSpec, LinearGaussianModel, VariableSpec, random_model


def test_quartet_adjacency_and_edge_order(quartet):
    g = build_factor_graph(quartet)
    assert g.var_ids == [1, 2, 3, 4]
    assert g.factor_ids == [1, 2, 3]
    assert vars_of_factor(g) == {1: (1, 3, 4), 2: (1, 2), 3: (2, 4)}
    assert factors_of_var(g) == {1: [1, 2], 2: [2, 3], 3: [1], 4: [1, 3]}
    assert g.f2v_edges == [(1, 1), (1, 3), (1, 4), (2, 1), (2, 2), (3, 2), (3, 4)]
    assert g.v2f_edges == [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (4, 1), (4, 3)]


def test_v2f_offsets_partition_the_stacked_vector(quartet):
    for model in (quartet, random_model(seed=1, n_agents=8, dims=(1, 3), topology="multi_loop")):
        g = build_factor_graph(model)
        offsets, total = v2f_layout(g)
        cursor = 0
        for e in g.v2f_edges:
            start, dim = offsets[e]
            assert start == cursor
            assert dim == g.var_dims[e[0]]
            cursor += dim
        assert total == cursor
        # with every row kept, the analysis packs each twin v2f edge into the same slice
        st = EdgeStack(model, g)
        coords, real = _v2f_coords(st, np.ones(len(g.f2v_edges), dtype=bool))
        assert int(real.sum()) == total
        for (j, n), (start, dim) in offsets.items():
            e = g.f2v_index[(n, j)]
            assert coords[e][real[e]].tolist() == list(range(start, start + dim))


def test_quartet_topology(quartet):
    t = classify_topology(build_factor_graph(quartet))
    assert t.overall == "single_loop_plus_forest"
    assert len(t.components) == 1
    assert t.diameter == 4
    (comp,) = t.components
    assert comp.nodes == 7
    assert comp.edges == 7
    assert comp.independent_cycles == 1


def test_two_agent_chain_is_a_single_loop(two_agent_unit_chain):
    t = classify_topology(build_factor_graph(two_agent_unit_chain))
    assert t.overall == "single_loop_plus_forest"
    assert t.diameter == 2


def chain_model(n):
    rng = np.random.default_rng(0)
    variables = [VariableSpec(i, 1, rand_spd(rng, 1)) for i in range(1, n + 1)]
    factors = [
        FactorSpec(i, (i, i + 1), {i: np.array([[1.0]]), i + 1: np.array([[0.5]])},
                   np.eye(1), rng.standard_normal(1))
        for i in range(1, n)
    ]
    return LinearGaussianModel(variables=variables, factors=factors)


def test_chain_topology_and_diameter():
    t = classify_topology(build_factor_graph(chain_model(3)))
    assert t.overall == "forest"
    # path x1 - f1 - x2 - f2 - x3 has four edges
    assert t.diameter == 4


def test_disconnected_components():
    rng = np.random.default_rng(1)
    m = LinearGaussianModel(
        variables=[VariableSpec(i, 1, rand_spd(rng, 1)) for i in (1, 2, 3, 4)],
        factors=[
            FactorSpec(1, (1, 2), {1: np.eye(1), 2: np.eye(1)}, np.eye(1), np.zeros(1)),
            FactorSpec(2, (3, 4), {3: np.eye(1), 4: np.eye(1)}, np.eye(1), np.zeros(1)),
        ],
    )
    t = classify_topology(build_factor_graph(m))
    assert len(t.components) == 2
    assert t.overall == "forest"


def test_overall_takes_the_worst_component():
    rng = np.random.default_rng(2)
    m = LinearGaussianModel(
        variables=[VariableSpec(i, 1, rand_spd(rng, 1)) for i in (1, 2, 3)],
        factors=[
            # component with two parallel factors between 1 and 2: one cycle
            FactorSpec(1, (1, 2), {1: np.eye(1), 2: np.eye(1)}, np.eye(1), np.zeros(1)),
            FactorSpec(2, (1, 2), {1: np.eye(1), 2: np.eye(1)}, np.eye(1), np.zeros(1)),
            # isolated tree component
            FactorSpec(3, (3,), {3: np.eye(1)}, np.eye(1), np.zeros(1)),
        ],
    )
    t = classify_topology(build_factor_graph(m))
    assert t.overall == "single_loop_plus_forest"
    kinds = sorted(c.kind for c in t.components)
    assert kinds == ["forest", "single_loop_plus_forest"]


def test_multi_loop_detection():
    m = random_model(seed=3, n_agents=6, topology="multi_loop")
    t = classify_topology(build_factor_graph(m))
    assert t.overall == "multi_loop"
    assert sum(c.independent_cycles for c in t.components) >= 2


def test_to_dot_shapes(quartet):
    dot = to_dot(build_factor_graph(quartet))
    assert dot.count("shape=circle") == 4
    assert dot.count("shape=square") == 3
    assert "x1 -- f1" in dot or "f1 -- x1" in dot


def test_isolated_variable_counts_as_forest():
    rng = np.random.default_rng(4)
    m = LinearGaussianModel(
        variables=[VariableSpec(1, 1, rand_spd(rng, 1))],
        factors=[FactorSpec(1, (1,), {1: np.eye(1)}, np.eye(1), np.zeros(1))],
    )
    t = classify_topology(build_factor_graph(m))
    assert t.overall == "forest"
    assert t.diameter == 1


def oracle_components(model):
    """(nodes, edges, diameter) per component, by a plain BFS from every node.

    Components come in the order of their smallest ("f", id) or ("v", id) node.
    """
    adj = {("v", v.id): [] for v in model.variables}
    adj.update({("f", f.id): [] for f in model.factors})
    for f in model.factors:
        for i in f.scope:
            adj[("f", f.id)].append(("v", i))
            adj[("v", i)].append(("f", f.id))
    ecc = {}
    comp_of = {}
    for s in adj:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        ecc[s] = max(dist.values())
        comp_of[s] = frozenset(dist)
    return [(len(members), sum(len(adj[u]) for u in members) // 2, max(ecc[u] for u in members))
            for members in sorted(set(comp_of.values()), key=min)]


def disjoint_union(*models):
    """One model holding copies of the given ones, with ids shifted apart."""
    variables, factors, shift = [], [], 0
    for m in models:
        variables += [VariableSpec(v.id + shift, v.dim, v.prior_cov) for v in m.variables]
        factors += [FactorSpec(f.id + shift, [i + shift for i in f.scope],
                               {i + shift: a for i, a in f.coeff.items()}, f.noise_cov, f.obs)
                    for f in m.factors]
        shift += 1000
    return LinearGaussianModel(variables=variables, factors=factors)


def scoped_model(scopes):
    """Scalar unit model: one variable per id in the scopes, one factor per scope."""
    one = np.eye(1)
    return LinearGaussianModel(
        variables=[VariableSpec(i, 1, one) for i in sorted({i for s in scopes for i in s})],
        factors=[FactorSpec(k, s, {i: one for i in s}, one, np.zeros(1)) for k, s in enumerate(scopes, 1)])


def cycle(n):
    """Scopes of a cycle through variables 1..n: 2n nodes, every node at most n edges from another."""
    return [tuple(sorted((k, k % n + 1))) for k in range(1, n + 1)]


def tail(at, depth, fresh):
    """Scopes of a path depth edges long hanging off variable at, through new variables fresh, fresh + 1, ..."""
    ids = [at] + list(range(fresh, fresh + depth // 2))
    return list(zip(ids, ids[1:])) + ([(ids[-1],)] if depth % 2 else [])


# (label, model, diameter per component): trees hanging off loops and off each other
HANGING_TREES = [
    # tails 5 and 2 deep at opposite variables of a 24-node cycle: 5 + 12 + 2
    ("distant-tails", scoped_model(cycle(12) + tail(1, 5, 100) + tail(7, 2, 200)), [19]),
    # two tails on one core node outreach the cycle: 6 + 5 inside the tree
    ("two-tails-one-node", scoped_model(cycle(3) + tail(1, 6, 100) + tail(1, 5, 200)), [11]),
    # a branching tree hanging off a cycle (7 + 4), and a branching tree on its own
    ("trees-off-trees", scoped_model(cycle(4) + [(1, 100), (100, 101, 102), (101, 103), (103,), (102,)]
                                     + [(300, 301, 302), (301, 303), (303, 304), (302,)]), [11, 7]),
    # a tail deeper than the core's own eccentricity: 9 + 3
    ("deep-tail", scoped_model(cycle(3) + tail(2, 9, 100)), [12]),
]


def _checked_against_oracle(model):
    t = classify_topology(build_factor_graph(model))
    got = [(c.nodes, c.edges, c.diameter) for c in t.components]
    want = oracle_components(model)
    assert got == want
    assert t.diameter == max((d for _, _, d in want), default=0)
    return t


# (seed, n_agents, topology, variables + factors): node counts at and
# around the 64-bit word boundaries of the bitset search
WORD_BOUNDARY_MODELS = [
    (0, 32, "multi_loop", 63), (2, 30, "multi_loop", 64), (2, 29, "multi_loop", 65),
    (1, 64, "multi_loop", 128), (1, 65, "multi_loop", 129),
    (0, 33, "forest", 63), (0, 65, "forest", 128),
    (0, 33, "single_loop", 64), (0, 65, "single_loop", 129),
]


@pytest.mark.parametrize("seed,n_agents,topology,n_nodes", WORD_BOUNDARY_MODELS)
def test_diameter_matches_per_node_bfs_at_word_boundaries(seed, n_agents, topology, n_nodes):
    m = random_model(seed=seed, n_agents=n_agents, topology=topology)
    assert len(m.variables) + len(m.factors) == n_nodes
    t = _checked_against_oracle(m)
    assert len(t.components) == 1


@pytest.mark.parametrize("n_agents", [32, 33, 64, 65])
def test_long_chain_diameter_crosses_word_boundaries(n_agents):
    # the two ends of the path are variable 1 (bit 0) and variable n_agents
    # (bit n_agents - 1), so the end bits sit at the 64-bit word edges
    t = _checked_against_oracle(chain_model(n_agents))
    assert t.diameter == 2 * (n_agents - 1)


def test_diameter_matches_per_node_bfs_on_disconnected_model():
    rng = np.random.default_rng(5)
    lonely = LinearGaussianModel(variables=[VariableSpec(1, 2, rand_spd(rng, 2))], factors=[])
    m = disjoint_union(random_model(seed=0, n_agents=33, topology="forest"),
                       random_model(seed=2, n_agents=29, topology="multi_loop"),
                       lonely)
    t = _checked_against_oracle(m)
    assert len(t.components) == 3
    assert t.overall == "multi_loop"
    # the variable no factor touches is a one-node component
    assert (1, 0, 0) in [(c.nodes, c.edges, c.diameter) for c in t.components]
    for label, model, diameters in HANGING_TREES:
        assert [c.diameter for c in _checked_against_oracle(model).components] == diameters, label


def test_model_without_factors_has_zero_diameter():
    rng = np.random.default_rng(6)
    m = LinearGaussianModel(variables=[VariableSpec(i, 1, rand_spd(rng, 1)) for i in (1, 2, 3)],
                            factors=[])
    t = _checked_against_oracle(m)
    assert t.overall == "forest"
    assert len(t.components) == 3
    assert t.diameter == 0


@pytest.mark.parametrize("chain_factors", [63, 64, 65])
def test_component_order_and_labels_at_word_edges(chain_factors):
    # nodes are numbered factors first, so the one-factor component's
    # lowest node is node chain_factors (bit 63 of word 0, bit 0 or bit 1
    # of word 1) and the loop component's the node after it
    rng = np.random.default_rng(7)
    one = np.eye(1)
    single = LinearGaussianModel(variables=[VariableSpec(1, 1, rand_spd(rng, 1))],
                                 factors=[FactorSpec(1, (1,), {1: one}, one, np.zeros(1))])
    lonely = LinearGaussianModel(variables=[VariableSpec(1, 1, rand_spd(rng, 1))], factors=[])
    m = disjoint_union(chain_model(chain_factors + 1), single,
                       random_model(seed=0, n_agents=6, topology="single_loop"), lonely)
    t = _checked_against_oracle(m)
    assert [c.kind for c in t.components] == ["forest", "forest", "single_loop_plus_forest",
                                              "forest"]
    assert [(c.nodes, c.edges) for c in t.components[1::2]] == [(2, 1), (1, 0)]


def test_model_without_variables_is_an_empty_forest():
    t = _checked_against_oracle(LinearGaussianModel(variables=[], factors=[]))
    assert (t.overall, t.components, t.diameter) == ("forest", [], 0)


def test_classify_topology_is_pinned():
    # sha1 of the reports of 390 random_model requests, infeasible ones as their error
    lines = []
    for seed in range(10):
        for topology in ("forest", "single_loop", "multi_loop"):
            for n_agents in (1, 2, 3, 4, 5, 7, 9, 12, 16, 20, 25, 32, 40):
                try:
                    m = random_model(seed=seed, n_agents=n_agents, topology=topology)
                except DomainError as exc:
                    lines.append("ERR " + str(exc))
                    continue
                report = asdict(classify_topology(build_factor_graph(m)))
                lines.append(json.dumps(report, sort_keys=True))
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "4dc754a73df42d4a8fd827153f2f7e5df004c260"


def peel_models():
    from corpus import cli_mixed_models, forest_corpus, grid_field, loopy_corpus, mixed_corpus
    from gabp.mrf import mrf_to_linear_gaussian

    models = list(mixed_corpus()) + [(f"forest-{k}", m) for k, m in enumerate(forest_corpus())]
    models += [(f"loopy-{k}", m) for k, m in enumerate(loopy_corpus())] + cli_mixed_models()
    models += [("quartet", quartet_model()), ("chain-5", chain_model(5)),
               ("empty", LinearGaussianModel(variables=[], factors=[])),
               ("bench-480", random_model(seed=1, n_agents=480, topology="multi_loop")),
               ("grid-10", mrf_to_linear_gaussian(grid_field(10))[0])]
    return models + [(label, model) for label, model, _ in HANGING_TREES]


def test_leaf_peel_leaves_the_two_core_and_removes_every_leaf_round_by_round():
    for label, model in peel_models():
        g = build_factor_graph(model)
        peel = g.peel
        names = [("f", n) for n in g.factor_ids] + [("v", i) for i in g.var_ids]
        pairs = [(names.index(("f", n)), names.index(("v", i))) for n, i in g.f2v_edges]
        np.testing.assert_array_equal(g.pairs, np.array(pairs, dtype=np.intp).reshape(-1, 2))
        assert {names[k] for k in np.flatnonzero(peel.core)} == oracle_core(model), label
        assert sorted(peel.order.tolist() + np.flatnonzero(peel.core).tolist()) == list(range(len(names)))
        # replay the rounds on the live edges
        live = set(range(len(pairs)))
        bounds = [0] + [removed.stop for removed, _, _ in peel.rounds]
        assert [removed.start for removed, _, _ in peel.rounds] == bounds[:-1] and bounds[-1] == len(peel.order)
        for removed, var_rows, factor_rows in peel.rounds:
            lo, hi = removed.start, removed.stop
            edges_at = {k: {e for e in live if k in pairs[e]} for k in range(len(names))}
            leaves = {k for k in range(len(names)) if len(edges_at[k]) <= 1
                      and k not in peel.order[:lo].tolist()}
            # every leaf goes, but a variable whose one neighbour is a leaf factor waits a round
            waits = {k for k in leaves if names[k][0] == "v" and edges_at[k]
                     and pairs[min(edges_at[k])][0] in leaves}
            nodes = peel.order[lo:hi].tolist()
            assert nodes == sorted(leaves - waits), label
            # the plan: the rows the round's variables hang by, then those its factors hang by
            for rows, kind in ((var_rows, "v"), (factor_rows, "f")):
                assert rows.tolist() == [e for k, e in zip(nodes, peel.hung[removed].tolist())
                                         if names[k][0] == kind and e >= 0], label
            for k, p, e in zip(nodes, peel.parent[lo:hi].tolist(), peel.hung[lo:hi].tolist()):
                assert edges_at[k] == ({e} if e >= 0 else set()), label
                assert p == (sum(pairs[e]) - k if e >= 0 else -1), label
                live -= edges_at[k]
        assert live == set(np.flatnonzero(peel.core_edges).tolist()), label
        assert (peel.core_edges == (peel.core[g.pairs[:, 0]] & peel.core[g.pairs[:, 1]])).all()


def test_classify_topology_matches_the_per_node_bfs_on_every_peel_model():
    for label, model in peel_models():
        t = _checked_against_oracle(model)
        want = max((c.independent_cycles for c in t.components), default=0)
        assert t.overall == ("forest", "single_loop_plus_forest", "multi_loop")[min(want, 2)], label


def test_classify_topology_allocates_less_than_one_all_node_bitset():
    g = build_factor_graph(random_model(seed=1, n_agents=1600))
    g.peel  # cached on the graph and shared with its other readers, so not counted here
    n = len(g.var_ids) + len(g.factor_ids)
    tracemalloc.start()
    try:
        classify_topology(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a BFS out of every node would hold N rows of N // 64 + 1 words
    assert peak < n * (n // 64 + 1) * 8


def test_the_peel_is_computed_once_per_graph(monkeypatch):
    import gabp.graph

    calls = []
    monkeypatch.setattr(gabp.graph, "leaf_peel", lambda graph: calls.append(1) or leaf_peel(graph))
    g = build_factor_graph(chain_model(2000))
    assert g.peel is g.peel and calls == [1]
    # the chain's 3999 nodes go two per round, one from each end, and no core is left
    assert [r.stop - r.start for r, _, _ in g.peel.rounds] == [2] * 1999 + [1] and not g.peel.core.any()


def test_every_hung_message_keeps_its_bytes_from_its_settle_iteration_on_under_any_init():
    from conftest import full_sweep_run, message_init
    from corpus import forest_corpus, mixed_corpus
    from gabp.bp import BpOptions

    models = [(f"forest-{k}", m) for k, m in enumerate(forest_corpus())] + list(mixed_corpus())
    hung = 0
    for k, (label, model) in enumerate(models):
        g = build_factor_graph(model)
        kind, row = np.nonzero(np.isfinite(g.peel.settle))
        settle = g.peel.settle[kind, row].astype(int)
        if not len(settle):
            continue
        hung += 1
        assert settle.max() < 20, label
        runs = {}
        for schedule, init in (("sync", "zero"), ("sync", message_init(g, k)), ("seq", "upper"), ("random", "lower")):
            states = []
            opts = BpOptions(schedule=schedule, seed=5, max_iters=40)
            full_sweep_run(model, g, init=init, options=opts, states=states)
            # each message's (J, v) after every iteration, from its settle iteration on
            trails = [[(jm[c, e].tobytes(), vm[c, e].tobytes()) for jm, vm in states[s - 1:]]
                      for c, e, s in zip(kind, row, settle)]
            runs[schedule, type(init)] = trails
            for trail in trails:
                assert trail[1:] == trail[:-1], (label, schedule)
        # a settled message reads no init: the two inits' sync runs settle it on the same bytes
        assert [t[0] for t in runs["sync", str]] == [t[0] for t in runs["sync", dict]], label
    assert hung >= 90


def test_the_480_agent_model_settles_801_tree_messages_within_16_iterations():
    g = build_factor_graph(random_model(seed=1, n_agents=480, topology="multi_loop"))
    settle = g.peel.settle[np.isfinite(g.peel.settle)]
    assert (len(settle), (settle == 1).sum(), (settle <= 2).sum(), settle.max()) == (801, 371, 557, 16)
    # the core's messages, and those running away from it, never settle
    assert np.isinf(g.peel.settle[:, g.peel.core_edges]).all()
    assert (np.isfinite(g.peel.settle).sum(axis=0) == ~g.peel.core_edges).all()
