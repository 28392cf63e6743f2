import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_dynamics
from kiselman import errors, sds
from kiselman.canonical import enumerate_kn
from kiselman.conjectures import enumerate_dags
from kiselman.errors import ResourceGuardError
from kiselman.sds import (
    Dag,
    RelationCheck,
    RelationReport,
    UpdateSystem,
    check_hk_relations,
    complete_dag,
    compose_tables,
    dag_from_json,
    dag_to_json,
    random_update_system,
    reachable_states,
    system_from_json,
    system_to_json,
)
from kiselman.universal import build_universal, build_universal_dag


@pytest.fixture
def arrow_system():
    """Two vertices i -> j with S_i = {0,1,2}, S_j = {0,1}, f_i(s) = s+1, f_j = 1."""
    dag = Dag(2, [(1, 2)])
    return UpdateSystem(dag, [[0, 1, 2], [0, 1]], [{(0,): 1, (1,): 2}, {(): 1}])


def test_dag_validation():
    with pytest.raises(ValueError):
        Dag(2, [(1, 1)])
    with pytest.raises(ValueError):
        Dag(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Dag(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        Dag(2, [(1, 3)])


@pytest.mark.parametrize("n, edges, message", [
    (2.9, [], "vertex count must be an int, got 2.9"),
    (True, [], "vertex count must be an int, got True"),
    (2, [(1.7, 2)], r"edge \(1.7, 2\) is not a pair of int vertices"),
    (2, [(True, 2)], r"edge \(True, 2\) is not a pair of int vertices"),
    (2, [("1", 2)], r"edge \('1', 2\) is not a pair of int vertices"),
    (2, [(1, 2, 3)], r"edge \(1, 2, 3\) is not a pair of int vertices"),
    (2, [1], "edge 1 is not a pair of int vertices"),
])
def test_dag_takes_only_int_counts_and_pairs_of_ints(n, edges, message):
    """The Python graph refuses what the JSON boundary refuses, naming it."""
    with pytest.raises(ValueError, match=message):
        Dag(n, edges)


def test_dag_structure():
    dag = Dag(4, [(2, 1), (2, 3), (1, 3)])
    assert dag.out_neighbors(2) == (1, 3)
    assert dag.out_neighbors(4) == ()
    order = dag.topological_order()
    assert order.index(2) < order.index(1) < order.index(3)
    assert dag.adjacent(1, 2) and not dag.adjacent(1, 4)
    g4 = complete_dag(4)
    assert len(g4.edges) == 6
    assert all(i < j for i, j in g4.edges)


def test_arrow_system_evolutions(arrow_system):
    s = (0, 0)
    assert arrow_system.evolve((), s) == (0, 0)
    assert arrow_system.evolve((1,), s) == (1, 0)
    assert arrow_system.evolve((2,), s) == (0, 1)
    assert arrow_system.evolve((1, 2), s) == (2, 1)
    assert arrow_system.evolve((2, 1), s) == (1, 1)


def test_arrow_system_dynamics_monoid(arrow_system):
    monoid = arrow_system.dynamics_monoid()
    assert monoid.size == 5
    by_word = {m.witness: m for m in monoid}
    f_ij = arrow_system.evolution_table((1, 2))
    assert arrow_system.evolution_table((1, 2, 1)) == f_ij
    assert arrow_system.evolution_table((2, 1, 2)) == f_ij
    assert f_ij in {m.table for m in monoid}
    assert by_word[()] is monoid.identity


def test_single_vertex_systems():
    two = UpdateSystem(Dag(1, []), [[0, 1]], [{(): 1}])
    assert two.dynamics_monoid().size == 2
    one = UpdateSystem(Dag(1, []), [[0]], [{(): 0}])
    assert one.dynamics_monoid().size == 1


def test_local_maps_are_idempotent(arrow_system):
    for i in (1, 2):
        t = arrow_system.local_table(i)
        assert tuple(t[x] for x in t) == t
    for s in arrow_system.states():
        for i in (1, 2):
            once = arrow_system.evolve((i,), s)
            assert arrow_system.evolve((i,), once) == once


def test_update_system_validation():
    dag = Dag(2, [(1, 2)])
    not_total = "table of vertex 1 is not total over its out-neighbour states"
    with pytest.raises(ValueError, match=not_total):  # a row missing
        UpdateSystem(dag, [[0, 1], [0, 1]], [{(0,): 0}, {(): 0}])
    with pytest.raises(ValueError, match=not_total):  # right length, one foreign key
        UpdateSystem(dag, [[0, 1], [0, 1]], [{(0,): 0, (2,): 0}, {(): 0}])
    with pytest.raises(ValueError, match=r"vertex 1 maps \(0,\) outside its state set"):
        UpdateSystem(dag, [[0], [0]], [{(0,): 1}, {(): 0}])
    with pytest.raises(ValueError, match=r"vertex 1 maps \('y',\) outside its state set"):
        UpdateSystem(dag, [[0, 1], ["x", "y", "z"]],
                     [{("x",): 0, ("y",): 2, ("z",): 1}, {(): "x"}])
    with pytest.raises(ValueError, match="vertex 1 lists a state twice"):
        UpdateSystem(dag, [[0, 0], [0]], [{(0,): 0}, {(): 0}])
    with pytest.raises(ValueError, match="need one state set and one table per vertex"):
        UpdateSystem(dag, [[0], [0]], [{(0,): 0}])


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6), st.data())
def test_evolution_is_a_homomorphism(seed, data):
    rng = random.Random(seed)
    dag = _random_dag(rng, 4)
    sys = random_update_system(dag, 3, seed)
    u = tuple(data.draw(st.lists(st.integers(1, dag.n), max_size=5)))
    v = tuple(data.draw(st.lists(st.integers(1, dag.n), max_size=5)))
    s = sys.initial_state()
    assert sys.evolve(u + v, s) == sys.evolve(u, sys.evolve(v, s))


def _random_dag(rng, max_n):
    n = rng.randint(1, max_n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = [p for p in pairs if rng.random() < 0.5]
    return Dag(n, edges)


def test_monoid_size_is_exploration_order_independent(arrow_system):
    monoid = arrow_system.dynamics_monoid()
    # independent closure, generators in reverse order, depth-first
    gens = [arrow_system.local_table(g) for g in (2, 1)]
    identity = tuple(range(arrow_system.state_count()))
    seen = {identity}
    stack = [identity]
    while stack:
        t = stack.pop()
        for g in gens:
            composed = tuple(g[x] for x in t)
            if composed not in seen:
                seen.add(composed)
                stack.append(composed)
    assert len(seen) == monoid.size


def test_monoid_is_closed_under_composition(arrow_system):
    monoid = arrow_system.dynamics_monoid()
    tables = {m.table for m in monoid}
    assert len(tables) == monoid.size
    for a in monoid:
        for b in monoid:
            assert tuple(a.table[x] for x in b.table) in tables


def test_token_and_index_local_maps_agree():
    """``evolve`` of one letter on tokens and ``local_table`` on indices are one map.

    The orbit of ``verify_isomorphism`` runs on tokens and its relation check
    on tables, so its certificate needs both to be the same map.
    """
    rng = random.Random(8)
    systems = [random_update_system(_random_dag(rng, 5), 4, seed) for seed in range(12)]
    systems += [build_universal(n).system for n in (1, 2, 3, 4)]
    for sys in systems:
        for i in range(1, sys.graph.n + 1):
            table = sys.local_table(i)
            for s in sys.states():
                assert sys.state_index(sys.evolve((i,), s)) == table[sys.state_index(s)]


def test_token_and_table_evolutions_agree():
    """``evolve`` on tokens and ``evolution_table`` on indices are one map.

    The systems have vertices with no, one and several out-neighbours,
    the three shapes of argument getter.
    """
    rng = random.Random(13)
    systems = [random_update_system(dag, 3, seed)
               for seed, dag in enumerate(enumerate_dags(4).items)]
    systems += [build_universal(n).system for n in (1, 2, 3, 4)]
    shapes = set()
    for sys in systems:
        n = sys.graph.n
        shapes |= {min(len(sys.graph.out_neighbors(v)), 2) for v in range(1, n + 1)}
        states = list(sys.states())
        for _ in range(4):
            w = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 12)))
            table = sys.evolution_table(w)
            for s in states:
                assert sys.state_index(sys.evolve(w, s)) == table[sys.state_index(s)]
    assert shapes == {0, 1, 2}


def test_evolve_names_the_first_bad_letter_it_would_apply():
    sys = build_universal(3).system
    s = sys.initial_state()
    with pytest.raises(ValueError, match=r"^vertex 0 out of range$"):
        sys.evolve((1, 9, 0), s)
    with pytest.raises(ValueError, match=r"^vertex 9 out of range$"):
        sys.evolve((9, 2), s)
    with pytest.raises(ValueError, match=r"^vertex 4 out of range$"):
        sys.evolve((4,), s)


def test_witness_words_reproduce_their_maps():
    rng = random.Random(12)
    for seed in range(5):
        sys = random_update_system(_random_dag(rng, 4), 3, seed)
        for m in sys.dynamics_monoid():
            assert sys.evolution_table(m.witness) == m.table


def test_relations_on_the_arrow_system(arrow_system):
    report = check_hk_relations(arrow_system)
    assert report.ok
    kinds = {c.kind for c in report.checks}
    assert kinds == {"idempotent", "edge-triple"}


def test_relations_need_a_graph_on_the_systems_vertices():
    system = build_universal(3).system
    for graph, n in ((complete_dag(2), 2), (complete_dag(4), 4)):
        with pytest.raises(ValueError,
                           match=f"^the graph has {n} vertices, but the system has 3$"):
            check_hk_relations(system, graph)
    assert check_hk_relations(system, complete_dag(3)).ok


def test_relations_commute_without_edges():
    sys = random_update_system(Dag(2, []), 3, 5)
    report = check_hk_relations(sys)
    assert report.ok
    assert any(c.kind == "commute" for c in report.checks)


@pytest.mark.parametrize("graph, count", [
    (complete_dag(3), 3 + 3 * 3),                     # Gamma_3: no non-adjacent pair
    (Dag(4, [(1, 2), (2, 3)]), 4 + 3 * 2 + 2 * 4),    # 4 of the 6 pairs are non-adjacent
])
def test_relations_compose_each_product_once(monkeypatch, graph, count):
    """One composition per idempotent, 3 per edge (ij, iji, jij), 2 per non-adjacent pair."""
    sys = random_update_system(graph, 2, 1)
    for g in range(1, graph.n + 1):
        sys.local_table(g)  # built and cached outside the count
    calls = []

    def counted(a, b):
        calls.append(1)
        return compose_tables(a, b)
    monkeypatch.setattr(sds, "compose_tables", counted)
    assert check_hk_relations(sys).ok
    assert len(calls) == count


def test_relation_failures_are_json_rows():
    report = RelationReport((RelationCheck("idempotent", (1,), True),
                             RelationCheck("commute", (1, 3), False)))
    assert report.failures() == [{"kind": "commute", "vertices": [1, 3]}]


def test_relations_on_random_systems():
    rng = random.Random(2)
    for seed in range(25):
        dag = _random_dag(rng, 5)
        sys = random_update_system(dag, 3, seed)
        assert check_hk_relations(sys).ok


def test_words_with_equal_canonical_forms_act_equally():
    """F_(c a) = F_(Can(c a)) on every edge of K_n, for canonical c.

    Every word reaches its canonical form one appended letter at a time, so
    this shows F_w = F_(Can w) for all words w.
    """
    rng = random.Random(31)
    systems = [random_update_system(complete_dag(rng.randint(2, 4)), 3, seed)
               for seed in range(8)]
    systems += [build_universal(n).system for n in (2, 3, 4)]
    for sys in systems:
        n = sys.graph.n
        kn = enumerate_kn(n)
        tables = [sys.evolution_table(c) for c in kn]
        for u in range(len(kn)):
            for a in range(n):
                product = compose_tables(tables[u], sys.local_table(a + 1))
                assert product == tables[kn.right[u * n + a]]


def test_random_update_system_contract():
    dag = Dag(3, [(1, 2), (1, 3)])
    a = random_update_system(dag, 3, 42)
    b = random_update_system(dag, 3, 42)
    assert a.state_sets == b.state_sets
    assert a.vertex_functions == b.vertex_functions
    assert any(
        random_update_system(dag, 3, s).vertex_functions != a.vertex_functions
        for s in range(1, 6)
    )
    trivial = random_update_system(dag, 1, 0)
    assert trivial.dynamics_monoid().size == 1


def test_state_indexing_round_trip(arrow_system):
    for idx, s in enumerate(arrow_system.states()):
        assert arrow_system.state_index(s) == idx
        assert arrow_system.state_at(idx) == s


def test_state_index_and_vertex_are_checked():
    sys = random_update_system(Dag(3, [(1, 2), (2, 3)]), 3, 4)
    for bad in (0, -1, 4):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            sys.local_table(bad)
    with pytest.raises(ValueError, match="vertex 0 out of range"):
        sys.evolution_table((0,))
    count = sys.state_count()
    assert sys.state_at(count - 1) == tuple(states[-1] for states in sys.state_sets)
    for bad in (count, -1):
        with pytest.raises(ValueError, match=f"state index {bad} out of range"):
            sys.state_at(bad)


def test_dynamics_guards(arrow_system, monkeypatch):
    monkeypatch.setattr(errors, "MAX_STATES", 3)
    with pytest.raises(ResourceGuardError,
                       match="state space of size 6 exceeds MAX_STATES=3"):
        arrow_system.dynamics_monoid()
    monkeypatch.setattr(errors, "MAX_STATES", 5)
    with pytest.raises(ResourceGuardError, match="MAX_STATES=5"):
        arrow_system.evolution_table((1,))
    monkeypatch.setattr(errors, "MAX_STATES", 6)
    assert len(arrow_system.evolution_table((1,))) == 6
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 2)
    with pytest.raises(ResourceGuardError,
                       match="^dynamics monoid exceeds MAX_ELEMENTS=2$"):
        arrow_system.dynamics_monoid()
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 5)
    assert arrow_system.dynamics_monoid().size == 5
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 4)
    with pytest.raises(ResourceGuardError,
                       match="^dynamics monoid exceeds MAX_ELEMENTS=4$"):
        arrow_system.dynamics_monoid()


def test_state_guard_holds_for_cached_local_tables(monkeypatch):
    """The guard fires before and after the local tables are cached."""
    sys = build_universal_dag(complete_dag(3))
    assert sys.state_count() == 36
    monkeypatch.setattr(errors, "MAX_STATES", 1)
    with pytest.raises(ResourceGuardError, match="MAX_STATES=1"):
        check_hk_relations(sys)
    monkeypatch.setattr(errors, "MAX_STATES", 10 ** 6)
    sys.dynamics_monoid()
    monkeypatch.setattr(errors, "MAX_STATES", 1)
    with pytest.raises(ResourceGuardError, match="MAX_STATES=1"):
        check_hk_relations(sys)
    monkeypatch.setattr(errors, "MAX_STATES", 35)
    with pytest.raises(ResourceGuardError, match="MAX_STATES=35"):
        sys.local_table(1)
    monkeypatch.setattr(errors, "MAX_STATES", 36)
    assert check_hk_relations(sys).ok


def test_state_guard_fires_before_any_allocation(arrow_system, monkeypatch):
    def unclosed(*args):
        raise AssertionError("the closure started before the state guard")

    monkeypatch.setattr(sds, "froidure_pin", unclosed)
    monkeypatch.setattr(errors, "MAX_STATES", 5)
    for entry in (lambda: arrow_system.local_table(1),
                  lambda: arrow_system.evolution_table(()),
                  arrow_system.dynamics_monoid,
                  lambda: check_hk_relations(arrow_system)):
        with pytest.raises(ResourceGuardError, match="size 6 exceeds MAX_STATES=5"):
            entry()


def _assert_matches_reference(sys):
    monoid = sys.dynamics_monoid()
    assert [(m.table, m.witness) for m in monoid] == reference_dynamics(sys)
    assert [m.ident for m in monoid] == list(range(monoid.size))
    stats = monoid.stats
    assert stats["states"] == sys.state_count() and stats["maps"] == monoid.size
    assert stats["products"] == sys.graph.n * monoid.size
    assert stats["compositions"] <= stats["products"]
    return monoid


def test_dynamics_monoid_matches_the_reference_closure():
    rng = random.Random(44)
    sizes = set()
    for seed in range(30):
        dag = _random_dag(rng, 5)
        sys = random_update_system(dag, rng.randint(1, 4), seed)
        sizes.add(_assert_matches_reference(sys).size)
    for dag in (complete_dag(4), Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])):
        sizes.add(_assert_matches_reference(build_universal_dag(dag)).size)
    assert 115 in sizes and len(sizes) > 10


def test_dynamics_monoid_edge_cases():
    # vertex 2 has one state, so F_2 is the identity
    one_state_vertex = UpdateSystem(Dag(2, [(1, 2)]), [[0, 1], ["x"]],
                                    [{("x",): 1}, {(): "x"}])
    assert _assert_matches_reference(one_state_vertex).size == 2
    # F_1 and F_3 coincide (both the identity)
    coinciding = UpdateSystem(Dag(3, [(2, 1)]), [[0], [0, 1, 2], [0]],
                              [{(): 0}, {(0,): 2}, {(): 0}])
    assert _assert_matches_reference(coinciding).size == 2
    one_state = UpdateSystem(Dag(3, [(1, 2), (2, 3)]), [[0], [0], [0]],
                             [{(0,): 0}, {(0,): 0}, {(): 0}])
    assert one_state.local_table(2) == (0,)
    assert _assert_matches_reference(one_state).size == 1
    empty = UpdateSystem(Dag(0, []), [], [])
    monoid = _assert_matches_reference(empty)
    assert monoid.size == 1 and monoid.identity.table == (0,)


def test_reachable_states(arrow_system):
    reached = reachable_states(arrow_system, (0, 0))
    assert (2, 1) in reached
    assert all(s in set(arrow_system.states()) for s in reached)


def test_graph_json_round_trip():
    dag = Dag(4, [(2, 1), (2, 3), (1, 3)])
    assert dag_from_json(dag_to_json(dag)).edges == dag.edges
    with pytest.raises(ValueError):
        dag_from_json({"edges": []})


def test_system_json_round_trip(arrow_system):
    blob = json.dumps(system_to_json(arrow_system))
    loaded = system_from_json(json.loads(blob))
    assert loaded.graph.edges == arrow_system.graph.edges
    assert loaded.evolve((1, 2), ("0", "0")) == ("2", "1")
    again = system_to_json(loaded)
    assert again == json.loads(blob)


def test_system_json_checks_the_vertex_count_before_building(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("the graph was built before the state rows were counted")

    monkeypatch.setattr(sds, "Dag", unbuilt)
    obj = {"graph": {"n": 10 ** 9, "edges": []}, "states": [["0"]], "functions": []}
    with pytest.raises(ValueError, match="graph has 1000000000 vertices but there are 1 state rows"):
        system_from_json(obj)


def test_system_json_names_a_few_missing_tables():
    obj = {"graph": {"n": 8, "edges": []}, "states": [["0"]] * 8,
           "functions": [{"vertex": 3, "table": [{"args": [], "out": "0"}]}]}
    with pytest.raises(ValueError, match=r"missing function tables for 7 vertices: 1, 2, 4, 5, 6, \.\.\.$"):
        system_from_json(obj)


def _one_vertex_blob(**fields):
    blob = {"graph": {"n": 1, "edges": []}, "states": [["0"]],
            "functions": [{"vertex": 1, "table": [{"args": [], "out": "0"}]}]}
    return {**blob, **fields}


@pytest.mark.parametrize("call, message", [
    (lambda: Dag(-1, []), "vertex count must be non-negative"),
    (lambda: UpdateSystem(Dag(1, []), [[]], [{(): 0}]), "vertex 1 has an empty state set"),
    (lambda: random_update_system(Dag(2, []), 0, 3), "max_set_size must be at least 1"),
    (lambda: system_from_json(_one_vertex_blob(functions=[{"vertex": 2, "table": []}])),
     "function entry for unknown vertex 2"),
    (lambda: system_from_json(_one_vertex_blob(functions=_one_vertex_blob()["functions"] * 2)),
     "vertex 1 has two function tables"),
    (lambda: system_from_json(_one_vertex_blob(functions=[
        {"vertex": 1, "table": [{"args": [], "out": "0"}] * 2}])),
     r"vertex 1 repeats arguments \(\)"),
    (lambda: system_from_json({"graph": {"n": 1, "edges": []}, "functions": []}),
     "bad system object: 'states'"),
])
def test_boundary_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_system_json_rejects_bad_tables(arrow_system):
    obj = system_to_json(arrow_system)
    obj["functions"][0]["table"].pop()
    with pytest.raises(ValueError):
        system_from_json(obj)
    obj["functions"][0]["table"] = 5
    with pytest.raises(ValueError, match="bad function entry"):
        system_from_json(obj)
