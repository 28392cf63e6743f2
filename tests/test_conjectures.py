import pytest

from conftest import count_dags_by_edge_subsets
from kiselman.canonical import enumerate_kn
from kiselman.conjectures import conjecture_sweep, enumerate_dags, search_larger_quotient
from kiselman.errors import ResourceGuardError
from kiselman.hecke import enumerate_hk
from kiselman.sds import Dag, complete_dag
from kiselman.universal import build_universal_dag


def test_catalog_counts():
    catalog = enumerate_dags(4)
    by_n = {}
    for dag in catalog.items:
        by_n[dag.n] = by_n.get(dag.n, 0) + 1
    assert by_n == {1: 1, 2: 2, 3: 6, 4: 31}
    assert len(enumerate_dags(1).items) == 1
    assert len(enumerate_dags(2).items) == 3


def test_catalog_agrees_with_edge_subset_filtering():
    catalog = enumerate_dags(4)
    by_n = {}
    for dag in catalog.items:
        by_n[dag.n] = by_n.get(dag.n, 0) + 1
    for n in (1, 2, 3, 4):
        assert count_dags_by_edge_subsets(n) == by_n[n]


def test_catalog_items_are_pairwise_non_isomorphic():
    import itertools

    catalog = enumerate_dags(3)
    keys = set()
    for dag in catalog.items:
        best = min(
            tuple(sorted((p[i - 1], p[j - 1]) for i, j in dag.edges))
            for p in itertools.permutations(range(1, dag.n + 1))
        )
        key = (dag.n, best)
        assert key not in keys
        keys.add(key)


def test_catalog_guard():
    with pytest.raises(ResourceGuardError,
                       match="max_vertices=6 exceeds the limit of 5 vertices"):
        enumerate_dags(6)
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"max_vertices={bad}"):
            enumerate_dags(bad)


def test_build_universal_dag_small():
    sys2 = build_universal_dag(Dag(2, []))
    monoid = sys2.dynamics_monoid()
    assert monoid.size == 4  # identity, both constants, their product
    assert {m.witness for m in monoid} <= {(), (1,), (2,), (1, 2), (2, 1)}
    assert build_universal_dag(Dag(1, [])).dynamics_monoid().size == 2


def test_build_universal_dag_realises_kn_on_complete_graphs():
    for n in (1, 2, 3):
        sys = build_universal_dag(complete_dag(n))
        assert sys.dynamics_monoid().size == len(enumerate_kn(n))


def test_sweep_small_graphs_all_match():
    report = conjecture_sweep(max_vertices=2)
    assert len(report.rows) == 3
    assert report.matched == 3 and report.mismatched == 0 and report.skips == 0
    assert report.ok
    report3 = conjecture_sweep(max_vertices=3)
    assert report3.matched == 9 and report3.mismatched == 0


def test_sweep_is_deterministic():
    a = conjecture_sweep(max_vertices=2).to_json()
    b = conjecture_sweep(max_vertices=2).to_json()
    for row in (*a["rows"], *b["rows"]):
        row.pop("seconds")
    assert a == b


def test_diamond_graph_separates_this_construction_from_hk():
    """The join-based system identifies two classes that HK keeps apart.

    A random system can tell them apart, so the quotient ordering is strict
    for this construction on the diamond, while HK itself stays optimal.
    """
    diamond = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    hk = enumerate_hk(diamond)
    sys = build_universal_dag(diamond)
    monoid = sys.dynamics_monoid()
    assert hk.size == 56
    assert monoid.size == 55
    u, v = (1, 2, 3, 4), (3, 1, 2, 4, 3)
    assert hk.class_of(u) != hk.class_of(v)
    assert sys.evolution_table(u) == sys.evolution_table(v)
    best = search_larger_quotient(diamond, hk.size, trials=15, seed=0)
    assert 1 <= best <= hk.size


def test_sweep_report_json_shape():
    blob = conjecture_sweep(max_vertices=2).to_json()
    assert set(blob) == {"max_vertices", "rows", "matched", "mismatched", "skipped"}
    row = blob["rows"][0]
    assert {"n", "edges", "hk_size", "dynamics_size", "quotient_ok",
            "match", "seconds", "skipped", "search_best"} <= set(row)
