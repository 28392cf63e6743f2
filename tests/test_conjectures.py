import pytest

from conftest import count_dags_by_edge_subsets, dag_class_key, keyed_dag_catalog
from kiselman import errors
from kiselman.canonical import enumerate_kn
from kiselman.conjectures import conjecture_sweep, enumerate_dags
from kiselman.errors import ResourceGuardError
from kiselman.hecke import enumerate_hk
from kiselman.sds import Dag, complete_dag, random_update_system
from kiselman.universal import build_universal_dag


def test_catalog_counts():
    """Classes per vertex count: 1, 2, 6, 31, 302 (OEIS A003087)."""
    by_n = {}
    for dag in enumerate_dags(5).items:
        by_n[dag.n] = by_n.get(dag.n, 0) + 1
    assert by_n == {1: 1, 2: 2, 3: 6, 4: 31, 5: 302}
    assert len(enumerate_dags(1).items) == 1
    assert len(enumerate_dags(2).items) == 3


def test_catalog_matches_the_permutation_keyed_oracle():
    assert enumerate_dags(5).items == keyed_dag_catalog(5)


def test_catalog_agrees_with_edge_subset_filtering():
    catalog = enumerate_dags(4)
    by_n = {}
    for dag in catalog.items:
        by_n[dag.n] = by_n.get(dag.n, 0) + 1
    for n in (1, 2, 3, 4):
        assert count_dags_by_edge_subsets(n) == by_n[n]


def test_catalog_items_are_pairwise_non_isomorphic():
    keys = set()
    for dag in enumerate_dags(5).items:
        key = (dag.n, dag_class_key(dag.n, dag.edges))
        assert key not in keys
        keys.add(key)


def test_catalog_reaches_six_vertices_when_the_limit_allows(monkeypatch):
    """5,984 classes on six vertices (OEIS A003087); the shipped limit is 5."""
    monkeypatch.setattr(errors, "MAX_CATALOG_VERTICES", 6)
    catalog = enumerate_dags(6)
    assert sum(1 for dag in catalog.items if dag.n == 6) == 5984


def test_catalog_guard():
    with pytest.raises(ResourceGuardError,
                       match="max_vertices=6 exceeds MAX_CATALOG_VERTICES=5"):
        enumerate_dags(6)
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"max_vertices={bad}"):
            enumerate_dags(bad)


def test_sweep_rows_past_the_coset_guard_are_skipped(monkeypatch):
    monkeypatch.setattr(errors, "MAX_COSETS", 10)
    report = conjecture_sweep(3)
    skipped = [r for r in report.rows if r.skipped is not None]
    assert len(report.rows) == 9 and len(skipped) == 7
    assert all("reach MAX_COSETS=10" in r.skipped for r in skipped)
    assert all(r.hk_size is None and r.match is None for r in skipped)
    assert report.matched == 2 and report.mismatched == 0 and report.ok
    assert report.to_json()["skipped"] == 7


def test_sweep_rows_past_the_kn_guard_are_skipped(monkeypatch):
    """A refused K_n skips every row of its vertex count; the sweep goes on."""
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 10)
    report = conjecture_sweep(3)
    skipped = [r for r in report.rows if r.skipped is not None]
    assert len(report.rows) == 9 and len(skipped) == 6
    assert all(r.dag.n == 3 for r in skipped)
    assert all(r.skipped == "K_3 exceeds MAX_ELEMENTS=10" for r in skipped)
    assert report.matched == 3 and report.mismatched == 0 and report.ok


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
    """The join-based system merges one pair of HK classes; HK is still realised.

    On the diamond 1->2, 1->3, 2->4, 3->4, with or without 1->4, the join
    system identifies exactly the classes of abcd and cabdc.  Pair it with a
    seeded random system on the same graph: the product system, with state
    sets S_i x T_i and tables acting componentwise, has evolution table
    F_w = (F_w^join, F_w^random).  Every word acts as its HK representative
    does, so |D| of the product is the number of distinct pairs over the HK
    representatives.  That number is |HK|: the product system realises HK on
    both graphs.  Each seed is the least that works.
    """
    diamond = [(1, 2), (1, 3), (2, 4), (3, 4)]
    for edges, hk_size, seed in ((diamond, 56, 9), (diamond + [(1, 4)], 72, 6)):
        dag = Dag(4, edges)
        hk = enumerate_hk(dag)
        join_system = build_universal_dag(dag)
        assert hk.size == hk_size
        assert join_system.dynamics_monoid().size == hk_size - 1
        classes = {}
        for rep in hk.representatives:
            classes.setdefault(join_system.evolution_table(rep), []).append(rep)
        merged = [c for c in classes.values() if len(c) > 1]
        assert merged == [[(1, 2, 3, 4), (3, 1, 2, 4, 3)]]
        product_sizes = []
        for s in range(seed + 1):
            partner = random_update_system(dag, 3, s)
            product_sizes.append(len({
                (join_system.evolution_table(rep), partner.evolution_table(rep))
                for rep in hk.representatives
            }))
        assert product_sizes[-1] == hk_size
        assert max(product_sizes[:-1]) < hk_size


def test_sweep_report_json_shape():
    blob = conjecture_sweep(max_vertices=2).to_json()
    assert set(blob) == {"max_vertices", "rows", "matched", "mismatched", "skipped"}
    row = blob["rows"][0]
    assert set(row) == {"n", "edges", "hk_size", "dynamics_size", "quotient_ok",
                        "match", "seconds", "skipped"}
