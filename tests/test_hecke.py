import itertools
import math
import random
import time

import pytest

from conftest import random_word, reference_kn_quotient
from kiselman import errors
from kiselman.canonical import canonical_form, enumerate_kn
from kiselman.errors import ResourceGuardError
from kiselman.hecke import (
    HkPresentation,
    enumerate_hk,
    kn_quotient_classes,
)
from kiselman.sds import Dag, complete_dag
from kiselman.words import STAR


def test_presentation_relabels_topologically():
    dag = Dag(3, [(3, 1), (1, 2)])
    pres = HkPresentation.from_dag(dag)
    assert all(i < j for i, j in pres.graph.edges)
    assert pres.relabel_word((3, 1, 2)) == (1, 2, 3)
    assert pres.unrelabel_word((1, 2, 3)) == (3, 1, 2)
    with pytest.raises(ValueError):
        pres.relabel_word((9,))


def test_complete_graphs_recover_kiselman():
    for n in (1, 2, 3, 4):
        hk = enumerate_hk(complete_dag(n))
        assert hk.size == len(enumerate_kn(n))


def test_edgeless_two_vertices():
    hk = enumerate_hk(Dag(2, []))
    assert hk.size == 4
    assert set(hk.representatives) == {STAR, (1,), (2,), (1, 2)}
    assert hk.class_of((1, 2)) == hk.class_of((2, 1))
    assert hk.class_of((1, 2, 1, 2)) == hk.class_of((1, 2))


def test_path_graph_agrees_between_algorithms():
    dag = Dag(3, [(1, 2), (2, 3)])
    hk = enumerate_hk(dag)
    size_b, reps_b = kn_quotient_classes(HkPresentation.from_dag(dag))
    assert hk.size == size_b == 14
    assert frozenset(hk.representatives) == reps_b


def test_quotient_of_complete_graph_is_all_of_kn():
    pres = HkPresentation.from_dag(complete_dag(3))
    size, reps = kn_quotient_classes(pres)
    assert size == 18
    assert reps == frozenset(enumerate_kn(3))


def test_class_of_examples():
    hk = enumerate_hk(Dag(2, [(1, 2)]))
    assert hk.class_of(STAR) == 0
    assert hk.class_of((1, 2, 1)) == hk.class_of((1, 2))
    assert hk.class_of((2, 1, 2)) == hk.class_of((1, 2))


def test_class_of_uses_original_labels():
    dag = Dag(3, [(3, 1), (1, 2)])  # topological order is 3, 1, 2
    hk = enumerate_hk(dag)
    assert hk.class_of((3, 1, 3)) == hk.class_of((3, 1))
    originals = hk.representatives_original()
    assert set().union(*[set(w) for w in originals if w]) <= {1, 2, 3}


def test_action_is_well_defined_and_idempotent():
    dag = Dag(3, [(1, 3)])
    hk = enumerate_hk(dag)
    rng = random.Random(8)
    words = [random_word(rng, 3, 8) for _ in range(300)]
    by_class = {}
    for w in words:
        by_class.setdefault(hk.class_of(w), []).append(w)
    for cls, members in by_class.items():
        for g in (1, 2, 3):
            targets = {hk.class_of(w + (g,)) for w in members}
            assert targets == {hk.action[cls][g - 1]}
    for cls in range(hk.size):
        for g in range(3):
            once = hk.action[cls][g]
            assert hk.action[once][g] == once


def test_dual_agreement_on_all_small_dags():
    from kiselman.conjectures import enumerate_dags

    for dag in enumerate_dags(3).items:
        hk = enumerate_hk(dag)
        size_b, reps_b = kn_quotient_classes(hk.presentation)
        assert hk.size == size_b
        assert frozenset(hk.representatives) == reps_b


def test_dual_agreement_on_all_five_vertex_dags():
    from kiselman.conjectures import enumerate_dags

    k5 = enumerate_kn(5)
    dags = [dag for dag in enumerate_dags(5).items if dag.n == 5]
    assert len(dags) == 302
    # enumerate_hk raises unless both algorithms find the same classes;
    # the total was measured with the swap-seeding algorithm B
    sizes = [enumerate_hk(dag, kn=k5).size for dag in dags]
    assert (sum(sizes), min(sizes), max(sizes)) == (100010, 32, 1710)


def test_algorithm_b_matches_the_swap_seeding_reference():
    from kiselman.conjectures import enumerate_dags

    dags = list(enumerate_dags(4).items) + [Dag(5, [(1, 2), (2, 3), (3, 4), (4, 5)])]
    assert len(dags) == 41
    for dag in dags:
        hk = enumerate_hk(dag)
        size_b, reps_b = kn_quotient_classes(hk.presentation)
        assert (size_b, reps_b) == reference_kn_quotient(hk.presentation.graph)
        assert (size_b, reps_b) == (hk.size, frozenset(hk.representatives))


def test_a_prebuilt_kn_must_match_the_graph():
    dag = Dag(3, [(1, 2)])
    k3 = enumerate_kn(3)
    hk = enumerate_hk(dag)
    assert enumerate_hk(dag, kn=k3) == hk
    assert kn_quotient_classes(hk.presentation, k3) == (
        hk.size, frozenset(hk.representatives))
    with pytest.raises(ValueError, match="K_4, but the graph has 3 vertices"):
        enumerate_hk(dag, kn=enumerate_kn(4))
    with pytest.raises(ValueError, match="K_2, but the graph has 3 vertices"):
        kn_quotient_classes(HkPresentation.from_dag(dag), enumerate_kn(2))


def test_stats_count_what_both_enumerations_did():
    hk = enumerate_hk(complete_dag(4))
    stats = hk.stats
    assert stats["classes"] == hk.size == 115
    assert stats["cosets_defined"] - stats["coincidences"] == stats["classes"]
    assert stats["b_seeded_pairs"] == 0 and stats["b_merges"] == 0
    stats = enumerate_hk(Dag(3, [(1, 2)])).stats
    # |K_3| = 18; one edge and an isolated vertex give |K_2| * 2 = 10 classes
    assert stats["b_seeded_pairs"] == 2 and stats["b_merges"] == 18 - 10
    assert stats["cosets_defined"] - stats["coincidences"] == stats["classes"] == 10


def test_five_vertex_path_agrees_between_algorithms():
    # class representatives run to length 9 here
    hk = enumerate_hk(Dag(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
    size_b, reps_b = kn_quotient_classes(hk.presentation)
    assert hk.size == size_b == 132
    assert frozenset(hk.representatives) == reps_b
    assert max(len(r) for r in hk.representatives) == 9


def test_paths_and_edgeless_graphs_have_closed_form_counts():
    """Closed forms for two families, n = 1..5.

    The path on n vertices gives the Catalan monoid, of size C_(n+1) = 2, 5,
    14, 42, 132; the edgeless graph gives the free commutative idempotent
    monoid on n generators, of size 2^n.
    """
    for n in range(1, 6):
        kn = enumerate_kn(n)
        path = Dag(n, [(i, i + 1) for i in range(1, n)])
        assert enumerate_hk(path, kn=kn).size == math.comb(2 * n + 2, n + 1) // (n + 2)
        assert enumerate_hk(Dag(n, []), kn=kn).size == 2 ** n


def test_closed_table_satisfies_every_relation_from_every_class():
    dags = [
        Dag(3, [(1, 2), (2, 3)]),
        Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)]),
        Dag(4, [(4, 1), (2, 3)]),
        Dag(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
        complete_dag(4),
    ]
    for dag in dags:
        hk = enumerate_hk(dag)
        graph = hk.presentation.graph
        relations = [((i, i), (i,)) for i in range(1, dag.n + 1)]
        for i, j in itertools.combinations(range(1, dag.n + 1), 2):
            if graph.adjacent(i, j):
                i, j = (i, j) if graph.has_edge(i, j) else (j, i)
                relations += [((i, j, i), (i, j)), ((j, i, j), (i, j))]
            else:
                relations.append(((i, j), (j, i)))

        def fold(c, word):
            for g in word:
                c = hk.action[c][g - 1]
            return c

        for c in range(hk.size):
            for u, v in relations:
                assert fold(c, u) == fold(c, v)


def test_representatives_are_least_in_their_class():
    hk = enumerate_hk(Dag(3, [(1, 2)]))
    rng = random.Random(4)
    for _ in range(300):
        w = random_word(rng, 3, 7)
        rep = hk.representatives[hk.class_of(w)]
        c = canonical_form(hk.presentation.relabel_word(w))
        assert (len(rep), rep) <= (len(c), c)


def test_guards(monkeypatch):
    with pytest.raises(ResourceGuardError, match="7 vertices exceed MAX_VERTICES=6"):
        enumerate_hk(Dag(7, []))
    monkeypatch.setattr(errors, "MAX_COSETS", 81)  # the cosets this graph defines
    assert enumerate_hk(Dag(4, [(1, 2)])).stats["cosets_defined"] == 81
    monkeypatch.setattr(errors, "MAX_COSETS", 80)
    with pytest.raises(ResourceGuardError,
                       match="^Todd-Coxeter coset guard: 80 cosets defined reach "
                             "MAX_COSETS=80$"):
        enumerate_hk(Dag(4, [(1, 2)]))
    with pytest.raises(ValueError, match="start_length=5 is retired"):
        enumerate_hk(Dag(4, [(1, 2)]), start_length=5)
    with pytest.raises(ValueError):
        enumerate_hk(Dag(0, []))


def test_algorithm_b_runs_under_the_element_guard(monkeypatch):
    # Todd-Coxeter closes at 64 classes; B's K_6 overflows this cap
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 1000)
    started = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="^K_6 exceeds MAX_ELEMENTS=1000$"):
        enumerate_hk(Dag(6, []))
    assert time.perf_counter() - started < 1.0
