"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Each test prints a single summary line (visible with ``pytest -s``); the
pass/fail verdict is the test outcome itself.  Counted suites use fixed
seeds, so every run checks the same instances.
"""

import itertools
import random

from conftest import random_order_normal_form, random_word
from kiselman.canonical import (
    canonical_form,
    canonical_form_restricted,
    canonical_words,
    enumerate_kn,
    is_canonical,
)
from kiselman.conjectures import conjecture_sweep, enumerate_dags
from kiselman.hecke import enumerate_hk, kn_quotient_classes
from kiselman.sds import (
    Dag,
    UpdateSystem,
    check_hk_relations,
    complete_dag,
    random_update_system,
    reachable_states,
)
from kiselman.universal import (
    build_universal,
    exhaustive_words,
    random_words,
    star_state,
    verify_isomorphism,
    verify_theorem,
)
from kiselman.words import (
    STAR,
    delete,
    is_quasi_subword,
    is_subword,
    join,
    parse_word,
)

W = parse_word


def test_criterion_01_worked_examples():
    """Pinned values: the two-vertex system, the join, subword relations."""
    dag = Dag(2, [(1, 2)])
    sys2 = UpdateSystem(dag, [[0, 1, 2], [0, 1]],
                        [{(0,): 1, (1,): 2}, {(): 1}])
    s = (0, 0)
    assert sys2.evolve((), s) == (0, 0)
    assert sys2.evolve((1,), s) == (1, 0)
    assert sys2.evolve((2,), s) == (0, 1)
    assert sys2.evolve((1, 2), s) == (2, 1)
    assert sys2.evolve((2, 1), s) == (1, 1)
    monoid = sys2.dynamics_monoid()
    assert monoid.size == 5
    f_ij = sys2.evolution_table((1, 2))
    assert sys2.evolution_table((1, 2, 1)) == f_ij
    assert sys2.evolution_table((2, 1, 2)) == f_ij

    assert join(W("cbadc"), W("abdc")) == W("cbabdc")

    w = W("acaab")
    assert is_subword(W("aab"), w)
    assert is_quasi_subword(W("aaa"), w) and not is_subword(W("aaa"), w)
    assert not is_quasi_subword(W("abc"), w)
    print("criterion 1: worked examples reproduce exactly")


def test_criterion_02_confluence():
    """10^4 random words, n <= 6, length <= 14: random order = fixed order."""
    rng = random.Random(20240)
    failures = 0
    for _ in range(10_000):
        n = rng.randint(1, 6)
        w = random_word(rng, n, 14)
        if random_order_normal_form(w, rng) != canonical_form(w):
            failures += 1
    assert failures == 0
    print("criterion 2: confluence on 10000 random words, 0 failures")


def _count(label, generator, check, needed=1000, max_trials=400_000):
    """Run ``check`` on at least ``needed`` instances produced by ``generator``."""
    hits = 0
    trials = 0
    while hits < needed:
        trials += 1
        assert trials <= max_trials, f"{label}: instance generation starved"
        instance = generator()
        if instance is None:
            continue
        hits += 1
        assert check(*instance), f"{label} failed on {instance!r}"
    return hits


def test_criterion_03_lemma_suite():
    """Nine word-combinatorics facts, >= 1000 generated instances each."""
    rng = random.Random(31337)
    counts = {}

    def gen_pair():
        return random_word(rng, 5, 9), random_word(rng, 5, 9)

    counts["product-reduction"] = _count(
        "product-reduction", gen_pair,
        lambda u, v: canonical_form(u + v)
        == canonical_form(canonical_form(u) + v)
        == canonical_form(u + canonical_form(v))
        == canonical_form(canonical_form(u) + canonical_form(v)),
    )

    def gen_word_and_letter():
        return random_word(rng, 5, 10), rng.randint(1, 5)

    from kiselman.words import truncate

    counts["truncate-restrict"] = _count(
        "truncate-restrict", gen_word_and_letter,
        lambda w, i: truncate(canonical_form_restricted(w, i), i)
        == canonical_form_restricted(truncate(w, i), i),
    )

    counts["restrict-of-reduced"] = _count(
        "restrict-of-reduced", gen_word_and_letter,
        lambda w, k: canonical_form_restricted(w, k)
        == canonical_form_restricted(canonical_form(w), k)
        and is_quasi_subword(canonical_form_restricted(w, k), canonical_form(w)),
    )

    def gen_split_at_one():
        c = canonical_form(random_word(rng, 4, 10))
        if 1 not in c:
            return None
        p = c.index(1)
        return c[:p], c[p + 1:]

    counts["prefix-after-drop"] = _count(
        "prefix-after-drop", gen_split_at_one,
        lambda u, v: canonical_form(u + v)[:len(u)] == u,
    )

    def gen_high_prefix_split():
        c = canonical_form(random_word(rng, 5, 10))
        spots = [p for p, j in enumerate(c) if p > 0 and min(c[:p]) > j]
        if not spots:
            return None
        p = rng.choice(spots)
        u, v, j = c[:p], c[p + 1:], c[p]
        k = rng.randint(j + 1, min(u))
        return u, j, v, k

    counts["insert-restricted"] = _count(
        "insert-restricted", gen_high_prefix_split,
        lambda u, j, v, k: is_canonical(u + (j,) + canonical_form_restricted(v, k)),
    )

    high = [3, 4, 5]

    def gen_low_pair_i():
        u = random_word(rng, 5, 3, high)
        v = random_word(rng, 5, 3, high)
        vp = random_word(rng, 5, 3, high)
        w = u + (1,) + v + (2,) + vp
        return (u, v, vp) if is_canonical(w) else None

    def gen_low_pair_ii():
        u = random_word(rng, 5, 3, high)
        v = random_word(rng, 5, 3, high)
        vp = random_word(rng, 5, 3, high)
        w = u + (2,) + v + (1,) + vp
        return (u, v, vp) if is_canonical(w) else None

    def gen_low_pair_iii():
        u = random_word(rng, 5, 2, high)
        up = random_word(rng, 5, 2, high)
        v = random_word(rng, 5, 2, high)
        vp = random_word(rng, 5, 2, high)
        w = u + (2,) + up + (1,) + v + (2,) + vp
        return (u, up, v, vp) if is_canonical(w) else None

    counts["two-low-letters"] = (
        _count("two-low-letters (i)", gen_low_pair_i,
               lambda u, v, vp: is_canonical(u + (1,) + canonical_form(v + vp)),
               needed=350)
        + _count("two-low-letters (ii)", gen_low_pair_ii,
                 lambda u, v, vp: is_canonical(u + (2,) + canonical_form(v + vp)),
                 needed=350)
        + _count("two-low-letters (iii)", gen_low_pair_iii,
                 lambda u, up, v, vp: is_canonical(
                     u + (2,) + up + (1,) + canonical_form(v + vp))
                 and is_canonical(u + (2,) + canonical_form(up + v + vp)),
                 needed=350)
    )

    def gen_technical():
        j = rng.randint(1, 3)
        pool = range(j + 1, 6)
        u = random_word(rng, 5, 4, pool)
        v = random_word(rng, 5, 4, pool)
        if not is_canonical(u + (j,) + canonical_form(v)):
            return None
        return u, j, v

    counts["join-undoes-reduction"] = _count(
        "join-undoes-reduction", gen_technical,
        lambda u, j, v: join(canonical_form(u + v), v) == u + v
        and join(canonical_form(u + v), (j,) + v) == u + (j,) + v,
    )

    def gen_common_prefix():
        u = random_word(rng, 3, 4)
        x = random_word(rng, 3, 2)
        y = random_word(rng, 3, 8)
        return (u, x, y) if is_quasi_subword(u + x, u + y) else None

    counts["prefix-cancellation"] = _count(
        "prefix-cancellation", gen_common_prefix,
        lambda u, x, y: is_quasi_subword(x, y),
    )

    def gen_deletion_sets():
        w = random_word(rng, 6, 12)
        i = {x for x in range(1, 7) if rng.random() < 0.4}
        j = {x for x in range(1, 7) if rng.random() < 0.4}
        u = random_word(rng, 6, 6)
        return w, i, j, u

    counts["deletion-composition"] = _count(
        "deletion-composition", gen_deletion_sets,
        lambda w, i, j, u: delete(delete(w, j), i) == delete(w, i | j)
        and delete(w + u, i) == delete(w, i) + delete(u, i),
    )

    assert all(c >= 1000 for c in counts.values()), counts
    print("criterion 3: lemma suite instance counts " + str(counts))


def test_criterion_04_main_theorem_exhaustive():
    """All words of length <= 8 over n <= 4 vertices, zero counterexamples."""
    total = 0
    for n in (1, 2, 3, 4):
        report = verify_theorem(n, exhaustive_words(n, 8))
        assert report.ok, report.counterexamples[:3]
        total += report.checked
    assert total == sum(sum(n ** k for k in range(9)) for n in (1, 2, 3, 4))
    print(f"criterion 4: exhaustive main-theorem check on {total} words, "
          "0 counterexamples")


def test_criterion_05_main_theorem_randomized():
    """n = 5, 10^5 random words of length <= 20, zero counterexamples."""
    report = verify_theorem(5, random_words(5, 100_000, 20, seed=20250))
    assert report.checked == 100_000
    assert report.ok, report.counterexamples[:3]
    print("criterion 5: randomized main-theorem check on 100000 words, "
          "0 counterexamples")


def test_criterion_06_isomorphism_counts():
    """|D| of the universal system equals |K_n|, certified two ways.

    For n = 1..5, ``verify_isomorphism``: the relations of K_n hold, so
    |D| <= |K_n|, and the orbit of all-STAR reaches |K_n| states, so
    |D| >= |K_n|.  For n <= 4 the full closure of D counts it directly, K_n
    doubly counted.  At n = 6 only the lower bound is checked: the orbit of
    all-STAR has |K_6| = 83,973 states.  The upper bound there rests on the
    paper's theorem, since the relation tables over the 219,668,652 states
    of the universal system are refused by the state guard.
    """
    sizes = {}
    for n in (1, 2, 3, 4, 5):
        report = verify_isomorphism(n)
        assert report.ok and report.orbit_size == report.kn_size
        sizes[n] = report.kn_size
    for n in (1, 2, 3, 4):
        monoid = enumerate_kn(n)
        direct = set(canonical_words(n, monoid.max_word_length + 2))
        assert direct == set(monoid)
        dynamics = build_universal(n).system.dynamics_monoid()
        assert dynamics.size == len(monoid) == sizes[n]
    assert sizes == {1: 2, 2: 5, 3: 18, 4: 115, 5: 1710}
    orbit6 = reachable_states(build_universal(6).system, star_state(6))
    assert len(orbit6) == 83973 == len(enumerate_kn(6))
    print(f"criterion 6: |D| = |K_n| for n=1..5, sizes {sizes}; "
          f"orbit of all-STAR at n=6: {len(orbit6)}")


def test_criterion_07_hk_dual_agreement():
    """Both enumerations agree on every DAG with <= 4 vertices."""
    checked = 0
    for dag in enumerate_dags(4).items:
        hk = enumerate_hk(dag)  # raises on A/B disagreement
        size_b, reps_b = kn_quotient_classes(hk.presentation)
        assert hk.size == size_b
        assert frozenset(hk.representatives) == reps_b
        checked += 1
    assert checked == 40
    for n in (1, 2, 3, 4):
        assert enumerate_hk(complete_dag(n)).size == len(enumerate_kn(n))
    print("criterion 7: dual enumeration agreement on all 40 DAGs, "
          "complete graphs match |K_n|")


def test_criterion_08_conjecture_sweep():
    """Sweep all <= 4-vertex DAGs; relations and quotient ordering are hard,
    the match rate is the reproduction target and is reported.

    The join-based construction matches |HK| on 38 of 40 classes; the two
    diamond-shaped graphs (1->2, 1->3, 2->4, 3->4, optionally plus 1->4)
    fall short by one element.  The product of the join-based system with a
    seeded random system realises HK on both graphs, as certified in
    ``test_conjectures.py::test_diamond_graph_separates_this_construction_from_hk``,
    so the result reflects this construction rather than the conjecture
    itself.
    """
    report = conjecture_sweep(max_vertices=4)
    assert report.skips == 0
    for row in report.rows:
        assert row.quotient_ok
        assert row.dynamics_size <= row.hk_size
    assert report.matched + report.mismatched == 40
    assert report.matched == 38 and report.mismatched == 2
    mism = [r for r in report.rows if not r.match]
    assert all(r.hk_size - r.dynamics_size == 1 for r in mism)
    print(f"criterion 8: sweep match rate {report.matched}/40; "
          f"mismatches {[r.dag.sorted_edges() for r in mism]} "
          "(one element short each, expected for this construction)")


def test_criterion_09_random_relation_check():
    """100 random systems on random DAGs (<= 5 vertices, <= 3 states)."""
    rng = random.Random(977)
    for seed in range(100):
        n = rng.randint(1, 5)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        dag = Dag(n, [p for p in pairs if rng.random() < 0.5])
        sys = random_update_system(dag, 3, seed)
        report = check_hk_relations(sys)
        assert report.ok, (dag, seed, report.failures())
    print("criterion 9: relations hold on 100 random systems, 0 failures")


def test_criterion_10_kn_census():
    """|K_n| and the longest canonical word for n = 1..6, by the closure.

    The bound on canonical length is what makes the online reduction in
    ``canonical_form`` linear in the length of the word.
    """
    census = {}
    for n in range(1, 7):
        monoid = enumerate_kn(n)
        assert all(is_canonical(c) for c in monoid)
        census[n] = (len(monoid), monoid.max_word_length)
    assert census == {1: (2, 1), 2: (5, 2), 3: (18, 4), 4: (115, 6),
                      5: (1710, 10), 6: (83973, 14)}
    print(f"criterion 10: (|K_n|, longest canonical word) for n=1..6: {census}")
