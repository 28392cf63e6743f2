import random

import pytest
from hypothesis import given, settings

from conftest import (
    reference_build_universal_dag,
    reference_canonical_form_restricted,
    reference_truncate,
    random_word,
    words_over,
)
from kiselman.canonical import (
    canonical_form,
    canonical_form_restricted,
    canonical_words,
    is_canonical,
)
from kiselman.conjectures import enumerate_dags
from kiselman.errors import ResourceGuardError
from kiselman import errors, universal
from kiselman.sds import (
    Dag,
    UpdateSystem,
    check_hk_relations,
    complete_dag,
    random_update_system,
    reachable_states,
)
from kiselman.universal import (
    UniversalSystem,
    build_universal,
    build_universal_dag,
    exhaustive_words,
    fold_join,
    predicted_state,
    random_words,
    reconstruct_canonical,
    star_state,
    verify_isomorphism,
    verify_theorem,
)
from kiselman.words import STAR, head, truncate, truncate_set


def test_fold_join_basics():
    assert fold_join([]) == STAR
    assert fold_join([(2, 3)]) == (2, 3)
    assert fold_join([STAR, STAR, STAR]) == STAR
    # vertices 2, 3 of a three-vertex system: [s_3, s_2]
    assert fold_join([(2, 3), (3,)]) == (2, 3)


@pytest.fixture(scope="module")
def u4():
    return build_universal(4)


def test_build_universal_small_state_sets():
    u1 = build_universal(1)
    assert u1.n == 1
    assert u1.system.state_sets == (((), (1,)),)
    assert u1.system.vertex_functions[0][()] == (1,)
    u2 = build_universal(2)
    assert u2.system.state_sets[1] == ((), (2,))
    assert u2.system.state_sets[0] == ((), (1,), (1, 2))


def test_build_universal_state_set_sizes():
    sizes = {n: tuple(len(s) for s in build_universal(n).system.state_sets)
             for n in range(1, 7)}
    assert sizes == {
        1: (2,),
        2: (3, 2),
        3: (6, 3, 2),
        4: (19, 6, 3, 2),
        5: (123, 19, 6, 3, 2),
        6: (2611, 123, 19, 6, 3, 2),
    }


@pytest.fixture(scope="module")
def u6():
    return build_universal(6)


def test_build_universal_tables_fold_their_arguments(u6):
    for n in (1, 2, 3, 4, 5):
        usys = build_universal(n)
        assert usys.system.graph == complete_dag(n)
        for v, table in enumerate(usys.system.vertex_functions, start=1):
            for args, out in table.items():
                assert len(args) == n - v
                assert out == (v,) + fold_join(args)
    # at n = 6, every distinct output and a seeded sample of vertex 1's rows
    first = u6.system.vertex_functions[0]
    by_output = {}
    for args, out in first.items():
        by_output.setdefault(out, args)
    assert all(out == (1,) + fold_join(args) for out, args in by_output.items())
    rows = list(first.items())
    for args, out in random.Random(6).sample(rows, 2000):
        assert len(args) == 5 and out == (1,) + fold_join(args)


def _assert_same_system(built, reference):
    """Equal state sets, and equal tables with their rows in the same order."""
    assert built.graph == reference.graph
    assert built.state_sets == reference.state_sets
    for table, ref in zip(built.vertex_functions, reference.vertex_functions):
        assert list(table.items()) == list(ref.items())


def test_build_universal_dag_matches_the_row_by_row_builder():
    five = [dag for dag in enumerate_dags(5).items if dag.n == 5]
    dags = [
        *enumerate_dags(4).items,
        complete_dag(5),
        Dag(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
        *random.Random(5).sample(five, 30),
        Dag(4, [(4, 2), (2, 1), (3, 1), (4, 3)]),  # not topologically labelled
    ]
    for dag in dags:
        _assert_same_system(build_universal_dag(dag), reference_build_universal_dag(dag))


def test_build_universal_interns_one_output_per_distinct_fold(u6):
    for n in (3, 5):
        usys = build_universal(n)
        for table in usys.system.vertex_functions:
            assert len({id(o) for o in table.values()}) == len(set(table.values()))
    for v, table in enumerate(u6.system.vertex_functions, start=1):
        distinct = len(set(table.values()))
        assert len({id(o) for o in table.values()}) == distinct
        assert distinct == len(u6.system.state_sets[v - 1]) - 1  # all but STAR


def test_build_universal_counts_head_one_canonical_words():
    u3 = build_universal(3)
    head_one = [w for w in canonical_words(3, 6) if w and head(w) == 1]
    assert len(u3.system.state_sets[0]) == len(head_one) + 1


def test_build_universal_tables_close_into_state_sets(u4):
    for v in range(1, 5):
        pool = set(u4.system.state_sets[v - 1])
        for out in u4.system.vertex_functions[v - 1].values():
            assert out in pool


def test_build_universal_guard():
    with pytest.raises(ResourceGuardError, match="MAX_PRODUCT=1000000"):
        build_universal(7)
    with pytest.raises(ValueError):
        build_universal(0)


def test_build_universal_guard_fires_before_any_table_is_built(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a table was built before every guard was checked")

    monkeypatch.setattr(universal, "_vertex_table", no_rows)
    with pytest.raises(ResourceGuardError) as exc:
        build_universal(7)
    assert str(exc.value) == "vertex 1 table needs 219668652 rows, over MAX_PRODUCT=1000000"
    # the guard of every vertex comes first, even of the last one built
    monkeypatch.setattr(errors, "MAX_PRODUCT", 5)
    with pytest.raises(ResourceGuardError,
                       match="vertex 1 table needs 6 rows, over MAX_PRODUCT=5"):
        build_universal_dag(complete_dag(3))


def test_build_universal_accepts_a_table_at_the_row_guard(monkeypatch):
    monkeypatch.setattr(errors, "MAX_PRODUCT", 6)  # vertex 1 of Gamma_3 has 6 rows
    assert len(build_universal_dag(complete_dag(3)).vertex_functions[0]) == 6


def test_predicted_state_examples():
    assert predicted_state((2, 1), 2).components == ((1,), (2,))
    assert predicted_state((1, 2), 2).components == ((1, 2), (2,))
    assert predicted_state(STAR, 3).components == (STAR, STAR, STAR)


@given(words_over(4, 10))
def test_predicted_state_invariants(w):
    for i, p in enumerate(predicted_state(w, 4).components, start=1):
        assert all(x >= i for x in p)
        assert is_canonical(p)


def test_reconstruct_examples():
    assert reconstruct_canonical(predicted_state((1, 2), 2).components) == (1, 2)
    assert reconstruct_canonical(((1,), (2,))) == (2, 1)
    assert reconstruct_canonical((STAR, STAR)) == STAR


def test_theorem_exhaustive_small():
    for n in (1, 2, 3):
        report = verify_theorem(n, exhaustive_words(n, 6))
        assert report.ok
        assert report.checked == sum(n ** k for k in range(7))


def test_theorem_randomized_smoke():
    report = verify_theorem(4, random_words(4, 300, 14, seed=5))
    assert report.ok and report.checked == 300


def test_theorem_on_the_empty_word():
    report = verify_theorem(3, [STAR])
    assert report.ok


def test_theorem_verification_reports_counterexamples():
    from kiselman.sds import UpdateSystem
    from kiselman.universal import UniversalSystem

    good = build_universal(2)
    tables = [dict(t) for t in good.system.vertex_functions]
    tables[0][((2,),)] = (1,)  # break f_1 on one argument
    broken = UniversalSystem(
        UpdateSystem(good.system.graph, good.system.state_sets, tables)
    )
    report = verify_theorem(2, exhaustive_words(2, 4), system=broken)
    assert not report.ok
    assert any(ce["kind"] == "vertex-states" for ce in report.counterexamples)
    with pytest.raises(ValueError):
        verify_theorem(3, [STAR], system=good)


def test_theorem_verdicts_for_wrong_folds(monkeypatch):
    """A wrong full fold is a ``reconstruction``, a wrong partial one a ``partial-fold``.

    Each word that reaches the fold checks costs n - 1 joins: the full fold
    of check (b) is the last partial fold of check (c).
    """
    usys = build_universal(3)
    words = list(exhaustive_words(3, 3))
    bad = (2, 1, 3)
    real_canonical, real_truncate, real_join = (universal.canonical_form,
                                                universal.truncate_set,
                                                universal.join)
    joins = 0

    def counting_join(u, v):
        nonlocal joins
        joins += 1
        return real_join(u, v)

    monkeypatch.setattr(universal, "join", counting_join)
    assert verify_theorem(3, words, system=usys).ok
    assert joins == 2 * len(words)

    monkeypatch.setattr(universal, "canonical_form",
                        lambda w: real_canonical(w) + (1,) if w == bad else real_canonical(w))
    report = verify_theorem(3, words, system=usys)
    assert report.checked == len(words)
    assert report.counterexamples == [{"word": bad, "kind": "reconstruction"}]

    monkeypatch.setattr(universal, "canonical_form", real_canonical)
    for k in (1, 2):
        def wrong_at_k(w, letters, k=k):
            letters = tuple(letters)
            out = real_truncate(w, letters)
            return out + (9,) if letters == tuple(range(1, k + 1)) and w == (1, 2, 3) else out

        monkeypatch.setattr(universal, "truncate_set", wrong_at_k)
        report = verify_theorem(3, words, system=usys)
        assert report.counterexamples == [{"word": (1, 2, 3), "kind": "partial-fold", "k": k}]
    assert report.to_json()["counterexamples"] == [{"word": "abc", "kind": "partial-fold", "k": 2}]


def test_theorem_stats_count_steps_and_joins():
    """Every word applies one local map per letter; a word that reaches the
    fold checks costs n - 1 joins, and one whose vertex states fail none."""
    words = list(exhaustive_words(3, 3))
    report = verify_theorem(3, words, system=build_universal(3))
    assert report.stats == {"steps": sum(map(len, words)), "joins": 2 * len(words)}

    good = build_universal(2).system
    tables = [dict(t) for t in good.vertex_functions]
    tables[0][((2,),)] = (1,)
    broken = UpdateSystem(good.graph, good.state_sets, tables)
    words = list(exhaustive_words(2, 4))
    failing = sum(broken.evolve(w, star_state(2)) != predicted_state(w, 2).components
                  for w in words)
    report = verify_theorem(2, words, system=UniversalSystem(broken))
    assert 0 < failing < len(words)
    assert report.stats == {"steps": sum(map(len, words)), "joins": len(words) - failing}


def _layer_words():
    for n in (1, 2, 3, 4):
        yield pytest.param(n, lambda n=n: exhaustive_words(n, 7), id=f"n{n}-exhaustive")
    yield pytest.param(6, lambda: random_words(6, 2000, 40, seed=6), id="n6-random")


@pytest.mark.parametrize("n, words", _layer_words())
def test_word_layers_match_their_definitions(n, words):
    """``truncate``, ``canonical_form_restricted`` and ``predicted_state``
    against the reference definitions of ``conftest``."""
    for w in words():
        for a in range(1, n + 2):  # n + 1 never occurs
            assert truncate(w, a) == reference_truncate(w, a)
            assert canonical_form_restricted(w, a) == reference_canonical_form_restricted(w, a)
        assert predicted_state(w, n).components == tuple(
            reference_canonical_form_restricted(reference_truncate(w, i), i)
            for i in range(1, n + 1))


@settings(max_examples=80, deadline=None)
@given(words_over(4, 10))
def test_fold_up_to_the_head_already_recovers_the_canonical_form(u4, w):
    evolved = u4.system.evolve(w, star_state(4))
    canw = canonical_form(w)
    if not canw:
        return
    j = head(canw)
    assert fold_join(evolved[:j]) == canw


@settings(max_examples=80, deadline=None)
@given(words_over(4, 10))
def test_partial_folds_are_truncations(u4, w):
    evolved = u4.system.evolve(w, star_state(4))
    canw = canonical_form(w)
    for k in range(1, 5):
        assert fold_join(evolved[:k]) == truncate_set(canw, range(1, k + 1))


def test_every_reachable_state_is_canonical():
    for n in (2, 3, 4):
        usys = build_universal(n)
        for state in reachable_states(usys.system, star_state(n)):
            for p in state:
                assert is_canonical(p)


def test_isomorphism_small():
    for n, size in ((1, 2), (2, 5), (3, 18), (4, 115)):
        report = verify_isomorphism(n)
        assert report.ok and report.failures == []
        assert report.kn_size == report.orbit_size == size
        # the orbit is taken from the initial state, which must be all-STAR
        assert build_universal(n).system.initial_state() == star_state(n)


def _certify(monkeypatch, system):
    """``verify_isomorphism`` run on ``system`` in place of the universal one."""
    monkeypatch.setattr(universal, "build_universal", lambda n: UniversalSystem(system))
    return verify_isomorphism(system.graph.n)


class _OneRowAltered(UpdateSystem):
    """F_1 sends all-STAR to (STAR, b, STAR), so it is no longer idempotent."""

    def local_table(self, i):
        table = super().local_table(i)
        if i != 1:
            return table
        return (self.state_index((STAR, (2,), STAR)),) + table[1:]


def test_isomorphism_certificate_flags_an_altered_system(monkeypatch):
    base = build_universal(3).system
    altered = _OneRowAltered(base.graph, base.state_sets, base.vertex_functions)
    report = _certify(monkeypatch, altered)
    assert not report.ok and report.orbit_size == report.kn_size == 18
    assert {"kind": "idempotent", "vertices": [1]} in report.failures
    # the relations of K_3 fail where the edges 3 -> 2, 3 -> 1, 2 -> 1 run
    # backwards, though the system satisfies those of its own graph
    reversed_system = random_update_system(Dag(3, [(2, 1), (3, 1), (3, 2)]), 3, 3)
    assert check_hk_relations(reversed_system).ok
    report = _certify(monkeypatch, reversed_system)
    assert report.failures == [{"kind": "edge-triple", "vertices": [2, 3]}]
    assert not report.ok


def test_isomorphism_certificate_refuses_a_proper_quotient(monkeypatch):
    """Every system on the complete graph is a quotient of K_n: its
    relations all hold, and only the orbit's size tells it apart."""
    for seed, size in ((0, 10), (1, 5), (2, 2)):
        system = random_update_system(complete_dag(4), 3, seed)
        assert system.dynamics_monoid().size == size
        report = _certify(monkeypatch, system)
        assert report.failures == []
        assert report.orbit_size < 115 == report.kn_size
        assert not report.ok


def test_random_words_is_reproducible():
    a = list(random_words(4, 50, 10, seed=9))
    b = list(random_words(4, 50, 10, seed=9))
    assert a == b
    assert all(len(w) <= 10 and all(1 <= x <= 4 for x in w) for w in a)


def test_report_json_rendering():
    report = verify_theorem(2, exhaustive_words(2, 4))
    blob = report.to_json()
    assert set(blob) == {"n", "checked", "counterexamples", "stats"}
    assert blob["n"] == 2 and blob["checked"] == report.checked
