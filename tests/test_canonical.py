import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    is_canonical_all_spans,
    leftmost_normal_form,
    random_order_normal_form,
    random_word,
    reference_closure,
    reference_extend_canonical,
    words_over,
)
from kiselman import canonical, errors
from kiselman.canonical import (
    canonical_form,
    canonical_form_restricted,
    canonical_words,
    enumerate_kn,
    extend_canonical,
    is_canonical,
    multiply,
    simplifications,
)
from kiselman.errors import ResourceGuardError
from kiselman.words import STAR, delete, is_quasi_subword, parse_word, truncate

W = parse_word


def test_is_canonical_examples():
    assert not is_canonical((1, 2, 1))
    assert is_canonical((2, 1, 3, 2))
    assert is_canonical(STAR)
    assert is_canonical((3,))


@given(words_over(4, 9))
def test_is_canonical_matches_the_all_spans_check(w):
    assert is_canonical(w) == is_canonical_all_spans(w)


def test_simplifications_on_the_worked_sequence():
    w = W("bdbcdabcdc")
    for shorter in (W("bdbcabcdc"), W("bbcabcdc"), W("bcabcdc")):
        assert shorter in simplifications(w)
        w = shorter


@pytest.mark.parametrize("call, message", [
    (lambda: canonical_form_restricted((1, 2), 0), "k is a 1-based letter index"),
    (lambda: list(canonical_words(0, 3)), "alphabet size must be at least 1"),
])
def test_boundary_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_simplifications_examples():
    assert list(simplifications((1, 2, 1))) == [(1, 2)]  # ALL_LARGER
    assert list(simplifications((2, 1, 2))) == [(1, 2)]  # ALL_SMALLER
    assert list(simplifications((1, 1))) == [(1,)]  # ADJACENT
    assert list(simplifications((1, 2, 1, 1))) == [(1, 2, 1), (1, 2, 1)]
    assert list(simplifications((2, 1, 3, 2))) == []


@given(words_over(5, 12))
def test_no_simplification_means_canonical(w):
    steps = list(simplifications(w))
    assert (not steps) == is_canonical(w)
    for shorter in steps:
        assert len(shorter) == len(w) - 1
        assert is_quasi_subword(shorter, w)


@given(words_over(5, 12))
def test_every_simplification_keeps_the_class(w):
    c = canonical_form(w)
    for shorter in simplifications(w):
        assert canonical_form(shorter) == c


def test_canonical_form_examples():
    assert canonical_form((1, 2, 1)) == (1, 2)
    assert canonical_form((2, 1, 2)) == (1, 2)
    assert canonical_form(W("bdbcdabcdc")) == W("abcd")
    assert canonical_form(STAR) == STAR
    assert canonical_form((2, 1, 3, 2)) == (2, 1, 3, 2)


def test_random_order_simplification_agrees_on_the_worked_example():
    rng = random.Random(7)
    for _ in range(60):
        assert random_order_normal_form(W("bdbcdabcdc"), rng) == W("abcd")


def test_confluence_on_random_words():
    rng = random.Random(99)
    for _ in range(400):
        n = rng.randint(1, 6)
        w = random_word(rng, n, 12)
        assert random_order_normal_form(w, rng) == canonical_form(w)


def _long_word(rng, n, low, high):
    return tuple(rng.randint(1, n) for _ in range(rng.randint(low, high)))


@pytest.mark.parametrize("n", (6, 10, 26))
def test_online_reduction_agrees_with_both_oracles_on_long_words(n):
    """Words of 100-400 letters, where the ALL_SMALLER re-feed nests: on these
    words it runs up to 5 levels deep at n = 6, 9 at n = 10 and 11 at n = 26."""
    rng = random.Random(1000 + n)
    for _ in range(8):
        w = _long_word(rng, n, 100, 400)
        c = canonical_form(w)
        assert is_canonical(c)
        assert c == leftmost_normal_form(w)
        assert c == random_order_normal_form(w, rng)


def test_extend_canonical_cases():
    assert extend_canonical((2, 1), (3,)) == (2, 1, 3)  # no earlier 3
    assert extend_canonical((1, 2), (2,)) == (1, 2)  # ADJACENT
    assert extend_canonical((1, 2, 3), (1,)) == (1, 2, 3)  # ALL_LARGER
    assert extend_canonical((2, 1, 3), (2,)) == (2, 1, 3, 2)  # special pair
    # ALL_SMALLER, and re-reading 1 2 3 after (2,) meets ALL_SMALLER again
    assert is_canonical((2, 3, 1, 2))
    assert extend_canonical((2, 3, 1, 2), (3,)) == (1, 2, 3)
    assert leftmost_normal_form((2, 3, 1, 2, 3)) == (1, 2, 3)
    assert extend_canonical((), iter((1, 2, 1))) == (1, 2)


@pytest.fixture(scope="module")
def prefixes():
    """Canonical prefixes: every element of K_4 and the longest of K_6."""
    return list(enumerate_kn(4).canons) + [enumerate_kn(6).canons[-1]]


@pytest.mark.parametrize("n", (3, 6, 26))
def test_extend_canonical_matches_the_reference(n, prefixes):
    """Long words, where the prefix soon stops changing and most letters are
    dropped by the remembered set, then short ones, where it changes on most
    reads; half of them also use the letters 0 and -1, below every prefix
    letter."""
    assert len(prefixes[-1]) == 14  # L_6
    rng = random.Random(2000 + n)
    for k in range(6):
        pool = list(range(1, n + 1)) + ([0, -1] if k % 2 else [])
        c = prefixes[-1] if k < 2 else rng.choice(prefixes)
        v = tuple(rng.choice(pool) for _ in range(rng.randint(1000, 20000)))
        assert extend_canonical(c, v) == reference_extend_canonical(c, v)
    for k in range(2000):
        pool = list(range(1, n + 1)) + ([0, -1] if k % 2 else [])
        c = rng.choice(prefixes)
        v = tuple(rng.choice(pool) for _ in range(rng.randint(0, 30)))
        assert extend_canonical(c, v) == reference_extend_canonical(c, v)
    assert canonical_form((0, -1, 0)) == (-1, 0)


def test_products_agree_with_reducing_the_concatenation():
    rng = random.Random(41)
    for n in (6, 10, 26):
        for _ in range(10):
            u, v = _long_word(rng, n, 0, 200), _long_word(rng, n, 0, 200)
            expected = leftmost_normal_form(u + v)
            assert canonical_form(u + v) == expected
            assert multiply(u, v) == expected
    k5 = enumerate_kn(5).canons
    for _ in range(2000):
        a, b = rng.choice(k5), rng.choice(k5)
        assert multiply(a, b) == leftmost_normal_form(a + b)


@given(words_over(5, 12))
def test_canonical_form_properties(w):
    c = canonical_form(w)
    assert is_canonical(c)
    assert canonical_form(c) == c
    assert is_quasi_subword(c, w)
    assert set(c) == set(w)


@given(words_over(5, 12))
def test_extreme_letters_appear_at_most_once(w):
    c = canonical_form(w)
    if c:
        assert c.count(min(c)) == 1
        assert c.count(max(c)) == 1


def test_canonical_form_restricted_examples():
    assert canonical_form_restricted((1, 2, 1, 2), 2) == (2,)
    w = W("bdbcdabcdc")
    assert canonical_form_restricted(w, 1) == canonical_form(w)
    assert canonical_form_restricted((1, 1, 2), 3) == STAR


@given(words_over(5, 10), st.integers(1, 5))
def test_restriction_commutes_with_truncation(w, i):
    left = truncate(canonical_form_restricted(w, i), i)
    right = canonical_form_restricted(truncate(w, i), i)
    assert left == right


@given(words_over(5, 10), st.integers(1, 5))
def test_restriction_is_blind_to_simplification(w, k):
    c = canonical_form(w)
    restricted = canonical_form_restricted(w, k)
    assert restricted == canonical_form_restricted(c, k)
    assert is_quasi_subword(restricted, c)


@given(words_over(5, 8), words_over(5, 8))
def test_reduction_is_constant_on_products(u, v):
    c = canonical_form(u + v)
    assert c == canonical_form(canonical_form(u) + v)
    assert c == canonical_form(u + canonical_form(v))
    assert c == canonical_form(canonical_form(u) + canonical_form(v))


@given(st.integers(2, 5), words_over(5, 8))
def test_outside_letters_pass_through_reduction(h, u):
    # words over [h, k] prefixed by a letter outside the band
    k = 5
    u = tuple(x for x in u if h <= x <= k)
    for j in list(range(1, h)) + [6]:
        assert canonical_form((j,) + u) == (j,) + canonical_form(u)
        assert is_canonical((j,) + u) == is_canonical(u)


def test_multiply_examples():
    assert multiply((1,), (1,)) == (1,)
    assert multiply((1, 2), (1,)) == (1, 2)
    assert multiply((2, 1), (2,)) == (1, 2)


def test_enumerate_kn_small():
    k1 = enumerate_kn(1)
    assert set(k1) == {STAR, (1,)}
    k2 = enumerate_kn(2)
    assert set(k2) == {STAR, (1,), (2,), (1, 2), (2, 1)}
    assert len(k2) == 5


def test_enumerate_kn_guards(monkeypatch):
    with pytest.raises(ResourceGuardError,
                       match="vertex guard: 8 vertices exceed MAX_VERTICES=6"):
        enumerate_kn(8)
    # canonical_words, the independent enumeration, has the same guard
    with pytest.raises(ResourceGuardError,
                       match="^vertex guard: 7 vertices exceed MAX_VERTICES=6$"):
        next(canonical_words(7, 3))
    assert next(canonical_words(6, 3)) == STAR
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 20)
    with pytest.raises(ResourceGuardError, match="^K_4 exceeds MAX_ELEMENTS=20$"):
        enumerate_kn(4)
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 115)
    assert len(enumerate_kn(4)) == 115
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 114)
    with pytest.raises(ResourceGuardError, match="^K_4 exceeds MAX_ELEMENTS=114$"):
        enumerate_kn(4)
    with pytest.raises(ValueError):
        enumerate_kn(0)
    monkeypatch.setattr(errors, "MAX_VERTICES", 2)
    assert len(enumerate_kn(2)) == 5
    with pytest.raises(ResourceGuardError,
                       match="vertex guard: 3 vertices exceed MAX_VERTICES=2"):
        enumerate_kn(3)
    monkeypatch.setattr(errors, "MAX_VERTICES", 6)

    def unclosed(*args):
        raise AssertionError("the closure started before the alphabet guard")

    monkeypatch.setattr(canonical, "froidure_pin", unclosed)
    with pytest.raises(ResourceGuardError,
                       match="vertex guard: 7 vertices exceed MAX_VERTICES=6"):
        enumerate_kn(7)


def test_enumerate_kn_lists_canonical_words_in_shortlex_order():
    for n in range(1, 6):
        canons = list(enumerate_kn(n))
        assert canons == sorted(canons, key=lambda w: (len(w), w))
        reference = reference_closure(STAR, [(g,) for g in range(1, n + 1)],
                                      lambda w, g: canonical_form(w + g))
        assert canons == [w for w, _ in reference]
        # breadth first finds the shortlex-least word of each class first
        assert all(w == word for w, word in reference)


def test_enumerate_kn_keeps_both_cayley_graphs():
    for n in range(1, 6):
        monoid = enumerate_kn(n)
        assert len(monoid.right) == len(monoid.left) == n * len(monoid)
        for u, c in enumerate(monoid):
            for g in range(1, n + 1):
                right = monoid.canons[monoid.right[u * n + g - 1]]
                left = monoid.canons[monoid.left[u * n + g - 1]]
                assert right == extend_canonical(c, (g,))
                assert left == canonical_form((g,) + c)


def test_enumerate_kn_matches_direct_generation():
    for n in (3, 4):
        monoid = enumerate_kn(n)
        margin = monoid.max_word_length + 2
        direct = set(canonical_words(n, margin))
        assert direct == set(monoid)
        assert max(len(w) for w in direct) == monoid.max_word_length


@pytest.mark.parametrize("n, max_len", [(1, 4), (3, 8), (4, 7)])
def test_canonical_words_match_generate_and_filter(n, max_len):
    everything = (w for length in range(max_len + 1)
                  for w in itertools.product(range(1, n + 1), repeat=length))
    assert list(canonical_words(n, max_len)) == [w for w in everything if is_canonical(w)]


def test_monoid_is_closed_under_multiplication():
    monoid = enumerate_kn(3)
    for a in monoid:
        for b in monoid:
            c = multiply(a, b)
            assert c in monoid.canons
            assert c == canonical_form(a + b)
    assert monoid.canons[0] == STAR
    assert all(multiply(STAR, c) == c == multiply(c, STAR) for c in monoid)


def test_canonical_words_contain_generators_and_identity():
    k3 = enumerate_kn(3)
    canons = set(k3)
    assert STAR in canons
    assert all((g,) in canons for g in (1, 2, 3))


def test_canonical_form_is_the_unique_shortest_in_its_fiber():
    """Group all words over 4 letters of length <= 8 by canonical form."""
    fibers = {}
    for length in range(9):
        for w in itertools.product((1, 2, 3, 4), repeat=length):
            fibers.setdefault(canonical_form(w), []).append(w)
    for canon, members in fibers.items():
        shortest = min(len(w) for w in members)
        assert len(canon) == shortest
        assert sum(1 for w in members if len(w) == shortest) == 1


def test_prefix_survives_removing_a_bottom_letter():
    """If u.a1.v is canonical, reducing u.v keeps u as a prefix."""
    rng = random.Random(3)
    seen = 0
    while seen < 150:
        c = canonical_form(random_word(rng, 4, 10))
        if 1 not in c:
            continue
        seen += 1
        p = c.index(1)
        u, v = c[:p], c[p + 1:]
        assert canonical_form(u + v)[:len(u)] == u


@settings(max_examples=60)
@given(words_over(5, 10), st.data())
def test_restricted_reduction_preserves_canonicity_after_a_low_letter(w, data):
    c = canonical_form(w)
    spots = [p for p, j in enumerate(c) if p > 0 and min(c[:p]) > j]
    if not spots:
        return
    p = data.draw(st.sampled_from(spots))
    j = c[p]
    u, v = c[:p], c[p + 1:]
    k = data.draw(st.integers(j + 1, min(u)))
    assert is_canonical(u + (j,) + canonical_form_restricted(v, k))
