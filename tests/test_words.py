import random

import pytest
from hypothesis import given, strategies as st

from conftest import random_word, subsequence_oracle, words_over
from kiselman.words import (
    STAR,
    delete,
    format_word,
    head,
    is_quasi_subword,
    is_subword,
    is_suffix,
    join,
    parse_word,
    suffix_split,
    truncate,
    truncate_set,
)

W = parse_word


def test_head():
    assert head(W("acaab")) == 1
    assert head((3, 1, 2)) == 3
    with pytest.raises(ValueError):
        head(STAR)


def test_subword_and_quasi_subword_on_acaab():
    w = W("acaab")
    assert is_subword(W("aab"), w)
    assert is_quasi_subword(W("aab"), w)
    assert is_quasi_subword(W("aaa"), w) and not is_subword(W("aaa"), w)
    assert not is_subword(W("abc"), w) and not is_quasi_subword(W("abc"), w)
    assert is_subword(STAR, w)
    assert is_quasi_subword(w, w)


@given(words_over(3, 4), words_over(3, 7))
def test_quasi_subword_matches_brute_force(v, w):
    assert is_quasi_subword(v, w) == subsequence_oracle(v, w)


@given(words_over(4), words_over(4))
def test_quasi_subword_is_antisymmetric(v, w):
    if is_quasi_subword(v, w) and is_quasi_subword(w, v):
        assert v == w


def test_truncate_examples():
    w = W("acaab")
    assert truncate(w, 3) == W("caab")
    assert truncate(w, 4) == STAR
    assert truncate(w, 1) == w
    assert truncate_set(w, {2, 3}) == W("caab")
    assert truncate_set(w, {4}) == STAR


@given(words_over(4), st.integers(1, 4))
def test_truncation_reconstructs_the_word(w, a):
    suffix = truncate(w, a)
    prefix = w[:len(w) - len(suffix)]
    assert prefix + suffix == w
    assert a not in prefix


@given(words_over(4), st.integers(1, 4), st.integers(1, 4))
def test_truncations_are_suffix_comparable(w, a, b):
    ta, tb = truncate(w, a), truncate(w, b)
    assert is_suffix(ta, tb) or is_suffix(tb, ta)


@given(words_over(4), st.sets(st.integers(1, 4), min_size=1))
def test_truncate_set_is_a_single_letter_truncation(w, letters):
    t = truncate_set(w, letters)
    assert any(truncate(w, a) == t for a in letters)
    for b in letters:
        assert is_suffix(truncate(w, b), t)


def test_truncate_set_singleton():
    w = W("acaab")
    for a in range(1, 5):
        assert truncate_set(w, {a}) == truncate(w, a)


def test_delete_examples():
    assert delete(W("acaab"), {1}) == W("cb")
    assert delete(W("acaab"), set()) == W("acaab")


@given(words_over(4), words_over(4), st.sets(st.integers(1, 4)))
def test_delete_is_a_homomorphism(u, v, letters):
    assert delete(u + v, letters) == delete(u, letters) + delete(v, letters)


@given(words_over(4), st.sets(st.integers(1, 4)), st.sets(st.integers(1, 4)))
def test_delete_composition(w, i, j):
    assert delete(delete(w, j), i) == delete(w, i | j)


def test_suffix_split_examples():
    u, v = W("cbadc"), W("abdc")
    assert suffix_split(u, v) == (W("cb"), W("adc"))
    assert suffix_split(u, u) == (STAR, u)
    assert suffix_split(u, STAR) == (u, STAR)


@given(words_over(3, 7), words_over(3, 7))
def test_suffix_split_matches_brute_force(u, v):
    # longest suffix of u that is a subsequence of v, longest first
    for k in range(len(u), -1, -1):
        if subsequence_oracle(u[len(u) - k:], v):
            expected = (u[:len(u) - k], u[len(u) - k:])
            break
    assert suffix_split(u, v) == expected


def test_join_examples():
    assert join(W("cbadc"), W("abdc")) == W("cbabdc")
    assert join(STAR, W("ab")) == W("ab")
    assert join(W("ab"), STAR) == W("ab")
    assert join((1, 2), (2, 1)) == (1, 2, 1)


@given(words_over(3, 6), words_over(3, 6))
def test_join_contains_and_ends_right(u, v):
    j = join(u, v)
    assert is_quasi_subword(u, j)
    assert is_suffix(v, j)


@given(words_over(3, 5), words_over(3, 5))
def test_join_is_shortest_with_a_prefix_of_u(u, v):
    j = join(u, v)
    stem = len(j) - len(v)
    for k in range(stem):
        assert not is_quasi_subword(u, u[:k] + v)


@given(words_over(4), words_over(4))
def test_join_absorbs_quasi_subwords(u, v):
    if is_quasi_subword(u, v):
        assert join(u, v) == v


@given(words_over(4, 5), words_over(4, 5), words_over(4, 5))
def test_join_peels_a_left_factor(w, u, v):
    if not is_quasi_subword(u, v):
        assert join(w + u, v) == w + join(u, v)


@given(words_over(4, 5), words_over(4, 5), words_over(4, 5))
def test_join_splits_over_a_left_factor_of_the_suffix(u, w, v):
    u_plus, _ = suffix_split(u, v)
    assert join(u, w + v) == join(u_plus, w) + v


@given(words_over(4, 5), words_over(4, 3), words_over(4, 8))
def test_cancel_common_prefix_of_quasi_subwords(u, x, y):
    if is_quasi_subword(u + x, u + y):
        assert is_quasi_subword(x, y)


def test_parse_letters_and_indices():
    assert W("cbadc") == (3, 2, 1, 4, 3)
    assert W("a b a") == (1, 2, 1)
    assert W("3 2 1 4 3") == (3, 2, 1, 4, 3)
    assert W("3,2,1") == (3, 2, 1)
    assert W("-") == STAR
    assert W("12") == (12,)


def test_parse_rejects_bad_input():
    for bad in ("", "x!", "0", "-3", "a 2"):
        with pytest.raises(ValueError):
            parse_word(bad)


def test_format_word():
    assert format_word(STAR) == "-"
    assert format_word((3, 2, 1, 4, 3)) == "cbadc"
    assert format_word((3, 2, 1), "indices") == "3 2 1"
    with pytest.raises(ValueError):
        format_word((27,), "letters")
    with pytest.raises(ValueError, match="unknown word style 'x'"):
        format_word((1,), "x")
    for w in ((0,), (-3, 2)):
        for style in ("letters", "indices", None):
            with pytest.raises(ValueError, match=f"1-based, got {min(w)}"):
                format_word(w, style)


@given(words_over(26, 12))
def test_round_trip_letters(w):
    assert parse_word(format_word(w, "letters")) == w


def test_round_trip_indices():
    rng = random.Random(5)
    for _ in range(200):
        w = random_word(rng, 40, 12)
        assert parse_word(format_word(w, "indices")) == w
