"""Shared generators and independent oracles for the test suite."""

import random
from itertools import combinations

from hypothesis import strategies as st

from kiselman.canonical import apply_step, eligible_steps, find_step


def words_over(n, max_size=10):
    return st.lists(st.integers(1, n), max_size=max_size).map(tuple)


def random_word(rng: random.Random, n: int, max_len: int, letters=None) -> tuple:
    pool = list(letters) if letters is not None else list(range(1, n + 1))
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


def subsequence_oracle(v, w) -> bool:
    """Subsequence test by trying every position choice; keep |w| small."""
    if len(v) > len(w):
        return False
    return any(
        tuple(w[i] for i in picks) == v
        for picks in combinations(range(len(w)), len(v))
    )


def is_canonical_all_spans(w) -> bool:
    """Speciality of every equal-letter span, not just consecutive pairs."""
    for left in range(len(w)):
        for right in range(left + 1, len(w)):
            if w[left] == w[right]:
                seg = w[left + 1:right]
                special = any(x > w[left] for x in seg) and any(
                    x < w[left] for x in seg
                )
                if not special:
                    return False
    return True


def random_order_normal_form(w, rng: random.Random) -> tuple:
    """Apply eligible simplifying steps in random order until none remain."""
    while True:
        sites = eligible_steps(w)
        if not sites:
            return w
        w = apply_step(w, rng.choice(sites))


def leftmost_normal_form(w) -> tuple:
    """Apply the leftmost eligible simplifying step until none remains."""
    while True:
        site = find_step(w)
        if site is None:
            return w
        w = apply_step(w, site)
