"""Canonical forms in Kiselman's monoid K_n.

K_n is the monoid on idempotent generators a_1, ..., a_n subject to

    a_i a_j a_i = a_j a_i a_j = a_i a_j      whenever i < j.

A factor ``a_i u a_i`` of a word is *special* when ``u`` contains both a
strictly smaller and a strictly larger letter than ``i``.  A word is
*canonical* when all its factors of that shape are special; every word can
be rewritten to a unique canonical word in its congruence class by repeatedly
dropping one of two equal letters:

* ``ADJACENT``     -- the two equal letters touch; drop the right one;
* ``ALL_LARGER``   -- everything between is strictly larger; drop the right;
* ``ALL_SMALLER``  -- everything between is strictly smaller; drop the left.

Any order of application reaches the same normal form (Kudryavtseva and
Mazorchuk, "On Kiselman's semigroup", 2009), so ``canonical_form`` may pick
the order that is cheapest.  ``simplifications`` yields every word one step
away, so that randomised orders can serve as a test oracle.

Canonicity only needs to be checked on consecutive occurrences of each
letter: between two non-consecutive equal letters there is a whole
consecutive pair, whose mixed in-between letters already witness speciality.

``canonical_form`` therefore reduces online, left to right, keeping the part
read so far canonical.  Appending a letter ``g`` to a canonical word ``c``
creates one new consecutive pair, the last ``g`` of ``c`` and the new one,
so at most that pair is eligible.  ADJACENT and ALL_LARGER drop the new
letter and leave ``c``; ALL_SMALLER drops the old one, which leaves the
canonical prefix before it, and pushes the letters after it, then ``g``,
back onto the input.  The part kept is always canonical, so it is never
longer than L_n, the longest canonical word of K_n (1, 2, 4, 6, 10, 14 for
n = 1..6).

Whether a letter is dropped depends on the kept prefix and the letter
alone, so ``extend_canonical`` remembers the letters the current prefix
drops and forgets them whenever the prefix changes.  A letter the prefix
already dropped costs one set lookup; any other read costs O(L_n), and an
ALL_SMALLER step deletes a letter for good and re-reads at most L_n.  A
word with k prefix changes therefore costs O(|w| + k L_n): linear in its
length, and on long random words, whose prefix soon stops changing, close
to one lookup per letter.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator

from .closure import froidure_pin
from .errors import check_vertex_count
from .words import STAR, Word


def _dropped(w: Word, left: int) -> int | None:
    """Position of the letter a step at ``w[left]`` drops, or None.

    Only the next occurrence of ``w[left]`` can pair with it: a repeated
    letter inside the gap is neither larger nor smaller than itself.
    """
    a = w[left]
    try:
        right = w.index(a, left + 1)
    except ValueError:
        return None
    seg = w[left + 1:right]
    if not seg or min(seg) > a:
        return right  # ADJACENT or ALL_LARGER
    if max(seg) < a:
        return left  # ALL_SMALLER
    return None  # the factor is special


def is_canonical(w: Word) -> bool:
    return all(_dropped(w, left) is None for left in range(len(w) - 1))


def simplifications(w: Word) -> Iterator[Word]:
    """Every word one simplifying step from ``w``, by left end of the pair.

    Yields nothing exactly when ``w`` is canonical.  Each result lies in the
    class of ``w`` and is one letter shorter.
    """
    for left in range(len(w) - 1):
        drop = _dropped(w, left)
        if drop is not None:
            yield w[:drop] + w[drop + 1:]


def canonical_form(w: Word) -> Word:
    """The unique canonical word in the congruence class of ``w``.

    It is the shortest word of its class and a quasi-subword of ``w``.
    """
    return extend_canonical(STAR, w)


def extend_canonical(c: Word, letters: Iterable[int]) -> Word:
    """Canonical form of ``c + letters`` for a canonical word ``c``.

    Letters are taken one at a time from a pending stack, so the re-feed
    of an ALL_SMALLER step needs no recursion.  The kept prefix is stored
    reversed, so ``rev.index(g)`` finds its last ``g`` and ``rev.insert(0,
    g)`` appends.  ``dropped`` holds letters an ADJACENT or ALL_LARGER step
    dropped from the current prefix; it is emptied on every branch that
    changes the prefix, so a letter in it would be dropped again.
    """
    rev = list(c)
    rev.reverse()
    dropped = set()
    pending = list(letters)
    pending.reverse()
    while pending:
        g = pending.pop()
        if g in dropped:
            continue
        if g not in rev:
            rev.insert(0, g)
            dropped.clear()
            continue
        p = rev.index(g)
        gap = rev[:p]  # the letters after the last g, last first
        if not gap or min(gap) > g:
            dropped.add(g)
            continue  # ADJACENT or ALL_LARGER: drop the new g
        dropped.clear()
        if max(gap) < g:
            # ALL_SMALLER: drop the old g, then re-read the letters after it
            del rev[:p + 1]
            pending.append(g)
            pending.extend(gap)
            continue
        rev.insert(0, g)  # the pair is special
    rev.reverse()
    return tuple(rev)


def canonical_form_restricted(w: Word, k: int) -> Word:
    """Canonical form of ``w`` after deleting every letter below ``k``."""
    if k < 1:
        raise ValueError("k is a 1-based letter index")
    return extend_canonical(STAR, [x for x in w if x >= k])


def multiply(u: Word, v: Word) -> Word:
    """Product of the classes of ``u`` and ``v``, as a canonical word.

    The canonical form is constant on classes, so reducing the concatenation
    of any representatives is well defined.
    """
    return extend_canonical(canonical_form(u), v)


def canonical_words(n: int, max_len: int) -> Iterator[Word]:
    """All canonical words over ``1..n`` of length at most ``max_len``.

    By length, then lexicographically.  Every prefix of a canonical word is
    canonical, so each length is generated from the one before: extend
    every canonical word by every letter and keep what ``is_canonical``
    accepts.  This filter is independent of the closure in
    ``enumerate_kn``; the two must agree on every finite slice.  The same
    vertex guard refuses n above ``errors.MAX_VERTICES``.
    """
    if n < 1:
        raise ValueError("alphabet size must be at least 1")
    check_vertex_count(n)
    level: list[Word] = [STAR]
    for length in range(max_len + 1):
        if not level:
            return
        yield from level
        if length < max_len:
            level = [w + (g,) for w in level for g in range(1, n + 1)
                     if is_canonical(w + (g,))]


class KnMonoid:
    """K_n as its canonical words, with both Cayley graphs.

    ``canons`` lists the canonical words in shortlex order, so ``canons[0]``
    is STAR, the identity, and iterating the monoid yields the words.
    ``right`` and ``left`` are the Cayley graphs, as flat ``array('i')``
    indexed ``u * n + a``: ``right[u * n + a]`` is the index of
    ``canons[u]`` times the generator ``a + 1``, and ``left[u * n + a]``
    the index of that generator times ``canons[u]``.  Elements are found
    by following these graphs from STAR (``right[g - 1]`` is the generator
    ``g``), and products are read off them, or computed by ``multiply``.
    """

    def __init__(self, n: int, canons: list[Word], right: array, left: array):
        self.n = n
        self.canons = tuple(canons)
        self.right = right
        self.left = left

    def __len__(self) -> int:
        return len(self.canons)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.canons)

    @property
    def max_word_length(self) -> int:
        return len(self.canons[-1])  # the listing is shortlex


def enumerate_kn(n: int) -> KnMonoid:
    """Enumerate K_n by closing {STAR} under right products with generators.

    The closure is the Froidure-Pin routine of ``closure``, shared with the
    dynamics monoid: a canonical word is extended by a letter (one
    ``extend_canonical`` step) only where a new element can appear, and
    every other product is read off the Cayley graphs.  A canonical word is
    the shortlex-least word of its class, so the elements come out in
    shortlex order of their canonical words, and each element is its own
    reduced word.  The right and left Cayley graphs the closure builds are
    kept on the returned monoid as ``right`` and ``left``.

    K_n is finite, so the closure terminates.  It is the Hecke-Kiselman
    monoid of the complete graph on n vertices, so the vertex guard refuses
    n above ``errors.MAX_VERTICES`` before the closure starts; the closure
    itself refuses more than ``errors.MAX_ELEMENTS`` elements, naming K_n.
    """
    if n < 1:
        raise ValueError("alphabet size must be at least 1")
    check_vertex_count(n)
    canons, _, _, _, right, left = froidure_pin(
        STAR, [(g,) for g in range(1, n + 1)], extend_canonical, f"K_{n}",
    )  # the links are freed before KnMonoid is built
    right = array("i", right)
    left = array("i", left)
    return KnMonoid(n, canons, right, left)
