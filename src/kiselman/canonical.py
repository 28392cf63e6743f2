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
the order that is cheapest, and randomised orders are used as a test oracle.

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
n = 1..6).  Reading a letter costs O(L_n); an ALL_SMALLER step deletes a
letter for good and re-reads at most L_n.  The reduction is therefore
linear in the length of the word, with a constant that depends on n alone.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from .closure import froidure_pin
from .errors import check_vertex_count
from .words import STAR, Word


class StepKind(enum.Enum):
    ADJACENT = 1
    ALL_LARGER = 2
    ALL_SMALLER = 3


@dataclass(frozen=True)
class StepSite:
    """A pair of equal letters at 0-based positions ``left < right``."""

    left: int
    right: int
    kind: StepKind


def is_special(w: Word, left: int, right: int) -> bool:
    """Is the factor ``w[left..right]`` (equal endpoints) special?"""
    if not 0 <= left < right < len(w):
        raise ValueError(f"bad span ({left}, {right}) for a word of length {len(w)}")
    a = w[left]
    if w[right] != a:
        raise ValueError("span endpoints carry different letters")
    seg = w[left + 1:right]
    return any(x > a for x in seg) and any(x < a for x in seg)


def is_canonical(w: Word) -> bool:
    n = len(w)
    for left in range(n - 1):
        a = w[left]
        try:
            right = w.index(a, left + 1)
        except ValueError:
            continue
        if right == left + 1:
            return False
        seg = w[left + 1:right]
        if min(seg) > a or max(seg) < a:
            return False
    return True


def _site_at(w: Word, left: int) -> StepSite | None:
    """Eligible site whose left endpoint is ``left``, if any.

    Only the consecutive occurrence pair can be eligible: a repeated letter
    inside the gap is neither larger nor smaller than itself.
    """
    a = w[left]
    try:
        right = w.index(a, left + 1)
    except ValueError:
        return None
    if right == left + 1:
        return StepSite(left, right, StepKind.ADJACENT)
    seg = w[left + 1:right]
    if min(seg) > a:
        return StepSite(left, right, StepKind.ALL_LARGER)
    if max(seg) < a:
        return StepSite(left, right, StepKind.ALL_SMALLER)
    return None


def _sites(w: Word) -> Iterator[StepSite]:
    """The eligible sites of ``w``, by left endpoint."""
    for left in range(len(w) - 1):
        site = _site_at(w, left)
        if site is not None:
            yield site


def find_step(w: Word) -> StepSite | None:
    """Leftmost eligible site, or None iff ``w`` is canonical."""
    return next(_sites(w), None)


def eligible_steps(w: Word) -> list[StepSite]:
    """All eligible sites of ``w``, by left endpoint."""
    return list(_sites(w))


def apply_step(w: Word, site: StepSite) -> Word:
    """Drop one letter of an eligible pair; the result lies in the same class.

    ``site`` must be the eligible site at its left endpoint, kind included,
    as ``find_step`` and ``eligible_steps`` report it.
    """
    if not 0 <= site.left < site.right < len(w):
        raise ValueError(f"site {site} out of range for length {len(w)}")
    if site != _site_at(w, site.left):
        raise ValueError(f"{site} is not an eligible site of {w}")
    drop = site.left if site.kind is StepKind.ALL_SMALLER else site.right
    return w[:drop] + w[drop + 1:]


def canonical_form(w: Word) -> Word:
    """The unique canonical word in the congruence class of ``w``.

    It is the shortest word of its class and a quasi-subword of ``w``.
    """
    return extend_canonical(STAR, w)


def extend_canonical(c: Word, letters: Iterable[int]) -> Word:
    """Canonical form of ``c + letters`` for a canonical word ``c``.

    Letters are taken one at a time from a pending stack, so the re-feed
    of an ALL_SMALLER step needs no recursion.
    """
    out = list(c)
    pending = list(letters)
    pending.reverse()
    while pending:
        g = pending.pop()
        if g not in out:
            out.append(g)
            continue
        p = len(out) - 1
        while out[p] != g:
            p -= 1
        gap = out[p + 1:]
        if not gap or min(gap) > g:
            continue  # ADJACENT or ALL_LARGER: drop the new g
        if max(gap) < g:
            # ALL_SMALLER: drop the old g, then re-read the letters after it
            del out[p:]
            pending.append(g)
            gap.reverse()
            pending.extend(gap)
            continue
        out.append(g)  # the pair is special
    return tuple(out)


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
