"""Words in the free monoid over a positive-integer alphabet.

A word is a tuple of 1-based letter indices; the empty tuple ``STAR`` is the
monoid identity.  The textual alphabet ('a' = 1, ..., 'z' = 26) is a parsing
convenience only; the order relation between indices is what matters.

Besides the basic subword / quasi-subword predicates this module implements:

* ``truncate(w, a)``: the longest suffix of ``w`` whose head is ``a``, i.e.
  the suffix starting at the leftmost occurrence of ``a`` (empty if ``a``
  does not occur), and its letter-set variant ``truncate_set``;
* ``delete(w, I)``: the monoid homomorphism erasing every letter of ``I``;
* ``join(u, v)``: the shortest word that has ``u`` as a quasi-subword and
  ``v`` as a suffix.  It equals ``u+ . v`` where ``u = u+ u-`` and ``u-`` is
  the longest suffix of ``u`` that is a subsequence of ``v``.

All values are immutable and every function is pure, so everything here is
safe for concurrent use.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

Word = tuple[int, ...]

#: The empty word, the identity of the free monoid.
STAR: Word = ()

_TOKEN_SPLIT = re.compile(r"[,\s]+")


def head(w: Word) -> int:
    """Leftmost letter of ``w``; the empty word has no head."""
    if not w:
        raise ValueError("the empty word has no head")
    return w[0]


def is_subword(v: Word, w: Word) -> bool:
    """True iff ``v`` occurs in ``w`` as a block of consecutive letters."""
    nv, nw = len(v), len(w)
    if nv == 0:
        return True
    return any(w[p:p + nv] == v for p in range(nw - nv + 1))


def is_quasi_subword(v: Word, w: Word) -> bool:
    """True iff ``v`` is an ordered, not necessarily consecutive, part of ``w``.

    This is the relation ``v <= w``; it is a partial order on words.
    """
    it = iter(w)
    return all(c in it for c in v)


def is_suffix(v: Word, w: Word) -> bool:
    return len(v) <= len(w) and w[len(w) - len(v):] == v


def truncate(w: Word, a: int) -> Word:
    """Suffix of ``w`` starting at the leftmost ``a``; STAR if ``a`` is absent."""
    return w[w.index(a):] if a in w else STAR


def truncate_set(w: Word, letters: Iterable[int]) -> Word:
    """Longest suffix of ``w`` whose head lies in ``letters``; STAR if none does."""
    wanted = set(letters)
    for p, x in enumerate(w):
        if x in wanted:
            return w[p:]
    return STAR


def delete(w: Word, letters: Iterable[int]) -> Word:
    """Erase all occurrences of the given letters, keeping the order.

    This is a monoid homomorphism, and deleting I then J is the same as
    deleting I | J in one pass.
    """
    doomed = set(letters)
    return tuple(x for x in w if x not in doomed)


def suffix_split(u: Word, v: Word) -> tuple[Word, Word]:
    """Split ``u = u+ u-`` where ``u-`` is the longest suffix of ``u`` with ``u- <= v``.

    Greedy right-to-left matching of ``u`` against ``v``: suffixes are nested,
    so matching each letter at its rightmost available position is optimal.
    """
    i = len(u) - 1
    j = len(v) - 1
    while i >= 0 and j >= 0:
        if u[i] == v[j]:
            i -= 1
        j -= 1
    return u[:i + 1], u[i + 1:]


def join(u: Word, v: Word) -> Word:
    """Shortest word admitting ``u`` as a quasi-subword and ``v`` as a suffix."""
    u_plus, _ = suffix_split(u, v)
    return u_plus + v


def parse_word(text: str) -> Word:
    """Parse the shared word grammar.

    Either a lowercase-letter string ("cbadc", with a = 1), possibly split
    into whitespace/comma-separated groups ("a b a"), or whitespace/comma
    separated 1-based integers ("3 2 1 4 3").  The empty word is written "-".
    """
    t = text.strip()
    if t == "-":
        return STAR
    if not t:
        raise ValueError("empty input: the empty word is written '-'")
    tokens = [tok for tok in _TOKEN_SPLIT.split(t) if tok]
    if all(tok.isascii() and tok.isalpha() and tok.islower() for tok in tokens):
        return tuple(ord(c) - 96 for tok in tokens for c in tok)
    letters = []
    for tok in tokens:
        try:
            x = int(tok)
        except ValueError:
            raise ValueError(
                f"bad letter {tok!r}: use a lowercase word or 1-based integers"
            ) from None
        if x < 1:
            raise ValueError(f"letter indices are 1-based, got {x}")
        letters.append(x)
    return tuple(letters)


def format_word(w: Word, style: str | None = "letters") -> str:
    """Render a word; ``parse_word(format_word(w, style)) == w`` for every style.

    Style ``None`` renders letters when every letter is at most 26 (``z``)
    and indices otherwise.  A letter below 1 has no rendering that parses
    back, so every style refuses it.
    """
    if not w:
        return "-"
    if min(w) < 1:
        raise ValueError(f"letter indices are 1-based, got {min(w)}")
    if style is None:
        style = "letters" if max(w) <= 26 else "indices"
    if style == "letters":
        if max(w) > 26:
            raise ValueError("letters style only covers indices 1..26")
        return "".join(chr(96 + x) for x in w)
    if style == "indices":
        return " ".join(str(x) for x in w)
    raise ValueError(f"unknown word style {style!r}")
