"""Closure of a finite monoid under generators (Froidure-Pin).

Froidure and Pin ("Algorithms for computing finite semigroups", 1997)
enumerate a monoid given by generators while building its right and left
Cayley graphs together.  Elements are listed in shortlex order of their
reduced words, the shortlex-least words that represent them.  The product
of an element ``u = b s`` (first letter ``b``) with a generator ``a`` is
computed only when the word of ``s`` followed by ``a`` is reduced.
Otherwise ``s a`` equals an element ``r`` that is already known, and
``u a = b r`` is read off the left Cayley graph of ``r``.  If ``r`` has the
same length as ``u``, its left edges do not exist yet; then
``r = t c`` and ``b r = (b t) c``, where ``b t`` precedes ``u`` in the
listing, so its right edge by ``c`` is already known.

Both Cayley graphs are flat lists indexed ``u * n + a``, and the "reduced"
flags a ``bytearray``: no word is stored per element.  A reduced word can
be read back from the ``prefix`` and ``last`` links.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence

from . import errors
from .errors import ResourceGuardError


def froidure_pin(identity: Hashable, generators: Sequence[Hashable],
                 multiply: Callable[[Hashable, Hashable], Hashable], name: str
                 ) -> tuple[list, list[int], list[int], int, list[int], list[int]]:
    """Close ``identity`` under right products with ``generators``.

    ``multiply(x, g)`` is the product of element ``x`` with generator
    value ``g``; elements are compared by equality and hashing.  The
    identity times a generator is the generator itself, so that product is
    never computed.  The monoid may have at most ``errors.MAX_ELEMENTS``
    elements: ``"<name> exceeds MAX_ELEMENTS=<value>"`` is raised as a
    ``ResourceGuardError`` before the element that would exceed it is added.

    Returns ``(elements, prefix, last, compositions, right, left)``.
    ``elements[0]`` is the identity, and the rest follow in shortlex order
    of their reduced words.  For ``u > 0`` the reduced word of
    ``elements[u]`` is that of ``elements[prefix[u]]`` followed by generator
    ``last[u]`` (0-based); both links are -1 at the identity.
    ``compositions`` counts the calls of ``multiply``.  ``right`` and
    ``left`` are the two Cayley graphs: ``right[u * n + a]`` is the index
    of ``elements[u]`` times generator ``a``, and ``left[u * n + a]`` the
    index of generator ``a`` times ``elements[u]``.
    """
    n = len(generators)
    elements = [identity]
    index = {identity: 0}
    first, suffix, prefix, last = [-1], [-1], [-1], [-1]
    right: list[int] = []
    reduced = bytearray()
    limit = errors.MAX_ELEMENTS

    def add(x, b, s, p, a) -> int:
        if len(elements) >= limit:
            raise ResourceGuardError(f"{name} exceeds MAX_ELEMENTS={limit}")
        v = len(elements)
        index[x] = v
        elements.append(x)
        first.append(b)
        suffix.append(s)
        prefix.append(p)
        last.append(a)
        return v

    for a, g in enumerate(generators):
        v = index.get(g)
        reduced.append(v is None)
        right.append(add(g, a, 0, 0, a) if v is None else v)
    left = right[:]
    compositions = 0
    lo, hi = 1, len(elements)
    while lo < hi:
        for u in range(lo, hi):
            b = first[u]
            base = suffix[u] * n
            x = elements[u]
            for a in range(n):
                r = right[base + a]
                if not reduced[base + a]:
                    if r < lo:  # r is shorter than u: its left edges exist
                        right.append(left[r * n + b])
                    else:
                        right.append(right[left[prefix[r] * n + b] * n + last[r]])
                    reduced.append(0)
                    continue
                y = multiply(x, generators[a])
                compositions += 1
                v = index.get(y)
                reduced.append(v is None)
                right.append(add(y, b, r, u, a) if v is None else v)
        for u in range(lo, hi):
            p = prefix[u] * n
            c = last[u]
            for a in range(n):
                left.append(right[left[p + a] * n + c])
        lo, hi = hi, len(elements)
    return elements, prefix, last, compositions, right, left
