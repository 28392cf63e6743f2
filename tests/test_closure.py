import random

import pytest

from conftest import reference_closure
from kiselman import errors
from kiselman.closure import froidure_pin
from kiselman.errors import ResourceGuardError


def _then(x, g):
    """Right product of transformations: ``g`` applied after ``x``."""
    return tuple(g[p] for p in x)


def _word(prefix, last, u):
    out = []
    while u > 0:
        out.append(last[u] + 1)
        u = prefix[u]
    return tuple(reversed(out))


def test_froidure_pin_matches_the_reference_on_transformation_monoids():
    rng = random.Random(8)
    for trial in range(60):
        points = rng.randint(1, 5)
        identity = tuple(range(points))
        gens = [tuple(rng.randrange(points) for _ in range(points))
                for _ in range(rng.randint(0, 4))]
        if gens and trial % 3 == 0:
            gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))
        if trial % 4 == 0:
            gens.insert(rng.randrange(len(gens) + 1), identity)
        elements, prefix, last, compositions, right, left = froidure_pin(
            identity, gens, _then, "T")
        reference = reference_closure(identity, gens, _then)
        assert elements == [x for x, _ in reference]
        assert [_word(prefix, last, u) for u in range(len(reference))] == [
            w for _, w in reference]
        assert compositions <= len(gens) * len(reference)
        index = {x: u for u, x in enumerate(elements)}
        n = len(gens)
        assert len(right) == len(left) == n * len(elements)
        for u, x in enumerate(elements):
            for a, g in enumerate(gens):
                assert right[u * n + a] == index[_then(x, g)]
                assert left[u * n + a] == index[_then(g, x)]


def test_froidure_pin_guard_fires_before_the_element_that_exceeds_it(monkeypatch):
    cycle = (1, 2, 3, 0)
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 4)
    assert len(froidure_pin((0, 1, 2, 3), [cycle], _then, "C_4")[0]) == 4
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 3)
    with pytest.raises(ResourceGuardError, match="^C_4 exceeds MAX_ELEMENTS=3$"):
        froidure_pin((0, 1, 2, 3), [cycle], _then, "C_4")
