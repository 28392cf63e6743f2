"""Shared generators and independent oracles for the test suite."""

import random
from collections import deque
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from kiselman.canonical import (
    canonical_form,
    enumerate_kn,
    extend_canonical,
    simplifications,
)
from kiselman.sds import Dag, UpdateSystem
from kiselman.universal import fold_join
from kiselman.words import STAR, delete


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


def reference_truncate(w, a) -> tuple:
    """Suffix of ``w`` from the leftmost ``a``, by catching ``index``'s error.

    This is how ``truncate`` was written before it tested membership first.
    """
    try:
        return w[w.index(a):]
    except ValueError:
        return STAR


def reference_extend_canonical(c, letters) -> tuple:
    """Canonical form of ``c + letters``, scanning the kept prefix for every letter.

    This is how ``extend_canonical`` was written before it remembered the
    letters its kept prefix drops.
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


def reference_canonical_form_restricted(w, k) -> tuple:
    """Canonical form of ``w`` with every letter below ``k`` deleted.

    This is how ``canonical_form_restricted`` was written before it fed the
    kept letters straight to ``extend_canonical``.
    """
    return canonical_form(delete(w, range(1, k)))


def random_order_normal_form(w, rng: random.Random) -> tuple:
    """Apply simplifying steps in random order until none remain."""
    while True:
        steps = list(simplifications(w))
        if not steps:
            return w
        w = rng.choice(steps)


def leftmost_normal_form(w) -> tuple:
    """Apply the leftmost simplifying step until none remains."""
    while True:
        shorter = next(simplifications(w), None)
        if shorter is None:
            return w
        w = shorter


def reference_closure(identity, generators, multiply):
    """Breadth-first closure of ``identity`` under right products.

    Returns ``(element, word)`` pairs in discovery order, ``word`` holding
    1-based generator labels in the order they were applied.  Every
    element is multiplied by every generator; this is the loop that
    ``dynamics_monoid`` and ``enumerate_kn`` ran before they shared the
    Froidure-Pin routine.
    """
    found = [(identity, ())]
    seen = {identity}
    frontier = [0]
    while frontier:
        fresh = []
        for k in frontier:
            x, word = found[k]
            for label, g in enumerate(generators, start=1):
                y = multiply(x, g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(len(found))
                    found.append((y, word + (label,)))
        frontier = fresh
    return found


def reference_kn_quotient(graph):
    """HK of a topologically labelled DAG as a quotient of K_n, by words.

    Seeds a union-find over K_n with every swap of two adjacent letters
    that are non-adjacent vertices inside a canonical word, and saturates
    it under left and right products computed by rewriting.  Returns the
    class count and the set of shortlex-least canonical words per class.
    This is the loop ``kn_quotient_classes`` ran before it read products
    off the Cayley graphs of K_n.
    """
    n = graph.n
    canons = list(enumerate_kn(n))
    index = {w: k for k, w in enumerate(canons)}
    parent = list(range(len(canons)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pending = deque()
    for k, w in enumerate(canons):
        for p in range(len(w) - 1):
            i, j = w[p], w[p + 1]
            if i != j and not graph.adjacent(i, j):
                swapped = extend_canonical(w[:p], (j, i) + w[p + 2:])
                pending.append((k, index[swapped]))
    while pending:
        ra, rb = map(find, pending.popleft())
        if ra == rb:
            continue
        parent[rb] = ra
        wa, wb = canons[ra], canons[rb]
        for g in range(1, n + 1):
            pending.append(
                (index[canonical_form((g,) + wa)], index[canonical_form((g,) + wb)])
            )
            pending.append(
                (index[extend_canonical(wa, (g,))], index[extend_canonical(wb, (g,))])
            )
    reps = {}
    for k, w in enumerate(canons):
        root = find(k)
        best = reps.get(root)
        if best is None or (len(w), w) < (len(best), best):
            reps[root] = w
    return len(reps), frozenset(reps.values())


def reference_build_universal_dag(dag):
    """The join-based system on ``dag``, one fold per argument tuple.

    Closes the state sets in reverse topological order and folds every row
    of every table from scratch, with no guard.  This is the loop
    ``build_universal_dag`` ran before it shared folds across argument
    prefixes.
    """
    pools, tables = {}, {}
    for v in reversed(dag.topological_order()):
        table = {}
        words = {STAR}
        for args in product(*[pools[j] for j in dag.out_neighbors(v)]):
            out = (v,) + fold_join(args)
            table[args] = out
            words.add(out)
        pools[v] = tuple(sorted(words, key=lambda w: (len(w), w)))
        tables[v] = table
    return UpdateSystem(dag, [pools[v] for v in range(1, dag.n + 1)],
                        [tables[v] for v in range(1, dag.n + 1)])


def reference_dynamics(system):
    """``(table, witness)`` pairs of the dynamics monoid, breadth first."""
    gens = [system.local_table(g) for g in range(1, system.graph.n + 1)]
    identity = tuple(range(system.state_count()))
    found = reference_closure(identity, gens, lambda m, g: tuple(g[x] for x in m))
    return [(table, tuple(reversed(word))) for table, word in found]


def _is_acyclic(n: int, edges) -> bool:
    out = {i: [] for i in range(1, n + 1)}
    indeg = {i: 0 for i in range(1, n + 1)}
    for i, j in edges:
        out[i].append(j)
        indeg[j] += 1
    ready = [i for i in indeg if indeg[i] == 0]
    done = 0
    while ready:
        i = ready.pop()
        done += 1
        for j in out[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    return done == n


def dag_class_key(n: int, edges) -> tuple:
    """The least sorted edge list over all n! relabellings of a graph.

    Two graphs on n vertices have the same key exactly when they are
    isomorphic.
    """
    return min(tuple(sorted((p[i - 1], p[j - 1]) for i, j in edges))
               for p in permutations(range(1, n + 1)))


def keyed_dag_catalog(max_vertices: int) -> tuple:
    """DAG classes on 1..max_vertices vertices, by permutation keying.

    Visits the subsets of the upper-triangular pairs as bit masks in
    increasing order, keys each by all n! relabellings and keeps the first
    subset of every key.  This is the loop ``enumerate_dags`` ran before it
    struck out each class's orbit of edge masks.
    """
    items = []
    seen = set()
    for n in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for mask in range(1 << len(pairs)):
            edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            key = (n, dag_class_key(n, edges))
            if key not in seen:
                seen.add(key)
                items.append(Dag(n, edges))
    return tuple(items)


def count_dags_by_edge_subsets(n: int) -> int:
    """Isomorphism classes of DAGs on n vertices, by filtering edge subsets.

    Exhaustive over the 2^(n(n-1)) subsets of ordered pairs, so keep n <= 4;
    independent of the catalog's construction from topological labellings.
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    seen: set[tuple] = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
        if any((j, i) in edges for i, j in edges):
            continue
        if not _is_acyclic(n, edges):
            continue
        seen.add(dag_class_key(n, edges))
    return len(seen)
