"""Hecke-Kiselman monoids of finite directed acyclic graphs.

For a DAG with vertices 1..n the monoid HK is generated by idempotents
a_1, ..., a_n subject to

    a_i a_j a_i = a_j a_i a_j = a_i a_j    for every edge i -> j,
    a_i a_j = a_j a_i                      for non-adjacent i, j.

Elements are enumerated by two independent routes that must agree:

Todd-Coxeter (primary): coset enumeration of the right regular
representation (Todd & Coxeter 1936; the monoid variant is in Ruskuc's
1995 thesis), over the topologically relabelled presentation.  Cosets
stand for words, coset 0 for the empty word.  Every defining relation
u = v is traced from every live coset, defining cosets as needed, and the
two ends are merged with union-find whenever they differ.  HK is finite on
a DAG (Ganyushkin-Mazorchuk 2011), so the enumeration closes.  The closed
table is a complete right generator action on which every relation holds
at every coset, and every merge is a consequence of the relations, so the
table is a certificate: its cosets are exactly the elements of HK.  A
breadth-first pass over it from the identity, taking generators in
increasing order, meets every class first through its shortlex-least word.

Algorithm B (cross-check): over a topologically labelled DAG every defining
relation of Kiselman's monoid K_n already holds in HK (commutation plus
idempotence imply the three-way relation for non-edges), so HK is the
quotient of K_n by the congruence generated by commuting non-adjacent
generator pairs.  Starting from the enumerated K_n, swap non-adjacent
adjacent letters inside canonical representatives, re-canonicalise, and
saturate under left and right generator multiplication.

``enumerate_hk`` runs both and raises ``HkDisagreementError`` on any
mismatch; a mismatch is an implementation bug, never mathematics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .canonical import canonical_form, enumerate_kn, extend_canonical
from .errors import HkDisagreementError, ResourceGuardError
from .sds import Dag, check_vertex_count
from .words import Word


@dataclass(frozen=True)
class HkPresentation:
    """A DAG relabelled topologically, so that i -> j implies i < j."""

    original: Dag
    graph: Dag
    order: tuple[int, ...]  # order[k - 1] = original vertex with new label k

    @classmethod
    def from_dag(cls, dag: Dag) -> "HkPresentation":
        topo = dag.topological_order()
        newlabel = {orig: k + 1 for k, orig in enumerate(topo)}
        edges = [(newlabel[i], newlabel[j]) for i, j in dag.edges]
        relabeled = Dag(dag.n, edges)
        assert all(i < j for i, j in relabeled.edges)
        return cls(dag, relabeled, tuple(topo))

    def relabel_word(self, w: Word) -> Word:
        """Original vertex labels to internal topological labels."""
        newlabel = {orig: k + 1 for k, orig in enumerate(self.order)}
        try:
            return tuple(newlabel[x] for x in w)
        except KeyError as exc:
            raise ValueError(f"unknown vertex {exc.args[0]} in word") from None

    def unrelabel_word(self, w: Word) -> Word:
        return tuple(self.order[x - 1] for x in w)


@dataclass(frozen=True)
class HkClasses:
    """The congruence classes: representatives plus right generator action.

    Representatives are length-lexicographic least words of their classes,
    over the internal (topological) labels; class 0 is the identity.
    """

    presentation: HkPresentation
    representatives: tuple[Word, ...]
    action: tuple[tuple[int, ...], ...]
    size: int

    def class_of(self, w: Word) -> int:
        """Class of a word over original vertex labels, via the action fold."""
        c = 0
        for g in self.presentation.relabel_word(w):
            c = self.action[c][g - 1]
        return c

    def representatives_original(self) -> tuple[Word, ...]:
        return tuple(self.presentation.unrelabel_word(r) for r in self.representatives)


# perfbench/workloads.py imports this at module level for hecke.words_ranked.
def _word_count(n: int, max_len: int) -> int:
    if n == 1:
        return max_len + 1
    return (n ** (max_len + 1) - 1) // (n - 1)


# -- Todd-Coxeter: the closed right-regular coset table ----------------------


def _relations(graph: Dag) -> list[tuple[Word, Word]]:
    """Defining relations over generators 0..n-1 of a topologically labelled DAG."""
    n = graph.n
    rels = [((i, i), (i,)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if graph.has_edge(i + 1, j + 1):
                rels += [((i, j, i), (i, j)), ((j, i, j), (i, j))]
            else:
                rels.append(((i, j), (j, i)))
    return rels


def _todd_coxeter(graph: Dag, max_cosets: int) -> tuple[list[Word], list[tuple[int, ...]]]:
    """Shortlex-least representatives and right action of the closed table."""
    n = graph.n
    relations = _relations(graph)
    table = [[-1] * n]  # table[c][g] = c * (g + 1), or -1 while undefined
    parent = [0]  # union-find over cosets; a class's root is its least coset

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def trace(c: int, word: Word) -> int:
        for g in word:
            row = table[find(c)]
            c = row[g]
            if c < 0:
                c = len(table)
                if c >= max_cosets:
                    raise ResourceGuardError(
                        f"Todd-Coxeter coset guard: {c} cosets defined reach "
                        f"the limit; raise max_cosets={max_cosets} to go further"
                    )
                table.append([-1] * n)
                parent.append(c)
                row[g] = c
        return find(c)

    def coincide(a: int, b: int) -> None:
        pending = [(a, b)]
        while pending:
            a, b = map(find, pending.pop())
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            row_a = table[a]
            for g, t in enumerate(table[b]):
                if row_a[g] < 0:
                    row_a[g] = t
                elif t >= 0:
                    pending.append((row_a[g], t))

    c = 0
    while c < len(table):
        for u, v in relations:
            if parent[c] != c:
                break
            a, b = trace(c, u), trace(c, v)
            if a != b:
                coincide(a, b)
        c += 1

    reps: list[Word] = [()]
    action: list[tuple[int, ...]] = []
    position = {0: 0}
    order = [0]
    while len(action) < len(order):
        k = len(action)
        row = []
        for g, t in enumerate(table[order[k]]):
            t = find(t)
            if t not in position:
                position[t] = len(order)
                order.append(t)
                reps.append(reps[k] + (g + 1,))
            row.append(position[t])
        action.append(tuple(row))
    return reps, action


# -- algorithm B: quotient of K_n by non-adjacent commutations ---------------


def kn_quotient_classes(pres: HkPresentation,
                        max_alphabet: int = 6) -> tuple[int, frozenset]:
    """Class count and representative set of HK as a quotient of K_n."""
    graph = pres.graph
    n = graph.n
    kn = enumerate_kn(n, max_alphabet=max_alphabet)
    canons = [e.canon for e in kn.elements]
    index = kn.index
    parent = list(range(len(canons)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pending: deque[tuple[int, int]] = deque()
    for k, w in enumerate(canons):
        for p in range(len(w) - 1):
            i, j = w[p], w[p + 1]
            if i != j and not graph.adjacent(i, j):
                swapped = extend_canonical(w[:p], (j, i) + w[p + 2:])
                pending.append((k, index[swapped]))
    while pending:
        a, b = pending.popleft()
        ra, rb = find(a), find(b)
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
    reps: dict[int, Word] = {}
    for k, w in enumerate(canons):
        root = find(k)
        best = reps.get(root)
        if best is None or (len(w), w) < (len(best), best):
            reps[root] = w
    return len(reps), frozenset(reps.values())


# -- the public enumeration ---------------------------------------------------


MAX_VERTICES = 6


def enumerate_hk(dag: Dag | HkPresentation, start_length: int = 4, *,
                 max_vertices: int = MAX_VERTICES,
                 max_cosets: int = 2_000_000) -> HkClasses:
    """Enumerate HK of a DAG; Todd-Coxeter and algorithm B must agree.

    Raises ``ResourceGuardError`` when the graph has more than
    ``max_vertices`` vertices or the coset table would need more than
    ``max_cosets`` cosets (the complete graph on six vertices defines
    629,803), and ``HkDisagreementError`` when the two enumerations differ.
    """
    # perfbench reads this default through inspect.signature for hecke.words_ranked.
    if start_length != 4:
        raise ValueError(f"start_length={start_length} is retired: "
                         "coset enumeration needs no word-length bound")
    pres = dag if isinstance(dag, HkPresentation) else HkPresentation.from_dag(dag)
    n = pres.graph.n
    if n < 1:
        raise ValueError("need at least one vertex")
    check_vertex_count(n, max_vertices)

    reps, action = _todd_coxeter(pres.graph, max_cosets)
    size_b, reps_b = kn_quotient_classes(pres)
    if len(reps) != size_b or frozenset(reps) != reps_b:
        raise HkDisagreementError(
            f"Todd-Coxeter found {len(reps)} classes, the K_n quotient "
            f"found {size_b}; this is an implementation bug"
        )
    return HkClasses(pres, tuple(reps), tuple(action), len(reps))
