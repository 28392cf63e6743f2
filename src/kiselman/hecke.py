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
quotient of K_n by the congruence generated by the pairs (a_i a_j, a_j a_i)
for non-adjacent i < j.  K_n is enumerated by Kiselman rewriting, not by
the coset table, so B is independent of Todd-Coxeter.  The congruence is
computed by the standard algorithm for a congruence generated by pairs
(East, Egri-Nagy, Mitchell and Peresse, "Computing finite semigroups",
J. Symbolic Comput. 92, 2019): union-find over the elements of K_n, seeded
with one pair per non-adjacent i < j.  Whenever two classes merge, their
roots' products with every generator on the right and on the left become
pending pairs; these are integer lookups in the right and left Cayley
graphs of K_n, so no canonical form is computed.  When nothing is pending
the partition is a congruence.  A merge keeps the smaller index as the
root, so each root is the least element of its class in K_n's shortlex
listing.  That is the shortlex-least word of the HK class: the least word
w of the class is the shortest word of its K_n class, hence canonical, and
it lies in the HK class, so no canonical word of the class precedes it.

``enumerate_hk`` runs both and raises ``HkDisagreementError`` on any
mismatch; a mismatch is an implementation bug, never mathematics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canonical import KnMonoid, enumerate_kn
from . import errors
from .errors import HkDisagreementError, ResourceGuardError, check_vertex_count
from .sds import Dag
from .words import Word


@dataclass(frozen=True)
class HkPresentation:
    """A DAG relabelled topologically, so that i -> j implies i < j."""

    graph: Dag
    order: tuple[int, ...]  # order[k - 1] = original vertex with new label k
    _newlabel: dict = field(repr=False, compare=False)  # the inverse of order

    @classmethod
    def from_dag(cls, dag: Dag) -> "HkPresentation":
        topo = dag.topological_order()
        newlabel = {orig: k + 1 for k, orig in enumerate(topo)}
        edges = [(newlabel[i], newlabel[j]) for i, j in dag.edges]
        relabeled = Dag(dag.n, edges)
        assert all(i < j for i, j in relabeled.edges)
        return cls(relabeled, tuple(topo), newlabel)

    def relabel_word(self, w: Word) -> Word:
        """Original vertex labels to internal topological labels."""
        try:
            return tuple(self._newlabel[x] for x in w)
        except KeyError as exc:
            raise ValueError(f"unknown vertex {exc.args[0]} in word") from None

    def unrelabel_word(self, w: Word) -> Word:
        return tuple(self.order[x - 1] for x in w)


@dataclass(frozen=True)
class HkClasses:
    """The congruence classes: representatives plus right generator action.

    Representatives are length-lexicographic least words of their classes,
    over the internal (topological) labels; class 0 is the identity.

    ``stats`` says what the two enumerations did: ``cosets_defined`` and
    ``coincidences`` (merges) of Todd-Coxeter, the ``classes`` found, and
    algorithm B's ``b_seeded_pairs`` and ``b_merges``.
    """

    presentation: HkPresentation
    representatives: tuple[Word, ...]
    action: tuple[tuple[int, ...], ...]
    size: int
    stats: dict[str, int] = field(compare=False)

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


def _todd_coxeter(graph: Dag) -> tuple[list[Word], list[tuple[int, ...]], int, int]:
    """Shortlex-least representatives and right action of the closed table.

    Also returns the number of cosets defined and of coincidences.  At most
    ``errors.MAX_COSETS`` cosets are defined; the guard fires before the
    coset that would exceed it.
    """
    n = graph.n
    relations = _relations(graph)
    limit = errors.MAX_COSETS
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
                if c >= limit:
                    raise ResourceGuardError(f"Todd-Coxeter coset guard: {c} cosets "
                                             f"defined reach MAX_COSETS={limit}")
                table.append([-1] * n)
                parent.append(c)
                row[g] = c
        return find(c)

    coincidences = 0

    def coincide(a: int, b: int) -> None:
        nonlocal coincidences
        pending = [(a, b)]
        while pending:
            a, b = map(find, pending.pop())
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            coincidences += 1
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
    return reps, action, len(table), coincidences


# -- algorithm B: quotient of K_n by non-adjacent commutations ---------------


def kn_quotient_classes(pres: HkPresentation,
                        kn: KnMonoid | None = None) -> tuple[int, frozenset]:
    """Class count and representative set of HK as a quotient of K_n.

    ``kn`` is a prebuilt K_n on the graph's vertex count, so that callers
    looping over many graphs build it once; without it, K_n is enumerated
    here, under the vertex and element guards of ``enumerate_kn``.
    """
    n = pres.graph.n
    if kn is None:
        kn = enumerate_kn(n)
    elif kn.n != n:
        raise ValueError(f"kn is K_{kn.n}, but the graph has {n} vertices")
    right, left = kn.right, kn.left
    parent = list(range(len(kn)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # right[g - 1] is the generator g, so right[right[i - 1] * n + j - 1] is a_i a_j
    pending = [(right[right[i - 1] * n + j - 1], right[right[j - 1] * n + i - 1])
               for i in range(1, n + 1) for j in range(i + 1, n + 1)
               if not pres.graph.adjacent(i, j)]
    while pending:
        a, b = pending.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        if b < a:
            a, b = b, a
        parent[b] = a
        a, b = a * n, b * n
        for g in range(n):
            pending.append((right[a + g], right[b + g]))
            pending.append((left[a + g], left[b + g]))
    reps = frozenset(c for k, c in enumerate(kn.canons) if parent[k] == k)
    return len(reps), reps


# -- the public enumeration ---------------------------------------------------


def enumerate_hk(dag: Dag, start_length: int = 4, *,
                 kn: KnMonoid | None = None) -> HkClasses:
    """Enumerate HK of a DAG; Todd-Coxeter and algorithm B must agree.

    ``kn`` is a prebuilt K_n for algorithm B, on the graph's vertex count
    (``ValueError`` otherwise); without it, K_n is enumerated here.

    Raises ``ResourceGuardError`` when the graph has more than
    ``errors.MAX_VERTICES`` vertices, when the coset table would need more
    than ``errors.MAX_COSETS`` cosets (the complete graph on six vertices
    defines 629,803), or when B's K_n would need more than
    ``errors.MAX_ELEMENTS`` elements (|K_6| = 83,973), and
    ``HkDisagreementError`` when the two enumerations differ.
    """
    # perfbench reads this default through inspect.signature for hecke.words_ranked.
    if start_length != 4:
        raise ValueError(f"start_length={start_length} is retired: "
                         "coset enumeration needs no word-length bound")
    pres = HkPresentation.from_dag(dag)
    n = pres.graph.n
    if n < 1:
        raise ValueError("need at least one vertex")
    check_vertex_count(n)

    reps, action, cosets, coincidences = _todd_coxeter(pres.graph)
    if kn is None:
        kn = enumerate_kn(n)
    size_b, reps_b = kn_quotient_classes(pres, kn)
    if len(reps) != size_b or frozenset(reps) != reps_b:
        raise HkDisagreementError(
            f"Todd-Coxeter found {len(reps)} classes, the K_n quotient "
            f"found {size_b}; this is an implementation bug"
        )
    stats = {"cosets_defined": cosets, "coincidences": coincidences,
             "classes": len(reps),
             "b_seeded_pairs": n * (n - 1) // 2 - len(pres.graph.edges),
             "b_merges": len(kn) - size_b}
    return HkClasses(pres, tuple(reps), tuple(action), len(reps), stats)
