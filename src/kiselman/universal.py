"""The join-based update system on a DAG, and the universal system.

On an arbitrary DAG, give vertex i word-valued states and the update
function

    f_i(out-neighbour states) = a_i . fold of joins over the neighbour
                                states, largest vertex outermost,

with every state set closed under the tables starting from all-STAR
(``build_universal_dag``).  The universal system is the case of the
complete acyclic graph Gamma_n, with edges i -> j for i < j
(``build_universal``).  There vertex i gets the word-valued state set

    S_n     = {STAR, a_n}
    S_(n-1) = {STAR, a_(n-1), a_(n-1) a_n}
    S_i     = {STAR} + a_i . [S_n, [ ... , [S_(i+2), S_(i+1)] ... ]]

(the bracket set taken elementwise over argument tuples), and the vertex
function

    f_i(s_(i+1), ..., s_n) = a_i . [s_n, [ ... , [s_(i+2), s_(i+1)] ... ]].

The single formula covers the base cases: the empty fold is STAR, so
f_n = a_n is constant and f_(n-1)(s_n) = a_(n-1) s_n.

The builder works in two phases.  Rows are listed in ``itertools.product``
order, first argument slowest, and the fold starts from the first
argument, so all rows that share their first k arguments share their
first k - 1 joins.  Phase 1 therefore computes, vertex by vertex, only the
distinct partial folds, level by level, and checks each vertex's row guard
before any row exists; on Gamma_6 that is 19,616 joins in place of
338,658.  Phase 2 expands every table from those memos, storing one
interned output tuple per distinct fold (2,610 for vertex 1 of Gamma_6,
against 84,132 rows).

Evolving the all-STAR state by a schedule word w fills vertex i with
``canonical_form_restricted(truncate(w, i), i)``, and folding the reached
states with joins recovers the canonical form of w itself; two schedule
words therefore induce the same dynamics exactly when their canonical forms
agree, which makes the dynamics monoid of this system a faithful copy of
Kiselman's monoid K_n.  ``verify_theorem`` machine-checks those statements
word by word, and ``verify_isomorphism`` certifies the isomorphism from the
defining relations and the orbit of all-STAR, without closing the dynamics
monoid or building any Cayley graph.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass
from collections.abc import Iterable, Iterator, Sequence

from .canonical import canonical_form, canonical_form_restricted, enumerate_kn
from . import errors
from .errors import ResourceGuardError
from .sds import Dag, UpdateSystem, check_hk_relations, complete_dag, reachable_states
from .words import STAR, Word, format_word, join, truncate, truncate_set


def fold_join(states: Sequence[Word]) -> Word:
    """Right fold of the join over states listed in ascending vertex order.

    ``(s_(i+1), ..., s_n)`` folds to ``[s_n, [ ..., [s_(i+2), s_(i+1)] ... ]]``;
    the empty fold is STAR and a single state folds to itself.
    """
    acc = STAR
    for k, s in enumerate(states):
        acc = s if k == 0 else join(s, acc)
    return acc


def _prefix_folds(arg_pools: Sequence[tuple]) -> tuple[list[dict], tuple]:
    """The distinct partial folds over a product of pools, level by level.

    ``memos[k]`` maps each distinct fold of the first k + 1 arguments to its
    joins with every state of argument k + 2, in pool order; the returned
    tuple lists the distinct full folds.  No argument tuple is formed.
    """
    if not arg_pools:
        return [], (STAR,)
    folds = arg_pools[0]
    memos = []
    for pool in arg_pools[1:]:
        memo = {acc: [join(s, acc) for s in pool] for acc in folds}
        memos.append(memo)
        folds = tuple(dict.fromkeys(itertools.chain.from_iterable(memo.values())))
    return memos, folds


def _vertex_table(arg_pools: Sequence[tuple], memos: list[dict],
                  outputs: dict) -> dict:
    """The table of one vertex, rows in ``itertools.product`` order.

    The first argument varies slowest, so expanding each prefix fold by its
    memo entry, level by level, lists the full folds in row order;
    ``outputs`` maps each to its one interned output tuple.
    """
    folds = arg_pools[0] if arg_pools else (STAR,)
    for memo in memos:
        folds = itertools.chain.from_iterable(map(memo.__getitem__, folds))
    return dict(zip(itertools.product(*arg_pools), map(outputs.__getitem__, folds)))


def build_universal_dag(dag: Dag) -> UpdateSystem:
    """Join-based word-valued system on an arbitrary DAG.

    Phase 1 closes the state sets from all-STAR in reverse topological
    order, sinks first: each vertex collects STAR plus ``(v,) + fold`` for
    every distinct fold over its neighbours' full state sets.  One pass
    suffices on a DAG.  The folds are shared across argument prefixes (see
    ``_prefix_folds``), so no row is built, and a vertex whose table would
    need more than ``errors.MAX_PRODUCT`` rows is refused before any table
    of any vertex exists.  Phase 2 expands every table from the memos of
    phase 1, with one interned output tuple per distinct fold.
    """
    n = dag.n
    pools: dict[int, tuple] = {}
    plans: dict[int, tuple] = {}
    for v in reversed(dag.topological_order()):
        arg_pools = [pools[j] for j in dag.out_neighbors(v)]
        product_size = math.prod(map(len, arg_pools))
        if product_size > errors.MAX_PRODUCT:
            raise ResourceGuardError(
                f"vertex {v} table needs {product_size} rows, "
                f"over MAX_PRODUCT={errors.MAX_PRODUCT}"
            )
        memos, folds = _prefix_folds(arg_pools)
        outputs = {f: (v,) + f for f in folds}
        pools[v] = (STAR,) + tuple(sorted(outputs.values(), key=lambda w: (len(w), w)))
        plans[v] = (arg_pools, memos, outputs)
    return UpdateSystem(
        dag,
        [pools[v] for v in range(1, n + 1)],
        [_vertex_table(*plans[v]) for v in range(1, n + 1)],
    )


@dataclass(frozen=True)
class UniversalSystem:
    """The universal system on the complete acyclic graph with n vertices."""

    system: UpdateSystem

    @property
    def n(self) -> int:
        return self.system.graph.n


@dataclass(frozen=True)
class PredictedState:
    """The vertex states a schedule word must produce from all-STAR."""

    components: tuple[Word, ...]


def star_state(n: int) -> tuple[Word, ...]:
    return (STAR,) * n


def build_universal(n: int) -> UniversalSystem:
    """The join-based system on the complete acyclic graph with n vertices.

    The state sets are built exactly as defined, top vertex first; not
    every listed state need be reachable from all-STAR.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    return UniversalSystem(build_universal_dag(complete_dag(n)))


def predicted_state(w: Word, n: int) -> PredictedState:
    """Vertex i holds the restricted canonical form of the i-truncation of w."""
    return PredictedState(
        tuple(canonical_form_restricted(truncate(w, i), i) for i in range(1, n + 1))
    )


def reconstruct_canonical(p: Sequence[Word]) -> Word:
    """Fold the vertex states back into one word: [p_n, [..., [p_2, p_1]...]]."""
    return fold_join(p)


def exhaustive_words(n: int, max_len: int) -> Iterator[Word]:
    alphabet = range(1, n + 1)
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def random_words(n: int, count: int, max_len: int, seed: int) -> Iterator[Word]:
    rng = random.Random(seed)
    for _ in range(count):
        length = rng.randint(0, max_len)
        yield tuple(rng.randint(1, n) for _ in range(length))


@dataclass
class TheoremReport:
    """``stats`` counts the work: ``steps``, the local maps applied (the
    total length of the words evolved), and ``joins``, the fold joins made
    (n - 1 per word that reaches the fold checks).  It holds no timings.
    """

    n: int
    checked: int
    counterexamples: list[dict]
    stats: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self, style: str | None = "letters") -> dict:
        """The fields, with each counterexample's word rendered in ``style``."""
        return {**asdict(self), "counterexamples": [
            {**ce, "word": format_word(ce["word"], style)} for ce in self.counterexamples]}


def verify_theorem(n: int, words: Iterable[Word],
                   system: UniversalSystem | None = None) -> TheoremReport:
    """Check, word by word, that the universal system computes canonical forms.

    For each word w: (a) evolving all-STAR matches the predicted vertex
    states; (b) folding the evolved states reproduces canonical_form(w);
    (c) every partial fold over vertices 1..k, k < n, equals the
    {1..k}-truncation of canonical_form(w).  The fold of (b) is the last
    partial fold, so the folds are computed once.  Only the first
    ``errors.MAX_COUNTEREXAMPLES`` failures are kept; ``checked`` counts
    every word, and ``stats`` the local maps applied and the joins made.
    """
    usys = system if system is not None else build_universal(n)
    if usys.n != n:
        raise ValueError("system size does not match n")
    sysm = usys.system
    star = star_state(n)
    checked = steps = reached = 0
    counterexamples: list[dict] = []

    def note(w, kind, **extra):
        if len(counterexamples) < errors.MAX_COUNTEREXAMPLES:
            counterexamples.append({"word": w, "kind": kind, **extra})

    for w in words:
        checked += 1
        steps += len(w)
        evolved = sysm.evolve(w, star)
        if evolved != predicted_state(w, n).components:
            note(w, "vertex-states")
            continue
        reached += 1
        folds = [evolved[0]]
        for s in evolved[1:]:
            folds.append(join(s, folds[-1]))
        canw = canonical_form(w)
        if folds[-1] != canw:
            note(w, "reconstruction")
            continue
        for k in range(1, n):
            if folds[k - 1] != truncate_set(canw, range(1, k + 1)):
                note(w, "partial-fold", k=k)
                break
    stats = {"steps": steps, "joins": (n - 1) * reached}
    return TheoremReport(n, checked, counterexamples, stats)


@dataclass
class IsoReport:
    """``failures`` lists the relations of K_n that the local maps break."""

    n: int
    kn_size: int
    orbit_size: int
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures and self.orbit_size == self.kn_size


def verify_isomorphism(n: int) -> IsoReport:
    """Certify that the dynamics monoid D of the universal system is K_n.

    Two inequalities bound the orbit of the initial state x, the set of
    states F_w(x) over all schedule words w; on the universal system x is
    all-STAR, the first state of every vertex:

    * |orbit| <= |D|, since the state F_w(x) depends only on the map F_w;
    * |D| <= |K_n| once the local maps satisfy the defining relations of
      K_n, those of the complete acyclic graph (checked on that graph,
      whatever graph the system carries): then w -> F_w factors through
      K_n, and D is a quotient of it.

    So a clean relation check together with |orbit| = |K_n| forces
    |D| = |K_n|, and the quotient map K_n -> D is a bijection: two schedule
    words act alike exactly when their canonical forms agree.  Nothing is
    unbounded: the relation check runs first, and its state guard refuses
    n = 6 (``errors.MAX_STATES``) before the orbit is explored; K_n is
    capped by the vertex guard.
    """
    system = build_universal(n).system
    relations = check_hk_relations(system, complete_dag(n))
    orbit = reachable_states(system, system.initial_state())
    return IsoReport(n, len(enumerate_kn(n)), len(orbit), relations.failures())
