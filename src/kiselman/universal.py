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
word by word, and ``verify_isomorphism`` certifies the isomorphism on the
Cayley graphs of both monoids.
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
from .sds import Dag, UpdateSystem, complete_dag, reachable_states
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

    The state sets are built exactly as defined, top vertex first; whether
    every listed state is reachable from all-STAR is reported separately by
    ``reachability_report`` and asserted nowhere.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    return UniversalSystem(build_universal_dag(complete_dag(n)))


def predicted_state(w: Word, n: int) -> PredictedState:
    """Vertex i holds the restricted canonical form of the i-truncation of w."""
    return PredictedState(
        tuple(canonical_form_restricted(truncate(w, i), i) for i in range(1, n + 1))
    )


def reconstruct_canonical(p: PredictedState | Sequence[Word]) -> Word:
    """Fold the vertex states back into one word: [p_n, [..., [p_2, p_1]...]]."""
    components = p.components if isinstance(p, PredictedState) else tuple(p)
    return fold_join(components)


def exhaustive_words(n: int, max_len: int) -> Iterator[Word]:
    alphabet = range(1, n + 1)
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def random_words(n: int, count: int, max_len: int, seed: int) -> Iterator[Word]:
    rng = random.Random(seed)
    for _ in range(count):
        length = rng.randint(0, max_len)
        yield tuple(rng.randint(1, n) for _ in range(length))


class _Report:
    """JSON rendering shared by the report dataclasses below."""

    def to_json(self, style: str | None = "letters") -> dict:
        """The fields, with each counterexample's word rendered in ``style``."""
        return {**asdict(self), "counterexamples": [
            {**ce, "word": format_word(ce["word"], style)} for ce in self.counterexamples]}


@dataclass
class TheoremReport(_Report):
    n: int
    checked: int
    counterexamples: list[dict]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_theorem(n: int, words: Iterable[Word],
                   system: UniversalSystem | None = None) -> TheoremReport:
    """Check, word by word, that the universal system computes canonical forms.

    For each word w: (a) evolving all-STAR matches the predicted vertex
    states; (b) folding the evolved states reproduces canonical_form(w);
    (c) every partial fold over vertices 1..k, k < n, equals the
    {1..k}-truncation of canonical_form(w).  The fold of (b) is the last
    partial fold, so the folds are computed once.  Only the first
    ``errors.MAX_COUNTEREXAMPLES`` failures are kept; ``checked`` counts
    every word.
    """
    usys = system if system is not None else build_universal(n)
    if usys.n != n:
        raise ValueError("system size does not match n")
    sysm = usys.system
    star = star_state(n)
    checked = 0
    counterexamples: list[dict] = []

    def note(w, kind, **extra):
        if len(counterexamples) < errors.MAX_COUNTEREXAMPLES:
            counterexamples.append({"word": w, "kind": kind, **extra})

    for w in words:
        checked += 1
        evolved = sysm.evolve(w, star)
        if evolved != predicted_state(w, n).components:
            note(w, "vertex-states")
            continue
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
    return TheoremReport(n, checked, counterexamples)


@dataclass
class IsoReport(_Report):
    """``checked`` counts the Cayley edges of K_n compared with those of D."""

    n: int
    kn_size: int
    dynamics_size: int
    checked: int
    counterexamples: list[dict]

    @property
    def ok(self) -> bool:
        return self.kn_size == self.dynamics_size and not self.counterexamples


def verify_isomorphism(n: int, max_size: int | None = None) -> IsoReport:
    """Certify that the dynamics monoid D of the universal system is K_n.

    phi sends each element of K_n, taken in shortlex order, to a map of D:
    phi(STAR) is the identity, and phi(c) = phi(c') F_a for the canonical
    word c = c' a, read off D's right Cayley graph (c' is canonical and
    listed before c).  Then every right Cayley edge of K_n is compared:
    phi(u a) must be phi(u) F_a.  If all agree, phi(class of w) = F_w for
    every word w, by induction on its length, so phi is onto D; equal sizes
    then make phi a bijection, which proves F_u = F_v iff Can u = Can v for
    all words.  A disagreeing edge is a counterexample.  ``max_size`` caps
    both monoids; if it is None, D is capped at ``errors.MAX_ELEMENTS`` and
    K_n only by the vertex guard.  At n = 6 the universal system's state
    space is over ``errors.MAX_STATES``.
    """
    monoid = build_universal(n).system.dynamics_monoid(max_size=max_size)
    kn = enumerate_kn(n, max_elements=max_size)
    d_right, k_right = monoid.right, kn.right
    phi = [0] * len(kn)
    for u, c in enumerate(kn.canons[1:], start=1):
        phi[u] = d_right[phi[kn.index[c[:-1]]] * n + c[-1] - 1]
    counterexamples: list[dict] = []
    for u, c in enumerate(kn.canons):
        for a in range(n):
            if phi[k_right[u * n + a]] != d_right[phi[u] * n + a]:
                counterexamples.append({"word": c, "letter": a + 1,
                                        "kind": "cayley-edge"})
    return IsoReport(n, len(kn), monoid.size, n * len(kn), counterexamples)


@dataclass(frozen=True)
class ReachabilityReport:
    n: int
    defined_sizes: tuple[int, ...]
    reachable_sizes: tuple[int, ...]
    reachable_state_count: int


def reachability_report(usys: UniversalSystem) -> ReachabilityReport:
    """Count, per vertex, the defined states versus those reachable from all-STAR."""
    reached = reachable_states(usys.system, star_state(usys.n))
    per_vertex = [set() for _ in range(usys.n)]
    for state in reached:
        for v, tok in enumerate(state):
            per_vertex[v].add(tok)
    return ReachabilityReport(
        usys.n,
        tuple(len(s) for s in usys.system.state_sets),
        tuple(len(s) for s in per_vertex),
        len(reached),
    )
