"""The four benchmark workloads: seeded inputs, set-up, one timed pass, checks.

Each pass is a closed loop with one caller: every operation starts when the
previous one has returned.  An operation is timed alone; its output check
runs after the clock stops, so checks never count toward ``wall_s``.  A
refused, crashing or wrong operation fails that operation only.

Why these workloads (Collina-D'Andrea, arXiv:1311.3460):

* ``theorem``: the universal-system theorem on short random words.  The
  word layers (``canonical_form``, ``evolve``, ``predicted_state``,
  ``join``) do all the work; no HK, no closure.
* ``sweep``: |HK| against the join-based dynamics on the 40 DAG classes on
  <= 4 vertices plus the five-vertex path.  HK algorithm A dominates; the
  closures are many tiny ones.
* ``closure``: table, relations and dynamics closure of random update
  systems on five-vertex DAG classes, then K_6 by closure under
  generators.  State spaces run from tens to thousands of states;
  HK is never called.
* ``canon-long``: ``canonical_form`` and ``multiply`` on words of 250 to
  4,000 letters, the one place where the quadratic rewriting dominates.
"""

from __future__ import annotations

import inspect
import itertools
import random
import time

import speed
from kiselman import (
    Dag,
    build_universal,
    build_universal_dag,
    canonical_form,
    check_hk_relations,
    enumerate_dags,
    enumerate_hk,
    enumerate_kn,
    fold_join,
    is_canonical,
    is_quasi_subword,
    join,
    multiply,
    predicted_state,
    random_update_system,
    reconstruct_canonical,
    star_state,
    truncate_set,
    verify_theorem,
)
from kiselman.errors import ResourceGuardError
from kiselman.hecke import _word_count, kn_quotient_classes
from tracing import NullTracer

THEOREM_N = 5
THEOREM_WORDS = 15_000
THEOREM_MAX_LEN = 20

PATH5 = ((1, 2), (2, 3), (3, 4), (4, 5))
DIAMONDS = (((1, 2), (1, 3), (2, 4), (3, 4)),
            ((1, 2), (1, 3), (1, 4), (2, 4), (3, 4)))
SWEEP_CLASSES = 40

K6_SIZE = 83_973
CLOSURE_MAX_STATES = 5
CLOSURE_WITNESS_SAMPLE = 10
FIVE_VERTEX_CLASSES = 302

CANON_N = 6
CANON_LENGTHS = tuple(round(250 * 16 ** (k / 8)) for k in range(9))
CANON_ROUNDS = 3

MAX_PROBLEMS = 20


class Recorder:
    """Outcomes of the operations of one pass.

    ``sampler`` is the ``speed.Sampler`` that runs during the pass, if any;
    its samples are taken out of the operations' times.
    """

    def __init__(self, tracer, sampler=None):
        self.tracer = tracer
        self.sampler = sampler or speed.Sampler()
        self.seconds: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.refused = 0
        self.problems: list[tuple[int, str]] = []
        self.counts: dict[str, float] = {}
        self.spans: dict[str, list[tuple[float, float]]] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def op(self, kind: str, body, check):
        """Time ``body()``, then ``check`` its output with the clock stopped.

        ``check`` returns None or a description of what is wrong.  A guard
        refusal fails the operation; an exception of any other type, or a
        failed check, fails it and marks the output wrong.
        """
        index = self.attempted
        self.attempted += 1
        sid = self.tracer.open("op." + kind)
        paused = self.sampler.paused
        t0 = time.perf_counter()
        try:
            out = body()
        except ResourceGuardError as exc:
            self.refused += 1
            out, problem, wrong = None, f"refused: {exc}", False
        except Exception as exc:  # the boundary of one operation: record, go on
            out, problem, wrong = None, f"{type(exc).__name__}: {exc}", True
        else:
            problem = None
        t1 = time.perf_counter()
        self.tracer.close(sid)
        self.seconds.setdefault(kind, []).append(t1 - t0 - (self.sampler.paused - paused))
        self.spans.setdefault(kind, []).append((t0, t1))
        if problem is None:
            wrong = True
            try:
                problem = check(out)
            except Exception as exc:  # a malformed output fails this operation only
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            self.wrong += wrong
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append((index, problem))
        return out

    def scaled(self) -> dict[str, list[float]]:
        """Operation seconds at the reference speed (see ``speed.py``)."""
        scale = self.sampler.scale
        return {kind: [dt * scale(*span) for dt, span in zip(times, self.spans[kind])]
                for kind, times in self.seconds.items()}

    @property
    def wall_s(self) -> float:
        return sum(sum(v) for v in self.seconds.values())


# -- seeded inputs ------------------------------------------------------------


def theorem_words(seed: int, count: int = THEOREM_WORDS) -> list[tuple[int, ...]]:
    """Random words over 1..5 of length 0..20, as in acceptance criterion 5."""
    rng = random.Random(f"theorem-{seed}")
    return [tuple(rng.randint(1, THEOREM_N) for _ in range(rng.randint(0, THEOREM_MAX_LEN)))
            for _ in range(count)]


def closure_order(seed: int) -> list[int]:
    """Every second five-vertex class index (``class_key`` order), seeded order.

    The set of systems is fixed: class k gets ``random_update_system`` seed k.
    Random systems differ in cost by orders of magnitude, so a seeded choice
    of systems moved the pass time by a quarter from seed to seed; a fixed
    set keeps seeds comparable, and the seed only orders it.
    """
    order = list(range(0, FIVE_VERTEX_CLASSES, 2))
    random.Random(f"closure-{seed}").shuffle(order)
    return order


def canon_items(seed: int, lengths=CANON_LENGTHS, rounds: int = CANON_ROUNDS):
    """(path, word, split) triples: per round, one canon and one mult word per length.

    ``split`` cuts a mult word into its two factors; it is 0 on canon words.
    The words are fixed and the seed only orders them: rewriting cost varies
    by a quarter with a word's content, which moved the median by more than
    a tenth from seed to seed.
    """
    rng = random.Random("canon-long")
    items = []
    for _ in range(rounds):
        for length in lengths:
            for path in ("canon", "mult"):
                w = tuple(rng.randint(1, CANON_N) for _ in range(length))
                split = rng.randint(1, length - 1) if path == "mult" else 0
                items.append((path, w, split))
    random.Random(f"canon-long-{seed}").shuffle(items)
    return items


def class_key(n: int, edges) -> tuple:
    """Isomorphism-invariant key of a DAG: its least relabelled edge list."""
    return min(tuple(sorted((p[i - 1], p[j - 1]) for i, j in edges))
               for p in itertools.permutations(range(1, n + 1)))


# -- theorem --------------------------------------------------------------------


def theorem_setup(seed, tr, count=THEOREM_WORDS):
    usys = tr.call("universal.build_universal", build_universal, THEOREM_N)
    return usys, theorem_words(seed, count)


def _theorem_verdict(report):
    if report.checked != 1:
        return f"checked {report.checked} of 1 words"
    return report.counterexamples[0]["kind"] if report.counterexamples else None


def _theorem_split(w, usys, star, tr):
    """``verify_theorem`` on one word, one span per public call.

    Returns the counterexample kind ``verify_theorem`` would report, or None.
    """
    n = usys.n
    evolved = tr.call("sds.evolve", usys.system.evolve, w, star)
    pred = tr.call("universal.predicted_state", predicted_state, w, n).components
    if evolved != pred:
        return "vertex-states"
    canw = tr.call("canonical.canonical_form", canonical_form, w, size=len(w))
    if tr.call("universal.reconstruct_canonical", reconstruct_canonical, evolved) != canw:
        return "reconstruction"
    acc = evolved[0]
    for k in range(1, n + 1):
        if k > 1:
            acc = tr.call("words.join", join, evolved[k - 1], acc)
        if acc != tr.call("words.truncate_set", truncate_set, canw, range(1, k + 1)):
            return "partial-fold"
    return None


def theorem_pass(ctx, rec):
    """One ``verify_theorem`` call per word; traced, its split into spans.

    The traced pass must reach ``verify_theorem``'s verdicts, so after it
    the words are verified again, untimed, and the two verdicts compared.
    """
    usys, words = ctx
    tr = rec.tracer
    rec.add("words", len(words))
    if not tr.enabled:
        for w in words:
            rec.op("word", lambda: verify_theorem(THEOREM_N, (w,), usys), _theorem_verdict)
        return []
    star = star_state(usys.n)
    for w in words:
        rec.op("word", lambda: _theorem_split(w, usys, star, tr), lambda kind: kind)
    plain = Recorder(NullTracer())
    theorem_pass(ctx, plain)
    if (plain.failed, plain.problems) != (rec.failed, rec.problems):
        return [f"traced verdicts {rec.problems[:3]} differ from verify_theorem's "
                f"{plain.problems[:3]}"]
    return []


# -- sweep --------------------------------------------------------------------


def sweep_setup(seed, tr):
    """The seed is unused: the catalog is fixed."""
    catalog = tr.call("conjectures.enumerate_dags", enumerate_dags, 4)
    dags = list(catalog.items) + [Dag(5, PATH5)]
    diamond_keys = {class_key(4, d) for d in DIAMONDS}
    shortfall = [1 if d.n == 4 and class_key(4, d.edges) in diamond_keys else 0
                 for d in dags]
    return dags, shortfall


def _sweep_dag(dag, is_path, tr, rec):
    """The calls ``conjecture_sweep`` makes for one row."""
    try:
        hk = tr.call("hecke.enumerate_hk", enumerate_hk, dag)
    except ResourceGuardError:
        if not is_path:
            raise
        rec.refused += 1  # the known word-guard refusal, checked below
        return None
    system = tr.call("conjectures.build_universal_dag", build_universal_dag, dag)
    relations = tr.call("sds.check_hk_relations", check_hk_relations, system)
    monoid = tr.call("sds.dynamics_monoid", system.dynamics_monoid)
    return hk, system, relations, monoid


def _words_ranked(n: int, explored_length: int) -> int:
    """Words algorithm A ranked, summed over the bounds it tried.

    The bounds run in steps of two from ``enumerate_hk``'s default start
    length up to ``explored_length``.
    """
    start = inspect.signature(enumerate_hk).parameters["start_length"].default
    return sum(_word_count(n, bound) for bound in range(start, explored_length + 1, 2))


def _sweep_check(out, is_path, shortfall, tr, rec):
    if out is None:
        return None  # the path is refused today; a certified |HK| is checked below
    hk, system, relations, monoid = out
    size_b, reps_b = tr.call("hecke.kn_quotient_classes", kn_quotient_classes,
                             hk.presentation)
    _count_monoid(rec, system, monoid)
    rec.add("hk_classes", hk.size)
    if hasattr(hk, "explored_length"):
        rec.add("words_ranked", _words_ranked(system.graph.n, hk.explored_length))
    if hk.size != size_b or frozenset(hk.representatives) != reps_b:
        return f"algorithm A found {hk.size} classes, B {size_b}"
    if not relations.ok:
        return f"relations fail: {relations.failures()[:3]}"
    if monoid.size > hk.size:
        return f"|D| = {monoid.size} exceeds |HK| = {hk.size}"
    if not is_path and hk.size - monoid.size != shortfall:
        return f"|HK| - |D| = {hk.size - monoid.size}, expected {shortfall}"
    return None


def sweep_pass(ctx, rec):
    dags, shortfall = ctx
    tr = rec.tracer
    last = len(dags) - 1
    for k, dag in enumerate(dags):
        rec.op("dag", lambda: _sweep_dag(dag, k == last, tr, rec),
               lambda out: _sweep_check(out, k == last, shortfall[k], tr, rec))
    problems = []
    if len(dags) - 1 != SWEEP_CLASSES:
        problems.append(f"catalog has {len(dags) - 1} classes, expected {SWEEP_CLASSES}")
    if sum(shortfall) != len(DIAMONDS):
        problems.append(f"found {sum(shortfall)} diamond classes, expected {len(DIAMONDS)}")
    return problems


def _count_monoid(rec, system, monoid):
    states = system.state_count()
    n = system.graph.n
    rec.add("maps", monoid.size)
    rec.add("compositions", monoid.size * n)
    rec.add("state_ops", monoid.size * n * states)


# -- closure ------------------------------------------------------------------


def closure_setup(seed, tr):
    catalog = tr.call("conjectures.enumerate_dags", enumerate_dags, 5)
    # Order classes by a key of the benchmark's own and rebuild each from it,
    # so a seed names the same systems whatever order or labelling the
    # catalog uses.
    keys = sorted(class_key(5, d.edges) for d in catalog.items if d.n == 5)
    order = closure_order(seed) if len(keys) == FIVE_VERTEX_CLASSES else []
    systems = [tr.call("sds.random_update_system", random_update_system,
                       Dag(5, keys[k]), CLOSURE_MAX_STATES, k) for k in order]
    sample = set(random.Random(f"witness-{seed}").sample(
        range(len(order)), min(CLOSURE_WITNESS_SAMPLE, len(order))))
    return systems, sample, len(keys)


def _kn_check(kn, rec):
    rec.add("kn_elements", len(kn))
    return None if len(kn) == K6_SIZE else f"|K_6| = {len(kn)}, expected {K6_SIZE}"


def _closure_system(system, tr):
    states = system.state_count()
    for v in range(1, system.graph.n + 1):
        tr.call("sds.local_table", system.local_table, v, size=states)
    relations = tr.call("sds.check_hk_relations", check_hk_relations, system)
    monoid = tr.call("sds.dynamics_monoid", system.dynamics_monoid)
    return relations, monoid


def _closure_check(out, system, witness, rec):
    relations, monoid = out
    _count_monoid(rec, system, monoid)
    rec.add("table_states", system.state_count() * system.graph.n)
    if not relations.ok:
        return f"relations fail: {relations.failures()[:3]}"
    if witness:
        for m in monoid.maps:
            if system.evolution_table(m.witness) != m.table:
                return f"witness {m.witness} does not reproduce map {m.ident}"
    return None


def closure_pass(ctx, rec):
    systems, sample, classes = ctx
    tr = rec.tracer
    for k, system in enumerate(systems):
        rec.op("system", lambda: _closure_system(system, tr),
               lambda out: _closure_check(out, system, k in sample, rec))
    rec.op("kn", lambda: tr.call("canonical.enumerate_kn", enumerate_kn, 6),
           lambda kn: _kn_check(kn, rec))
    if classes != FIVE_VERTEX_CLASSES:
        return [f"catalog has {classes} five-vertex classes, expected {FIVE_VERTEX_CLASSES}"]
    return []


# -- canon-long ---------------------------------------------------------------


def canon_setup(seed, tr, lengths=CANON_LENGTHS, rounds=CANON_ROUNDS):
    usys = tr.call("universal.build_universal", build_universal, CANON_N)
    return usys, canon_items(seed, lengths, rounds)


def _canon_check(c, w, usys, star):
    if not is_canonical(c):
        return "result is not canonical"
    if not is_quasi_subword(c, w):
        return "result is not a quasi-subword of the input"
    if c != fold_join(usys.system.evolve(w, star)):
        return "result differs from the fold of the universal evolution"
    return None


def canon_pass(ctx, rec):
    usys, items = ctx
    tr = rec.tracer
    star = star_state(CANON_N)
    for path, w, split in items:
        if path == "canon":
            body = lambda: tr.call("canonical.canonical_form", canonical_form, w, size=len(w))
        else:
            u, v = w[:split], w[split:]
            body = lambda: tr.call("canonical.multiply", multiply, u, v, size=len(w))
        rec.op("word", body, lambda c: _canon_check(c, w, usys, star))
        rec.add("letters", len(w))
    return []


WORKLOADS = {
    "theorem": (theorem_setup, theorem_pass),
    "sweep": (sweep_setup, sweep_pass),
    "closure": (closure_setup, closure_pass),
    "canon-long": (canon_setup, canon_pass),
}

# Per workload: the operation kind whose latency the end-to-end percentiles
# report, and the tail percentile: p90, or p75 where a pass has too few
# operations to leave about ten beyond p90 (41 DAGs; 54 words in nine length
# classes, where p75 falls inside the 2,000-letter class rather than between
# two classes).
PRIMARY_OP = {"theorem": ("word", 90), "sweep": ("dag", 75),
              "closure": ("system", 90), "canon-long": ("word", 75)}
