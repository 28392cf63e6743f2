"""Small-DAG sweep: does a join-based update system realise HK everywhere?

On an arbitrary DAG, generalise the universal construction: give vertex i
word-valued states and the update function

    f_i(out-neighbour states) = a_i . fold of joins over the neighbour
                                states, largest vertex outermost,

with every state set closed under the tables starting from all-STAR.  On the
complete acyclic graph this reproduces the universal system verbatim.

The dynamics monoid of any update system on a DAG is a quotient of HK, so
``dynamics_size <= hk_size`` always; the sweep records for every isomorphism
class of small DAGs whether this particular construction attains equality.
Equality everywhere is the expected outcome, not a hard guarantee: whether
the join-based system is universal beyond the complete graph is exactly the
open question the sweep probes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .errors import ResourceGuardError
from .hecke import enumerate_hk
from .sds import (
    Dag,
    UpdateSystem,
    check_hk_relations,
    dag_to_json,
    random_update_system,
)
from .universal import fold_join
from .words import STAR


@dataclass(frozen=True)
class DagCatalog:
    max_vertices: int
    items: tuple[Dag, ...]


def _canonical_key(n: int, edges) -> tuple:
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        mapped = tuple(sorted((perm[i - 1], perm[j - 1]) for i, j in edges))
        if best is None or mapped < best:
            best = mapped
    return (n, best)


def enumerate_dags(max_vertices: int) -> DagCatalog:
    """Every isomorphism class of DAGs on 1..max_vertices vertices, once.

    Each class has a topologically labelled member (edges i -> j with
    i < j), so iterating subsets of the upper-triangular pairs reaches all
    classes; brute-force permutation keying removes duplicates.
    """
    if not 1 <= max_vertices <= 5:
        raise ResourceGuardError("the catalog is built for 1..5 vertices")
    items: list[Dag] = []
    seen: set[tuple] = set()
    for n in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for mask in range(1 << len(pairs)):
            edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            key = _canonical_key(n, edges)
            if key not in seen:
                seen.add(key)
                items.append(Dag(n, edges))
    return DagCatalog(max_vertices, tuple(items))


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


def count_dags_by_edge_subsets(n: int) -> int:
    """Second, independent count: filter all ordered-pair subsets.

    Exhaustive over 2^(n(n-1)) subsets, so kept to n <= 4; used to
    cross-validate the catalog construction.
    """
    if not 1 <= n <= 4:
        raise ResourceGuardError("edge-subset filtering is kept to 1..4 vertices")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    seen: set[tuple] = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
        if any((j, i) in edges for i, j in edges):
            continue
        if not _is_acyclic(n, edges):
            continue
        seen.add(_canonical_key(n, edges))
    return len(seen)


def build_universal_dag(dag: Dag, max_product: int = 10 ** 6) -> UpdateSystem:
    """Join-based word-valued system on an arbitrary DAG.

    State sets are closed from all-STAR in reverse topological order: sinks
    first, then each vertex collects STAR plus every table output over its
    neighbours' full state sets.  One pass suffices on a DAG.
    """
    n = dag.n
    pools: dict[int, tuple] = {}
    tables: dict[int, dict] = {}
    for v in reversed(dag.topological_order()):
        nbrs = dag.out_neighbors(v)
        arg_pools = [pools[j] for j in nbrs]
        product_size = 1
        for pool in arg_pools:
            product_size *= len(pool)
        if product_size > max_product:
            raise ResourceGuardError(
                f"vertex {v} table needs {product_size} rows, over {max_product}"
            )
        table = {}
        words = {STAR}
        for args in itertools.product(*arg_pools):
            out = (v,) + fold_join(args)
            table[args] = out
            words.add(out)
        pools[v] = tuple(sorted(words, key=lambda w: (len(w), w)))
        tables[v] = table
    return UpdateSystem(
        dag,
        [pools[v] for v in range(1, n + 1)],
        [tables[v] for v in range(1, n + 1)],
    )


def search_larger_quotient(dag: Dag, target: int, trials: int = 25,
                           max_states: int = 3, seed: int = 0) -> int:
    """Best dynamics-monoid size over random systems on ``dag``.

    Best-effort probe used when the join-based system falls short of HK:
    stops early on reaching ``target``.
    """
    best = 0
    for t in range(trials):
        candidate = random_update_system(dag, max_states, seed + 7919 * t)
        best = max(best, candidate.dynamics_monoid().size)
        if best >= target:
            break
    return best


@dataclass
class SweepRow:
    dag: Dag
    hk_size: int | None = None
    dynamics_size: int | None = None
    quotient_ok: bool | None = None
    match: bool | None = None
    seconds: float = 0.0
    skipped: str | None = None
    search_best: int | None = None

    def to_json(self) -> dict:
        return {
            **dag_to_json(self.dag),
            "hk_size": self.hk_size,
            "dynamics_size": self.dynamics_size,
            "quotient_ok": self.quotient_ok,
            "match": self.match,
            "seconds": round(self.seconds, 3),
            "skipped": self.skipped,
            "search_best": self.search_best,
        }


@dataclass
class SweepReport:
    max_vertices: int
    rows: list[SweepRow] = field(default_factory=list)

    @property
    def matched(self) -> int:
        return sum(1 for r in self.rows if r.match)

    @property
    def mismatched(self) -> int:
        return sum(1 for r in self.rows if r.match is False)

    @property
    def skips(self) -> int:
        return sum(1 for r in self.rows if r.skipped is not None)

    @property
    def ok(self) -> bool:
        """The hard part: relations hold and dynamics never exceeds HK."""
        return all(
            r.skipped is not None
            or (r.quotient_ok and r.dynamics_size <= r.hk_size)
            for r in self.rows
        )

    def to_json(self) -> dict:
        return {
            "max_vertices": self.max_vertices,
            "rows": [r.to_json() for r in self.rows],
            "matched": self.matched,
            "mismatched": self.mismatched,
            "skipped": self.skips,
        }


def conjecture_sweep(max_vertices: int = 4, search_on_mismatch: bool = False,
                     search_trials: int = 25, search_max_states: int = 3,
                     seed: int = 0) -> SweepReport:
    """Compare |HK| with the join-based dynamics on every small DAG.

    Guard overruns become per-row skips, never silent drops.  When a row
    mismatches and the search is enabled, random update systems on the same
    graph probe (best effort) for a larger quotient.
    """
    catalog = enumerate_dags(max_vertices)
    report = SweepReport(max_vertices)
    for dag in catalog.items:
        row = SweepRow(dag)
        started = time.perf_counter()
        try:
            hk = enumerate_hk(dag)
            system = build_universal_dag(dag)
            relations = check_hk_relations(system)
            monoid = system.dynamics_monoid()
            row.hk_size = hk.size
            row.dynamics_size = monoid.size
            row.quotient_ok = relations.ok
            row.match = monoid.size == hk.size
            if not row.match and search_on_mismatch:
                row.search_best = max(
                    row.dynamics_size,
                    search_larger_quotient(dag, hk.size, search_trials,
                                           search_max_states, seed),
                )
        except ResourceGuardError as exc:
            row.skipped = str(exc)
        row.seconds = time.perf_counter() - started
        report.rows.append(row)
    report.rows.sort(key=lambda r: (r.dag.n, r.dag.sorted_edges()))
    return report
