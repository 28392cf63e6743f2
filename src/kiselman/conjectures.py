"""Small-DAG sweep: does a join-based update system realise HK everywhere?

The sweep runs the join-based construction of ``universal`` on every
isomorphism class of small DAGs; on the complete acyclic graph it is the
universal system.

The dynamics monoid of any update system on a DAG is a quotient of HK, so
``dynamics_size <= hk_size`` always; the sweep records for every isomorphism
class of small DAGs whether this particular construction attains equality.
It does not everywhere.  On the diamond 1->2, 1->3, 2->4, 3->4, with or
without 1->4, it merges exactly one pair of HK classes, those of abcd and
cabdc, so |D| = |HK| - 1.  HK is still a dynamics monoid there: the product
of the join-based system with a seeded random system on the same graph
realises it, as ``test_diamond_graph_separates_this_construction_from_hk``
in ``tests/test_conjectures.py`` certifies.  The shortfall belongs to the
construction, not to the open question it probes.

The classes come from ``enumerate_dags``, which visits the upper-triangular
edge masks once and strikes out the orbit of each new class under the n!
relabellings, so it pays n! image lookups per class, not per mask.
``errors.MAX_CATALOG_VERTICES`` therefore caps the sweep that runs on the
catalog (HK and the dynamics closure on every class), not the catalog.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .canonical import enumerate_kn
from . import errors
from .errors import ResourceGuardError
from .hecke import enumerate_hk
from .sds import Dag, check_hk_relations, dag_to_json
from .universal import build_universal_dag


@dataclass(frozen=True)
class DagCatalog:
    items: tuple[Dag, ...]


def _subset_ors(bits: list[int]) -> list[int]:
    """``table[s]`` is the OR of ``bits[k]`` over the bits k set in s."""
    table = [0]
    for bit in bits:
        table += [x | bit for x in table]
    return table


def enumerate_dags(max_vertices: int) -> DagCatalog:
    """Every isomorphism class of DAGs on 1..max_vertices vertices, once.

    Each class has a topologically labelled member (edges i -> j with
    i < j), so the subsets of the upper-triangular pairs, read as bit masks,
    reach every class.  The masks are visited in increasing order.  The
    first one not yet marked starts a class; then each relabelling that
    keeps all of its edges upward marks the image, looked up half a mask at
    a time.  Those images are exactly the class's topologically labelled
    members, so every class is emitted once, as its least mask, in the order
    of its least mask.
    """
    if max_vertices < 1:
        raise ValueError(f"max_vertices={max_vertices}: the catalog needs at least 1 vertex")
    if max_vertices > errors.MAX_CATALOG_VERTICES:
        raise ResourceGuardError(
            f"catalog guard: max_vertices={max_vertices} exceeds "
            f"MAX_CATALOG_VERTICES={errors.MAX_CATALOG_VERTICES}"
        )
    items: list[Dag] = []
    for n in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        index = {pair: b for b, pair in enumerate(pairs)}
        half = len(pairs) // 2
        relabellings = []  # (pairs turned downward, low-half images, high-half images)
        for perm in itertools.permutations(range(1, n + 1)):
            down = 0
            bits = []
            for b, (i, j) in enumerate(pairs):
                u, v = perm[i - 1], perm[j - 1]
                if u > v:
                    down |= 1 << b
                    u, v = v, u
                bits.append(1 << index[u, v])
            relabellings.append((down, _subset_ors(bits[:half]), _subset_ors(bits[half:])))
        marked = bytearray(1 << len(pairs))
        for mask in range(len(marked)):
            if marked[mask]:
                continue
            items.append(Dag(n, [pairs[b] for b in range(len(pairs)) if mask >> b & 1]))
            low, high = mask & ((1 << half) - 1), mask >> half
            for down, low_images, high_images in relabellings:
                if not mask & down:
                    marked[low_images[low] | high_images[high]] = 1
    return DagCatalog(tuple(items))


@dataclass
class SweepRow:
    dag: Dag
    hk_size: int | None = None
    dynamics_size: int | None = None
    quotient_ok: bool | None = None
    match: bool | None = None
    seconds: float = 0.0
    skipped: str | None = None

    def to_json(self) -> dict:
        return {
            **dag_to_json(self.dag),
            "hk_size": self.hk_size,
            "dynamics_size": self.dynamics_size,
            "quotient_ok": self.quotient_ok,
            "match": self.match,
            "seconds": round(self.seconds, 3),
            "skipped": self.skipped,
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


def conjecture_sweep(max_vertices: int = 4) -> SweepReport:
    """Compare |HK| with the join-based dynamics on every small DAG.

    Guard overruns become per-row skips, never silent drops.  K_n, which
    algorithm B of ``enumerate_hk`` starts from, is built once per vertex
    count; if its guard refuses it, every row of that count is skipped
    with the guard's message.
    """
    catalog = enumerate_dags(max_vertices)
    report = SweepReport(max_vertices)
    kn_n, kn = None, None
    for dag in catalog.items:
        if kn_n != dag.n:
            kn_n = dag.n
            try:
                kn = enumerate_kn(dag.n)  # shared by the rows, so timed by none
            except ResourceGuardError as exc:
                kn = exc
        row = SweepRow(dag)
        started = time.perf_counter()
        try:
            if isinstance(kn, ResourceGuardError):
                raise kn
            hk = enumerate_hk(dag, kn=kn)
            system = build_universal_dag(dag)
            relations = check_hk_relations(system)
            monoid = system.dynamics_monoid()
            row.hk_size = hk.size
            row.dynamics_size = monoid.size
            row.quotient_ok = relations.ok
            row.match = monoid.size == hk.size
        except ResourceGuardError as exc:
            row.skipped = str(exc)
        row.seconds = time.perf_counter() - started
        report.rows.append(row)
    report.rows.sort(key=lambda r: (r.dag.n, r.dag.sorted_edges()))
    return report
