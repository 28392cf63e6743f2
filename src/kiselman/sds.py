"""Update systems and their dynamics monoids on directed acyclic graphs.

An update system is a triple (graph, state sets, vertex functions): every
vertex i carries a finite state set S_i and a total lookup table

    f_i : prod of S_j over the out-neighbours j of i  ->  S_i,

with the out-neighbour product taken in ascending vertex order.  The local
map F_i rewrites coordinate i of a system state to f_i(restriction) and
fixes everything else.  A schedule word w = i_1 i_2 ... i_k induces the
evolution F_w = F_{i_1} F_{i_2} ... F_{i_k}, the LAST letter acting first.

The dynamics monoid D(S) is the closure of the identity under composition
with the local maps.  On an acyclic graph the local maps satisfy

    F_i F_i = F_i
    F_i F_j F_i = F_j F_i F_j = F_i F_j   for every edge i -> j
    F_i F_j = F_j F_i                     for non-adjacent i, j

so evaluation of schedule words factors through the Hecke-Kiselman monoid
of the graph; ``check_hk_relations`` verifies the relations as equalities
of map tables.

Evolution works directly on token tuples, so single trajectories never need
the global state space.  The dynamics monoid enumerates the state space once
(mixed-radix indexing, vertex 1 most significant) and interns map tables.
All structures are immutable after construction.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from collections.abc import Hashable, Iterator, Mapping, Sequence

from .errors import ResourceGuardError
from .words import Word

Token = Hashable
SystemState = tuple


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph on vertices 1..n, simple and loop-free."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset((int(i), int(j)) for i, j in edges))
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for i, j in self.edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) leaves the vertex range 1..{n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
        out: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
        for i, j in self.edges:
            out[i].append(j)
        object.__setattr__(
            self, "_out", {i: tuple(sorted(js)) for i, js in out.items()}
        )
        object.__setattr__(self, "_topo", self._toposort())

    def _toposort(self) -> tuple[int, ...]:
        indeg = {i: 0 for i in range(1, self.n + 1)}
        for _, j in self.edges:
            indeg[j] += 1
        ready = [i for i, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for j in self._out[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(ready, j)
        if len(order) != self.n:
            raise ValueError("graph has a directed cycle")
        return tuple(order)

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        return self._out[i]

    def topological_order(self) -> tuple[int, ...]:
        return self._topo

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def adjacent(self, i: int, j: int) -> bool:
        return (i, j) in self.edges or (j, i) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def check_vertex_count(n: int, max_vertices: int) -> None:
    """Refuse a graph with more than ``max_vertices`` vertices."""
    if n > max_vertices:
        raise ResourceGuardError(
            f"vertex guard: {n} vertices exceed max_vertices={max_vertices}"
        )


def complete_dag(n: int) -> Dag:
    """The complete acyclic orientation: i -> j iff i < j."""
    return Dag(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


@dataclass(frozen=True)
class DynamicsMap:
    """A total map on the enumerated state space; equality is tablewise."""

    table: tuple[int, ...]
    ident: int = field(compare=False)
    witness: Word = field(compare=False)


class DynamicsMonoid:
    """Interned dynamics maps; ``maps[0]`` is the identity."""

    def __init__(self, maps: list[DynamicsMap]):
        self.maps = tuple(maps)
        self.index = {m.table: m.ident for m in maps}

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    @property
    def size(self) -> int:
        return len(self.maps)

    @property
    def identity(self) -> DynamicsMap:
        return self.maps[0]

    def compose(self, a: DynamicsMap, b: DynamicsMap) -> DynamicsMap:
        """a after b; the monoid is closed, so the result is a member."""
        at = a.table
        table = tuple(at[x] for x in b.table)
        return self.maps[self.index[table]]


class UpdateSystem:
    """A graph with per-vertex finite state sets and total function tables."""

    def __init__(self, graph: Dag, state_sets: Sequence[Sequence[Token]],
                 vertex_functions: Sequence[Mapping[tuple, Token]]):
        n = graph.n
        if len(state_sets) != n or len(vertex_functions) != n:
            raise ValueError("need one state set and one table per vertex")
        self.graph = graph
        self.state_sets = tuple(tuple(s) for s in state_sets)
        for v, states in enumerate(self.state_sets, start=1):
            if not states:
                raise ValueError(f"vertex {v} has an empty state set")
            if len(set(states)) != len(states):
                raise ValueError(f"vertex {v} lists a state twice")
        self.vertex_functions = tuple(dict(t) for t in vertex_functions)
        self._token_pos = tuple(
            {tok: p for p, tok in enumerate(states)} for states in self.state_sets
        )
        self._out = tuple(graph.out_neighbors(v) for v in range(1, n + 1))
        self._validate_tables()
        self._local_tables: dict[int, tuple[int, ...]] = {}

    def _validate_tables(self):
        for v in range(1, self.graph.n + 1):
            table = self.vertex_functions[v - 1]
            pools = [self.state_sets[j - 1] for j in self._out[v - 1]]
            expected = set(itertools.product(*pools))
            if set(table) != expected:
                raise ValueError(
                    f"table of vertex {v} is not total over its out-neighbour states"
                )
            own = set(self.state_sets[v - 1])
            for args, res in table.items():
                if res not in own:
                    raise ValueError(
                        f"table of vertex {v} maps {args!r} outside its state set"
                    )

    # -- token-level dynamics ------------------------------------------

    def initial_state(self) -> SystemState:
        return tuple(states[0] for states in self.state_sets)

    def local_apply(self, i: int, state: SystemState) -> SystemState:
        if not 1 <= i <= self.graph.n:
            raise ValueError(f"vertex {i} out of range")
        args = tuple(state[j - 1] for j in self._out[i - 1])
        new = self.vertex_functions[i - 1][args]
        return state[:i - 1] + (new,) + state[i:]

    def evolve(self, w: Word, state: SystemState) -> SystemState:
        for i in reversed(w):
            state = self.local_apply(i, state)
        return state

    # -- enumerated state space ----------------------------------------

    def state_count(self) -> int:
        count = 1
        for states in self.state_sets:
            count *= len(states)
        return count

    def states(self) -> Iterator[SystemState]:
        return itertools.product(*self.state_sets)

    def state_index(self, state: SystemState) -> int:
        idx = 0
        for pos, tok in zip(self._token_pos, state):
            idx = idx * len(pos) + pos[tok]
        return idx

    def state_at(self, idx: int) -> SystemState:
        out = []
        for states in reversed(self.state_sets):
            idx, p = divmod(idx, len(states))
            out.append(states[p])
        return tuple(reversed(out))

    def local_table(self, i: int, max_states: int = 10 ** 6) -> tuple[int, ...]:
        """The local map of vertex ``i`` as a table over state indices."""
        if i in self._local_tables:
            return self._local_tables[i]
        count = self.state_count()
        if count > max_states:
            raise ResourceGuardError(
                f"state space of size {count} exceeds the limit {max_states}"
            )
        sizes = [len(s) for s in self.state_sets]
        weights = [1] * len(sizes)
        for v in range(len(sizes) - 2, -1, -1):
            weights[v] = weights[v + 1] * sizes[v + 1]
        out_pos = [j - 1 for j in self._out[i - 1]]
        fn = self.vertex_functions[i - 1]
        pos_i = self._token_pos[i - 1]
        table_idx = {}
        for args in itertools.product(*[range(len(self.state_sets[p])) for p in out_pos]):
            tokens = tuple(self.state_sets[out_pos[k]][p] for k, p in enumerate(args))
            table_idx[args] = pos_i[fn[tokens]]
        wi = weights[i - 1]
        table = [0] * count
        for idx, digits in enumerate(itertools.product(*[range(k) for k in sizes])):
            new = table_idx[tuple(digits[p] for p in out_pos)]
            table[idx] = idx + (new - digits[i - 1]) * wi
        result = tuple(table)
        self._local_tables[i] = result
        return result

    def evolution_table(self, w: Word, max_states: int = 10 ** 6) -> tuple[int, ...]:
        """Table of F_w over state indices (last letter acts first)."""
        count = self.state_count()
        if count > max_states:
            raise ResourceGuardError(
                f"state space of size {count} exceeds the limit {max_states}"
            )
        table = tuple(range(count))
        for i in w:
            gen = self.local_table(i, max_states)
            table = tuple(table[x] for x in gen)
        return table

    def dynamics_monoid(self, max_size: int = 10 ** 6,
                        max_states: int = 10 ** 6) -> DynamicsMonoid:
        """Close the identity under left composition with every local map.

        Each element carries a witnessing schedule word (a shortest one,
        thanks to breadth-first order).
        """
        count = self.state_count()
        if count > max_states:
            raise ResourceGuardError(
                f"state space of size {count} exceeds the limit {max_states}"
            )
        n = self.graph.n
        gens = {g: self.local_table(g, max_states) for g in range(1, n + 1)}
        identity = tuple(range(count))
        maps = [DynamicsMap(identity, 0, ())]
        index = {identity: 0}
        frontier = [0]
        while frontier:
            fresh = []
            for mid in frontier:
                mt = maps[mid].table
                for g in range(1, n + 1):
                    gt = gens[g]
                    table = tuple(gt[x] for x in mt)
                    if table not in index:
                        ident = len(maps)
                        if ident >= max_size:
                            raise ResourceGuardError(
                                f"dynamics monoid exceeds the limit {max_size}"
                            )
                        index[table] = ident
                        maps.append(DynamicsMap(table, ident, (g,) + maps[mid].witness))
                        fresh.append(ident)
            frontier = fresh
        return DynamicsMonoid(maps)


def reachable_states(sys: UpdateSystem, initial: SystemState) -> set[SystemState]:
    """All system states reachable from ``initial`` under the local maps."""
    seen = {initial}
    frontier = [initial]
    while frontier:
        fresh = []
        for s in frontier:
            for i in range(1, sys.graph.n + 1):
                t = sys.local_apply(i, s)
                if t not in seen:
                    seen.add(t)
                    fresh.append(t)
        frontier = fresh
    return seen


# -- the defining relations ------------------------------------------------


@dataclass(frozen=True)
class RelationCheck:
    kind: str
    vertices: tuple[int, ...]
    ok: bool


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[RelationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.ok]


def check_hk_relations(sys: UpdateSystem, max_states: int = 10 ** 6) -> RelationReport:
    """Verify idempotence, the edge triple, and non-adjacent commutation.

    A failing entry signals an implementation bug: the relations hold for
    every update system on an acyclic graph.
    """
    n = sys.graph.n
    t = {g: sys.local_table(g, max_states) for g in range(1, n + 1)}

    def after(a, b):
        return tuple(a[x] for x in b)

    checks = []
    for i in range(1, n + 1):
        checks.append(RelationCheck("idempotent", (i,), after(t[i], t[i]) == t[i]))
    for i, j in sys.graph.sorted_edges():
        ij = after(t[i], t[j])
        iji = after(ij, t[i])
        jij = after(t[j], after(t[i], t[j]))
        checks.append(RelationCheck("edge-triple", (i, j), iji == ij and jij == ij))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not sys.graph.adjacent(i, j):
                ok = after(t[i], t[j]) == after(t[j], t[i])
                checks.append(RelationCheck("commute", (i, j), ok))
    return RelationReport(tuple(checks))


def random_update_system(dag: Dag, max_states: int, seed: int) -> UpdateSystem:
    """Reproducible random system: state-set sizes in 1..max_states, uniform tables."""
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    rng = random.Random(seed)
    sizes = [rng.randint(1, max_states) for _ in range(dag.n)]
    state_sets = [list(range(k)) for k in sizes]
    tables = []
    for v in range(1, dag.n + 1):
        pools = [state_sets[j - 1] for j in dag.out_neighbors(v)]
        table = {
            args: rng.randrange(sizes[v - 1])
            for args in itertools.product(*pools)
        }
        tables.append(table)
    return UpdateSystem(dag, state_sets, tables)


# -- JSON formats ------------------------------------------------------------


def dag_to_json(dag: Dag) -> dict:
    return {"n": dag.n, "edges": [list(e) for e in dag.sorted_edges()]}


def dag_from_json(obj: dict, max_vertices: int | None = None) -> Dag:
    """Load a graph; ``max_vertices`` is checked before the graph is built."""
    try:
        n = int(obj["n"])
        edges = [(int(i), int(j)) for i, j in obj.get("edges", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad graph object: {exc}") from None
    if max_vertices is not None:
        check_vertex_count(n, max_vertices)
    return Dag(n, edges)


def system_to_json(sys: UpdateSystem) -> dict:
    functions = []
    for v in range(1, sys.graph.n + 1):
        table = [
            {"args": [str(a) for a in args], "out": str(out)}
            for args, out in sorted(
                sys.vertex_functions[v - 1].items(), key=lambda kv: tuple(map(str, kv[0]))
            )
        ]
        functions.append({"vertex": v, "table": table})
    return {
        "graph": dag_to_json(sys.graph),
        "states": [[str(tok) for tok in states] for states in sys.state_sets],
        "functions": functions,
    }


def system_from_json(obj: dict) -> UpdateSystem:
    """Load a system; state tokens are kept as the strings found in the file."""
    try:
        graph = dag_from_json(obj["graph"])
        states = [[str(tok) for tok in row] for row in obj["states"]]
        raw_functions = list(obj["functions"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad system object: {exc}") from None
    tables: list[dict | None] = [None] * graph.n
    for entry in raw_functions:
        try:
            v = int(entry["vertex"])
            rows = entry["table"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad function entry: {exc}") from None
        if not 1 <= v <= graph.n:
            raise ValueError(f"function entry for unknown vertex {v}")
        if tables[v - 1] is not None:
            raise ValueError(f"vertex {v} has two function tables")
        table = {}
        for row in rows:
            args = tuple(str(a) for a in row["args"])
            if args in table:
                raise ValueError(f"vertex {v} repeats arguments {args!r}")
            table[args] = str(row["out"])
        tables[v - 1] = table
    missing = [v + 1 for v, t in enumerate(tables) if t is None]
    if missing:
        raise ValueError(f"missing function tables for vertices {missing}")
    return UpdateSystem(graph, states, tables)
