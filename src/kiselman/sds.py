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

Evolution works directly on tokens, so single trajectories never need the
global state space.  Each vertex gets one argument getter when the system
is built, which reads its out-neighbour tokens from a state as the key of
its table; ``evolve`` rewrites one list in place with them, letter by
letter, and a one-letter word is a single local map.  The dynamics monoid
enumerates the state space once (mixed-radix indexing, vertex 1 most
significant) and interns map tables.  Local tables are built column by
column from per-vertex digit lists, and tables are composed by
``operator.itemgetter``, at C speed.

The dynamics monoid is closed by the Froidure-Pin routine of ``closure``,
the same one that enumerates K_n.  It runs on reversed schedule words: the
right product of a map by generator ``a`` is F_a applied after it, so a
witness is the reversed reduced word, and maps come out in breadth-first
order with shortest witnesses.  A composition is computed only where a new
map can appear; every other product is read off the Cayley graphs.  The
monoid keeps only the maps and their witnesses, not the Cayley graphs.
Tables are hashed once, inside the closure.  All structures are immutable
after construction.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from collections.abc import Hashable, Iterator, Mapping, Sequence
from operator import add, itemgetter, sub

from .closure import froidure_pin
from .errors import check_state_count
from .words import Word

Token = Hashable
SystemState = tuple


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph on vertices 1..n, simple and loop-free.

    The count and the edge ends must be ints, not bools, floats or strings,
    and each edge a tuple or list of two, so nothing is truncated or split.
    """

    n: int
    edges: frozenset

    def __init__(self, n: int, edges):
        if type(n) is not int:
            raise ValueError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        pairs = set()
        for edge in edges:
            if (type(edge) not in (tuple, list) or len(edge) != 2
                    or any(type(x) is not int for x in edge)):
                raise ValueError(f"edge {edge!r} is not a pair of int vertices")
            i, j = edge
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) leaves the vertex range 1..{n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            pairs.add((i, j))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(pairs))
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


def _argument_getter(out: tuple[int, ...]):
    """The key of a vertex table read from a state: its out-neighbours' tokens.

    ``itemgetter`` with a single index returns the item, not a 1-tuple, so
    vertices with fewer than two out-neighbours get their own getter.
    """
    if not out:
        return lambda state: ()
    if len(out) == 1:
        j = out[0] - 1
        return lambda state: (state[j],)
    return itemgetter(*[j - 1 for j in out])


def compose_tables(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The table of ``a`` after ``b``: ``tuple(a[x] for x in b)``."""
    if len(b) == 1:
        return (a[b[0]],)  # itemgetter with one index returns a scalar
    return itemgetter(*b)(a)


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
    """Interned dynamics maps, ``maps[0]`` the identity.

    ``stats`` says what the closure did: ``states``, ``maps``,
    ``compositions`` (tables actually computed) and ``products`` (Cayley
    edges filled, one per map and generator).
    """

    def __init__(self, maps: list[DynamicsMap], stats: dict[str, int]):
        self.maps = tuple(maps)
        self.stats = stats

    def __iter__(self):
        return iter(self.maps)

    @property
    def size(self) -> int:
        return len(self.maps)

    @property
    def identity(self) -> DynamicsMap:
        return self.maps[0]


class UpdateSystem:
    """A graph with per-vertex finite state sets and total function tables.

    The system owns the table mappings it is given: it checks them and
    keeps them without a copy, so they must not change afterwards.
    """

    def __init__(self, graph: Dag, state_sets: Sequence[Sequence[Token]],
                 vertex_functions: Sequence[Mapping[tuple, Token]]):
        n = graph.n
        if len(state_sets) != n or len(vertex_functions) != n:
            raise ValueError("need one state set and one table per vertex")
        self.graph = graph
        self.state_sets = tuple(tuple(s) for s in state_sets)
        self._token_pos = tuple(
            {tok: p for p, tok in enumerate(states)} for states in self.state_sets
        )
        for v, (states, pos) in enumerate(zip(self.state_sets, self._token_pos), start=1):
            if not states:
                raise ValueError(f"vertex {v} has an empty state set")
            if len(pos) != len(states):
                raise ValueError(f"vertex {v} lists a state twice")
        self.vertex_functions = tuple(vertex_functions)
        self._out = tuple(graph.out_neighbors(v) for v in range(1, n + 1))
        self._args = tuple(_argument_getter(out) for out in self._out)
        self._validate_tables()
        self._local_tables: dict[int, tuple[int, ...]] = {}

    def _validate_tables(self):
        # A table is total when its keys are exactly the out-neighbour
        # product.  The pools hold no state twice, so the product has
        # ``rows`` distinct tuples; a table of that length that contains
        # every one of them has no other key.  The row loop only runs to
        # name the arguments of an output outside the state set.
        for v in range(1, self.graph.n + 1):
            table = self.vertex_functions[v - 1]
            pools = [self.state_sets[j - 1] for j in self._out[v - 1]]
            rows = math.prod(map(len, pools))
            if len(table) != rows or not all(
                    map(table.__contains__, itertools.product(*pools))):
                raise ValueError(
                    f"table of vertex {v} is not total over its out-neighbour states"
                )
            own = self._token_pos[v - 1]
            if not all(map(own.__contains__, table.values())):
                for args, res in table.items():
                    if res not in own:
                        raise ValueError(
                            f"table of vertex {v} maps {args!r} outside its state set"
                        )

    # -- token-level dynamics ------------------------------------------

    def initial_state(self) -> SystemState:
        return tuple(states[0] for states in self.state_sets)

    def evolve(self, w: Word, state: SystemState) -> SystemState:
        """The state F_w(state): the letters of ``w`` apply right to left.

        Every letter is range-checked before any is applied; the error
        names the rightmost bad letter, the first that would act.
        """
        n = self.graph.n
        if w and (min(w) < 1 or max(w) > n):
            bad = next(i for i in reversed(w) if not 1 <= i <= n)
            raise ValueError(f"vertex {bad} out of range")
        fns = self.vertex_functions
        args = self._args
        out = list(state)
        for i in reversed(w):
            out[i - 1] = fns[i - 1][args[i - 1](out)]
        return tuple(out)

    # -- enumerated state space ----------------------------------------

    def state_count(self) -> int:
        return math.prod(map(len, self.state_sets))

    def states(self) -> Iterator[SystemState]:
        return itertools.product(*self.state_sets)

    def state_index(self, state: SystemState) -> int:
        idx = 0
        for pos, tok in zip(self._token_pos, state):
            idx = idx * len(pos) + pos[tok]
        return idx

    def state_at(self, idx: int) -> SystemState:
        if not 0 <= idx < self.state_count():
            raise ValueError(f"state index {idx} out of range")
        out = []
        for states in reversed(self.state_sets):
            idx, p = divmod(idx, len(states))
            out.append(states[p])
        return tuple(reversed(out))

    def local_table(self, i: int) -> tuple[int, ...]:
        """The local map of vertex ``i`` as a table over state indices."""
        if not 1 <= i <= self.graph.n:
            raise ValueError(f"vertex {i} out of range")
        count = self.state_count()
        check_state_count(count)
        if i in self._local_tables:
            return self._local_tables[i]
        sizes = [len(s) for s in self.state_sets]
        weights = [1] * len(sizes)
        for v in range(len(sizes) - 2, -1, -1):
            weights[v] = weights[v + 1] * sizes[v + 1]

        def column(p: int, scale: int) -> list[int]:
            """Digit of vertex p + 1 in every state, times ``scale``."""
            block = []
            for d in range(sizes[p]):
                block += [d * scale] * weights[p]
            return block * (count // len(block))

        # Number the joint digits of the out-neighbours mixed-radix, in the
        # order of the rows of f_i, and look up the new digit of i per state.
        out_pos = [j - 1 for j in self._out[i - 1]]
        key = [0] * count
        radix = 1
        for p in reversed(out_pos):
            key = list(map(add, key, column(p, radix)))
            radix *= sizes[p]
        fn = self.vertex_functions[i - 1]
        pos_i = self._token_pos[i - 1]
        wi = weights[i - 1]
        new = [pos_i[fn[tokens]] * wi
               for tokens in itertools.product(*[self.state_sets[p] for p in out_pos])]
        moved = map(add, range(count), compose_tables(new, key))
        result = tuple(map(sub, moved, column(i - 1, wi)))
        self._local_tables[i] = result
        return result

    def evolution_table(self, w: Word) -> tuple[int, ...]:
        """Table of F_w over state indices (last letter acts first)."""
        count = self.state_count()
        check_state_count(count)
        table = tuple(range(count))
        for i in w:
            table = compose_tables(table, self.local_table(i))
        return table

    def dynamics_monoid(self) -> DynamicsMonoid:
        """Close the identity under left composition with every local map.

        The Froidure-Pin routine of ``closure`` composes a table only where
        a new map can appear.  Maps come out in breadth-first order, each
        with a shortest witnessing schedule word, least in shortlex order
        when read backwards.  The state guard runs in ``local_table``, and
        the closure's element guard, ``errors.MAX_ELEMENTS``, caps the maps.
        """
        n = self.graph.n
        gens = [self.local_table(g) for g in range(1, n + 1)]
        count = self.state_count()
        tables, prefix, last, compositions, _, _ = froidure_pin(
            tuple(range(count)), gens, lambda m, g: compose_tables(g, m),
            "dynamics monoid",
        )
        witnesses = [()]
        for p, a in zip(prefix[1:], last[1:]):
            witnesses.append((a + 1,) + witnesses[p])
        maps = [DynamicsMap(t, k, w) for k, (t, w) in enumerate(zip(tables, witnesses))]
        stats = {"states": count, "maps": len(maps),
                 "compositions": compositions, "products": n * len(maps)}
        return DynamicsMonoid(maps, stats)


def reachable_states(sys: UpdateSystem, initial: SystemState) -> set[SystemState]:
    """All system states reachable from ``initial`` under the local maps."""
    seen = {initial}
    frontier = [initial]
    while frontier:
        fresh = []
        for s in frontier:
            for i in range(1, sys.graph.n + 1):
                t = sys.evolve((i,), s)
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

    def failures(self) -> list[dict]:
        """The failed checks as ``{"kind", "vertices"}`` rows, for JSON reports."""
        return [{"kind": c.kind, "vertices": list(c.vertices)}
                for c in self.checks if not c.ok]


def check_hk_relations(sys: UpdateSystem, graph: Dag | None = None) -> RelationReport:
    """Verify idempotence, the edge triple, and non-adjacent commutation.

    The relations are those of ``graph``, the system's own graph if None,
    evaluated on the system's local maps; ``graph`` must have the system's
    vertex count (``ValueError`` otherwise).  On its own graph a failing
    entry signals an implementation bug: the relations hold for every
    update system on an acyclic graph.
    """
    graph = sys.graph if graph is None else graph
    n = graph.n
    if n != sys.graph.n:
        raise ValueError(f"the graph has {n} vertices, "
                         f"but the system has {sys.graph.n}")
    t = {g: sys.local_table(g) for g in range(1, n + 1)}

    checks = []
    for i in range(1, n + 1):
        ok = compose_tables(t[i], t[i]) == t[i]
        checks.append(RelationCheck("idempotent", (i,), ok))
    for i, j in graph.sorted_edges():
        ij = compose_tables(t[i], t[j])
        iji = compose_tables(ij, t[i])
        jij = compose_tables(t[j], ij)
        checks.append(RelationCheck("edge-triple", (i, j), iji == ij and jij == ij))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not graph.adjacent(i, j):
                ok = compose_tables(t[i], t[j]) == compose_tables(t[j], t[i])
                checks.append(RelationCheck("commute", (i, j), ok))
    return RelationReport(tuple(checks))


def random_update_system(dag: Dag, max_set_size: int, seed: int) -> UpdateSystem:
    """Reproducible random system: state-set sizes in 1..max_set_size, uniform tables."""
    if max_set_size < 1:
        raise ValueError("max_set_size must be at least 1")
    rng = random.Random(seed)
    sizes = [rng.randint(1, max_set_size) for _ in range(dag.n)]
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


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer; a bool, float or string is refused."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def _json_list(value, field: str) -> list:
    """``value`` if it is a JSON list; a string is refused, not split."""
    if type(value) is not list:
        raise ValueError(f"{field} must be a JSON list, got {value!r}")
    return value


def parse_graph(obj: dict) -> tuple[int, list]:
    """The vertex count and edge list of a graph object, before any graph is built.

    The count must be a JSON integer, so that the vertex guard can run
    first, and the edges a JSON list; ``Dag`` checks each edge.
    """
    try:
        n, edges = obj["n"], obj.get("edges", [])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad graph object: {exc}") from None
    return _json_int(n, '"n"'), _json_list(edges, '"edges"')


def dag_from_json(obj: dict) -> Dag:
    return Dag(*parse_graph(obj))


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
    """Load a system; state tokens are kept as the strings found in the file.

    The vertex count is compared with the state rows before the graph, or
    anything sized by the vertex count, is built.
    """
    try:
        n, edges = parse_graph(obj["graph"])
        state_rows = _json_list(obj["states"], '"states"')
        raw_functions = _json_list(obj["functions"], '"functions"')
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad system object: {exc}") from None
    states = [[str(tok) for tok in _json_list(row, f'state row {k} of "states"')]
              for k, row in enumerate(state_rows, start=1)]
    if n != len(states):
        raise ValueError(f"graph has {n} vertices but there are {len(states)} state rows")
    graph = Dag(n, edges)
    tables: list[dict | None] = [None] * n
    for entry in raw_functions:
        try:
            v = _json_int(entry["vertex"], '"vertex"')
            rows = _json_list(entry["table"], f'"table" of vertex {v}')
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad function entry: {exc}") from None
        if not 1 <= v <= n:
            raise ValueError(f"function entry for unknown vertex {v}")
        if tables[v - 1] is not None:
            raise ValueError(f"vertex {v} has two function tables")
        table = {}
        for row in rows:
            try:
                args = tuple(str(a) for a in _json_list(
                    row["args"], f'"args" of a table row for vertex {v}'))
                out = str(row["out"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad table row for vertex {v}: {exc}") from None
            if args in table:
                raise ValueError(f"vertex {v} repeats arguments {args!r}")
            table[args] = out
        tables[v - 1] = table
    missing = [v + 1 for v, t in enumerate(tables) if t is None]
    if missing:
        shown = ", ".join(map(str, missing[:5])) + (", ..." if len(missing) > 5 else "")
        raise ValueError(f"missing function tables for {len(missing)} vertices: {shown}")
    return UpdateSystem(graph, states, tables)
