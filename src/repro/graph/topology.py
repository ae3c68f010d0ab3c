"""Undirected communication graphs over worker nodes.

The adjacency structure plays the role of the paper's neighborhood indicator
``d_im`` (Table I): ``d_im = 1`` iff workers ``i`` and ``m`` are neighbors.
Graphs are undirected (``d_im = d_mi``) and have no self-loops (``d_ii = 0``),
matching Section II-A; Assumption 1 additionally requires connectivity,
which :meth:`Topology.require_connected` enforces at trainer construction.

Internally a :class:`Topology` stores the graph as CSR-style neighbor lists
(``indptr``/``indices``), so construction and :meth:`Topology.neighbors` are
O(N·deg) for the sparse structured families (ring, star, expander) rather
than O(N²); the dense boolean ``adjacency`` matrix is materialized lazily,
only for the callers that still want the full ``d_im`` table (the policy LP, the NetMax monitor). Membership queries
(:meth:`Topology.has_edge`) and row reads (:meth:`Topology.neighbors`) are
answered straight from the neighbor lists.

Beyond the frozen graphs, this module hosts the *time-varying* topology
substrate: an :class:`EdgeSchedule` scripts edge fail/repair transitions on
the virtual clock and :class:`DynamicTopology` replays it as a pure function
of time -- ``adjacency_at(t)`` never advances hidden randomness, mirroring
the :class:`~repro.network.links.LinkSpeedModel` contract, so any query
order reproduces the same graph history. Every :class:`Topology` answers
the at-time-``t`` queries too (trivially, returning its frozen edge set),
which is what lets trainers and the monitor treat static and dynamic graphs
uniformly.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # test/interop only: nothing under src/ imports networkx at module level
    import networkx as nx

__all__ = [
    "Topology",
    "EdgeFlipEvent",
    "EdgeSchedule",
    "DynamicTopology",
    "TOPOLOGY_KINDS",
    "make_topology",
]


def _csr_from_pairs(
    num_workers: int, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR (indptr, indices) from undirected endpoint arrays.

    Duplicates and both orientations are tolerated; the result lists every
    edge in both directions with each row's indices sorted ascending.
    """
    a = np.asarray(a, dtype=np.int64).ravel()
    b = np.asarray(b, dtype=np.int64).ravel()
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    if lo.size:
        keys = np.unique(lo * np.int64(num_workers) + hi)
        lo = keys // num_workers
        hi = keys % num_workers
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    indptr = np.zeros(num_workers + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_workers), out=indptr[1:])
    indices = dst[order]
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


class Topology:
    """An undirected, simple graph over workers ``0 .. M-1``.

    Construct via the classmethods (:meth:`fully_connected`, :meth:`ring`,
    :meth:`random_connected`, :meth:`from_edges`) or directly from a boolean
    adjacency matrix, which is validated for symmetry and absent self-loops.
    """

    _edge_signature: bytes | None = None
    _dense: np.ndarray | None = None
    _num_workers: int
    _indptr: np.ndarray
    _indices: np.ndarray

    def __init__(self, adjacency: np.ndarray) -> None:
        adjacency = np.asarray(adjacency)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adjacency.shape}")
        adjacency = adjacency.astype(bool)
        if adjacency.shape[0] < 2:
            raise ValueError("a topology needs at least 2 workers")
        if not np.array_equal(adjacency, adjacency.T):
            raise ValueError("adjacency must be symmetric (the graph is undirected)")
        if np.any(np.diag(adjacency)):
            raise ValueError("self-loops are not allowed (d_ii = 0 in the paper)")
        adjacency.setflags(write=False)
        rows, cols = np.nonzero(adjacency)
        indptr = np.zeros(adjacency.shape[0] + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(rows, minlength=adjacency.shape[0]), out=indptr[1:]
        )
        indices = cols.astype(np.int64)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._adopt_csr(adjacency.shape[0], indptr, indices, dense=adjacency)

    def _adopt_csr(
        self,
        num_workers: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        dense: np.ndarray | None = None,
    ) -> None:
        self._num_workers = int(num_workers)
        self._indptr = indptr
        self._indices = indices
        self._dense = dense
        self._edge_signature = None

    @classmethod
    def _from_pairs(cls, num_workers: int, a: np.ndarray, b: np.ndarray) -> "Topology":
        """Internal constructor from undirected endpoint arrays (no dense)."""
        if num_workers < 2:
            raise ValueError("a topology needs at least 2 workers")
        topology = cls.__new__(cls)
        indptr, indices = _csr_from_pairs(num_workers, a, b)
        topology._adopt_csr(num_workers, indptr, indices)
        return topology

    # -- constructors --------------------------------------------------------

    @classmethod
    def fully_connected(cls, num_workers: int) -> "Topology":
        """Complete graph K_M -- the paper's default evaluation topology."""
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        adjacency = ~np.eye(num_workers, dtype=bool)
        return cls(adjacency)

    @classmethod
    def ring(cls, num_workers: int) -> "Topology":
        """Cycle graph, the natural substrate for ring all-reduce."""
        if num_workers < 3:
            raise ValueError("a ring topology needs at least 3 workers")
        node = np.arange(num_workers, dtype=np.int64)
        return cls._from_pairs(num_workers, node, (node + 1) % num_workers)

    @classmethod
    def star(cls, num_workers: int) -> "Topology":
        """Star graph: everyone adjacent to worker 0 only (PS-like shape)."""
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        leaves = np.arange(1, num_workers, dtype=np.int64)
        return cls._from_pairs(num_workers, leaves, np.zeros_like(leaves))

    @classmethod
    def random_connected(
        cls,
        num_workers: int,
        edge_probability: float,
        rng: np.random.Generator,
    ) -> "Topology":
        """Erdos-Renyi graph resampled (then patched) until connected.

        Connectivity is guaranteed by overlaying a random Hamiltonian path,
        so even ``edge_probability=0`` yields a valid (line) topology.

        Sampling is row-by-row (each row consumes exactly ``num_workers``
        uniforms, reproducing the historical ``rng.random((M, M))`` draw
        sequence) so transient memory stays O(N + E), never O(N²).
        """
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        if not 0.0 <= edge_probability <= 1.0:
            raise ValueError(f"edge_probability must be in [0, 1], got {edge_probability}")
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        for node in range(num_workers):
            cols = np.flatnonzero(rng.random(num_workers) < edge_probability)
            cols = cols[cols > node]
            if cols.size:
                sources.append(np.full(cols.size, node, dtype=np.int64))
                targets.append(cols.astype(np.int64))
        order = rng.permutation(num_workers).astype(np.int64)
        sources.append(order[:-1])
        targets.append(order[1:])
        return cls._from_pairs(
            num_workers, np.concatenate(sources), np.concatenate(targets)
        )

    @classmethod
    def expander(cls, num_workers: int, rng: np.random.Generator) -> "Topology":
        """Random expander: the union of two seeded random Hamiltonian cycles.

        Overlaying independent random cycles (Bollobas-style union of
        permutations) yields a sparse graph -- degree at most 4 -- that is
        connected by construction (each cycle alone spans every node) and an
        expander with high probability. A pure function of the ``rng``
        stream, so the same seed always yields the identical graph.
        """
        if num_workers < 4:
            raise ValueError("an expander topology needs at least 4 workers")
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        for _ in range(2):
            order = rng.permutation(num_workers).astype(np.int64)
            sources.append(order)
            targets.append(np.roll(order, -1))
        return cls._from_pairs(
            num_workers, np.concatenate(sources), np.concatenate(targets)
        )

    @classmethod
    def from_edges(cls, num_workers: int, edges: Iterable[tuple[int, int]]) -> "Topology":
        """Build from an explicit undirected edge list."""
        sources: list[int] = []
        targets: list[int] = []
        for a, b in edges:
            if not (0 <= a < num_workers and 0 <= b < num_workers):
                raise ValueError(f"edge ({a}, {b}) out of range for {num_workers} workers")
            if a == b:
                raise ValueError(f"self-loop ({a}, {b}) not allowed")
            sources.append(int(a))
            targets.append(int(b))
        return cls._from_pairs(
            num_workers,
            np.asarray(sources, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
        )

    # -- accessors -----------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix (the ``d_im`` indicators).

        Materialized lazily from the neighbor lists and cached; callers
        that only need membership queries should prefer :meth:`has_edge`,
        which stays O(deg).
        """
        if self._dense is None:
            dense = np.zeros((self._num_workers, self._num_workers), dtype=bool)
            rows = np.repeat(
                np.arange(self._num_workers), np.diff(self._indptr)
            )
            dense[rows, self._indices] = True
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    def indicator(self) -> np.ndarray:
        """``d_im`` as a float matrix, convenient for the policy math."""
        return self.adjacency.astype(np.float64)

    def neighbors(self, worker: int) -> np.ndarray:
        """Sorted array of the workers adjacent to ``worker``."""
        if not 0 <= worker < self.num_workers:
            raise ValueError(f"worker {worker} out of range")
        return self._indices[self._indptr[worker]:self._indptr[worker + 1]]

    def degree(self, worker: int) -> int:
        return int(self._indptr[worker + 1] - self._indptr[worker])

    def num_edges(self) -> int:
        """Number of undirected edges, straight from the CSR arrays."""
        return int(self._indices.size // 2)

    def _edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected edge endpoint arrays ``(lo, hi)`` sorted by (lo, hi)."""
        rows = np.repeat(
            np.arange(self._num_workers, dtype=np.int64), np.diff(self._indptr)
        )
        mask = rows < self._indices
        return rows[mask], self._indices[mask]

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list with ``a < b``."""
        lo, hi = self._edge_pairs()
        return list(zip(lo.tolist(), hi.tolist()))

    def has_edge(self, a: int, b: int) -> bool:
        row = self._indices[self._indptr[a]:self._indptr[a + 1]]
        position = int(np.searchsorted(row, b))
        return bool(position < row.size and row[position] == b)

    def to_networkx(self) -> "nx.Graph":
        """networkx view (interop, and the tests' oracle; imported on use)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_workers))
        graph.add_edges_from(self.edges())
        return graph

    def is_connected(self) -> bool:
        """BFS over the neighbor lists: O(N + E), no networkx, no dense."""
        seen = np.zeros(self._num_workers, dtype=bool)
        seen[0] = True
        frontier = self._indices[self._indptr[0]:self._indptr[1]]
        frontier = frontier[~seen[frontier]]
        while frontier.size:
            seen[frontier] = True
            hop = np.unique(
                np.concatenate(
                    [
                        self._indices[self._indptr[v]:self._indptr[v + 1]]
                        for v in frontier.tolist()
                    ]
                )
            )
            frontier = hop[~seen[hop]]
        return bool(seen.all())

    def bridges(self) -> set[tuple[int, int]]:
        """Edges (``a < b``) whose removal disconnects their component.

        Iterative Tarjan low-link search over the CSR rows, O(N + E): an
        edge into a DFS child is a bridge iff nothing below the child
        reaches back to the parent or above it.
        """
        indptr = self._indptr.tolist()
        indices = self._indices.tolist()
        order = [-1] * self._num_workers  # DFS discovery index
        low = [0] * self._num_workers
        found: set[tuple[int, int]] = set()
        visited = 0
        for root in range(self._num_workers):
            if order[root] >= 0:
                continue
            order[root] = low[root] = visited
            visited += 1
            stack = [(root, -1, indptr[root])]  # (vertex, parent, next CSR slot)
            while stack:
                v, parent, slot = stack[-1]
                if slot < indptr[v + 1]:
                    stack[-1] = (v, parent, slot + 1)
                    w = indices[slot]
                    if order[w] < 0:
                        order[w] = low[w] = visited
                        visited += 1
                        stack.append((w, v, indptr[w]))
                    elif w != parent:
                        low[v] = min(low[v], order[w])
                    continue
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > order[parent]:
                        found.add((parent, v) if parent < v else (v, parent))
        return found

    def require_connected(self) -> "Topology":
        """Raise unless connected (Assumption 1); returns self for chaining."""
        if not self.is_connected():
            raise ValueError("topology violates Assumption 1: graph is not connected")
        return self

    # -- the at-time-t graph API ----------------------------------------------
    #
    # Static graphs answer time-varying queries trivially, so every consumer
    # (trainers, the monitor, SAPS's subgraph selection) can be written
    # against adjacency-at-time-t without special-casing DynamicTopology.

    @property
    def is_dynamic(self) -> bool:
        """Whether the edge set can change over time."""
        return False

    def adjacency_at(self, time: float) -> np.ndarray:
        """Read-only boolean adjacency of the edges live at ``time``."""
        return self.adjacency

    def topology_at(self, time: float) -> "Topology":
        """The frozen :class:`Topology` of the edge set live at ``time``."""
        return self

    def edge_signature_at(self, time: float) -> bytes:
        """Compact token identifying the live edge set at ``time``.

        Equal signatures mean equal live edge sets (over the same worker
        count). The monitor's policy-LP cache does not key on it: its keys
        come from ``NetworkMonitor._signature`` over the solved subgraph.
        """
        return self.topology_at(time).edge_signature()

    def edge_signature(self) -> bytes:
        """Signature of this frozen edge set (see :meth:`edge_signature_at`).

        Hashes the worker count plus the sorted undirected edge list, so the
        cost is O(E) -- independent of how sparse the graph is relative to
        the N² dense representation.
        """
        if self._edge_signature is None:
            lo, hi = self._edge_pairs()
            payload = (
                np.int64(self._num_workers).tobytes()
                + lo.astype(np.int64).tobytes()
                + hi.astype(np.int64).tobytes()
            )
            self._edge_signature = hashlib.sha256(payload).digest()[:16]
        return self._edge_signature

    def flip_times(self) -> tuple[float, ...]:
        """Times at which the live edge set changes (static graphs: none)."""
        return ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        if other.is_dynamic != self.is_dynamic:
            # A frozen graph never equals a time-varying one, even when the
            # union edge sets coincide (DynamicTopology compares schedules).
            return False
        return (
            self._num_workers == other._num_workers
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash(
            (self._num_workers, self._indptr.tobytes(), self._indices.tobytes())
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Topology(M={self.num_workers}, edges={self.num_edges()})"


# -- time-varying topologies ---------------------------------------------------

FAIL = "fail"
REPAIR = "repair"

# Seed-sequence tag separating edge fail/repair sampling from every other
# stream derived from a scenario seed (links, churn, data, topology) --
# adding edge failures to a scenario must not perturb anything else.
_EDGE_FLIP_STREAM = 0xED6E


@dataclass(frozen=True, order=True)
class EdgeFlipEvent:
    """One scheduled transition: the undirected edge ``(a, b)`` fails or is
    repaired at ``time``. Endpoints are normalized to ``a < b``."""

    time: float
    a: int
    b: int
    kind: str  # "fail" | "repair"

    def __post_init__(self) -> None:
        if self.kind not in (FAIL, REPAIR):
            raise ValueError(f"kind must be 'fail' or 'repair', got {self.kind!r}")
        if self.time <= 0:
            raise ValueError(
                f"edge events need time > 0 (all edges start up), got {self.time}"
            )
        if self.a == self.b:
            raise ValueError(f"edge ({self.a}, {self.b}) is a self-loop")
        if self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    @property
    def edge(self) -> tuple[int, int]:
        return (self.a, self.b)


class EdgeSchedule:
    """A validated, time-ordered script of edge failures and repairs.

    All edges start up. Per edge, events must alternate starting with a
    fail. The schedule is plain data (picklable, hashable content) and a
    pure function of its construction arguments, which keeps dynamic-graph
    runs bit-identically reproducible and cacheable by the sweep engine.

    Args:
        num_workers: worker count ``M`` the schedule is written for.
        events: iterable of :class:`EdgeFlipEvent` or ``(time, a, b, kind)``
            tuples, in any order.
        require_connected: promise that the live graph stays connected in
            every segment; :class:`DynamicTopology` (which knows the base
            edge set) enforces it at construction.
    """

    def __init__(
        self,
        num_workers: int,
        events: Iterable[EdgeFlipEvent | tuple[float, int, int, str]],
        require_connected: bool = True,
    ) -> None:
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        normalized: list[EdgeFlipEvent] = []
        for item in events:
            event = item if isinstance(item, EdgeFlipEvent) else EdgeFlipEvent(
                float(item[0]), int(item[1]), int(item[2]), str(item[3])
            )
            if not (0 <= event.a < num_workers and 0 <= event.b < num_workers):
                raise ValueError(
                    f"edge ({event.a}, {event.b}) out of range for M={num_workers}"
                )
            normalized.append(event)
        # Stable order: time, then edge -- ties resolve identically on every
        # run, which the deterministic-replay guarantee relies on.
        normalized.sort(key=lambda e: (e.time, e.a, e.b))
        self.num_workers = int(num_workers)
        self.require_connected = bool(require_connected)
        self.events: tuple[EdgeFlipEvent, ...] = tuple(normalized)
        self._validate_alternation()

    def _validate_alternation(self) -> None:
        down: set[tuple[int, int]] = set()
        for event in self.events:
            if event.kind == FAIL:
                if event.edge in down:
                    raise ValueError(
                        f"edge {event.edge} fails twice (t={event.time}) "
                        "without a repair"
                    )
                down.add(event.edge)
            else:
                if event.edge not in down:
                    raise ValueError(
                        f"edge {event.edge} is repaired at t={event.time} "
                        "while still up"
                    )
                down.remove(event.edge)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def flapping(
        cls,
        num_workers: int,
        edge: tuple[int, int],
        period_s: float,
        horizon_s: float,
        duty: float = 0.5,
        require_connected: bool = True,
    ) -> "EdgeSchedule":
        """A deterministically flapping edge: up for ``duty * period_s``,
        down for the rest, repeating until ``horizon_s``.

        The recurring two-signature alternation this produces is the
        worst-case re-solve load for the NetMax monitor (every flip changes
        the live subgraph) and exactly the access pattern the policy-LP
        signature cache turns into hits.
        """
        if period_s <= 0 or horizon_s <= 0:
            raise ValueError("period_s and horizon_s must be positive")
        if not 0.0 < duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {duty}")
        a, b = edge
        events: list[EdgeFlipEvent] = []
        cycle = 0
        while True:
            fail_at = cycle * period_s + duty * period_s
            repair_at = (cycle + 1) * period_s
            if repair_at > horizon_s:
                break
            events.append(EdgeFlipEvent(fail_at, a, b, FAIL))
            events.append(EdgeFlipEvent(repair_at, a, b, REPAIR))
            cycle += 1
        return cls(num_workers, events, require_connected=require_connected)

    @classmethod
    def random(
        cls,
        topology: "Topology",
        horizon_s: float,
        num_failures: int = 2,
        downtime_s: float = 30.0,
        seed: int = 0,
    ) -> "EdgeSchedule":
        """Synthetic edge churn: seeded random failures with bounded downtime.

        Mirrors :meth:`repro.simulation.churn.ChurnSchedule.random`: each of
        ``num_failures`` disjoint windows sees one edge of ``topology`` fail
        and recover ``downtime_s`` later, so at most one edge is down at a
        time. Failures draw only from the base graph's non-bridge edges,
        keeping the always-connected promise by construction; a base graph
        with no non-bridge edge (a tree -- e.g. a star) is rejected. Draws
        come from a dedicated ``[seed, _EDGE_FLIP_STREAM]`` stream, so
        adding edge failures to a scenario never perturbs link, churn, data,
        or topology randomness.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if num_failures < 0:
            raise ValueError("num_failures must be >= 0")
        if downtime_s <= 0:
            raise ValueError("downtime_s must be positive")
        if num_failures == 0:
            return cls(topology.num_workers, [])
        window = horizon_s / num_failures
        if downtime_s >= window:
            raise ValueError(
                f"downtime_s={downtime_s} does not fit {num_failures} "
                f"failure window(s) of {window:.3g}s in horizon_s={horizon_s}"
            )
        bridges = topology.bridges()
        failable = [edge for edge in topology.edges() if edge not in bridges]
        if not failable:
            raise ValueError(
                "every edge of the base graph is a bridge (tree-shaped "
                "topology); no edge can fail while keeping the live graph "
                "connected"
            )
        rng = np.random.default_rng([seed, _EDGE_FLIP_STREAM])
        events: list[EdgeFlipEvent] = []
        for index in range(num_failures):
            a, b = failable[int(rng.integers(len(failable)))]
            lo = index * window
            # Fail inside the window's first part so the repair lands in the
            # same window (keeps at most one edge down at any moment).
            fail = lo + float(rng.uniform(0.0, window - downtime_s))
            fail = max(fail, np.nextafter(0.0, 1.0))
            events.append(EdgeFlipEvent(fail, a, b, FAIL))
            events.append(EdgeFlipEvent(fail + downtime_s, a, b, REPAIR))
        return cls(topology.num_workers, events)

    # -- queries ---------------------------------------------------------------

    def down_edges_at(self, time: float) -> set[tuple[int, int]]:
        """Edges down at ``time`` (transitions apply at their exact
        timestamp: an edge failing at ``t`` is down at ``t``)."""
        down: set[tuple[int, int]] = set()
        for event in self.events:
            if event.time > time:
                break
            if event.kind == FAIL:
                down.add(event.edge)
            else:
                down.discard(event.edge)
        return down

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeSchedule):
            return NotImplemented
        return (
            self.num_workers == other.num_workers
            and self.require_connected == other.require_connected
            and self.events == other.events
        )

    def __hash__(self) -> int:
        # Keeps Scenario (a frozen dataclass embedding the topology, which
        # may embed a schedule) hashable.
        return hash((self.num_workers, self.require_connected, self.events))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"EdgeSchedule(M={self.num_workers}, events={len(self.events)}, "
            f"require_connected={self.require_connected})"
        )


class DynamicTopology(Topology):
    """A time-varying communication graph: base edges plus a flip schedule.

    The *base* graph is the union of every edge that can ever exist; the
    live edge set at time ``t`` is the base minus the edges the schedule has
    down at ``t``. As a :class:`Topology`, a DynamicTopology *is* its base
    graph (``adjacency``, ``neighbors``, ... describe the union), while the
    ``*_at(t)`` queries describe the live graph -- all segments are
    precomputed at construction, so every query is a pure function of time
    (no hidden RNG advance), mirroring the link-model contract. Segments
    share the base's neighbor-list representation (the dense matrices stay
    lazy), so a sparse dynamic graph never materializes O(N²) state.

    When the schedule promises ``require_connected``, every segment's live
    graph is validated to satisfy Assumption 1 at construction time.
    """

    def __init__(self, base: Topology, schedule: EdgeSchedule) -> None:
        if schedule.num_workers != base.num_workers:
            raise ValueError(
                f"schedule is for {schedule.num_workers} workers but the base "
                f"topology has {base.num_workers}"
            )
        # Share the base graph's CSR arrays: a DynamicTopology *is* its base
        # (union) graph for the frozen accessors.
        self._adopt_csr(base.num_workers, base._indptr, base._indices)
        lo, hi = base._edge_pairs()
        base_keys = lo * np.int64(base.num_workers) + hi
        base_edges = set(zip(lo.tolist(), hi.tolist()))
        for event in schedule.events:
            if event.edge not in base_edges:
                raise ValueError(
                    f"schedule flips edge {event.edge}, which the base "
                    "topology does not contain"
                )
        self.schedule = schedule
        # Precompute one frozen Topology per segment of constant edge set.
        starts = [0.0]
        for event in schedule.events:
            if event.time != starts[-1]:
                starts.append(event.time)
        segments: list[Topology] = []
        for start in starts:
            down = schedule.down_edges_at(start)
            if down:
                down_keys = np.asarray(
                    [a * base.num_workers + b for a, b in down], dtype=np.int64
                )
                keep = ~np.isin(base_keys, down_keys)
                segment = Topology._from_pairs(
                    base.num_workers, lo[keep], hi[keep]
                )
            else:
                segment = Topology._from_pairs(base.num_workers, lo, hi)
            if schedule.require_connected and not segment.is_connected():
                raise ValueError(
                    f"edge schedule disconnects the live graph at t={start} "
                    "(require_connected)"
                )
            segments.append(segment)
        self._segment_starts = np.asarray(starts)
        self._segments = segments

    @property
    def is_dynamic(self) -> bool:
        return True

    def _segment_at(self, time: float) -> Topology:
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        idx = int(np.searchsorted(self._segment_starts, time, side="right") - 1)
        return self._segments[idx]

    def adjacency_at(self, time: float) -> np.ndarray:
        return self._segment_at(time).adjacency

    def topology_at(self, time: float) -> Topology:
        return self._segment_at(time)

    def flip_times(self) -> tuple[float, ...]:
        return tuple(self._segment_starts[1:].tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicTopology):
            return NotImplemented
        return (
            self._num_workers == other._num_workers
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and self.schedule == other.schedule
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._num_workers,
                self._indptr.tobytes(),
                self._indices.tobytes(),
                self.schedule,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DynamicTopology(M={self.num_workers}, "
            f"base_edges={self.num_edges()}, flips={len(self.schedule)})"
        )


# -- the topology-family factory -----------------------------------------------

# Graph families the scenario registry exposes as its ``topology`` axis.
TOPOLOGY_KINDS = ("full", "ring", "star", "random", "expander")

# The kinds whose construction actually consumes ``edge_probability``; for
# every other kind the parameter is inert, so spec canonicalization drops it
# to keep cache keys/labels identical. (``expander`` consumes the
# seed-derived topology stream but not ``edge_probability``.)
RANDOMIZED_TOPOLOGY_KINDS = ("random",)

# Seed-sequence tag separating topology sampling from every other stream
# derived from a scenario seed (links, churn, data) -- adding a random graph
# to a scenario must not perturb its link dynamics.
_TOPOLOGY_STREAM = 0x7090


def make_topology(
    kind: str,
    num_workers: int,
    edge_probability: float = 0.25,
    seed: int = 0,
) -> Topology:
    """Build a topology family by name (the scenario registry's graph axis).

    ``edge_probability`` is the Erdos-Renyi edge probability for
    ``"random"``; the other families ignore it. Randomized families draw
    from a dedicated ``[seed, _TOPOLOGY_STREAM]`` stream, so the same
    scenario seed always yields the same graph without touching link or
    churn randomness.

    The family constructors check their own worker counts and parameters;
    this checks only what none of them can: the kind itself.
    """
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(
            f"unknown topology kind {kind!r}; valid: {list(TOPOLOGY_KINDS)}"
        )
    if kind == "full":
        return Topology.fully_connected(num_workers)
    if kind == "ring":
        return Topology.ring(num_workers)
    if kind == "star":
        return Topology.star(num_workers)
    rng = np.random.default_rng([seed, _TOPOLOGY_STREAM])
    if kind == "random":
        return Topology.random_connected(num_workers, edge_probability, rng)
    return Topology.expander(num_workers, rng)
