"""Undirected communication graphs over worker nodes.

The adjacency structure plays the role of the paper's neighborhood indicator
``d_im`` (Table I): ``d_im = 1`` iff workers ``i`` and ``m`` are neighbors.
Graphs are undirected (``d_im = d_mi``) and have no self-loops (``d_ii = 0``),
matching Section II-A; Assumption 1 additionally requires connectivity,
which :meth:`Topology.require_connected` enforces at trainer construction.

Internally a :class:`Topology` stores the graph as CSR-style neighbor lists
(``indptr``/``indices``), so construction and :meth:`Topology.neighbors` are
O(N·deg) for the sparse structured families (ring, torus, hypercube,
expander, small-world) rather than O(N²); the dense boolean ``adjacency``
matrix is materialized lazily, only for the callers that still want the full
``d_im`` table (the policy LP, the NetMax monitor). Membership queries
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
from collections import deque
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
    "validate_topology_request",
    "validate_edge_failure_request",
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
            raise ValueError("a ring needs at least 3 workers")
        node = np.arange(num_workers, dtype=np.int64)
        return cls._from_pairs(num_workers, node, (node + 1) % num_workers)

    @classmethod
    def star(cls, num_workers: int, center: int = 0) -> "Topology":
        """Star graph: everyone adjacent to ``center`` only (PS-like shape)."""
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        if not 0 <= center < num_workers:
            raise ValueError(f"center {center} out of range")
        leaves = np.delete(np.arange(num_workers, dtype=np.int64), center)
        return cls._from_pairs(
            num_workers, leaves, np.full(leaves.size, center, dtype=np.int64)
        )

    @classmethod
    def random_connected(
        cls,
        num_workers: int,
        edge_probability: float,
        rng: np.random.Generator,
        degree_skew: float = 0.0,
    ) -> "Topology":
        """Erdos-Renyi graph resampled (then patched) until connected.

        Connectivity is guaranteed by overlaying a random Hamiltonian path,
        so even ``edge_probability=0`` yields a valid (line) topology.

        Sampling is row-by-row (each row consumes exactly ``num_workers``
        uniforms, reproducing the historical ``rng.random((M, M))`` draw
        sequence) so transient memory stays O(N + E), never O(N²).

        ``degree_skew > 0`` draws per-node degree propensities ``m_i =
        exp(Normal(0, degree_skew))`` from the same stream *before* edge
        sampling and scales the pair probability to ``min(1, p *
        sqrt(m_i * m_j))``: expected degree varies across nodes (lognormal
        skew) while ``degree_skew=0`` consumes no extra draws and keeps the
        historical graph bit-identical.
        """
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        if not 0.0 <= edge_probability <= 1.0:
            raise ValueError(f"edge_probability must be in [0, 1], got {edge_probability}")
        if degree_skew < 0.0:
            raise ValueError(f"degree_skew must be >= 0, got {degree_skew}")
        propensity: np.ndarray | None = None
        if degree_skew > 0.0:
            propensity = np.exp(rng.normal(0.0, degree_skew, size=num_workers))
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        for node in range(num_workers):
            draws = rng.random(num_workers)
            if propensity is None:
                cols = np.flatnonzero(draws < edge_probability)
            else:
                row_probability = np.minimum(
                    1.0, edge_probability * np.sqrt(propensity[node] * propensity)
                )
                cols = np.flatnonzero(draws < row_probability)
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
    def torus(cls, num_workers: int) -> "Topology":
        """2D torus (wrap-around grid) on the most-square factorization.

        ``num_workers`` must factor as ``rows x cols`` with both sides at
        least 2 (so primes and ``num_workers < 4`` are rejected); the grid
        uses the factor pair closest to square, which maximizes the torus's
        bisection symmetry. Degree is 4 (2-length dimensions collapse the
        duplicate wrap edge).
        """
        rows, cols = _torus_shape(num_workers)
        node = np.arange(num_workers, dtype=np.int64)
        row, col = node // cols, node % cols
        down = ((row + 1) % rows) * cols + col
        right = row * cols + (col + 1) % cols
        a = np.concatenate([node, node])
        b = np.concatenate([down, right])
        keep = a != b
        return cls._from_pairs(num_workers, a[keep], b[keep])

    @classmethod
    def small_world(
        cls,
        num_workers: int,
        rewire_probability: float,
        rng: np.random.Generator,
        base_degree: int = 4,
        max_tries: int = 100,
    ) -> "Topology":
        """Watts-Strogatz small world: ring lattice with random rewiring.

        Each node starts connected to its ``base_degree`` nearest ring
        neighbors (clamped for tiny graphs); every lattice edge is then
        rewired with probability ``rewire_probability`` to a uniformly random
        non-neighbor. The construction is resampled (from the same ``rng``
        stream) until connected, so the result always satisfies Assumption 1.

        Bookkeeping is per-node neighbor sets (O(N + E) memory); the
        rewiring draws are taken in the exact order of the historical dense
        implementation, so graphs are bit-identical per stream.
        """
        if num_workers < 4:
            raise ValueError("a small-world topology needs at least 4 workers")
        if not 0.0 <= rewire_probability <= 1.0:
            raise ValueError(
                f"rewire_probability must be in [0, 1], got {rewire_probability}"
            )
        half = max(1, min(base_degree, num_workers - 1) // 2)
        all_nodes = frozenset(range(num_workers))
        for _ in range(max_tries):
            neighbor_sets: list[set[int]] = [set() for _ in range(num_workers)]
            for node in range(num_workers):
                for offset in range(1, half + 1):
                    peer = (node + offset) % num_workers
                    neighbor_sets[node].add(peer)
                    neighbor_sets[peer].add(node)
            for node in range(num_workers):
                for offset in range(1, half + 1):
                    peer = (node + offset) % num_workers
                    if peer not in neighbor_sets[node]:
                        continue  # this lattice edge was already rewired away
                    if rng.random() >= rewire_probability:
                        continue
                    candidates = np.fromiter(
                        sorted(all_nodes - neighbor_sets[node] - {node}),
                        dtype=np.int64,
                    )
                    if candidates.size == 0:
                        continue
                    target = int(candidates[rng.integers(candidates.size)])
                    neighbor_sets[node].discard(peer)
                    neighbor_sets[peer].discard(node)
                    neighbor_sets[node].add(target)
                    neighbor_sets[target].add(node)
            if _neighbor_sets_connected(neighbor_sets):
                sources = np.fromiter(
                    (
                        node
                        for node in range(num_workers)
                        for _ in neighbor_sets[node]
                    ),
                    dtype=np.int64,
                )
                targets = np.fromiter(
                    (
                        peer
                        for node in range(num_workers)
                        for peer in neighbor_sets[node]
                    ),
                    dtype=np.int64,
                )
                return cls._from_pairs(num_workers, sources, targets)
        raise ValueError(
            f"could not draw a connected small-world graph in {max_tries} tries"
        )

    @classmethod
    def hypercube(cls, num_workers: int) -> "Topology":
        """Boolean hypercube: workers are bit strings, edges flip one bit.

        ``num_workers`` must be a power of two (``2^d`` nodes of degree
        ``d``). Hypercubes are the classic low-diameter, high-bisection
        gossip substrate (diameter ``d = log2 M``), sitting between the ring
        and the complete graph in both degree and mixing time.
        """
        if num_workers < 2 or num_workers & (num_workers - 1):
            raise ValueError(
                f"a hypercube needs a power-of-two worker count, got {num_workers}"
            )
        dim = num_workers.bit_length() - 1
        node = np.arange(num_workers, dtype=np.int64)
        a = np.tile(node, dim)
        b = np.concatenate([node ^ (1 << bit) for bit in range(dim)])
        return cls._from_pairs(num_workers, a, b)

    @classmethod
    def expander(
        cls,
        num_workers: int,
        rng: np.random.Generator,
        num_cycles: int = 2,
        degree_skew: float = 0.0,
    ) -> "Topology":
        """Random expander: the union of seeded random Hamiltonian cycles.

        Overlaying ``num_cycles`` independent random cycles (Bollobas-style
        union of permutations) yields a sparse graph -- degree at most
        ``2 * num_cycles`` -- that is connected by construction (each cycle
        alone spans every node) and an expander with high probability. A
        pure function of the ``rng`` stream, so the same seed always yields
        the identical graph.

        ``degree_skew > 0`` additionally draws per-node extra edge stubs
        ``Poisson(degree_skew)`` from the same stream and pairs them
        uniformly at random (configuration-model style, self-pairs dropped),
        so expected degree varies across nodes while the underlying cycles
        keep the graph connected; ``degree_skew=0`` consumes no extra draws.
        """
        if num_workers < 4:
            raise ValueError("an expander topology needs at least 4 workers")
        if num_cycles < 1:
            raise ValueError("num_cycles must be >= 1")
        if degree_skew < 0.0:
            raise ValueError(f"degree_skew must be >= 0, got {degree_skew}")
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        for _ in range(num_cycles):
            order = rng.permutation(num_workers).astype(np.int64)
            sources.append(order)
            targets.append(np.roll(order, -1))
        if degree_skew > 0.0:
            stubs = rng.poisson(degree_skew, size=num_workers)
            endpoints = np.repeat(np.arange(num_workers, dtype=np.int64), stubs)
            endpoints = endpoints[rng.permutation(endpoints.size)]
            paired = endpoints.size - (endpoints.size % 2)
            extra_a = endpoints[0:paired:2]
            extra_b = endpoints[1:paired:2]
            keep = extra_a != extra_b
            sources.append(extra_a[keep])
            targets.append(extra_b[keep])
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

    def neighbors_at(self, worker: int, time: float) -> np.ndarray:
        """Workers adjacent to ``worker`` over edges live at ``time``."""
        return self.topology_at(time).neighbors(worker)

    def has_edge_at(self, a: int, b: int, time: float) -> bool:
        """Whether the undirected edge ``(a, b)`` is live at ``time``."""
        return self.topology_at(time).has_edge(a, b)

    def edge_signature_at(self, time: float) -> bytes:
        """Compact token identifying the live edge set at ``time``.

        Equal signatures mean equal live edge sets (over the same worker
        count); the policy-LP cache keys on it so recurring subgraphs reuse
        their solved policies.
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


def _neighbor_sets_connected(neighbor_sets: list[set[int]]) -> bool:
    """BFS connectivity over per-node neighbor sets (small-world resampling)."""
    seen = {0}
    queue: deque[int] = deque([0])
    while queue:
        node = queue.popleft()
        for peer in neighbor_sets[node]:
            if peer not in seen:
                seen.add(peer)
                queue.append(peer)
    return len(seen) == len(neighbor_sets)


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
    def from_events(
        cls,
        num_workers: int,
        events: Iterable[EdgeFlipEvent | tuple[float, int, int, str]],
        require_connected: bool = True,
    ) -> "EdgeSchedule":
        """Explicit deterministic script (the named mirror of
        :meth:`ChurnSchedule.from_events`): any iterable of
        :class:`EdgeFlipEvent` or ``(time, a, b, kind)`` tuples."""
        return cls(num_workers, events, require_connected=require_connected)

    @classmethod
    def from_string(
        cls, num_workers: int, spec: str, require_connected: bool = True
    ) -> "EdgeSchedule":
        """Parse the compact scenario-parameter grammar.

        ``spec`` is ``;``-separated episodes ``A-B@FAIL:REPAIR`` (or
        ``A-B@FAIL`` for an edge that never recovers): the undirected edge
        ``(A, B)`` fails at time ``FAIL`` and is repaired at ``REPAIR``.
        Example: ``"0-1@2:4;1-2@5:7.5"``. The separators avoid ``,`` so a
        spec survives the CLI's ``--scenario-param key=v1,v2`` value-grid
        splitting as one value.
        """
        events: list[EdgeFlipEvent] = []
        for episode in spec.split(";"):
            episode = episode.strip()
            if not episode:
                continue
            edge_part, at, times_part = episode.partition("@")
            a_part, dash, b_part = edge_part.partition("-")
            if not at or not dash:
                raise ValueError(
                    f"bad edge_events episode {episode!r}; expected "
                    "'A-B@FAIL[:REPAIR]', e.g. '0-1@2:4'"
                )
            try:
                a, b = int(a_part), int(b_part)
                fail_at, colon, repair_part = times_part.partition(":")
                fail = float(fail_at)
                repair = float(repair_part) if colon else None
            except ValueError as error:
                raise ValueError(
                    f"bad edge_events episode {episode!r}: {error}"
                ) from error
            events.append(EdgeFlipEvent(fail, a, b, FAIL))
            if repair is not None:
                if repair <= fail:
                    raise ValueError(
                        f"edge_events episode {episode!r}: repair time "
                        f"{repair} must be after the failure at {fail}"
                    )
                events.append(EdgeFlipEvent(repair, a, b, REPAIR))
        if not events:
            raise ValueError(
                f"edge_events spec {spec!r} contains no episodes; expected "
                "';'-separated 'A-B@FAIL[:REPAIR]' entries"
            )
        return cls(num_workers, events, require_connected=require_connected)

    @classmethod
    def single(
        cls,
        num_workers: int,
        edge: tuple[int, int],
        fail_at: float,
        repair_at: float | None = None,
        require_connected: bool = True,
    ) -> "EdgeSchedule":
        """One edge failing (and optionally recovering) -- the unit scenario."""
        a, b = edge
        events: list[EdgeFlipEvent] = [EdgeFlipEvent(fail_at, a, b, FAIL)]
        if repair_at is not None:
            if repair_at <= fail_at:
                raise ValueError("repair_at must be after fail_at")
            events.append(EdgeFlipEvent(repair_at, a, b, REPAIR))
        return cls(num_workers, events, require_connected=require_connected)

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

    def edge_active_at(self, a: int, b: int, time: float) -> bool:
        """Whether the undirected edge ``(a, b)`` is up at ``time``."""
        key = (a, b) if a < b else (b, a)
        return key not in self.down_edges_at(time)

    def describe(self) -> list[list[object]]:
        """JSON-able event list (sweep cache keys hash this)."""
        return [[e.time, e.a, e.b, e.kind] for e in self.events]

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
TOPOLOGY_KINDS = (
    "full", "ring", "star", "random", "torus", "small-world",
    "hypercube", "expander",
)

# The kinds whose construction actually consumes ``edge_probability``; for
# every other kind the parameter is inert, so spec canonicalization drops it
# to keep cache keys/labels identical. (``expander`` consumes the
# seed-derived topology stream but not ``edge_probability``.)
RANDOMIZED_TOPOLOGY_KINDS = ("random", "small-world")

# The kinds whose construction consumes ``degree_skew`` (per-node degree
# heterogeneity); for every other kind the parameter must be absent.
DEGREE_SKEW_TOPOLOGY_KINDS = ("random", "expander")

# Seed-sequence tag separating topology sampling from every other stream
# derived from a scenario seed (links, churn, data) -- adding a random graph
# to a scenario must not perturb its link dynamics.
_TOPOLOGY_STREAM = 0x7090


def _torus_shape(num_workers: int) -> tuple[int, int]:
    """Most-square ``rows x cols = num_workers`` with both sides >= 2."""
    if num_workers >= 4:
        for rows in range(int(np.sqrt(num_workers)), 1, -1):
            if num_workers % rows == 0:
                return rows, num_workers // rows
    raise ValueError(
        f"a torus needs num_workers = rows x cols with both sides >= 2; "
        f"{num_workers} does not factor that way"
    )


def validate_topology_request(
    kind: str,
    num_workers: int,
    edge_probability: float,
    degree_skew: float = 0.0,
) -> None:
    """Reject unbuildable ``(kind, num_workers)`` combinations up front.

    This is the spec-time half of :func:`make_topology`: sweep grids and CLI
    dry runs call it so a ring on 2 workers or a torus on a prime worker
    count dies before any cell executes.
    """
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(
            f"unknown topology kind {kind!r}; valid: {list(TOPOLOGY_KINDS)}"
        )
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(
            f"edge_probability must be in [0, 1], got {edge_probability}"
        )
    if degree_skew < 0.0:
        raise ValueError(f"degree_skew must be >= 0, got {degree_skew}")
    if degree_skew > 0.0 and kind not in DEGREE_SKEW_TOPOLOGY_KINDS:
        raise ValueError(
            f"degree_skew only applies to {list(DEGREE_SKEW_TOPOLOGY_KINDS)} "
            f"topologies (kinds with seeded degree sampling), got kind {kind!r}"
        )
    if num_workers < 2:
        raise ValueError("num_workers must be >= 2")
    if kind == "ring" and num_workers < 3:
        raise ValueError("a ring topology needs at least 3 workers")
    if kind == "torus":
        _torus_shape(num_workers)  # raises for primes and num_workers < 4
    if kind == "small-world" and num_workers < 4:
        raise ValueError("a small-world topology needs at least 4 workers")
    if kind == "hypercube" and (num_workers < 2 or num_workers & (num_workers - 1)):
        raise ValueError(
            f"a hypercube needs a power-of-two worker count, got {num_workers}"
        )
    if kind == "expander" and num_workers < 4:
        raise ValueError("an expander topology needs at least 4 workers")


def validate_edge_failure_request(
    kind: str,
    num_workers: int,
    edge_failures: int,
    downtime_s: float,
    horizon_s: float,
) -> None:
    """Reject unbuildable edge-failure requests up front (spec time).

    The spec-time half of the scenario registry's ``edge_failures`` axis:
    sweep grids and CLI dry runs call it so a schedule that cannot fit its
    windows -- or a graph family whose every edge is a bridge, where no edge
    can fail without disconnecting the live graph -- dies before any cell
    executes. Randomized families (``random``/``small-world``) may still
    fail at build time when the drawn graph happens to be a tree.
    """
    if edge_failures < 0:
        raise ValueError(f"edge_failures must be >= 0, got {edge_failures}")
    if edge_failures == 0:
        return
    if downtime_s <= 0 or horizon_s <= 0:
        raise ValueError("edge_downtime_s and edge_horizon_s must be positive")
    window = horizon_s / edge_failures
    if downtime_s >= window:
        raise ValueError(
            f"edge_downtime_s={downtime_s} does not fit {edge_failures} "
            f"failure window(s) of {window:.3g}s in edge_horizon_s={horizon_s}"
        )
    if kind == "star":
        raise ValueError(
            "edge_failures cannot run on a star topology: every star edge "
            "is a bridge, so no edge can fail while keeping the live graph "
            "connected"
        )
    if kind in ("full", "hypercube") and num_workers < 3:
        raise ValueError(
            f"edge_failures on a {kind} graph needs at least 3 workers "
            "(a single edge is a bridge)"
        )


def validate_edge_events_request(
    kind: str,
    num_workers: int,
    edge_events: str,
    edge_failures: int,
    edge_probability: float = 0.25,
) -> None:
    """Reject unbuildable deterministic edge scripts up front (spec time).

    The spec-time half of the scenario registry's ``edge_events`` axis.
    Syntax, endpoint range, and fail/repair alternation are always checked
    (by constructing the :class:`EdgeSchedule`). For the deterministic graph
    families the full :class:`DynamicTopology` is built too -- the graph
    does not depend on the seed there -- so a script that flips a non-edge
    or disconnects a segment dies in a dry run; randomized families
    (``random``/``small-world``/``expander``) defer those two checks to
    build time, when the seed is known.
    """
    if not edge_events:
        return
    if edge_failures:
        raise ValueError(
            "edge_events (a deterministic script) and edge_failures (the "
            "seeded random process) are mutually exclusive; set one"
        )
    schedule = EdgeSchedule.from_string(num_workers, edge_events)
    if kind not in RANDOMIZED_TOPOLOGY_KINDS and kind != "expander":
        DynamicTopology(
            make_topology(kind, num_workers, edge_probability=edge_probability),
            schedule,
        )


def make_topology(
    kind: str,
    num_workers: int,
    edge_probability: float = 0.25,
    seed: int = 0,
    degree_skew: float = 0.0,
) -> Topology:
    """Build a topology family by name (the scenario registry's graph axis).

    ``edge_probability`` doubles as the Erdos-Renyi edge probability for
    ``"random"`` and the rewire probability for ``"small-world"``; the other
    families ignore it. ``degree_skew`` adds per-node degree heterogeneity
    for ``"random"``/``"expander"`` (see the constructors for semantics) and
    is rejected for every other family. Randomized families draw from a
    dedicated ``[seed, _TOPOLOGY_STREAM]`` stream, so the same scenario seed
    always yields the same graph without touching link or churn randomness.
    """
    validate_topology_request(
        kind, num_workers, edge_probability, degree_skew=degree_skew
    )
    if kind == "full":
        return Topology.fully_connected(num_workers)
    if kind == "ring":
        return Topology.ring(num_workers)
    if kind == "star":
        return Topology.star(num_workers)
    if kind == "torus":
        return Topology.torus(num_workers)
    if kind == "hypercube":
        return Topology.hypercube(num_workers)
    rng = np.random.default_rng([seed, _TOPOLOGY_STREAM])
    if kind == "random":
        return Topology.random_connected(
            num_workers, edge_probability, rng, degree_skew=degree_skew
        )
    if kind == "expander":
        return Topology.expander(num_workers, rng, degree_skew=degree_skew)
    return Topology.small_world(num_workers, edge_probability, rng)
