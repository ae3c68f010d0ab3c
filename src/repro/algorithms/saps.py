"""SAPS-PSGD-style baseline [Tang et al. 2020] (Section I / VI discussion).

SAPS-PSGD measures link speeds *once*, keeps only a subgraph of initially
fast links, and gossips uniformly over that fixed subgraph forever. On a
static network this is a fine idea; on a dynamic one it is the paper's
cautionary tale (Fig. 2): a link that was fast at T1 may be the slowed link
at T2, and the fixed topology cannot route around it.

The fast subgraph is the maximum-bandwidth spanning tree of the base
topology measured at t = 0, SAPS's sparsest configuration.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.adpsgd import ADPSGDTrainer
from repro.graph.topology import Topology

__all__ = ["SAPSTrainer", "initially_fast_subgraph"]


def initially_fast_subgraph(topology: Topology, bandwidth_matrix: np.ndarray) -> Topology:
    """Maximum-bandwidth spanning tree of ``topology``.

    Args:
        topology: the physical topology whose edges may be used.
        bandwidth_matrix: bandwidths measured at selection time.
    """
    bandwidth_matrix = np.asarray(bandwidth_matrix, dtype=np.float64)
    # Kruskal, fastest edge first. The sort is stable, so equal bandwidths
    # keep the edge list's (a, b) order for which tied edge enters the tree.
    ranked = sorted(topology.edges(), key=lambda e: bandwidth_matrix[e], reverse=True)
    root = list(range(topology.num_workers))

    def find(worker: int) -> int:
        while root[worker] != worker:
            root[worker] = root[root[worker]]  # path halving
            worker = root[worker]
        return worker

    tree = []
    for a, b in ranked:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            root[root_a] = root_b
            tree.append((a, b))
    return Topology.from_edges(topology.num_workers, tree)


class SAPSTrainer(ADPSGDTrainer):
    """AD-PSGD-style gossip pinned to the initially-fast subgraph."""

    name = "saps"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        bandwidth_now = self.comm.links.bandwidth_matrix(0.0)
        # SAPS measures exactly once, so its subgraph is drawn from the edge
        # set live at t=0 (on a time-varying topology, edges that fail later
        # stay in the subgraph -- the paper's cautionary tale -- and only
        # the per-iteration liveness filter keeps transfers off them).
        self.fixed_subgraph = initially_fast_subgraph(
            self.topology.topology_at(0.0), bandwidth_now
        )
        self._neighbor_cache = [
            self.fixed_subgraph.neighbors(i) for i in range(self.num_workers)
        ]

    # _choose_peer is inherited: it gossips over self._neighbor_cache, which
    # this constructor repointed at the fixed subgraph, and under churn or
    # edge failures it renormalizes over that subgraph's currently reachable
    # active neighbors (a tree worker whose only fast-subgraph peers departed
    # or lost their edges runs compute-only until one returns).

    def _extras(self) -> dict:
        return {"fixed_subgraph_edges": self.fixed_subgraph.edges()}
