"""Communication-topology substrate.

The paper models the worker network as an undirected connected graph
``G = (V, E)`` (Section II-A, Assumption 1). :class:`repro.graph.Topology`
is the single representation used everywhere: by the policy LP (which needs
the neighborhood indicators ``d_im``), by the simulator (which refuses to
route messages over non-edges), and by the baselines (ring order for
all-reduce, fixed subgraph for SAPS).
"""

from repro.graph.topology import (
    RANDOMIZED_TOPOLOGY_KINDS,
    TOPOLOGY_KINDS,
    DynamicTopology,
    EdgeFlipEvent,
    EdgeSchedule,
    Topology,
    make_topology,
)

__all__ = [
    "Topology",
    "DynamicTopology",
    "EdgeFlipEvent",
    "EdgeSchedule",
    "TOPOLOGY_KINDS",
    "RANDOMIZED_TOPOLOGY_KINDS",
    "make_topology",
]
