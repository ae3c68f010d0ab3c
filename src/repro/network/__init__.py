"""Heterogeneous-network substrate.

Replaces the paper's physical testbed (Section V-A: 18 servers on 1000 Mbps
Ethernet, links randomly slowed 2x-100x with the slow link rotating every
5 minutes; a homogeneous 10 Gbps virtual switch; six EC2 regions in
Appendix G) with deterministic, seedable models:

- :mod:`repro.network.cluster` -- server placement and base link matrices;
- :mod:`repro.network.links` -- time-varying bandwidth/latency models,
  including the paper's rotating-slowdown emulation;
- :mod:`repro.network.costmodel` -- the paper's model zoo at true parameter
  counts, plus compute- and communication-time models.
"""

from repro.network.cluster import ClusterSpec
from repro.network.links import (
    LinkSpeedModel,
    StaticLinks,
    ClusterLinks,
    DynamicSlowdownLinks,
    TraceLinks,
    multi_cloud_links,
    diurnal_trace,
    random_walk_trace,
    burst_congestion_trace,
)
from repro.network.costmodel import (
    ModelCostProfile,
    MODEL_ZOO,
    get_cost_profile,
    CommunicationModel,
    ComputeModel,
)

__all__ = [
    "ClusterSpec",
    "LinkSpeedModel",
    "StaticLinks",
    "ClusterLinks",
    "DynamicSlowdownLinks",
    "TraceLinks",
    "multi_cloud_links",
    "diurnal_trace",
    "random_walk_trace",
    "burst_congestion_trace",
    "ModelCostProfile",
    "MODEL_ZOO",
    "get_cost_profile",
    "CommunicationModel",
    "ComputeModel",
]
