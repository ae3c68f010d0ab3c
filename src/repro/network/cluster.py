"""Cluster placement and the base (pre-dynamics) link matrices.

The paper runs workers in docker containers across GPU servers; link speed
is dominated by whether two workers share a machine (fast loopback /
PCIe-class) or talk over the 1000 Mbps Ethernet (Section II-B, Fig. 3).
:class:`ClusterSpec` captures exactly that structure and produces the
bandwidth/latency matrices that the link models elaborate.

Units: bandwidth in **bytes/second**, latency in **seconds**. Constructors
take Gbps for readability and convert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ClusterSpec", "gbps_to_bytes_per_s"]


def gbps_to_bytes_per_s(gbps: float) -> float:
    """Convert gigabits/second to bytes/second (1 Gbps = 1.25e8 B/s)."""
    if gbps <= 0:
        raise ValueError(f"bandwidth must be positive, got {gbps} Gbps")
    return gbps * 1e9 / 8.0


@dataclass(frozen=True)
class ClusterSpec:
    """Workers placed on servers, with intra- and inter-machine link classes.

    Attributes:
        workers_per_server: e.g. ``(4, 4)`` for 8 workers over 2 servers.
        intra_gbps: bandwidth between co-located workers. The paper measures
            intra-machine iteration time well under inter-machine, so the
            default is PCIe/loopback-class (10 Gbps).
        inter_gbps: bandwidth across servers (paper: 1000 Mbps Ethernet).
        intra_latency_s / inter_latency_s: per-message propagation latency.
    """

    workers_per_server: tuple[int, ...]
    intra_gbps: float = 10.0
    inter_gbps: float = 1.0
    intra_latency_s: float = 1e-4
    inter_latency_s: float = 5e-4

    def __post_init__(self) -> None:
        if not self.workers_per_server:
            raise ValueError("need at least one server")
        if any(w < 1 for w in self.workers_per_server):
            raise ValueError("every server must host at least one worker")
        if self.num_workers < 2:
            raise ValueError("a cluster needs at least 2 workers")
        if self.intra_gbps <= 0 or self.inter_gbps <= 0:
            raise ValueError("bandwidths must be positive")
        if self.intra_latency_s < 0 or self.inter_latency_s < 0:
            raise ValueError("latencies must be non-negative")

    # -- placement -----------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return sum(self.workers_per_server)

    def placement(self) -> np.ndarray:
        """``placement()[i]`` = server index hosting worker ``i``.

        Workers are numbered server by server: server 0 hosts workers
        ``0..w0-1``, server 1 hosts ``w0..w0+w1-1``, and so on -- matching
        the paper's ``<w0..w3> on server 1, <w4..w7> on server 2`` layout.
        """
        out = np.empty(self.num_workers, dtype=np.int64)
        cursor = 0
        for server, count in enumerate(self.workers_per_server):
            out[cursor : cursor + count] = server
            cursor += count
        return out

    # -- link matrices ---------------------------------------------------------

    def bandwidth_matrix(self) -> np.ndarray:
        """``(M, M)`` bytes/s; diagonal is +inf (no self-communication cost)."""
        placement = self.placement()
        same = placement[:, None] == placement[None, :]
        intra = gbps_to_bytes_per_s(self.intra_gbps)
        inter = gbps_to_bytes_per_s(self.inter_gbps)
        matrix = np.where(same, intra, inter).astype(np.float64)
        np.fill_diagonal(matrix, np.inf)
        return matrix

    def latency_matrix(self) -> np.ndarray:
        """``(M, M)`` seconds; diagonal is 0."""
        placement = self.placement()
        same = placement[:, None] == placement[None, :]
        matrix = np.where(same, self.intra_latency_s, self.inter_latency_s).astype(np.float64)
        np.fill_diagonal(matrix, 0.0)
        return matrix

    # -- canned layouts (paper Section V-A) -----------------------------------

    @classmethod
    def paper_heterogeneous(cls, num_workers: int) -> "ClusterSpec":
        """The paper's layout: 4, 8, 16 workers across 2, 3, 4 servers.

        Other worker counts are spread as evenly as possible over
        ``max(2, ceil(num_workers / 4))`` servers.
        """
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        servers = {4: 2, 8: 3, 16: 4}.get(num_workers)
        if servers is None:
            servers = max(2, int(np.ceil(num_workers / 4)))
        base, extra = divmod(num_workers, servers)
        layout = tuple(base + (1 if s < extra else 0) for s in range(servers))
        return cls(workers_per_server=layout)

    @classmethod
    def paper_homogeneous(cls, num_workers: int) -> "ClusterSpec":
        """All workers on one server behind a 10 Gbps virtual switch."""
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        return cls(
            workers_per_server=(num_workers,),
            intra_gbps=10.0,
            intra_latency_s=1e-4,
        )
