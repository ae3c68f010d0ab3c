"""Worker churn: scheduled departures and rejoins on the virtual clock.

Real multi-tenant clusters lose workers -- preemptions, maintenance,
transient partitions -- and decentralized training must keep converging on
whoever remains (the availability dynamics that Le et al. and Wang & Chi
flag as ranking-flipping in communication-constrained FL). A
:class:`ChurnSchedule` is a deterministic script of ``leave``/``join``
transitions that a :class:`~repro.algorithms.base.DecentralizedTrainer`
replays on its simulator:

- a *departed* worker's iteration loop parks: it computes nothing, sends
  nothing, and nothing may be pulled from it (trainers renormalize neighbor
  selection over the active set);
- its model replica is frozen in place, so a *rejoin* resumes from exactly
  the parameters it left with (the trainer restarts its loop);
- schedules validate alternation (leave, join, leave, ...) per worker and a
  minimum number of simultaneously active workers, so a scripted scenario
  can never strand the run without peers.

Schedules are plain data (picklable, hashable content) and pure functions
of their construction arguments, which keeps churn runs bit-identically
reproducible and cacheable by the sweep engine.

Whole-worker churn has a per-edge sibling: *link* failures and repairs are
scripted by :class:`repro.graph.topology.EdgeSchedule` and replayed through
:class:`repro.graph.topology.DynamicTopology` with the same conventions
(transitions apply at their exact timestamp, deterministic tie order,
dedicated seed stream). The two compose in one place: a peer is reachable
when it is active and the edge to it is live
(:meth:`repro.algorithms.base.DecentralizedTrainer.reachable`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ChurnEvent", "ChurnSchedule"]

LEAVE = "leave"
JOIN = "join"


@dataclass(frozen=True, order=True)
class ChurnEvent:
    """One scheduled transition: ``worker`` leaves or rejoins at ``time``."""

    time: float
    worker: int
    kind: str  # "leave" | "join"

    def __post_init__(self) -> None:
        if self.kind not in (LEAVE, JOIN):
            raise ValueError(f"kind must be 'leave' or 'join', got {self.kind!r}")
        if self.time <= 0:
            raise ValueError(
                f"churn events need time > 0 (workers all start active), got {self.time}"
            )


class ChurnSchedule:
    """A validated, time-ordered script of worker departures and rejoins.

    All workers start active. Per worker, events must alternate starting
    with a leave; globally, the number of simultaneously active workers may
    never fall below ``min_active`` (default 2 -- gossip needs a peer).

    Args:
        num_workers: worker count ``M`` the schedule is written for.
        events: iterable of :class:`ChurnEvent` or ``(time, worker, kind)``
            tuples, in any order.
        min_active: validation floor on concurrently active workers.
    """

    def __init__(self, num_workers: int, events, min_active: int = 2):
        if num_workers < 2:
            raise ValueError("need at least 2 workers")
        if not 1 <= min_active <= num_workers:
            raise ValueError(f"min_active must be in [1, {num_workers}], got {min_active}")
        normalized = []
        for event in events:
            if not isinstance(event, ChurnEvent):
                event = ChurnEvent(float(event[0]), int(event[1]), str(event[2]))
            if not 0 <= event.worker < num_workers:
                raise ValueError(f"worker {event.worker} out of range for M={num_workers}")
            normalized.append(event)
        # Stable order: time, then worker -- ties resolve identically on
        # every run, which the deterministic-replay guarantee relies on.
        normalized.sort(key=lambda e: (e.time, e.worker))
        self.num_workers = int(num_workers)
        self.min_active = int(min_active)
        self.events: tuple[ChurnEvent, ...] = tuple(normalized)
        self._validate()

    def _validate(self) -> None:
        active = [True] * self.num_workers
        count = self.num_workers
        for event in self.events:
            if event.kind == LEAVE:
                if not active[event.worker]:
                    raise ValueError(
                        f"worker {event.worker} leaves twice (t={event.time}) "
                        "without rejoining"
                    )
                active[event.worker] = False
                count -= 1
                if count < self.min_active:
                    raise ValueError(
                        f"schedule drops below min_active={self.min_active} "
                        f"active workers at t={event.time}"
                    )
            else:
                if active[event.worker]:
                    raise ValueError(
                        f"worker {event.worker} joins at t={event.time} "
                        "while still active"
                    )
                active[event.worker] = True
                count += 1

    # -- constructors ----------------------------------------------------------

    @classmethod
    def random(
        cls,
        num_workers: int,
        horizon_s: float,
        num_departures: int = 2,
        downtime_s: float = 60.0,
        seed: int = 0,
        min_active: int = 2,
    ) -> "ChurnSchedule":
        """Synthetic churn: random departures with bounded downtime.

        Draws ``num_departures`` (worker, leave-time) pairs from ``seed``;
        each departed worker rejoins ``downtime_s`` later (departures past
        ``horizon_s - downtime_s`` are clamped into range so every leave has
        a matching join inside the horizon). Departure times are spread over
        disjoint windows, so at most one extra worker is down at once and
        the ``min_active`` floor is respected by construction for
        ``num_workers >= min_active + 1``.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if num_departures < 0:
            raise ValueError("num_departures must be >= 0")
        if downtime_s <= 0:
            raise ValueError("downtime_s must be positive")
        if num_departures == 0:
            return cls(num_workers, [], min_active=min_active)
        window = horizon_s / num_departures
        if downtime_s >= window:
            raise ValueError(
                f"downtime_s={downtime_s} does not fit {num_departures} "
                f"departure window(s) of {window:.3g}s in horizon_s={horizon_s}"
            )
        rng = np.random.default_rng([seed, 0xC4])
        events = []
        for index in range(num_departures):
            worker = int(rng.integers(num_workers))
            lo = index * window
            # Leave somewhere in the window's first part so the rejoin lands
            # inside the same window (keeps windows disjoint per worker).
            leave = lo + float(rng.uniform(0.0, window - downtime_s))
            leave = max(leave, np.nextafter(0.0, 1.0))
            events.append(ChurnEvent(leave, worker, LEAVE))
            events.append(ChurnEvent(leave + downtime_s, worker, JOIN))
        return cls(num_workers, events, min_active=min_active)

    # -- queries ---------------------------------------------------------------

    def active_at(self, time: float) -> np.ndarray:
        """Boolean activity mask at ``time`` (transitions apply at their
        exact timestamp: a worker leaving at ``t`` is inactive at ``t``)."""
        active = np.ones(self.num_workers, dtype=bool)
        for event in self.events:
            if event.time > time:
                break
            active[event.worker] = event.kind == JOIN
        return active

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChurnSchedule):
            return NotImplemented
        return (
            self.num_workers == other.num_workers
            and self.min_active == other.min_active
            and self.events == other.events
        )

    def __hash__(self) -> int:
        # Keeps Scenario (a frozen dataclass embedding a schedule) hashable.
        return hash((self.num_workers, self.min_active, self.events))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ChurnSchedule(M={self.num_workers}, events={len(self.events)}, "
            f"min_active={self.min_active})"
        )
