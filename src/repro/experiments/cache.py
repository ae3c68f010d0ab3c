"""Result storage for sweeps: the sha256-keyed :class:`ResultCache`.

Every backend in :mod:`repro.experiments.executors` -- inline, process,
batched, queue -- lands each finished cell here, keyed by the cell's
config hash, so ``batched == queue == process == inline`` bit-for-bit and
an interrupted sweep resumes from whatever already completed.

The module is also the single home of the sweep service's one crash-safety
primitive, :func:`_atomic_write` (temp file + :func:`os.replace`): results,
task specs and every JSON record the broker keeps go through it, so a
reader of any of those paths never observes a partial write.

Import direction of the sweep service: ``cache <- broker <- worker <-
executors``; this module imports none of the others.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections.abc import Callable
from typing import IO, TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.simulation.records import TrainingResult

__all__ = ["ResultCache"]


def _atomic_write(
    directory: str, path: str, mode: str, write: Callable[[IO[Any]], object]
) -> None:
    """Temp file + :func:`os.replace`: concurrent readers of ``path`` never
    observe a partial write. The single home of the broker's one crash-safety
    primitive (results, task specs, and JSON records all go through here)."""
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


class ResultCache:
    """Pickle-per-cell on-disk cache keyed by the cell's config hash.

    Writes go through a temp file + :func:`os.replace`, so concurrent sweep
    processes sharing a directory can never observe a half-written entry.
    A corrupt or truncated entry is *quarantined* on load -- moved aside to
    ``<directory>/quarantine/`` for inspection -- and reported as a miss,
    so the cell simply re-executes.
    """

    QUARANTINE_SUBDIR = "quarantine"

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, self.QUARANTINE_SUBDIR)

    def load(self, key: str) -> TrainingResult | None:
        try:
            with open(self.path(key), "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as error:
            # Unpickling corrupt bytes can raise nearly anything (torn
            # write, version skew): TypeError, ValueError, KeyError, ...
            # -- every non-missing failure means "unusable entry", so
            # quarantine it with the error recorded alongside and
            # re-execute rather than crash the sweep.
            self._quarantine(key, error)
            return None

    def _quarantine(self, key: str, error: BaseException) -> None:
        """Move a corrupt entry aside (keep it for forensics, retry never
        sees it) and record why next to it. Concurrent quarantiners race
        benignly: one rename wins, the others find the file gone."""
        os.makedirs(self.quarantine_dir(), exist_ok=True)
        destination = os.path.join(
            self.quarantine_dir(), f"{key}.{os.getpid()}.pkl"
        )
        try:
            os.replace(self.path(key), destination)
        except FileNotFoundError:
            return
        try:
            with open(f"{destination}.reason.txt", "w",
                      encoding="utf-8") as handle:
                handle.write(f"{type(error).__name__}: {error}\n")
        except OSError:
            pass  # forensics only; the quarantine itself already succeeded

    def peek(self, key: str) -> TrainingResult | None:
        """:meth:`load` without the quarantine side effect.

        The streaming wait loop peeks at results as they land; it must
        never move a file aside mid-poll (an in-progress arrival would be
        destroyed and the coordinator's existence checks would never see
        it), so unreadable bytes simply read as "not here yet" and the
        destructive :meth:`load` in the final collection pass stays the
        only quarantiner. Best-effort all the way down: *any* read or
        unpickle failure -- corrupt bytes raise arbitrary exception types
        -- is a miss, never an error out of the wait loop.
        """
        try:
            with open(self.path(key), "rb") as handle:
                return pickle.load(handle)
        # repro-lint: allow[RPL040] -- a peek is documented best-effort and
        # side-effect free: corrupt bytes raise arbitrary exception types
        # and must read as "not here yet"; load() is the reporting path
        # (it quarantines the entry with the error recorded alongside)
        except Exception:
            return None

    def store(self, key: str, result: TrainingResult) -> None:
        _atomic_write(
            self.directory, self.path(key), "wb",
            lambda handle: pickle.dump(result, handle),
        )

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory) if name.endswith(".pkl"))
