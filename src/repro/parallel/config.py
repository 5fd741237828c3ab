"""Configuration for the process-pool execution engine.

:class:`ParallelConfig` is the value behind the ``parallel=`` knob of
:class:`~repro.options.RunOptions`: it says how many worker processes to
use and how the root-to-leaf path work is chunked across them.  It is a
plain frozen dataclass with no multiprocessing state, so it pickles
freely and can sit inside :class:`~repro.options.RunOptions` (which is
itself shipped around the pipeline).

``workers=1`` (the default) is the documented "serial" setting: every
engine entry point checks :attr:`ParallelConfig.enabled` and falls back
to the exact single-process code path, so passing ``parallel=1`` is
byte-identical to passing nothing at all.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass
from typing import Optional

from ..errors import InvalidParameterError

__all__ = ["ParallelConfig"]


@dataclass(frozen=True)
class ParallelConfig:
    """How to shard SCT* path work across worker processes.

    Parameters
    ----------
    workers:
        Worker process count.  ``1`` means serial: no pool is ever
        created and results are byte-identical to the pre-parallel code.
    chunks_per_worker:
        Target number of work chunks handed to each worker per sweep.
        More chunks balance skewed subtrees better; fewer chunks lower
        dispatch overhead.  Chunks are contiguous root ranges, so the
        ordered merge of chunk results always reproduces serial order.
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``).  ``None`` picks ``fork`` when the platform
        offers it AND the process is single-threaded at pool-creation
        time, falling back to ``spawn`` otherwise.  Forking a
        multithreaded process (e.g. from inside the HTTP service's
        handler threads) clones locks in whatever state other threads
        hold them, so a worker can deadlock in bootstrap before it ever
        reaches the task loop; it also clones Python-level signal
        handlers, making such a worker immune to ``Pool.terminate()``'s
        SIGTERM.  ``spawn`` children start from a fresh interpreter and
        have neither problem — the engine's shm broadcast was designed
        to work identically under both.
    max_crash_retries:
        How many times a sweep may rebuild the pool after detecting a
        crashed worker (SIGKILL/OOM) before degrading to in-process
        serial execution of the remaining chunks.  ``0`` means any
        crash goes straight to the serial fallback.  Either way the
        sweep completes with results byte-identical to an uncrashed run.
    """

    workers: int = 1
    chunks_per_worker: int = 4
    start_method: Optional[str] = None
    max_crash_retries: int = 2

    def __post_init__(self) -> None:
        if (
            not isinstance(self.workers, int)
            or isinstance(self.workers, bool)
            or self.workers < 1
        ):
            raise InvalidParameterError(
                f"workers must be an int >= 1, got {self.workers!r}"
            )
        if (
            not isinstance(self.chunks_per_worker, int)
            or isinstance(self.chunks_per_worker, bool)
            or self.chunks_per_worker < 1
        ):
            raise InvalidParameterError(
                f"chunks_per_worker must be an int >= 1, "
                f"got {self.chunks_per_worker!r}"
            )
        if (
            not isinstance(self.max_crash_retries, int)
            or isinstance(self.max_crash_retries, bool)
            or self.max_crash_retries < 0
        ):
            raise InvalidParameterError(
                f"max_crash_retries must be an int >= 0, "
                f"got {self.max_crash_retries!r}"
            )
        if self.start_method is not None:
            available = multiprocessing.get_all_start_methods()
            if self.start_method not in available:
                raise InvalidParameterError(
                    f"start_method {self.start_method!r} not available; "
                    f"expected one of: {', '.join(available)}"
                )

    @property
    def enabled(self) -> bool:
        """Whether this configuration actually spawns a pool."""
        return self.workers > 1

    @classmethod
    def normalize(cls, value) -> Optional["ParallelConfig"]:
        """Coerce a ``parallel=`` argument to a config (or ``None``).

        Accepts ``None`` (serial, the default), a bare int worker count,
        or a ready :class:`ParallelConfig`.  Anything else — including
        booleans, which are almost certainly a bug — is rejected with
        :class:`~repro.errors.InvalidParameterError`.
        """
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            raise InvalidParameterError(
                "parallel must be None, an int worker count or a "
                f"ParallelConfig, got {value!r} (pass workers=N, not a flag)"
            )
        if isinstance(value, int):
            return cls(workers=value)
        raise InvalidParameterError(
            "parallel must be None, an int worker count or a ParallelConfig, "
            f"got {type(value).__name__}"
        )

    def context(self):
        """The ``multiprocessing`` context this config asks for.

        Evaluated lazily at pool-creation time because the fork-vs-spawn
        choice depends on whether *other threads exist right now*: the
        same config may serve a single-threaded CLI run (fork is safe
        and cheap) and a threaded service daemon (fork would clone
        handler-thread lock state into the worker and deadlock it).
        """
        method = self.start_method
        if method is None:
            available = multiprocessing.get_all_start_methods()
            if "fork" in available and threading.active_count() == 1:
                method = "fork"
            elif "spawn" in available:
                method = "spawn"
        return multiprocessing.get_context(method)
