"""Atomic, integrity-checked checkpoints for resumable pipeline stages.

Long index builds and SCTL* refinement runs are naturally resumable: the
build frontier advances one root subtree at a time and the weight vectors
evolve one whole iteration at a time, so a snapshot at either boundary
restarts the run with *exact* parity against an uninterrupted one (the
traversal and update order are deterministic).

Snapshots are written crash-safely — to a temporary file in the target
directory, then :func:`os.replace`\\ d over the final name — with a
versioned header and a CRC-32 checksum verified on load, so a checkpoint
can never be half-written and a corrupted one fails loudly
(:class:`~repro.errors.CheckpointError`) instead of resuming garbage.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from contextlib import contextmanager
from typing import Any, Callable, Dict, IO, Iterator, Optional, Union

from ..errors import CheckpointError

__all__ = ["Checkpointer", "atomic_writer", "require_match"]

_FORMAT_VERSION = 1

PathLike = Union[str, "os.PathLike[str]"]


@contextmanager
def atomic_writer(
    path: PathLike, encoding: str = "utf-8", binary: bool = False
) -> Iterator[IO]:
    """Write a file atomically: temp file + :func:`os.replace`.

    The handle yielded writes to a temporary file in the same directory
    as ``path`` (same filesystem, so the final rename is atomic).  Only
    when the block completes is the temp file fsynced and moved over
    ``path``; on any exception the temp file is removed and the previous
    contents of ``path`` stay untouched and readable.

    ``binary=True`` yields a bytes handle (``encoding`` is then ignored) —
    the v2 index format writes through this.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    if binary:
        handle = os.fdopen(fd, "wb")
    else:
        handle = os.fdopen(fd, "w", encoding=encoding)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    except BaseException:
        handle.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    handle.close()
    os.replace(tmp, target)


class Checkpointer:
    """Periodic snapshot store for one run, keyed by snapshot ``kind``.

    Each kind (``"sct-build"``, ``"sctl-weights"``, ...) lives in its own
    ``<directory>/<kind>.ckpt`` file: a JSON header line carrying the
    format version, the kind, and a CRC-32 of the payload, then the JSON
    payload line.  :meth:`load` re-verifies all three.

    Parameters
    ----------
    directory:
        Where snapshots live; created if missing.
    interval_seconds:
        Minimum spacing between :meth:`due` saves of the same kind.  The
        first boundary is always due; afterwards saves are throttled to
        one per interval (default 5 s) so snapshot cost stays negligible
        next to the work between boundaries.  Exhaustion-time saves
        bypass :meth:`due`, so nothing completed is ever lost.  The
        parity tests pass ``0`` to make *every* boundary due.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        directory: PathLike,
        interval_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.interval_seconds = interval_seconds
        self._clock = clock
        self._last_save: Dict[str, float] = {}

    @classmethod
    def ensure(
        cls, checkpoint: Union[None, PathLike, "Checkpointer"]
    ) -> Optional["Checkpointer"]:
        """Normalise a ``checkpoint`` knob: directory path or instance."""
        if checkpoint is None or isinstance(checkpoint, Checkpointer):
            return checkpoint
        return cls(checkpoint)

    def path_for(self, kind: str) -> str:
        """The snapshot file for ``kind``."""
        return os.path.join(self.directory, f"{kind}.ckpt")

    def due(self, kind: str) -> bool:
        """Whether enough time has passed to save ``kind`` again (cheap)."""
        last = self._last_save.get(kind)
        if last is None:
            return True
        return self._clock() - last >= self.interval_seconds

    def save(self, kind: str, payload: Dict[str, Any]) -> str:
        """Atomically write a snapshot of ``kind``; returns its path."""
        body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        header = json.dumps(
            {
                "format": _FORMAT_VERSION,
                "kind": kind,
                "checksum": zlib.crc32(body.encode("utf-8")),
            }
        )
        target = self.path_for(kind)
        with atomic_writer(target) as handle:
            handle.write(header + "\n")
            handle.write(body + "\n")
        self._last_save[kind] = self._clock()
        return target

    def has(self, kind: str) -> bool:
        """Whether a snapshot of ``kind`` exists on disk."""
        return os.path.exists(self.path_for(kind))

    def load(self, kind: str) -> Optional[Dict[str, Any]]:
        """Read back a snapshot of ``kind``.

        Returns ``None`` when no snapshot exists; raises
        :class:`~repro.errors.CheckpointError` when the file is corrupt,
        truncated, of the wrong kind, or from an unsupported format.
        """
        target = self.path_for(kind)
        try:
            with open(target, "r", encoding="utf-8") as handle:
                header_line = handle.readline()
                body = handle.readline()
        except FileNotFoundError:
            return None
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"corrupt checkpoint header in {target}: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("format") != _FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format in {target}: "
                f"{header.get('format') if isinstance(header, dict) else header!r}"
            )
        if header.get("kind") != kind:
            raise CheckpointError(
                f"checkpoint kind mismatch in {target}: "
                f"expected {kind!r}, found {header.get('kind')!r}"
            )
        body = body.rstrip("\n")
        if not body:
            raise CheckpointError(f"truncated checkpoint payload in {target}")
        if zlib.crc32(body.encode("utf-8")) != header.get("checksum"):
            raise CheckpointError(
                f"checkpoint checksum mismatch in {target} "
                "(truncated or corrupted write)"
            )
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:  # checksum passed but body broken
            raise CheckpointError(
                f"corrupt checkpoint payload in {target}: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"checkpoint payload in {target} is not an object"
            )
        return payload

    def clear(self, kind: str) -> None:
        """Remove the snapshot of ``kind`` (after a run completes)."""
        try:
            os.unlink(self.path_for(kind))
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:
        return (
            f"Checkpointer({self.directory!r}, "
            f"interval_seconds={self.interval_seconds})"
        )


def require_match(
    payload: Dict[str, Any], expected: Dict[str, Any], kind: str
) -> None:
    """Verify a loaded snapshot belongs to the run resuming from it.

    ``expected`` maps field names to the resuming run's parameters (graph
    size, ``k``, algorithm toggles...); any mismatch raises
    :class:`~repro.errors.CheckpointError` naming the offending field.
    """
    for field, want in expected.items():
        got = payload.get(field)
        if got != want:
            raise CheckpointError(
                f"checkpoint {kind!r} does not match this run: "
                f"{field}={got!r} in snapshot, {want!r} requested"
            )
