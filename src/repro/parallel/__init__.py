"""Process-pool execution engine for SCT* root-to-leaf path work.

The SCT*-Index decomposes every k-clique query into independent
root-to-leaf paths, and the node ids of the tree are laid out so that
each seed vertex's subtree occupies one contiguous id range.  Both facts
together make the whole pipeline shardable with a *deterministic* merge:

* :class:`ParallelConfig` — the value behind the ``parallel=`` knob of
  :class:`~repro.options.RunOptions` (worker count, chunking, start
  method, crash retries);
* :class:`PathShardEngine` — a pool over contiguous root-range chunks;
  results stream back in chunk order, so any consumer that folds them
  sequentially reproduces the serial result byte for byte;
* :func:`~repro.parallel.build.parallel_build` — pool-backed
  :meth:`~repro.core.SCTIndex.build` (reached via
  ``options=RunOptions(parallel=...)``).

``workers=1`` never creates a pool; every entry point falls back to the
single-process code path, so ``parallel=1`` is byte-identical to passing
nothing at all.
"""

from .config import ParallelConfig
from .engine import PathShardEngine

__all__ = ["ParallelConfig", "PathShardEngine"]
