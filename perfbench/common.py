"""Shared pieces of the workloads: clocks, host speed, medians, spans and
memory."""

import contextlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

clock = time.perf_counter


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class HostSpeed:
    """Host-speed samples taken while the program runs, to steady timings.

    On a shared virtual machine the same pure-Python work takes up to
    60% longer from one second to the next, and the guest cannot tell:
    no steal time is reported and CPU time tracks wall time.  Medians
    over a 30 s run did not remove it, because the slow phases last
    minutes.  So while a workload runs, an interval timer interrupts the
    main thread every ``INTERVAL_S`` and times ``_kernel``, a fixed
    piece of pure-Python work of the benchmark's own that never calls
    the program.  An operation's *scaled* seconds are its wall seconds
    times ``REFERENCE_S`` over the kernel's mean time during that
    operation: what it would have taken had the host run the kernel in
    ``REFERENCE_S`` throughout.  A program change moves scaled seconds
    exactly as it moves wall seconds; a slow phase of the host moves
    both the operation and the kernel, and cancels.

    The kernel counts triangles with set intersections and list updates,
    like the program's inner loops, on one of ``COPIES`` identical small
    graphs in turn: identical work every time, but spread over a few MiB
    like the program's data, so it feels the cache pressure the program
    feels.  The copies add a fixed 5 MiB to the process's peak RSS; the
    samples cost 1 to 2% of every timed operation, in every run alike.
    Python runs the handler between bytecodes, so a sample due during a
    long C call is taken when the call returns.
    """

    INTERVAL_S = 0.025
    # about the kernel's time while the workloads run on the shared
    # 2-vCPU x86-64 virtual machine the bounds were set on, so scaled
    # seconds read close to wall seconds there (in isolation it takes
    # 0.27 ms: the program's data evicts the kernel's between samples)
    REFERENCE_S = 0.0004
    # an operation too short to hold this many samples is scaled by the
    # latest ones instead
    MIN_SAMPLES = 8
    COPIES = 64
    _VERTICES, _EDGES, _ROOTS = 400, 6000, range(0, 400, 16)

    def __init__(self):
        self.samples = []
        self._busy = False
        self._previous = None
        graph = self._graph()
        self._copies = [[list(row) for row in graph]
                        for _ in range(self.COPIES)]
        self._turn = 0

    @classmethod
    def _graph(cls):
        """A fixed random graph, each vertex's later neighbours sorted."""
        rng = random.Random(20261017)
        adjacent = [set() for _ in range(cls._VERTICES)]
        for _ in range(cls._EDGES):
            u = rng.randrange(cls._VERTICES)
            v = rng.randrange(cls._VERTICES)
            if u != v:
                adjacent[u].add(v)
                adjacent[v].add(u)
        order = sorted(range(cls._VERTICES),
                       key=lambda x: (len(adjacent[x]), x))
        rank = {v: i for i, v in enumerate(order)}
        return [sorted(w for w in adjacent[v] if rank[w] > rank[v])
                for v in range(cls._VERTICES)]

    def __enter__(self):
        for _ in range(self.COPIES):  # warm the kernel and every copy
            self._kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _kernel(self):
        """Triangles through ``_ROOTS`` in the next copy; no allocation
        survives a call."""
        self._turn = (self._turn + 1) % self.COPIES
        later = self._copies[self._turn]
        weights = [0] * len(later)
        triangles = 0
        for v in self._ROOTS:
            mine = set(later[v])
            for w in later[v]:
                common = mine.intersection(later[w])
                triangles += len(common)
                for x in common:
                    weights[x] += 1
        return triangles

    def _sample(self, signum, frame):
        if self._busy:  # a sample delayed past the next tick
            return
        self._busy = True
        start = clock()
        self._kernel()
        self.samples.append(clock() - start)
        self._busy = False

    def mark(self):
        """Where an operation starts; pass it to :meth:`since`."""
        return clock(), len(self.samples)

    def since(self, mark):
        """``(wall s, scaled s)`` from ``mark`` to now."""
        start, first = mark
        wall = clock() - start
        taken = self.samples[first:]
        if len(taken) < self.MIN_SAMPLES:
            taken = self.samples[-self.MIN_SAMPLES:]
        if not taken:
            return wall, wall
        return wall, wall * self.REFERENCE_S / statistics.fmean(taken)

    def timed(self, fn, *args, **kwargs):
        """``(wall s, scaled s, result)`` of one call."""
        mark = self.mark()
        result = fn(*args, **kwargs)
        return (*self.since(mark), result)


def peak_rss_mb():
    """This process's peak resident set size in MiB (``ru_maxrss`` is KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory and written out once, when the run ends.

    Each span records its name, start and end (seconds since the tracer
    was made), its parent span and the request id it belongs to.  A
    disabled tracer records nothing and costs one branch per span.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()  # open spans, per thread
        self._lock = threading.Lock()
        self._t0 = clock()

    @contextlib.contextmanager
    def span(self, name, request_id=None):
        """Record the enclosed block; yields the span's record, whose
        ``seconds`` is set when the block ends (``None`` if disabled)."""
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids), "name": name,
            "parent": stack[-1] if stack else None,
            "request_id": request_id, "start": clock() - self._t0,
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = clock() - self._t0
            record["seconds"] = record["end"] - record["start"]
            with self._lock:
                self.spans.append(record)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(record) + "\n")


class Outcome:
    """What one workload run measured and whether its answers held.

    ``problems`` are wrong answers; ``errors`` are operations that
    failed outright, counted in ``failed``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.errors = []
        self.metrics = {}
        self.report = []

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def note(self, name, value, unit):
        """A figure for the human-readable report (not the JSON line)."""
        self.report.append((name, value, unit))
