"""``fleet-serve``: a router and two workers under a closed-loop mix.

``python -m repro serve --fleet 2`` runs in processes of its own and
serves two pinned community graphs.  This process is the load
generator: two client connections, each a thread with its own seeded
sequence, send their next request when the last one returns.  About one
request in ten deletes or re-inserts one edge through ``POST
/v1/update``; of the reads, about four in five repeat one (k, T) query
and hit the result cache, and the rest ask the same (k, T) with a fresh
seed, which misses the cache and runs SCTL* on the cached index.  Each
connection's updates toggle the pinned edge of one graph (see
``pins.UPDATE_EDGES``).

Set-up (timed, three times, median reported): fleet start, both cold
builds, the router's hot-key replica promotion, and one read of the hot
query on every replica so the timed phase starts settled.  The ring
epoch and replica map are read from ``GET /v1/stats`` before and after
the timed phase and must not differ.

Clients run with ``max_retries=0``: a refused, errored, non-zero-code
or timed-out request counts as failed instead of being retried.  After
the timed phase every envelope must pass ``validate_result``, and a
seeded sample of answers must equal an offline serial
``densest_subgraph`` run on the graph version each is stamped with and
still hold on the version it was served at, so a cached answer that an
update should have evicted fails.
"""

import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.request

from repro import DenseSubgraphResult, densest_subgraph
from repro.core.update import apply_edge_updates
from repro.core.validation import verify_result
from repro.graph.io import read_edge_list
from repro.obs.validate import validate_result
from repro.service import ServiceClient

import inputs
import pins
from common import ROOT, WORK, clock, median, percentile

GRAPHS = ("fleet-a", "fleet-b")
# every read asks SCTL* at the same (k, T); a fresh read differs only in
# its seed, which misses the result cache at the cost of a hot-key miss
QUERY = {"k": 6, "iterations": 10}
UPDATE_SHARE = 0.1
HOT_SHARE = 0.8
CONNECTIONS = 2
SETUP_REPEATS = 3
SAMPLE_PER_KIND = 3
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Fleet:
    """``python -m repro serve --fleet 2`` as a child process."""

    def __init__(self, log):
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--fleet", "2",
             "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
            text=True, start_new_session=True,
        )
        self.peak_rss_mb = 0.0
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.url = self._await_url()

    def _drain(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_url(self):
        deadline = clock() + START_TIMEOUT_S
        while clock() < deadline:
            try:
                line = self._lines.get(timeout=0.5)
            except queue.Empty:
                continue
            if line is None:
                break
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]
        self.stop()
        raise RuntimeError("the fleet did not announce its router")

    def stats(self):
        with urllib.request.urlopen(self.url + "/v1/stats", timeout=30) as r:
            return json.loads(r.read().decode().splitlines()[0])["stats"]

    def stop(self):
        """SIGTERM drains router and workers; wait until all have ended.

        Returns the fleet's peak RSS in MiB: the router reaps its
        workers, so the rusage ``wait4`` reports for the router covers
        the largest fleet process.
        """
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = clock() + STOP_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if clock() > deadline:
                    # the fleet is its own process group: kill the workers
                    # too, not just the router that failed to drain them
                    os.killpg(self.proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.05)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._reader.join(timeout=STOP_TIMEOUT_S)
        return self.peak_rss_mb


def run(seed, seconds, tracer, out):
    paths = {name: inputs.ensure(name) for name in GRAPHS}
    os.makedirs(WORK, exist_ok=True)
    log = open(os.path.join(WORK, "fleet.log"), "w")
    fleet = None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            if fleet is not None:
                fleet.stop()
            start = clock()
            fleet = Fleet(log)
            _settle(fleet, paths)
            setups.append(clock() - start)

        before = _topology(fleet.stats())
        records, phase_s = _drive(fleet.url, seed, seconds, paths, tracer,
                                  out)
        after = _topology(fleet.stats())
    finally:
        rss = fleet.stop() if fleet is not None else 0.0
        log.close()

    out.check(before == after,
              f"ring epoch or replicas moved in the timed phase: "
              f"{before} -> {after}")
    _check(seed, records, paths, out)
    _measure(records, phase_s, setups, rss, tracer, out)


def _settle(fleet, paths):
    """Cold-build both graphs, wait for the router to replicate both hot
    keys, then read the hot query once on every replica."""
    with ServiceClient(fleet.url, max_retries=0,
                       timeout_s=REQUEST_TIMEOUT_S) as client:
        for path in paths.values():
            _expect_ok(client.query(path=path, **QUERY), "cold build")
        deadline = clock() + START_TIMEOUT_S
        while True:
            for path in paths.values():
                for _ in range(9):  # above the router's 8-hit threshold
                    _expect_ok(client.query(path=path, **QUERY), "warm read")
            replicas = fleet.stats()["replicas"]
            if len(replicas) >= len(paths):
                break
            if clock() > deadline:
                raise RuntimeError(f"hot keys never replicated: {replicas}")
            time.sleep(0.2)
        for path in paths.values():
            for _ in range(2):  # reads alternate between owner and replica
                _expect_ok(client.query(path=path, **QUERY), "replica read")


def _expect_ok(envelope, what):
    if envelope.get("code") != 0:
        raise RuntimeError(f"{what} failed during set-up: {envelope}")


def _topology(stats):
    return {
        "ring_epoch": stats["ring"]["epoch"],
        "replicas": {k: sorted(v) for k, v in stats["replicas"].items()},
    }


def _drive(url, seed, seconds, paths, tracer, out):
    """Run the closed loop for ``seconds``.

    Returns one record per request and the phase's wall time, from the
    start until the last request returned.
    """
    records = []
    lock = threading.Lock()
    start = clock()
    deadline = start + seconds

    def connection(c):
        try:
            _connection(c)
        except Exception as exc:  # noqa: BLE001 - reported, never lost
            with lock:
                out.problems.append(f"connection {c} crashed: {exc!r}")

    def _connection(c):
        rng = random.Random(f"{seed}/connection/{c}")
        # each connection owns one graph's update edge and toggles it;
        # as the only writer of that graph it knows the graph's version
        # when each of its reads of it is served (None once uncertain)
        own = GRAPHS[c % len(GRAPHS)]
        edge = list(pins.UPDATE_EDGES[own])
        present = True
        version = 0
        with ServiceClient(url, max_retries=0,
                           timeout_s=REQUEST_TIMEOUT_S) as client:
            i = 0
            while clock() < deadline:
                name = rng.choice(GRAPHS)
                fields = {"path": paths[name],
                          "request_id": f"{seed}-{c}-{i}"}
                if rng.random() < UPDATE_SHARE:
                    kind = "update"
                    name = own
                    fields["path"] = paths[own]
                    fields["deletes" if present else "inserts"] = [edge]
                    present = not present
                    call = client.update
                else:
                    kind = "read"
                    call = client.query
                    fields.update(QUERY)
                    if rng.random() >= HOT_SHARE:
                        fields["seed"] = seed * 1_000_000 + c * 100_000 + i
                traced = tracer.enabled and i % 2 == 1
                record = {"kind": kind, "graph": name, "fields": fields,
                          "traced": traced,
                          "version": version if name == own else None}
                begin = clock()
                try:
                    if traced:
                        with tracer.span(f"service.client.{kind}",
                                         request_id=fields["request_id"]):
                            envelope = call(**fields)
                    else:
                        envelope = call(**fields)
                except Exception as exc:  # noqa: BLE001 - a failed request
                    envelope = None
                    record["error"] = repr(exc)
                record["end"] = clock()
                record["latency"] = record["end"] - begin
                record["envelope"] = envelope
                if kind == "update":
                    version = (
                        envelope["graph_version"]
                        if _ok(record) and version is not None else None
                    )
                with lock:
                    records.append(record)
                i += 1

    threads = [threading.Thread(target=connection, args=(c,))
               for c in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((r["end"] for r in records), default=start)
    return records, end - start


def _ok(record):
    envelope = record["envelope"]
    return envelope is not None and envelope.get("code") == 0


def _check(seed, records, paths, out):
    """Count failures, validate every envelope, and compare a seeded
    sample of answers with offline serial runs on the same version."""
    out.attempted += len(records)
    for record in records:
        if not _ok(record):
            out.fail(f"{record['fields']['request_id']}: "
                     f"{record.get('error') or record['envelope']}")
            continue
        errors = validate_result(record["envelope"])
        out.check(not errors,
                  f"{record['fields']['request_id']} envelope: {errors}")
        if record["kind"] == "update":
            out.check(record["envelope"].get("applied") is True,
                      f"{record['fields']['request_id']} not applied")

    # the edge batch behind every version of every graph
    batches = {name: {} for name in GRAPHS}
    for record in records:
        if record["kind"] == "update" and _ok(record):
            version = record["envelope"]["graph_version"]
            out.check(version not in batches[record["graph"]],
                      f"{record['graph']}: two updates made version {version}")
            batches[record["graph"]][version] = record["fields"]

    # reads whose graph version at serve time is known: a fresh answer is
    # stamped with it, a cached one with the version it was computed at
    known = [r for r in records
             if r["kind"] == "read" and _ok(r) and r["version"] is not None]
    for record in known:
        stamp = record["envelope"]["graph_version"]
        cached = record["envelope"].get("cached")
        out.check(stamp <= record["version"] if cached
                  else stamp == record["version"],
                  f"{record['fields']['request_id']}: stamped v{stamp}, "
                  f"served at v{record['version']}")

    # A seeded sample, checked against what the service promises: every
    # answer equals an offline run on the version it is stamped with, and
    # a cached answer served at a later version (kept because no update
    # touched its subgraph) still holds on the graph it was served from,
    # so a cached answer an update should have evicted fails.
    rng = random.Random(f"{seed}/sample")
    sample = []
    for cached in (True, False):
        group = [r for r in known if bool(r["envelope"].get("cached")) is cached]
        sample += rng.sample(group, min(SAMPLE_PER_KIND, len(group)))
    out.check(len(sample) == 2 * SAMPLE_PER_KIND,
              f"only {len(sample)} answers to sample")
    graphs = {}

    def graph_at(name, version):
        if (name, version) not in graphs:
            graphs[(name, version)] = _graph_at(
                paths[name], batches[name], version, out
            )
        return graphs[(name, version)]

    for record in sample:
        name, served = record["graph"], record["version"]
        envelope, fields = record["envelope"], record["fields"]
        stamp = envelope["graph_version"]
        what = (f"{fields['request_id']} ({name}, cached={envelope['cached']}"
                f", stamped v{stamp}, served at v{served})")
        graph = graph_at(name, stamp)
        if graph is not None:
            expected = densest_subgraph(
                graph, fields["k"], method="sctl*",
                iterations=fields["iterations"],
            )
            got = envelope["result"]
            out.check(
                sorted(got["vertices"]) == sorted(expected.vertices)
                and got["clique_count"] == expected.clique_count,
                f"{what} differs from an offline run on v{stamp}",
            )
        graph = graph_at(name, served)
        if graph is not None and stamp != served:
            report = verify_result(
                graph, DenseSubgraphResult.from_dict(envelope["result"]),
                check_optimality=False,
            )
            out.check(report.ok, f"{what} is stale: {report.problems}")


def _graph_at(path, batches, version, out):
    """The graph after the updates that made versions 1..``version``."""
    graph = read_edge_list(os.path.join(ROOT, path))
    for v in range(1, version + 1):
        batch = batches.get(v)
        if batch is None:
            out.check(False, f"{path}: no update answered version {v}")
            return None
        graph, _, _ = apply_edge_updates(
            graph, batch.get("inserts", ()), batch.get("deletes", ())
        )
    return graph


def _measure(records, phase_s, setups, rss, tracer, out):
    ok = [r for r in records if _ok(r)]
    reads = [r for r in ok if r["kind"] == "read"]
    updates = [r for r in ok if r["kind"] == "update"]
    hits = [r for r in reads if r["envelope"].get("cached")]
    plain_hits = [r["latency"] for r in hits if not r["traced"]]
    plain_reads = [r["latency"] for r in reads if not r["traced"]]
    plain_updates = [r["latency"] for r in updates if not r["traced"]]
    throughput = len(ok) / phase_s if phase_s else 0.0
    read_p95 = percentile([r["latency"] for r in reads], 95)
    hit_ratio = len(hits) / len(reads) if reads else 0.0

    # Reads are bimodal: a hit costs transport, a miss runs SCTL*.  With
    # about a third of reads missing, the median of all reads falls in
    # the gap between the modes and swings from run to run, so the
    # primary figure is the median cached read, and misses show in p95.
    out.metrics.update({
        "setup_s": median(setups),
        "primary_p50_s": median(plain_hits),
        "secondary_p50_s": median(plain_updates),
        "peak_rss_mb": rss,
    })
    out.note("cached_read_p50_s", median(plain_hits), "s")
    out.note("read_p50_s", median(plain_reads), "s")
    out.note("read_p95_s", read_p95, "s")
    out.note("reads", len(reads), "count")
    out.note("update_p50_s", median(plain_updates), "s")
    out.note("updates", len(updates), "count")
    out.note("throughput_rps", throughput, "req/s")
    out.note("hit_ratio", hit_ratio, "ratio")
    if not tracer.enabled:
        return
    traced_hits = [r["latency"] for r in hits if r["traced"]]
    out.metrics.update({
        "service.transport.read_s": median(
            [r["latency"] - r["envelope"]["query_time_s"] for r in reads]),
        "service.transport.update_s": median(
            [r["latency"] - r["envelope"]["update_time_s"] for r in updates]),
        "service.worker.read_s": median(
            [r["envelope"]["query_time_s"] for r in reads]),
        "service.worker.update_s": median(
            [r["envelope"]["update_time_s"] for r in updates]),
        "service.result_cache.hit_ratio": hit_ratio,
        "service.result_cache.invalidated": sum(
            r["envelope"].get("invalidated_results", 0) for r in updates),
        "service.client.read_p95_s": read_p95,
        "service.client.throughput_rps": throughput,
        "core.update.dirty_fraction": median(
            [r["envelope"]["update"]["dirty_fraction"] for r in updates]),
        "core.update.nodes_rebuilt": median(
            [r["envelope"]["update"]["nodes_rebuilt"] for r in updates]),
        "obs.tracing_overhead": (
            median(traced_hits) / median(plain_hits)
            if traced_hits and plain_hits else 0.0
        ),
    })
