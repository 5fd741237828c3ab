"""Pinned benchmark inputs: generated edge lists checked by SHA-256.

Every workload reads edge-list files made by ``repro.graph.generators``
with fixed arguments.  The files are generated once per checkout under
``perfbench/.work/`` (ignored by git) and checked against the SHA-256
pinned below on every run, so a change to the generators cannot
silently change a workload: a mismatch stops the benchmark.

Generation runs in a child process (``python3 perfbench/inputs.py
NAME``), so the generator's memory never counts toward the peak RSS the
workloads report.

The fleet's files keep the same relative path on every run: the router
hashes the path string onto its ring, so a fresh directory per run would
move keys between workers.
"""

import hashlib
import os
import subprocess
import sys

from common import ROOT, WORK

# name -> (generator, positional args, keyword args, pinned SHA-256)
INPUTS = {
    "powerlaw-20000": (
        "powerlaw_cluster_graph", (20000, 12, 0.6), {"seed": 1},
        "e46cb890a2327af36d288fcae1f1f638dd5e12f156e7eae0bb46e1d94eeed2b7",
    ),
    "community-3000": (
        "overlapping_community_graph", (3000, 180, 30, 0.55),
        {"memberships": 2, "seed": 1},
        "96742f4f57d923fc81e410c684a343aaf5e7e6068c7e0c5047edaa2587b0c19f",
    ),
    "fleet-a": (
        "overlapping_community_graph", (1500, 90, 24, 0.5),
        {"memberships": 2, "seed": 1},
        "5afbb70959d914bc8d296d88ad3a630131d48577efbf2334ca8001320e67d37b",
    ),
    "fleet-b": (
        "overlapping_community_graph", (1500, 90, 24, 0.5),
        {"memberships": 2, "seed": 2},
        "760081983021f79b40866d3b8de2e661574a324441f9af4248e4a69ca488c30d",
    ),
}


class InputMismatch(Exception):
    """A generated input does not match its pinned SHA-256."""


def relpath(name):
    """The input's path relative to the checkout root."""
    return os.path.join("perfbench", ".work", name + ".txt")


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def ensure(name, check=True):
    """Return the input's path relative to the root, generating it once.

    With ``check`` the file must match its pinned SHA-256; a mismatch
    raises :class:`InputMismatch`.
    """
    rel = relpath(name)
    path = os.path.join(ROOT, rel)
    if not os.path.exists(path):
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), name],
            check=True, cwd=ROOT,
        )
    pinned = INPUTS[name][3]
    if check:
        actual = sha256_of(path)
        if actual != pinned:
            raise InputMismatch(
                f"input {name} ({rel}) has SHA-256 {actual}, pinned "
                f"{pinned}: repro.graph.generators changed the workload"
            )
    return rel


def _generate(name):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.graph import generators
    from repro.graph.io import write_edge_list

    generator, args, kwargs, _ = INPUTS[name]
    graph = getattr(generators, generator)(*args, **kwargs)
    os.makedirs(WORK, exist_ok=True)
    final = os.path.join(ROOT, relpath(name))
    tmp = final + ".tmp"
    write_edge_list(graph, tmp)
    os.replace(tmp, final)


if __name__ == "__main__":
    _generate(sys.argv[1])
