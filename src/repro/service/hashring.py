"""Consistent-hash placement of index cache keys onto service workers.

The fleet front (:mod:`repro.service.router`) must answer one question
deterministically on every request: *which worker owns this index?*  The
canonical cache key is the same triple the single-process daemon already
uses — ``(graph source, threshold, canonical build_options)`` — and the
:class:`HashRing` maps its string form onto worker ids so that

* every key has exactly one **owner** at any ring state (plus an ordered
  list of distinct fallback nodes, :meth:`HashRing.preference`, used for
  warm replicas and failover);
* adding or removing one of N workers moves only ~1/N of the keys
  (``tests/test_hashring.py`` pins ≤ 2/N as a hard property), because
  each worker is hashed onto the ring at ``vnodes`` pseudo-random
  positions and a key belongs to the first vnode clockwise from its own
  hash;
* placement is a pure function of the member set — the same membership
  always gives the *same* owner, in any process.

Every membership change bumps a monotonic ``epoch``; responses that
crossed the router carry it as ``ring_epoch``, the placement generation
they were served under (see ``docs/service.md``, "Fleet deployment").

Hashing is SHA-256 (first 8 bytes, big-endian) — stable across
processes, platforms and Python versions, unlike ``hash()``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import InvalidParameterError

__all__ = [
    "HashRing",
    "request_key",
    "key_string",
    "parse_key_string",
    "graph_string",
]

DEFAULT_VNODES = 64


def _hash(data: str) -> int:
    """A stable 64-bit ring position for ``data``."""
    digest = hashlib.sha256(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def request_key(obj: Dict[str, Any]) -> Tuple[Tuple[str, str], int, str]:
    """The canonical index cache key named by one request object.

    Exactly the triple :class:`~repro.service.ReproService` caches
    under — ``((kind, source), threshold, build_options fingerprint)`` —
    computed from the request fields alone, so the router agrees with
    the worker without a round trip.
    """
    dataset = obj.get("dataset")
    path = obj.get("path")
    if (dataset is None) == (path is None):
        raise InvalidParameterError(
            "exactly one of 'dataset' or 'path' is required"
        )
    graph_key = (
        ("dataset", dataset) if dataset is not None else ("path", path)
    )
    threshold = int(obj.get("threshold", 0))
    build_options = obj.get("build_options") or {}
    if not isinstance(build_options, dict):
        raise InvalidParameterError(
            "build_options must be a JSON object when given"
        )
    fingerprint = json.dumps(build_options, sort_keys=True)
    return (graph_key, threshold, fingerprint)


def key_string(index_key: Tuple[Tuple[str, str], int, str]) -> str:
    """One canonical string per index key — the unit the ring places.

    Round-trips through :func:`parse_key_string`, so a key observed in a
    worker's ``key_hits`` stats can be turned back into request fields.
    """
    (kind, source), threshold, fingerprint = index_key
    return json.dumps([[kind, source], threshold, fingerprint])


def parse_key_string(canonical: str) -> Dict[str, Any]:
    """Request fields (``dataset``/``path``, ``threshold``,
    ``build_options``) for a :func:`key_string` canonical key."""
    (kind, source), threshold, fingerprint = json.loads(canonical)
    return {
        kind: source,
        "threshold": threshold,
        "build_options": json.loads(fingerprint),
    }


def graph_string(canonical: str) -> str:
    """The graph-source component of a canonical key (replication and
    update fan-out group by *graph*, not by index key)."""
    return json.dumps(json.loads(canonical)[0])


class HashRing:
    """A consistent-hash ring over named nodes with virtual nodes.

    Deterministic: two rings holding the same member set place every key
    identically, regardless of join order.  Thread-unsafe by design —
    callers (the router) serialise membership changes behind their own
    lock and lookups are reads of immutable snapshots swapped whole.
    """

    def __init__(
        self, nodes: Sequence[str] = (), vnodes: int = DEFAULT_VNODES
    ):
        if vnodes < 1:
            raise InvalidParameterError(
                f"vnodes must be >= 1, got {vnodes!r}"
            )
        self.vnodes = vnodes
        self._nodes: set = set()
        # sorted (position, node) pairs; parallel position list for bisect
        self._ring: List[Tuple[int, str]] = []
        self._positions: List[int] = []
        self._epoch = 0
        for node in nodes:
            self.add(node)

    # -- membership -----------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic membership-change counter (the ``ring_epoch``)."""
        return self._epoch

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> bool:
        """Join ``node``; returns False (no epoch bump) if already present."""
        if not isinstance(node, str) or not node:
            raise InvalidParameterError(
                f"node must be a non-empty string, got {node!r}"
            )
        if node in self._nodes:
            return False
        self._nodes.add(node)
        for i in range(self.vnodes):
            entry = (_hash(f"{node}#{i}"), node)
            bisect.insort(self._ring, entry)
        self._positions = [pos for pos, _ in self._ring]
        self._epoch += 1
        return True

    def remove(self, node: str) -> bool:
        """Leave ``node``; returns False (no epoch bump) if absent."""
        if node not in self._nodes:
            return False
        self._nodes.discard(node)
        self._ring = [entry for entry in self._ring if entry[1] != node]
        self._positions = [pos for pos, _ in self._ring]
        self._epoch += 1
        return True

    # -- placement ------------------------------------------------------

    def owner(self, key: str) -> Optional[str]:
        """The node owning ``key`` (None on an empty ring)."""
        if not self._ring:
            return None
        idx = bisect.bisect_right(self._positions, _hash(key))
        if idx == len(self._ring):
            idx = 0  # wrap: past the last vnode belongs to the first
        return self._ring[idx][1]

    def preference(self, key: str, n: int = 2) -> List[str]:
        """The first ``n`` *distinct* nodes clockwise from ``key``.

        ``preference(key)[0]`` is the owner; the rest are the natural
        replica/failover candidates.  When one node leaves, the old
        ``preference[1]`` becomes the new owner — which is exactly why
        warm replicas are placed there.
        """
        if not self._ring:
            return []
        idx = bisect.bisect_right(self._positions, _hash(key))
        seen: List[str] = []
        for step in range(len(self._ring)):
            node = self._ring[(idx + step) % len(self._ring)][1]
            if node not in seen:
                seen.append(node)
                if len(seen) >= n:
                    break
        return seen

    def snapshot(self) -> Dict[str, Any]:
        return {
            "epoch": self._epoch,
            "nodes": list(self.nodes),
            "vnodes": self.vnodes,
        }

    def __repr__(self) -> str:
        return (
            f"HashRing(nodes={list(self.nodes)!r}, vnodes={self.vnodes}, "
            f"epoch={self._epoch})"
        )
