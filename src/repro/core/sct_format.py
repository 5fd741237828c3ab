"""On-disk formats of the SCT*-Index (see ``docs/index-format.md``).

Two formats share the same first line — a JSON header whose ``format``
field names the version — so any reader can cheaply identify a file it
cannot parse and fail with a precise error instead of a decode traceback:

* **v1** — JSON header line, then one text line per tree node
  (``vertex label max_depth n_children child_ids...``).  Parsing is
  linear in the node count.  Read only: the library writes v2.
* **v2** — JSON header line padded with spaces to an 8-byte boundary,
  then the flat index columns as raw little-endian ``int64`` sections in
  the order of :data:`COLUMNS`.  Loading is an ``mmap`` plus a
  ``memoryview.cast("q")`` per column: no parsing, no copying, and the
  same bytes can back any number of reader processes.

The column semantics (pre-order node ids, subtree windows, CSR child
ranges) are owned by :class:`~repro.core.sct.SCTIndex`; this module only
moves the columns between memory and disk.
"""

from __future__ import annotations

import json
import mmap
import os
import sys
from array import array
from typing import Any, Dict, Sequence, Tuple

from ..errors import IndexBuildError

__all__ = [
    "COLUMNS",
    "FORMAT_V1",
    "FORMAT_V2",
    "SUPPORTED_FORMATS",
    "ITEMSIZE",
    "column_lengths",
    "peek_header",
    "read_index",
    "write_index",
]

FORMAT_V1 = 1
FORMAT_V2 = 2
SUPPORTED_FORMATS = (FORMAT_V1, FORMAT_V2)

# every column is a flat signed 64-bit little-endian integer section
ITEMSIZE = 8
_ENDIAN = "little"

# column order inside the binary section of a v2 file
COLUMNS = (
    "vertex",
    "label",
    "depth",
    "max_depth",
    "subtree",
    "child_off",
    "child_ids",
)


def column_lengths(n_nodes: int) -> Dict[str, int]:
    """Entry count of every column for an ``n_nodes``-node tree.

    ``child_off`` carries one extra CSR sentinel; ``child_ids`` holds one
    entry per non-root node (every node except the virtual root is the
    child of exactly one node).
    """
    return {
        "vertex": n_nodes,
        "label": n_nodes,
        "depth": n_nodes,
        "max_depth": n_nodes,
        "subtree": n_nodes,
        "child_off": n_nodes + 1,
        "child_ids": n_nodes - 1,
    }


def _parse_header(line: bytes, path) -> Dict[str, Any]:
    """Decode the first line of an index file into its JSON header."""
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexBuildError(f"malformed index file {path!s}: {exc}") from exc
    if not isinstance(header, dict):
        raise IndexBuildError(
            f"malformed index file {path!s}: header is not a JSON object"
        )
    return header


def peek_header(path) -> Dict[str, Any]:
    """Read just the JSON header of an index file, any format.

    The header line is read in *binary* mode so a v2 file's binary
    section can never trip a text decoder before the version check runs.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
    return _parse_header(first, path)


def require_format(header: Dict[str, Any], expected: int, path) -> None:
    """Fail with a version-naming error unless ``header`` is ``expected``."""
    found = header.get("format")
    if found != expected:
        supported = ", ".join(str(v) for v in SUPPORTED_FORMATS)
        raise IndexBuildError(
            f"index file {path!s} is format {found!r}, but this reader "
            f"handles format {expected} (supported formats: {supported}; "
            "SCTIndex.load dispatches on the header automatically)"
        )


def _as_native_q(column: Sequence[int]) -> array:
    """``column`` as a native-endian ``array('q')`` (zero-copy when it is one)."""
    if isinstance(column, array) and column.typecode == "q":
        return column
    return array("q", column)


def write_index(
    handle,
    n_vertices: int,
    n_nodes: int,
    threshold: int,
    columns: Dict[str, Sequence[int]],
) -> None:
    """Serialise a v2 index onto an open *binary* handle.

    The header line is padded with spaces so the binary section starts on
    an 8-byte boundary — readers can then cast the mapped file directly
    without re-aligning.
    """
    lengths = column_lengths(n_nodes)
    header = {
        "format": FORMAT_V2,
        "n_vertices": n_vertices,
        "n_nodes": n_nodes,
        "threshold": threshold,
        "itemsize": ITEMSIZE,
        "endian": _ENDIAN,
        "columns": list(COLUMNS),
    }
    line = json.dumps(header)
    pad = -(len(line) + 1) % ITEMSIZE
    handle.write((line + " " * pad + "\n").encode("utf-8"))
    for name in COLUMNS:
        column = columns[name]
        if len(column) != lengths[name]:
            raise IndexBuildError(
                f"column {name!r} has {len(column)} entries, "
                f"expected {lengths[name]} for {n_nodes} nodes"
            )
        data = _as_native_q(column)
        if sys.byteorder != _ENDIAN:
            data = array("q", data)
            data.byteswap()
        handle.write(data.tobytes())


def read_index(path) -> Tuple[Dict[str, Any], Dict[str, Sequence[int]], mmap.mmap]:
    """Map a v2 index file into memory.

    Returns ``(header, columns, mapping)``: the parsed header, one
    ``memoryview("q")`` per column sliced straight out of the mapping
    (zero-copy on little-endian hosts), and the ``mmap`` object that must
    outlive the views.  Structural errors — wrong version, unknown column
    layout, size mismatch — raise :class:`~repro.errors.IndexBuildError`.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
        header = _parse_header(first, path)
        require_format(header, FORMAT_V2, path)
        try:
            n_nodes = int(header["n_nodes"])
            int(header["n_vertices"])
            int(header["threshold"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexBuildError(
                f"malformed index file {path!s}: bad header field ({exc})"
            ) from exc
        if n_nodes < 1:
            raise IndexBuildError(
                f"malformed index file {path!s}: n_nodes must be >= 1"
            )
        if header.get("itemsize", ITEMSIZE) != ITEMSIZE:
            raise IndexBuildError(
                f"index file {path!s} uses itemsize "
                f"{header.get('itemsize')!r}; only {ITEMSIZE} is supported"
            )
        endian = header.get("endian", _ENDIAN)
        if endian not in ("little", "big"):
            raise IndexBuildError(
                f"index file {path!s} declares unknown endianness {endian!r}"
            )
        declared = header.get("columns", list(COLUMNS))
        if list(declared) != list(COLUMNS):
            raise IndexBuildError(
                f"index file {path!s} declares column layout {declared!r}; "
                f"this reader expects {list(COLUMNS)!r}"
            )
        lengths = column_lengths(n_nodes)
        expected = len(first) + ITEMSIZE * sum(lengths.values())
        actual = os.fstat(handle.fileno()).st_size
        if actual != expected:
            raise IndexBuildError(
                f"index file {path!s} is truncated or oversized: "
                f"{actual} bytes on disk, {expected} expected for "
                f"{n_nodes} nodes"
            )
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    view = memoryview(mapping)
    columns: Dict[str, Sequence[int]] = {}
    offset = len(first)
    for name in COLUMNS:
        nbytes = ITEMSIZE * lengths[name]
        chunk = view[offset : offset + nbytes]
        if endian == sys.byteorder:
            columns[name] = chunk.cast("q")
        else:  # foreign-endian file: one copy + swap, still a valid load
            swapped = array("q")
            swapped.frombytes(chunk.tobytes())
            swapped.byteswap()
            columns[name] = swapped
        offset += nbytes
    return header, columns, mapping
