"""Wire protocol of the solve server: newline-delimited JSON.

One request or response per line (NDJSON) over a local stream socket —
deliberately boring, so any language (or ``nc``) can talk to the server.
Requests carry an ``op`` plus op-specific fields; responses echo the
request ``id`` and carry ``ok`` plus either the result payload or an
``error`` string.

Arrays
------

Every array field (``b``, ``x``, ``data``, the matrix's ``indptr`` /
``indices`` / ``data``) may be a JSON list (nested lists for a 2-D
panel) or a **packed array**, an object with exactly three keys::

    {"array": "<f8" | "<i8",        # little-endian float64 / int64
     "shape": [n] | [n, k],         # non-negative integers
     "base64": "..."}               # standard base64 (RFC 4648, padded)

``base64`` holds the array's elements in C (row-major) order, 8 bytes
each, so its decoded length is exactly ``prod(shape) * 8``.  The server
writes every array it returns in this form (:func:`encode`), and
:func:`decode` turns it back into a writeable ndarray of that shape,
bit for bit — NaN payloads and the sign of zero included.  The packed
object stays inside the line (base64 has no newline), so a reply is
still one ``readline``.  A malformed packed object (bad base64, wrong
byte count, a shape that is not a list of non-negative integers, an
unknown ``array`` dtype, missing or extra keys) is a
:class:`ProtocolError`.

Operations
----------

``factor``
    Register a matrix and build (or warm) its per-pattern solver::

        {"op": "factor", "id": 1,
         "matrix": {"n": 4, "indptr": <array>, "indices": <array>,
                    "data": <array>},
         "kind": "cholesky" | "lu" | null,     # null: infer from symmetry
         "ordering": "amd"}                    # optional
        -> {"id": 1, "ok": true, "pattern": "<key>", "n": 4,
            "factor_nnz": 10, "warm": false}

    ``pattern`` is the handle every later request uses.  Re-sending
    ``factor`` for a known pattern refactorizes with the new values on
    the warm path (``"warm": true``).  The matrix must satisfy the CSC
    invariants (``indptr`` of length n + 1, sorted in-range rows).

``solve``
    One right-hand side, or an (n, k) panel of them, against a
    registered pattern::

        {"op": "solve", "id": 2, "pattern": "<key>", "b": <array>}
        -> {"id": 2, "ok": true, "x": <packed array>, "batch_k": 5}

    ``x`` has ``b``'s shape.  ``batch_k`` reports how many columns
    shared the blocked panel this response rode in (1 = not coalesced).
    ``b`` must have n rows and finite values.

``refactorize``
    New values on the registered pattern (same nonzero layout)::

        {"op": "refactorize", "id": 3, "pattern": "<key>",
         "data": <array>}
        -> {"id": 3, "ok": true}

    ``data`` must hold exactly the pattern's nnz finite values.

``stats``
    Full operational snapshot: cumulative counters, coalescing stats,
    latency percentiles, the rolling-window SLO view, per-worker queue
    depth/occupancy, slow-request exemplars, and analysis-cache
    counters.  Read-only — polling never mutates server gauges.  Options::

        {"op": "stats", "id": 4,
         "window_s": 30,            # optional: rolling-window width
         "format": "text"}          # optional: Prometheus text instead
        -> {"id": 4, "ok": true, "stats": {...}}      # format json
        -> {"id": 4, "ok": true, "text": "# TYPE ..."} # format text

``health``
    Cheap liveness probe: uptime, heartbeat count and age, per-worker
    liveness and queue depth, in-flight request count, analysis-cache
    occupancy::

        {"op": "health", "id": 5}
        -> {"id": 5, "ok": true, "health": {"ok": true, ...}}

``shutdown``
    Drain and stop the server.

Every solve/factor/refactorize response also carries the
server-assigned ``request_id`` of the request that produced it — the
trace handle the slow-request exemplars and telemetry spans use
(docs/SERVING.md "Operating the server").

Errors come back as ``{"id": ..., "ok": false, "error": "..."}`` and
never tear down the connection.
"""

from __future__ import annotations

import base64
import binascii
import json
import math

import numpy as np

from repro.sparse.csc import CSCMatrix

#: Recognised request operations.
OPS = ("factor", "solve", "refactorize", "stats", "health", "shutdown")

#: Recognised ``stats`` rendering formats.
STATS_FORMATS = ("json", "text")

#: Packed-array dtypes: float arrays travel as ``<f8``, integer and
#: boolean arrays as ``<i8``.
PACKED_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
_PACKED_KEYS = frozenset(("array", "shape", "base64"))


class ProtocolError(ValueError):
    """A structurally invalid request (unknown op, missing field,
    malformed frame).  ``req_id`` is the frame's ``id`` when
    :func:`decode` could still read it, so the error reply reaches the
    right caller."""

    req_id = None


def matrix_to_wire(matrix: CSCMatrix) -> dict:
    """Wire dict of a square CSC matrix (arrays pack on :func:`encode`)."""
    return {
        "n": int(matrix.n_rows),
        "indptr": np.asarray(matrix.indptr),
        "indices": np.asarray(matrix.indices),
        "data": np.asarray(matrix.data),
    }


def matrix_from_wire(payload: dict) -> CSCMatrix:
    """Decode a matrix dict (lists or packed arrays) into a validated
    CSCMatrix."""
    try:
        n = int(payload["n"])
        matrix = CSCMatrix(
            n, n,
            np.asarray(payload["indptr"], dtype=np.int64),
            np.asarray(payload["indices"], dtype=np.int64),
            np.asarray(payload["data"], dtype=np.float64))
        matrix.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad matrix payload: {exc}") from None
    return matrix


def _pack(obj) -> dict:
    """``json.dumps`` fallback: an ndarray becomes a packed array."""
    if not isinstance(obj, np.ndarray):
        raise TypeError(
            f"{type(obj).__name__} is not JSON serializable")
    if obj.dtype.kind not in "fiub":
        raise TypeError(f"cannot pack a {obj.dtype} array")
    code = "<f8" if obj.dtype.kind == "f" else "<i8"
    raw = np.ascontiguousarray(obj, dtype=PACKED_DTYPES[code])
    return {"array": code, "shape": list(obj.shape),
            "base64": base64.b64encode(raw).decode("ascii")}


def _unpack(obj: dict):
    """``json.loads`` object hook: a packed array becomes a writeable
    ndarray; every other object passes through."""
    if "array" not in obj:
        return obj
    if obj.keys() != _PACKED_KEYS:
        raise ProtocolError(
            f"packed array needs exactly the keys {sorted(_PACKED_KEYS)}, "
            f"got {sorted(obj)}")
    code = obj["array"]
    dtype = PACKED_DTYPES.get(code) if isinstance(code, str) else None
    if dtype is None:
        raise ProtocolError(
            f"unknown packed dtype {code!r} "
            f"(expected one of {sorted(PACKED_DTYPES)})")
    shape = obj["shape"]
    if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape):
        raise ProtocolError(
            f"packed shape must be a list of non-negative integers, "
            f"got {shape!r}")
    try:
        raw = base64.b64decode(obj["base64"], validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad packed base64: {exc}") from None
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise ProtocolError(
            f"packed array of shape {shape} needs {expected} bytes, "
            f"got {len(raw)}")
    return np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape)


def encode(message: dict) -> bytes:
    """One NDJSON frame (compact JSON + newline); ndarrays pack."""
    return (json.dumps(message, separators=(",", ":"), default=_pack)
            + "\n").encode()


def decode(line: bytes | str) -> dict:
    """Parse one NDJSON frame into a message dict; packed arrays
    unpack."""
    try:
        message = json.loads(line, object_hook=_unpack)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON frame: {exc}") from None
    except ProtocolError as exc:
        # The frame is valid JSON with a bad array in it: re-read it
        # without the hook only to recover the id for the error reply.
        frame = json.loads(line)
        exc.req_id = frame.get("id") if isinstance(frame, dict) else None
        raise
    if not isinstance(message, dict):
        raise ProtocolError("frame must be a JSON object")
    return message


def validate_request(message: dict) -> str:
    """Check a request's shape; returns its ``op``."""
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
    if op == "factor" and "matrix" not in message:
        raise ProtocolError("factor request needs a 'matrix' field")
    if op in ("solve", "refactorize") and "pattern" not in message:
        raise ProtocolError(f"{op} request needs a 'pattern' field")
    if op == "solve" and "b" not in message:
        raise ProtocolError("solve request needs a 'b' field")
    if op == "refactorize" and "data" not in message:
        raise ProtocolError("refactorize request needs a 'data' field")
    if op == "stats":
        fmt = message.get("format", "json")
        if fmt not in STATS_FORMATS:
            raise ProtocolError(
                f"unknown stats format {fmt!r} "
                f"(expected one of {STATS_FORMATS})")
        window_s = message.get("window_s")
        if window_s is not None and (
                not isinstance(window_s, (int, float))
                or window_s <= 0):
            raise ProtocolError("window_s must be a positive number")
    return op


# The first parameter is named ``req_id`` (not ``request_id``) so a
# payload carrying the server-assigned ``request_id`` trace handle
# never collides with the wire message id.

def ok_response(req_id, **payload) -> dict:
    return {"id": req_id, "ok": True, **payload}


def error_response(req_id, error: str) -> dict:
    return {"id": req_id, "ok": False, "error": str(error)}
