"""Clients for the solve server.

:class:`InProcessClient` talks numpy directly to a
:class:`~repro.serve.server.SolveServer` in the same process — the path
tests use, where wire encoding would only add noise.
:class:`SocketClient` speaks the NDJSON protocol over the unix socket
like an external tenant would, shipping arrays packed (base64 inside
the JSON line, see :mod:`repro.serve.protocol`).

Both expose the same calls: ``factor`` (returns the pattern handle),
``solve`` (vector or panel in, array out), ``refactorize``, ``stats``
(optionally windowed, optionally Prometheus text), and ``health`` (the
cheap liveness probe).  ``repro serve-stats`` and ``repro serve-top``
are thin consumers of the last two (docs/SERVING.md "Operating the
server").
"""

from __future__ import annotations

import socket

import numpy as np

from repro.serve import protocol
from repro.serve.server import SolveServer
from repro.sparse.csc import CSCMatrix


class InProcessClient:
    """Zero-copy client bound to an in-process server."""

    def __init__(self, server: SolveServer) -> None:
        self.server = server

    def factor(self, matrix: CSCMatrix, kind: str | None = None,
               ordering: str = "amd") -> str:
        return self.server.factor(matrix, kind=kind,
                                  ordering=ordering)["pattern"]

    def solve(self, pattern: str, b: np.ndarray) -> np.ndarray:
        return self.server.solve(pattern, b)

    def refactorize(self, pattern: str, data: np.ndarray) -> None:
        self.server.refactorize(pattern, data)

    def stats(self, window_s: float | None = None,
              format: str | None = None) -> dict | str:
        if format == "text":
            from repro.serve.metrics import stats_to_prometheus

            return stats_to_prometheus(
                self.server.stats(window_s=window_s),
                self.server.health())
        return self.server.stats(window_s=window_s)

    def health(self) -> dict:
        return self.server.health()

    def shutdown(self) -> None:
        self.server.shutdown()


class SocketClient:
    """Blocking NDJSON client over the server's unix socket.

    One request in flight at a time per client; run several clients (or
    threads, one client each) to exercise cross-connection coalescing.
    """

    def __init__(self, path: str, timeout: float = 60.0) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(path)
        except OSError:
            self._sock.close()
            raise
        self._file = self._sock.makefile("rb")
        self._next_id = 0

    def request(self, message: dict) -> dict:
        """Send one request dict; block for (and return) its response."""
        self._next_id += 1
        message = {"id": self._next_id, **message}
        self._sock.sendall(protocol.encode(message))
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = protocol.decode(line)
        if not response.get("ok"):
            raise RuntimeError(response.get("error", "request failed"))
        return response

    def factor(self, matrix: CSCMatrix, kind: str | None = None,
               ordering: str = "amd") -> str:
        response = self.request({
            "op": "factor",
            "matrix": protocol.matrix_to_wire(matrix),
            "kind": kind,
            "ordering": ordering,
        })
        return response["pattern"]

    def solve(self, pattern: str, b: np.ndarray) -> np.ndarray:
        response = self.request({"op": "solve", "pattern": pattern,
                                 "b": np.asarray(b, dtype=np.float64)})
        return response["x"]

    def refactorize(self, pattern: str, data: np.ndarray) -> None:
        self.request({"op": "refactorize", "pattern": pattern,
                      "data": np.asarray(data, dtype=np.float64)})

    def stats(self, window_s: float | None = None,
              format: str | None = None) -> dict | str:
        """Server stats; ``format="text"`` returns Prometheus text."""
        message: dict = {"op": "stats"}
        if window_s is not None:
            message["window_s"] = window_s
        if format is not None:
            message["format"] = format
        response = self.request(message)
        return response["text"] if format == "text" \
            else response["stats"]

    def health(self) -> dict:
        return self.request({"op": "health"})["health"]

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})

    def close(self) -> None:
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "SocketClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
