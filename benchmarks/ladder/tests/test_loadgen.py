"""The open-loop generator against a stub server that stalls once."""

import json
import os
import socket
import sys
import threading
import time

LADDER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, LADDER)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(LADDER)),
                                "src"))

from loadgen import Connection  # noqa: E402

RATE = 200.0            # req/s
N_REQUESTS = 120        # 0.6 s of schedule
STALL_AT = 20           # the stub stops reading when it sees this id ...
STALL_S = 0.25          # ... for this long


class StubServer(threading.Thread):
    """Echoes ``{"id": ..., "ok": true}`` per line; stalls once."""

    def __init__(self, path: str) -> None:
        super().__init__(daemon=True)
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(path)
        self.listener.listen(1)
        self.stall_began = self.stall_ended = None

    def run(self) -> None:
        conn, _ = self.listener.accept()
        with conn, conn.makefile("rb") as lines:
            for line in lines:
                request = json.loads(line)
                if request["id"] == STALL_AT:
                    self.stall_began = time.perf_counter()
                    time.sleep(STALL_S)
                    self.stall_ended = time.perf_counter()
                conn.sendall(json.dumps(
                    {"id": request["id"], "ok": True}).encode() + b"\n")
        self.listener.close()


def test_stall_is_charged_to_every_request_due_during_it(tmp_path):
    path = str(tmp_path / "stub.sock")
    server = StubServer(path)
    server.start()
    conn = Connection(path, timeout=10.0)
    try:
        due = [i / RATE for i in range(N_REQUESTS)]
        samples = conn.run_phase([{"op": "ping"}] * N_REQUESTS, due)
    finally:
        conn.close()
    server.join(timeout=10.0)
    assert not server.is_alive()

    assert all(s.ok for s in samples)
    # Open loop: the sender kept to its schedule through the stall ...
    assert max(s.late for s in samples) < 0.05
    during = [s for s in samples
              if server.stall_began <= s.due <= server.stall_ended]
    # ... so about RATE * STALL_S requests fell due inside it (a closed
    # loop would have had one) ...
    assert len(during) >= 0.8 * RATE * STALL_S
    # ... and each waited at least until the stall ended, measured from
    # when it was due, not from when it was sent or served.
    for s in during:
        assert s.latency >= (server.stall_ended - s.due) - 1e-3
    # Requests due well after the backlog drained are fast again.
    after = [s for s in samples if s.due > server.stall_ended + 0.1]
    assert after and max(s.latency for s in after) < 0.05


def test_back_to_back_phase_and_missing_reply(tmp_path):
    """``due=None`` sends everything at once; a reply that never comes
    leaves its sample unanswered instead of hanging the phase."""
    path = str(tmp_path / "stub.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)

    def answer_all_but_last() -> None:
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as lines:
            for _ in range(4):
                request = json.loads(lines.readline())
                conn.sendall(json.dumps(
                    {"id": request["id"], "ok": True}).encode() + b"\n")
            lines.readline()            # swallow the fifth, then hang up
        listener.close()

    stub = threading.Thread(target=answer_all_but_last, daemon=True)
    stub.start()
    conn = Connection(path, timeout=2.0)
    try:
        samples = conn.run_phase([{"op": "ping"}] * 5, None)
    finally:
        conn.close()
    stub.join(timeout=10.0)
    assert not stub.is_alive()
    assert [s.ok for s in samples] == [True] * 4 + [False]
    assert samples[4].reply is None and samples[4].sent is not None
    assert len({s.due for s in samples}) == 1
