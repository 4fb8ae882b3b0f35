"""Open-loop load generator: one pipelined connection, two threads.

A sender thread writes each request at its *due* time whatever the server
is doing; the calling thread reads replies.  Latency is taken from the
due time, not the send time, so a server stall is charged to every
request that was due during it (no coordinated omission), and how late
the generator itself ran is reported beside it.  Frames go through
``repro.serve.protocol`` — the wire format is the program's, not ours.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.serve import protocol


@dataclass
class Sample:
    """One request of a phase; times are clock readings."""

    due: float
    sent: float | None = None
    replied: float | None = None
    reply: dict | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.reply is not None and bool(self.reply.get("ok"))

    @property
    def latency(self) -> float:
        return self.replied - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


class Connection:
    """One unix-socket connection to a solve server."""

    def __init__(self, path: str, timeout: float) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(path)
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()

    def call(self, message: dict) -> dict:
        """One blocking request (set-up ops, ``stats``, ``shutdown``)."""
        [sample] = self.run_phase([message], None)
        if not sample.ok:
            raise RuntimeError(f"{message['op']} failed: {sample.reply}")
        return sample.reply

    def run_phase(self, messages: list[dict], due: list[float] | None, *,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep,
                  ) -> list[Sample]:
        """Send ``messages`` and collect their replies.

        ``due[i]`` is seconds after the phase starts at which message i
        is due; ``None`` sends back to back (every request due at the
        start).  Returns one :class:`Sample` per message; a request whose
        reply did not arrive before the socket timeout keeps
        ``reply=None``.
        """
        base = self._next_id
        self._next_id += len(messages)
        start = clock()
        samples = [Sample(due=start + (due[i] if due else 0.0))
                   for i in range(len(messages))]
        sender_error: list[BaseException] = []

        def send_all() -> None:
            try:
                for i, message in enumerate(messages):
                    frame = protocol.encode({"id": base + i, **message})
                    wait = samples[i].due - clock()
                    if wait > 0:
                        sleep(wait)
                    samples[i].sent = clock()
                    self._sock.sendall(frame)
            except OSError as exc:
                sender_error.append(exc)

        sender = threading.Thread(target=send_all, name="ladder-sender")
        sender.start()
        try:
            for _ in range(len(messages)):
                line = self._rfile.readline()
                if not line:
                    break
                reply = protocol.decode(line)
                index = reply.get("id", -1) - base \
                    if isinstance(reply.get("id"), int) else -1
                if 0 <= index < len(samples):
                    samples[index].replied = clock()
                    samples[index].reply = reply
        except (OSError, protocol.ProtocolError):
            pass    # timeout or broken stream: the rest stay unanswered
        finally:
            # The sender never waits on replies; if it is blocked it is
            # on a full socket, which closing from here would release.
            sender.join(timeout=self._sock.gettimeout())
            if sender.is_alive():
                self._sock.shutdown(socket.SHUT_RDWR)
                sender.join()
        if sender_error:
            raise ConnectionError(f"sender failed: {sender_error[0]}")
        return samples
