"""The one worker-process substrate: N forked children, one duplex pipe each.

Everything about running worker processes that is not the caller's message
vocabulary lives here, once, for the detection workers
(:mod:`repro.tenants.workers`).  The caller decides *what* is said; this
module owns how it travels and what a failure looks like:

* **Down** every message is ``bytes`` — one frame, shipped raw, read by
  the child with ``recv_bytes()`` and counted in ``frames_sent`` /
  ``frames_bytes``.
* **Up** every reply is a pickled pair, ``("ok", payload)`` or
  ``("error", message)``.  An error reply raises the caller's typed error
  carrying the worker's own message; so does a reply that is not such a
  pair.  The other end is a fork of this very process, so unpickling it
  reads nothing this program did not write.
* **Dead** is a typed error, never a bare ``OSError``.  A worker found dead
  on a send first has its pipe drained for *last words*: an error reply it
  managed to send before dying is raised as such, and ``"<label> died"``
  is only for a worker that left nothing.
* **A fan-out reads every worker's reply before raising** the first error,
  so a worker that answers an error and stays alive leaves no reply unread
  to be mistaken for the answer to the next request.
* **Buffered.** Each pipe asks the kernel for :data:`PIPE_BUFFER_BYTES`
  of socket buffer both ways, so a send queues several whole shipments
  instead of waiting for the worker to finish its current one; the kernel
  clamps the request at ``net.core.wmem_max`` / ``rmem_max``, and a send
  still blocks once a worker is a full buffer behind.  Time blocked in
  :meth:`WorkerGroup.send` is counted in ``pipe_send_wait_ns``.
* **close()** says a best-effort farewell, closes the pipes, and escalates
  ``join`` → ``terminate`` → ``join``; it is idempotent and safe after a
  start that failed half-way.

Not here yet: liveness timeouts, re-fork and redelivery (ROADMAP item 4).
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
from time import perf_counter_ns
from typing import Callable, List, Sequence, Type

from repro.perf import COUNTERS as _COUNTERS

#: Socket buffer requested for each direction of every worker pipe: room
#: for several 4096-line detection shipments (≈340 KB each), where the
#: default (≈208 KiB on Linux) holds less than one.
PIPE_BUFFER_BYTES = 4 << 20

#: The one start method of every worker process: a child is a fork of this
#: process and inherits its state.  :class:`WorkerGroup` forks through it,
#: and so does the seed-matrix ``Pool`` of :mod:`repro.eval.experiments`,
#: whose workers inherit the registered warm-start checkpoint.
FORK = multiprocessing.get_context("fork")


def _widen(conn) -> None:
    """Ask for :data:`PIPE_BUFFER_BYTES` both ways on ``conn``'s socket."""
    with socket.fromfd(conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, PIPE_BUFFER_BYTES)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, PIPE_BUFFER_BYTES)


def _child_main(inherited: Sequence, target: Callable, args: tuple, conn) -> None:
    """First thing in a child: drop the parent's pipe ends the fork copied.

    While a child holds a copy of the parent's end of its own pipe (or of
    an earlier worker's), that pipe never reads EOF, and ``except EOFError``
    in a worker's receive loop — "the parent is gone" — could never fire.
    """
    for parent_end in inherited:
        parent_end.close()
    target(*args, conn)


class WorkerGroup:
    """Forked workers addressed by index, failing as the caller's ``error``.

    ``label`` names a worker in messages: ``"detect worker {}"`` formats to
    ``"detect worker 1 died"``.
    """

    def __init__(self, label: str, error: Type[Exception]):
        self._label = label
        self._error = error
        self._context = FORK
        self._conns: List = []
        #: Nanoseconds this group's sends spent blocked (also counted in
        #: ``pipe_send_wait_ns``).
        self.send_wait_ns = 0
        #: The children, in fork order (tests kill them through this).
        self.processes: List = []

    def fork(self, target: Callable, *args) -> None:
        """Start the next worker running ``target(*args, conn)``.

        Under fork ``args`` are not pickled: the child keeps the parent's
        objects copy-on-write.
        """
        parent_conn, child_conn = self._context.Pipe()
        try:
            _widen(parent_conn)
            _widen(child_conn)
            process = self._context.Process(
                target=_child_main,
                args=(self._conns + [parent_conn], target, args, child_conn),
                daemon=True,
            )
            process.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()
        self._conns.append(parent_conn)
        self.processes.append(process)

    def send(self, worker: int, frame: bytes) -> None:
        """Ship one frame raw, counted in ``frames_sent`` / ``frames_bytes``.

        Only the write is timed (``pipe_send_wait_ns``), once per frame:
        it returns as soon as the kernel has queued the bytes.
        """
        try:
            started = perf_counter_ns()
            self._conns[worker].send_bytes(frame)
        except (BrokenPipeError, ConnectionResetError):
            pass
        else:
            waited = perf_counter_ns() - started
            self.send_wait_ns += waited
            _COUNTERS.pipe_send_wait_ns += waited
            _COUNTERS.frames_sent += 1
            _COUNTERS.frames_bytes += len(frame)
            return
        # Raised outside the handler, so the typed error does not drag the
        # pipe exception and its traceback along.
        raise self._last_words(worker)

    def recv(self, worker: int):
        """The payload of the worker's next reply; an error reply raises."""
        try:
            data = self._conns[worker].recv_bytes()
        except (EOFError, OSError):  # OSError: reset, or killed mid-reply
            raise self._error(f"{self._label.format(worker)} died") from None
        try:
            status, payload = pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 - pickle's set is open-ended
            raise self._error(
                f"{self._label.format(worker)}: unreadable reply ({exc!r})"
            ) from None
        if status != "ok":
            raise self._error(str(payload))
        return payload

    def _last_words(self, worker: int) -> Exception:
        """The error for a worker met dead on send, in its own words if any.

        Its end of the pipe is closed, so reading never blocks: what it
        sent before dying comes out first, then end-of-file.
        """
        try:
            while True:
                self.recv(worker)  # an ok reply is not what killed it
        except self._error as exc:
            return exc  # its error reply, or "died" once the pipe is dry

    def ask_all(self, frames: Sequence[bytes]) -> List:
        """Send ``frames[i]`` to worker ``i``; return every reply's payload.

        Every worker that took its message is read before the first
        failure is raised, so the reply streams stay aligned.
        """
        failures: List[Exception] = []
        asked: List[int] = []
        for worker, frame in enumerate(frames):
            try:
                self.send(worker, frame)
                asked.append(worker)
            except self._error as exc:
                failures.append(exc)
        replies = []
        for worker in asked:
            try:
                replies.append(self.recv(worker))
            except self._error as exc:
                failures.append(exc)
        if failures:
            raise failures[0]
        return replies

    def close(self, farewell: bytes) -> None:
        """Tell every worker ``farewell`` (best effort), then reap them all."""
        for worker in range(len(self._conns)):
            try:
                self.send(worker, farewell)
            except (self._error, OSError):
                pass
        for conn in self._conns:
            conn.close()
        for process in self.processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._conns = []
        self.processes = []
