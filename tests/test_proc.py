"""The worker-process substrate (:mod:`repro.proc`), on toy children.

No BGP and no registry here: the children below answer a few byte
requests, and the tests pin what :class:`~repro.proc.WorkerGroup`
promises every caller — the reply pair, typed errors, last words, aligned
fan-outs, and a ``close()`` that always reaps.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import struct
import subprocess
import sys
import time

import pytest

from conftest import kill_worker

from repro.perf import COUNTERS
from repro.proc import PIPE_BUFFER_BYTES, WorkerGroup


class ToyError(Exception):
    """The caller's typed error for these groups."""


def ask(word, value=""):
    """One toy request: ``word``, a space and ``value``, as bytes."""
    return f"{word} {value}".encode()


def toy(conn):
    """Answer ``word value`` byte requests until told to stop."""
    while True:
        try:
            word, _, value = conn.recv_bytes().decode().partition(" ")
        except EOFError:
            break
        if word == "echo":
            conn.send(("ok", value))
        elif word == "fail":  # error reply, stay alive
            conn.send(("error", f"toy cannot {value}"))
        elif word == "die":  # error reply, then exit
            conn.send(("error", f"toy died of {value}"))
            break
        elif word == "garbage":
            conn.send_bytes(b"\x00not a pickle")
        elif word == "half":  # a 100-byte reply that ends after 3: killed mid-send
            os.write(conn.fileno(), struct.pack("!i", 100) + b"abc")
            break
        else:
            break
    conn.close()


def raw_echo(conn):
    """Answer every raw frame with its own bytes."""
    try:
        while True:
            conn.send(("ok", conn.recv_bytes()))
    except EOFError:
        pass


def slow_reader(conn):
    """Sleep before reading anything, then report the sizes of three frames."""
    time.sleep(1.5)
    conn.send(("ok", [len(conn.recv_bytes()) for _ in range(3)]))
    conn.recv_bytes()  # the farewell


def kernel_limit(name):
    """``/proc/sys/net/core/<name>``, or 0 where the host has none."""
    try:
        with open(f"/proc/sys/net/core/{name}") as limit:
            return int(limit.read())
    except (OSError, ValueError):
        return 0


def buffer_sizes(fileno):
    with socket.fromfd(fileno, socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        return tuple(
            sock.getsockopt(socket.SOL_SOCKET, option)
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF)
        )


STOP = ask("stop")


@pytest.fixture
def group():
    made = WorkerGroup("toy {}", ToyError)
    yield made
    made.close(STOP)
    assert multiprocessing.active_children() == []


def forked(group, count=2):
    for _ in range(count):
        group.fork(toy)
    return group


def wait_for_exit(process):
    process.join(timeout=5.0)
    assert not process.is_alive()


class TestRoundTrip:
    def test_byte_requests(self, group):
        forked(group)
        before = COUNTERS.frames_sent
        group.send(1, ask("echo", "a b"))
        assert group.recv(1) == "a b"
        assert group.ask_all([ask("echo", "x"), ask("echo", "y")]) == ["x", "y"]
        assert COUNTERS.frames_sent - before == 3

    def test_raw_frames(self, group):
        group.fork(raw_echo)
        group.send(0, b"\x01\x02 frame")
        assert group.recv(0) == b"\x01\x02 frame"
        assert group.ask_all([b""]) == [b""]

    def test_fork_passes_arguments_before_the_pipe(self, group):
        def child(first, second, conn):
            conn.send(("ok", (first, second)))

        group.fork(child, "a", 2)
        assert group.recv(0) == ("a", 2)


class TestBuffering:
    def test_pipe_buffers_are_what_the_kernel_grants(self, group):
        """The parent end holds exactly what the kernel grants a fresh
        socket pair for the same request, clamp and doubling included."""
        forked(group, 1)
        left, right = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        with left, right:
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                left.setsockopt(socket.SOL_SOCKET, option, PIPE_BUFFER_BYTES)
            granted = buffer_sizes(left.fileno())
        assert buffer_sizes(group._conns[0].fileno()) == granted

    @pytest.mark.skipif(
        kernel_limit("wmem_max") < 1 << 20,
        reason="net.core.wmem_max < 1 MiB: the kernel clamps the request, "
        "and a send waits for the reader as it does with default buffers",
    )
    def test_sends_queue_while_a_worker_sleeps(self):
        """Three ~300 KB frames fit the pipe: the sends return at once
        while the worker has not read anything yet."""
        group = WorkerGroup("slow {}", ToyError)
        try:
            group.fork(slow_reader)
            before = COUNTERS.pipe_send_wait_ns
            started = time.monotonic()
            for index in range(3):
                group.send(0, bytes([index]) * 300_000)
            assert time.monotonic() - started < 0.5
            assert group.send_wait_ns == COUNTERS.pipe_send_wait_ns - before
            assert group.send_wait_ns < 500_000_000
            assert group.recv(0) == [300_000] * 3
        finally:
            group.close(b"")
        assert multiprocessing.active_children() == []


class TestErrorReplies:
    @pytest.mark.parametrize("failing", [0, 1])
    def test_typed_error_and_streams_stay_aligned(self, group, failing):
        forked(group)
        requests = [ask("echo", "fine"), ask("echo", "fine")]
        requests[failing] = ask("fail", "divide")
        with pytest.raises(ToyError, match="toy cannot divide"):
            group.ask_all(requests)
        # Both workers are alive and neither has a reply left over.
        assert group.ask_all([ask("echo", 1), ask("echo", 2)]) == ["1", "2"]

    def test_first_of_several_errors_is_raised(self, group):
        forked(group)
        with pytest.raises(ToyError, match="toy cannot one"):
            group.ask_all([ask("fail", "one"), ask("fail", "two")])
        assert group.ask_all([ask("echo", 1), ask("echo", 2)]) == ["1", "2"]

    def test_unreadable_reply_is_typed(self, group):
        forked(group, 1)
        group.send(0, ask("garbage"))
        with pytest.raises(ToyError, match="toy 0: unreadable reply"):
            group.recv(0)


class TestDeath:
    def test_last_words_on_receive(self, group):
        forked(group, 1)
        group.send(0, ask("die", "thirst"))
        with pytest.raises(ToyError, match="toy died of thirst"):
            group.recv(0)
        with pytest.raises(ToyError, match="toy 0 died"):
            group.recv(0)

    def test_last_words_on_send(self, group):
        forked(group, 1)
        group.send(0, ask("echo", "unread"))  # an ok reply ahead of the error
        group.send(0, ask("die", "thirst"))
        wait_for_exit(group.processes[0])
        with pytest.raises(ToyError, match="toy died of thirst"):
            group.send(0, ask("echo", "anyone?"))
        # Nothing is left to say after that.
        with pytest.raises(ToyError, match="toy 0 died"):
            group.send(0, ask("echo", "anyone?"))

    def test_last_words_through_a_fan_out(self, group):
        forked(group)
        group.send(1, ask("die", "thirst"))
        wait_for_exit(group.processes[1])
        with pytest.raises(ToyError, match="toy died of thirst"):
            group.ask_all([ask("echo", 1), ask("echo", 2)])
        # Worker 0 was asked and read all the same: it is still aligned.
        group.send(0, ask("echo", 3))
        assert group.recv(0) == "3"

    @pytest.mark.parametrize("side", ["send", "receive"])
    def test_killed_worker_is_a_typed_error(self, group, side):
        forked(group)
        kill_worker(group.processes[1], side)
        started = time.monotonic()
        with pytest.raises(ToyError, match="toy 1 died"):
            group.ask_all([ask("echo", 1), ask("echo", 2)])
        assert time.monotonic() - started < 5.0

    def test_killed_mid_reply(self, group):
        forked(group, 1)
        group.send(0, ask("half"))
        with pytest.raises(ToyError, match="toy 0 died"):
            group.recv(0)


#: A parent that forks two workers which only ever wait for EOF, names
#: them (in the file given as argv[1]: an orphan would hold a stdout pipe
#: open), and is then SIGKILLed: no farewell, no close(), no atexit.
DOOMED_PARENT = """
import os, signal, sys
from repro.proc import WorkerGroup

def wait_for_eof(conn):
    try:
        conn.recv_bytes()
    except EOFError:
        pass

group = WorkerGroup("orphan {}", RuntimeError)
group.fork(wait_for_eof)
group.fork(wait_for_eof)
with open(sys.argv[1], "w") as out:
    print(*(process.pid for process in group.processes), file=out)
os.kill(os.getpid(), signal.SIGKILL)
"""


def running(pid: int) -> bool:
    """Is ``pid`` still executing (not gone, and not a zombie awaiting init)?"""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestParentDeath:
    def test_workers_do_not_outlive_a_killed_parent(self, tmp_path):
        """Every worker reads EOF once the parent is gone: no child keeps a
        copy of the parent's end of any pipe."""
        pids = tmp_path / "pids"
        parent = subprocess.run(
            [sys.executable, "-c", DOOMED_PARENT, str(pids)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=30,
        )
        assert parent.returncode < 0
        orphans = [int(pid) for pid in pids.read_text().split()]
        assert len(orphans) == 2
        deadline = time.monotonic() + 5.0
        while any(running(pid) for pid in orphans) and time.monotonic() < deadline:
            time.sleep(0.02)
        survivors = [pid for pid in orphans if running(pid)]
        for pid in survivors:
            os.kill(pid, 9)
        assert survivors == []


class TestClose:
    def test_close_twice(self):
        group = forked(WorkerGroup("toy {}", ToyError))
        children = list(group.processes)
        group.close(STOP)
        assert group.processes == []
        assert not any(child.is_alive() for child in children)
        group.close(STOP)
        assert multiprocessing.active_children() == []

    def test_close_reaps_a_dead_worker_too(self):
        group = forked(WorkerGroup("toy {}", ToyError))
        kill_worker(group.processes[0], "send")
        group.close(STOP)
        assert multiprocessing.active_children() == []

    def test_close_after_a_fork_that_raised_half_way(self, monkeypatch):
        group = WorkerGroup("toy {}", ToyError)
        group.fork(toy)

        def no_more(*args, **kwargs):
            raise OSError("out of processes")

        with monkeypatch.context() as patch:
            patch.setattr(group._context, "Process", no_more)
            with pytest.raises(OSError, match="out of processes"):
                group.fork(toy)
        # The failed fork registered nothing; the first worker still answers.
        assert len(group.processes) == 1
        group.send(0, ask("echo", "still here"))
        assert group.recv(0) == "still here"
        group.close(STOP)
        assert multiprocessing.active_children() == []
