"""A `wam-serve` child process driven over its stdin/stdout pipes.

Replies come back in completion order, so the client matches them to
requests by `id`. Reads go straight to the pipe's file descriptor with a
timeout, so a hung server fails the run instead of stalling it.
"""

import json
import os
import resource
import select
import subprocess
import time

REPLY_TIMEOUT_S = 60
EXIT_TIMEOUT_S = 30

now_ns = time.perf_counter_ns


class ServerError(Exception):
    pass


class Server:
    """One server process, ready once it has answered a `catalog` request.

    `spawn_ns` is the time from process start to that first reply.
    """

    def __init__(self, binary):
        start = now_ns()
        self.proc = subprocess.Popen([binary], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.buf = bytearray()
        try:
            self.send(b'{"id":0,"op":"catalog"}\n')
            reply = json.loads(self.recv())
        except BaseException:
            self.kill()
            raise
        self.spawn_ns = now_ns() - start
        if reply.get("status") != "catalog":
            self.kill()
            raise ServerError(f"server did not start: {reply}")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.kill()

    def send(self, data):
        view = memoryview(data)
        while view:
            view = view[os.write(self.proc.stdin.fileno(), view):]

    def recv(self):
        """The next reply line, without its newline."""
        fd = self.proc.stdout.fileno()
        scanned = 0
        while True:
            end = self.buf.find(b"\n", scanned)
            if end >= 0:
                line = bytes(self.buf[:end])
                del self.buf[: end + 1]
                return line
            scanned = len(self.buf)
            if not select.select([fd], [], [], REPLY_TIMEOUT_S)[0]:
                raise ServerError(f"no reply within {REPLY_TIMEOUT_S} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise ServerError("server closed its output early")
            self.buf += chunk

    def stats(self):
        """The server's own counters; call only with no request in flight."""
        self.send(b'{"id":0,"op":"stats"}\n')
        reply = json.loads(self.recv())
        if reply.get("status") != "stats":
            raise ServerError(f"bad stats reply: {reply}")
        return reply

    def peak_rss_kib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise ServerError("no VmHWM in /proc status")

    def close(self):
        """Closes stdin and waits for a clean exit; returns the drain time.

        Sets `cpu_s`, the CPU time of the whole process over its life. The
        child usage grows by exactly that when this process is reaped, as
        long as no other child is reaped meanwhile."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = now_ns()
        self.proc.stdin.close()
        rest = self.proc.stdout.read()
        try:
            code = self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError(f"server did not exit within {EXIT_TIMEOUT_S} s of EOF")
        drain = now_ns() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.cpu_s = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        self.proc.stderr.read()
        if code != 0 or rest.strip() or self.buf.strip():
            raise ServerError(f"server exited with {code} and unread output {bytes(self.buf) + rest!r:.200}")
        return drain

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            pipe.close()


def host_ticks():
    """(steal, total) CPU ticks of the whole machine so far: steal is time
    the host ran something else while this machine wanted the CPU."""
    with open("/proc/stat") as f:
        ticks = [int(t) for t in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def reply_id(raw):
    """The `id` of a reply line, which the server always renders first."""
    comma = raw.find(b",", 6)
    if not raw.startswith(b'{"id":') or comma < 0 or not raw[6:comma].isdigit():
        raise ServerError(f"reply does not start with an id: {raw[:200]!r}")
    return int(raw[6:comma])


def run_batch(server, lines, window):
    """Sends `lines`, a list of (id, request bytes), keeping at most
    `window` requests in flight; each reply frees a slot for the next
    request (a closed loop of `window` clients).

    Returns the elapsed time, each request's (id, send time, latency) in
    ns and the raw reply lines by id.
    """
    sent = {}
    timings = []
    replies = {}
    pending = iter(lines)

    def send_next():
        item = next(pending, None)
        if item is not None:
            sent[item[0]] = now_ns()
            server.send(item[1])

    start = now_ns()
    for _ in range(min(window, len(lines))):
        send_next()
    for _ in range(len(lines)):
        raw = server.recv()
        done = now_ns()
        rid = reply_id(raw)
        if rid not in sent or rid in replies:
            raise ServerError(f"reply to unknown or answered request: {raw[:200]!r}")
        replies[rid] = raw
        timings.append((rid, sent[rid], done - sent[rid]))
        send_next()
    return now_ns() - start, timings, replies
