"""A `bcountd` process and its one closed-loop client connection."""

import json
import os
import signal
import socket
import subprocess
import time

import benchlib

CONNECT_TIMEOUT_S = 120


class DaemonError(Exception):
    pass


class Daemon:
    """Spawns `bcountd --socket` in `rundir` and connects one client.

    Paths are relative to the benchmark's working directory, which keeps
    the unix socket path short whatever the checkout's location.
    """

    def __init__(self, binary, rundir, extra_args=()):
        self.sock_path = os.path.join(rundir, "bcountd.sock")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.stderr = open(os.path.join(rundir, "bcountd.stderr"), "ab")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--socket", self.sock_path, *extra_args],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.stderr)
        self.next_id = 0
        try:
            self.sock = self._connect()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.stderr.close()
            raise
        self.reader = self.sock.makefile("rb")

    def _connect(self):
        deadline = self.spawned_at + CONNECT_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise DaemonError(f"bcountd exited with {self.proc.returncode} before listening")
            if os.path.exists(self.sock_path):
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    s.connect(self.sock_path)
                    return s
                except OSError:
                    s.close()
            if time.perf_counter() > deadline:
                raise DaemonError("bcountd did not start listening")
            time.sleep(0.0005)

    def request_line(self, method, params):
        """The next request line (bytes, newline-terminated)."""
        self.next_id += 1
        body = {"id": self.next_id, "method": method, "params": params}
        return (json.dumps(body, separators=(",", ":")) + "\n").encode()

    def send(self, line):
        """Sends one request line and waits for its reply line. Returns
        (reply bytes without the newline, round-trip seconds)."""
        t0 = time.perf_counter()
        self.sock.sendall(line)
        reply = self.reader.readline()
        rtt = time.perf_counter() - t0
        if not reply.endswith(b"\n"):
            raise DaemonError("bcountd closed the connection")
        return reply[:-1], rtt

    def hwm_mb(self):
        return benchlib.process_hwm_mb(self.proc.pid)

    def cpu_s(self):
        return benchlib.process_cpu_s(self.proc.pid)

    def kill(self):
        """SIGKILL, then reap."""
        self._close_client()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.stderr.close()

    def _close_client(self):
        for f in (self.reader, self.sock):
            try:
                f.close()
            except OSError:
                pass
