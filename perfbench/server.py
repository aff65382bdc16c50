"""A ``python -m repro serve`` subprocess and the raw HTTP calls to it.

:class:`ServerProcess` starts the server on an ephemeral port with its
default flags, and always stops it: leaving the ``with`` block, normally
or by an exception, sends SIGTERM (the server's graceful drain), waits
for the process to exit and kills it if it does not.

Request bodies are sent as pre-encoded bytes, so the timed region holds
only the round trip: connect, send, wait for and read the answer.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

#: Seconds a server may take to print its listening line.
START_TIMEOUT = 60.0
#: Seconds the graceful drain may take before the process is killed.
STOP_TIMEOUT = 10.0


class ServerError(RuntimeError):
    """The server did not start, or answered a control request badly."""


def request(
    port: int, method: str, path: str, body: bytes = b"",
    timeout: float = 120.0,
) -> Tuple[int, bytes]:
    """One HTTP request on a fresh connection; ``(status, body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body or None, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class ServerProcess:
    """One ``repro serve --port 0`` process rooted at a source checkout.

    Args:
        root: The checkout root; ``root/src`` is put on ``PYTHONPATH``.
        log_path: Where the server's stdout and stderr go after its
            listening line (the first line is read from a pipe).
    """

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root = root
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._log = None

    def start(self) -> None:
        """Spawn and wait for the first answered request."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL,
        )
        self.port = self._read_port()
        status, body = request(self.port, "GET", "/healthz")
        if status != 200:
            raise ServerError(f"/healthz answered {status}: {body[:200]!r}")

    def _read_port(self) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerError("server printed no listening line in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise ServerError(
                    f"server exited with code {self.proc.wait()} before "
                    f"listening; see {self.log_path}"
                )
            line += chunk
        text = line.decode("utf-8", "replace").split("\n")[0]
        # "repro serve: listening on http://127.0.0.1:PORT (jobs=1, ...)"
        try:
            address = text.split("listening on http://", 1)[1].split()[0]
            return int(address.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            raise ServerError(f"unexpected server banner {text!r}") from None

    def call(self, method: str, path: str, body: bytes = b"") -> Dict[str, Any]:
        """A control request (``/stats``, ``/session``...) that must succeed."""
        status, text = request(self.port, method, path, body)
        if status != 200:
            raise ServerError(f"{method} {path} answered {status}: {text[:200]!r}")
        return json.loads(text)

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set), in MB."""
        assert self.proc is not None
        return vm_hwm_mb(self.proc.pid)

    def close(self) -> None:
        proc, self.proc = self.proc, None
        if proc is not None:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of process ``pid`` from ``/proc``, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM line for pid {pid}")
