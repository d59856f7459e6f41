#!/usr/bin/env python
"""Drive the stock HTTP server out of process and check every answer.

Exports the smoke-profile artifact, starts ``python -m
repro.serving.http`` on it, waits for ``GET /healthz`` to answer 200,
sends 200 ``POST /match`` requests from 8 concurrent clients, and
checks that every reply is a 200 whose label equals the reloaded
artifact's own ``predict`` on the same pair.  It then sends SIGINT and
requires the server to exit cleanly within 10 s.  Exits non-zero on any
failure.

Each request goes out in one ``sendall`` on its own connection, and the
server answers HTTP/1.0 and closes, so the reply is read to EOF.

Usage::

    PYTHONPATH=src python scripts/serving_http_smoke.py [WORKDIR]
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REQUESTS = 200
CLIENTS = 8
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
REQUEST_TIMEOUT_S = 30.0


def _exchange(port: int, raw: bytes) -> tuple[int, bytes]:
    """One HTTP/1.0 exchange on a fresh connection: (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def _post_match(left: list[str], right: list[str]) -> bytes:
    body = json.dumps({"left": left, "right": right}).encode()
    return b"POST /match HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(body) + body


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_healthy(server: subprocess.Popen, port: int) -> None:
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        if server.poll() is not None:
            raise SystemExit(f"server exited early with status {server.returncode}")
        try:
            if _exchange(port, b"GET /healthz HTTP/1.0\r\n\r\n")[0] == 200:
                return
        except OSError:
            pass
        time.sleep(0.05)
    raise SystemExit("server never answered /healthz with 200")


def main(argv: list[str]) -> int:
    from repro.config import get_profile
    from repro.data import build_dataset
    from repro.serving.artifacts import export_deployable, load_artifact

    workdir = Path(argv[0]) if argv else Path(tempfile.mkdtemp(prefix="serving-smoke-"))
    artifact = export_deployable(get_profile("smoke"), workdir / "artifact")
    dataset, _world = build_dataset("ABT", 0.05, seed=7)
    pairs = [dataset.pairs[i % len(dataset.pairs)] for i in range(REQUESTS)]
    expected = [int(label) for label in load_artifact(artifact).predict(pairs)]
    requests = [_post_match(list(p.left.values), list(p.right.values)) for p in pairs]

    port = _free_port()
    # A process started in the background may inherit SIGINT ignored, and
    # exec keeps it ignored; a handled one is reset to the default, which
    # the server turns into KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serving.http", str(artifact), "--port", str(port)]
    )
    problems: list[str] = []
    try:
        _wait_healthy(server, port)
        lock = threading.Lock()

        def client(first: int) -> None:
            for i in range(first, REQUESTS, CLIENTS):
                try:
                    status, body = _exchange(port, requests[i])
                    label = json.loads(body).get("label") if status == 200 else None
                except (OSError, ValueError) as error:
                    status, label = f"error {error!r}", None
                if status != 200 or label != expected[i]:
                    with lock:
                        problems.append(f"request {i}: status {status}, label {label}, want {expected[i]}")

        threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
        try:
            code = server.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
            problems.append(f"server still running {STOP_TIMEOUT_S:.0f}s after SIGINT")
        else:
            if code != 0:
                problems.append(f"server exited with status {code} after SIGINT")
    for problem in problems[:20]:
        print(f"[serving-smoke] {problem}", file=sys.stderr)
    if problems:
        return 1
    print(
        f"[serving-smoke] {REQUESTS} requests from {CLIENTS} clients: all 200 with "
        f"the artifact's labels ({sum(expected)} matches); clean exit on SIGINT"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
