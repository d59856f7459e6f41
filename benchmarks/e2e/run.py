"""End-to-end benchmark: the ``full_run`` study and HTTP ``/match`` serving.

Run from anywhere; the program under test is the ``src/`` tree of the
checkout this file lives in::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--out PATH]

Each workload runs in child processes: ``full_run`` studies through
``child.py study``, servers through ``python -m repro.serving.http`` or
``child.py serve-routed``, driven over HTTP from this process by a closed
loop of four connections.  Every end-to-end metric is printed by name and
unit, every output is checked, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit status is 0 only when every check passed.

``--trace 1`` (or ``--trace-layers``) reruns each workload with the
per-layer wrappers of ``layers.py`` installed in the measured process and
reports the per-layer metrics instead; end-to-end metrics always come
from untraced runs.  Metric names and units are those of
``BENCHMARK.json`` at the checkout root; ``README.md`` says what each one
measures and which workload should move it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "e2e"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402  (needs the path above)

WORKLOADS = ("study_trained", "study_prompted", "serve_match", "serve_routed")
#: Set-up is measured this many times per run and reported as the median.
SETUP_REPEATS = 3
#: Closed-loop clients.  The stock server listens with socketserver's
#: backlog of 5.  At 4 clients every connect fits in that accept queue;
#: at 8 (the smoke client count of ``bench_serving.py``) a few connects
#: per second wait for the kernel's one-second SYN retry, and latency
#: then follows how many clients happen to be stalled, not the server.
CONNECTIONS = 4
#: Load sent before timing starts; its replies are checked all the same.
WARMUP_S = 1.0
#: The timed replies are cut into windows of this many consecutive
#: replies, and each serving metric is read in its best window.  On a
#: shared host the hypervisor takes CPU away in bursts of 10-30 s (steal
#: up to a third of both cores), which doubles latency while it lasts;
#: a slower program is slower in every window, the best one included.
#: 250 replies leave 12 samples beyond each window's p95.
WINDOW_REPLIES = 250
#: A request unanswered after this long counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: How far a ``study_trained`` Table 3 row mean may move from its pin.
MAX_TABLE3_DEV = 2.0
#: Most of a traced study's wall that no wrapper may see.
MAX_RESIDUAL_SHARE = 0.10
#: Hard limits on one child process, in seconds.
STUDY_TIMEOUT_S = 150.0
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0
#: BLAS/OpenMP thread settings recorded (never set) by the bench.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


# -- child processes ---------------------------------------------------------


def _child_env() -> dict[str, str]:
    """This process's environment with the program's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


class Child:
    """One measured child process, reaped with its resource usage."""

    def __init__(self, argv: list[str], log: Path, spawned_at: float) -> None:
        self.spawned_at = spawned_at
        with open(log, "wb") as log_file:
            self.proc = subprocess.Popen(
                argv, stdout=log_file, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=_child_env(), cwd=ROOT,
            )
        self._reaped: tuple[int, float] | None = None

    def _reap(self, options: int) -> bool:
        # os.wait4, not Popen.wait, because only wait4 returns the
        # child's resource usage; Popen must then never wait itself.
        pid, status, usage = os.wait4(self.proc.pid, options)
        if not pid:
            return False
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        # Linux reports ru_maxrss in KiB.
        self._reaped = (self.proc.returncode, usage.ru_maxrss / 1024.0)
        return True

    def running(self) -> bool:
        return self._reaped is None and not self._reap(os.WNOHANG)

    def wait(self, timeout_s: float) -> tuple[int, float]:
        """Reap the child (killing it after ``timeout_s``): (exit code, peak RSS MB)."""
        deadline = time.monotonic() + timeout_s
        try:
            while self.running():
                if time.monotonic() > deadline:
                    break
                time.sleep(0.005)
        finally:
            # Past the deadline, or interrupted: never leave the child behind.
            if self._reaped is None:
                self.proc.kill()
                self._reap(0)
        return self._reaped


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _p99(latencies: list[float]) -> tuple[float, int]:
    """(p99 in ms, samples beyond it): the tail printed without a bound."""
    p99 = _percentile(latencies, 0.99)
    return 1000 * p99, sum(1 for x in latencies if x > p99)


def table_digest(rendered: str) -> str:
    """The sha256 a rendered table is pinned by in ``pins.json``."""
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


# -- studies -----------------------------------------------------------------


@dataclass(frozen=True)
class Study:
    """One ``full_run`` invocation of a study workload."""

    workload: str
    #: Target codes; ``None`` runs all eleven.
    targets: tuple[str, ...] | None
    matchers: tuple[str, ...]

    @classmethod
    def of(cls, workload: str, seed: int, matchers: tuple[str, ...] | None = None) -> "Study":
        """The study ``workload`` runs for ``seed`` (``study_prompted`` ignores it)."""
        if workload == "study_trained":
            return cls(workload, inputs.trained_targets(seed), matchers or inputs.TRAINED_MATCHERS)
        return cls(workload, None, inputs.PROMPTED_MATCHERS)

    @property
    def pin_key(self) -> str:
        """Which ``pins.json`` entry holds this study's expected outputs."""
        return ",".join(self.targets) if self.targets else "all"

    def args(self, tag: str) -> list[str]:
        """The ``full_run`` command line; its files are named by ``tag``."""
        if self.workload == "study_trained":
            args = ["--profile", "smoke", "--codes", ",".join(self.targets)]
        else:
            # A fresh in-memory cache and journal per study: every study is cold.
            args = ["--profile", "default", "--cache",
                    "--journal", str(WORK / f"{tag}.journal.jsonl")]
        return args + ["--matchers", ",".join(self.matchers),
                       "--out", str(WORK / f"{tag}.out.json")]


def study_op(study: Study, tag: str, traced: bool = False, setup_only: bool = False) -> dict:
    """Run ``full_run.main`` once in a fresh process."""
    paths = {k: WORK / f"{tag}.{k}" for k in ("out.json", "timing.json", "layers.json", "journal.jsonl")}
    for path in paths.values():
        path.unlink(missing_ok=True)
    spawned_at = time.monotonic()
    argv = [
        sys.executable, str(CHILD), "study",
        "--spawned-at", repr(spawned_at), "--timing", str(paths["timing.json"]),
    ]
    if traced:
        argv += ["--layers", str(paths["layers.json"])]
    if setup_only:
        argv.append("--setup-only")
    child = Child(argv + ["--", *study.args(tag)], WORK / f"{tag}.log", spawned_at)
    code, rss_mb = child.wait(STUDY_TIMEOUT_S)
    op = {"exit": code, "rss_mb": rss_mb, "span_s": time.monotonic() - spawned_at}
    if code == 0:
        timing = json.loads(paths["timing.json"].read_text())
        op["setup_s"] = timing["main_entered"] - timing["spawned_at"]
        if not setup_only:
            op["wall_s"] = timing["main_exited"] - timing["main_entered"]
            op["doc"] = json.loads(paths["out.json"].read_text())
            if traced:
                op["layers"] = json.loads(paths["layers.json"].read_text())
    return op


def _check_study(study: Study, op: dict, pins: dict) -> tuple[list[str], float]:
    """Output checks of one study: (problems, max Table 3 mean deviation).

    Table 4 (prompted matchers only) must render byte-identically to its
    pin.  Table 3 must too on ``study_prompted``; on ``study_trained``
    each row mean may move up to ``MAX_TABLE3_DEV`` F1 points, so a
    training change within a stated tolerance still passes.
    """
    pin = pins[study.workload].get(study.pin_key)
    if pin is None:
        return [f"pins.json has no {study.workload} entry for {study.pin_key}"], 0.0
    if op["exit"] != 0:
        return [f"study exited with status {op['exit']}"], 0.0
    problems: list[str] = []
    deviation = 0.0
    doc = op["doc"]
    failures = doc["runtime"]["reliability"]["cell_failures"]
    if failures:
        problems.append(f"{failures} grid cells failed")
    table3, table4 = doc["table3"], doc["table4"]
    if table_digest(table4["rendered"]) != pin["table4_sha256"]:
        problems.append(f"Table 4 differs from its pin ({study.pin_key})")
    if study.workload == "study_prompted" and table_digest(table3["rendered"]) != pin["table3_sha256"]:
        problems.append("Table 3 differs from its pin")
    for matcher, mean in table3["mean"].items():
        dev = abs(mean - pin["table3_mean"][matcher])
        deviation = max(deviation, dev)
        if dev > MAX_TABLE3_DEV:
            problems.append(
                f"{matcher} Table 3 mean {mean:.3f} is {dev:.3f} "
                f"from its pin {pin['table3_mean'][matcher]:.3f}"
            )
    return problems, deviation


def _study_counts(op: dict) -> tuple[int, int]:
    """(grid cells attempted, grid cells failed); a crashed study counts one failed."""
    if op["exit"] != 0:
        return 1, 1
    runtime = op["doc"]["runtime"]
    attempted = sum(p.get("tasks", 0) for p in runtime["phases"].values())
    return attempted, runtime["reliability"]["cell_failures"]


def run_study(
    workload: str, seed: int, trace: bool, matchers: tuple[str, ...] | None = None,
) -> dict:
    """One study workload: end-to-end metrics, or with ``trace`` the layer table.

    A run is one study: its size is fixed by the workload, not by
    ``--seconds``, so the same seed always does the same work.
    """
    pins = json.loads((HERE / "pins.json").read_text())
    study = Study.of(workload, seed, matchers)
    result: dict = {"workload": workload, "seed": seed,
                    "full_run_args": study.args(workload)}
    op = study_op(study, workload)
    problems, deviation = _check_study(study, op, pins)
    attempted, failed = _study_counts(op)
    if op["exit"] == 0:
        setups = [op["setup_s"]]
        # More set-up samples from studies stopped right after the import
        # (a traced run reports layers, so it skips them).
        for i in range(0 if trace else SETUP_REPEATS - 1):
            setup = study_op(study, f"{workload}-setup-{i}", setup_only=True)
            if setup["exit"] == 0:
                setups.append(setup["setup_s"])
        result["e2e"] = {
            "setup_s": statistics.median(setups),
            # One study is one operation, so its wall is both percentiles.
            "latency_p50_ms": 1000 * op["wall_s"],
            "latency_p95_ms": 1000 * op["wall_s"],
            "ops_per_s": 1 / op["span_s"],
            "peak_rss_mb": op["rss_mb"],
        }
        result["samples"] = {"setup_s": setups, "wall_s": op["wall_s"]}
        result["latency_samples"] = "1 study, full_run.main entry to exit"
    if op["exit"] == 0 and trace:
        traced = study_op(study, f"{workload}-traced", traced=True)
        more, _ = _check_study(study, traced, pins)
        problems += [f"traced: {problem}" for problem in more]
        t_attempted, t_failed = _study_counts(traced)
        attempted += t_attempted
        failed += t_failed
        if traced["exit"] == 0:
            if (traced["doc"]["table3"], traced["doc"]["table4"]) != (
                op["doc"]["table3"], op["doc"]["table4"]
            ):
                problems.append("traced study produced different tables than untraced")
            result["layers"] = _study_layers(traced, op["wall_s"], deviation)
            residual = result["layers"]["study.residual_s"]
            if residual > MAX_RESIDUAL_SHARE * traced["wall_s"]:
                problems.append(
                    f"study.residual_s {residual:.3f} s is over {MAX_RESIDUAL_SHARE:.0%} "
                    f"of the traced wall {traced['wall_s']:.3f} s: a wrapper stopped binding"
                )
    result.update(correct=not problems and failed == 0, attempted=attempted,
                  failed=failed, problems=problems)
    return result


def _layer_rows(table: dict) -> dict[str, dict[str, float]]:
    """Sum a layers.json table per layer name."""
    rows: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for key, row in table.items():
        layer = key.split("|", 1)[0]
        for field, value in row.items():
            rows[layer][field] += value
    return rows


def _row(table: dict, key: str) -> dict[str, float]:
    return table.get(key) or {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0,
                              "items": 0, "item_weighted_s": 0.0}


def _common_layers(table: dict) -> dict[str, float]:
    """Per-layer metrics read straight off one process's wrapper table."""
    rows = _layer_rows(table)
    steps = _row(table, "nn.optimizer|repro.nn.optim.AdamW.step")["calls"]
    train = rows["models.train_other"]["inclusive_s"]
    metrics = {f"{layer}_s": rows[layer]["self_s"] for layer in (
        "data.generate", "matchers.encode", "models.forward", "models.train_other",
        "nn.backward", "nn.optimizer", "models.infer", "matchers.prompt",
        "llm.complete", "llm.batch", "runtime.cache", "runtime.journal",
        "runtime.grid", "matchers.predict_other", "routing.route", "routing.drift",
    )}
    metrics.update({
        "models.train_steps": steps,
        "models.step_ms": 1000 * train / steps if steps else 0.0,
        "models.infer_pairs": rows["models.infer"]["items"],
        "llm.calls": rows["llm.complete"]["calls"],
    })
    return metrics


def _study_layers(traced: dict, untraced_wall: float, deviation: float) -> dict:
    """Per-layer metrics of one traced study."""
    layers = _common_layers(traced["layers"])
    self_total = sum(row["self_s"] for row in traced["layers"].values())
    layers.update({
        "study.residual_s": traced["wall_s"] - self_total,
        "runtime.cache_hit_rate": traced["doc"]["runtime"]["cache"]["hit_rate"],
        "trace.overhead_frac": traced["wall_s"] / untraced_wall - 1.0,
        "models.table3_max_dev": deviation,
        "serving.batches": 0, "serving.mean_occupancy": 0.0,
        "serving.batch_compute_ms": 0.0, "serving.http_ms": 0.0,
        "serving.queue_wait_ms": 0.0, "routing.escalated_frac": 0.0,
        "http.latency_p99_ms": 0.0, "http.beyond_p99": 0,
    })
    return layers


# -- serving -----------------------------------------------------------------


def _parse(response: bytes) -> tuple[int, bytes]:
    """(status, body) of a complete HTTP/1.0 response."""
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), body


def _http(port: int, raw: bytes) -> tuple[int, bytes]:
    """One HTTP/1.0 exchange (the server closes the connection): (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return _parse(b"".join(chunks))


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.0\r\n\r\n".encode()


def _post_match(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    head = f"POST /match HTTP/1.0\r\nContent-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def ensure_fixture() -> Path:
    """The serving fixture of this source tree, exported on first use.

    Keyed by a digest of every program source file and of the bench code
    that builds the fixture, so an edit to either exports a fresh artifact
    and recomputes the reference labels.
    """
    digest = hashlib.sha256()
    for path in [*sorted((SRC / "repro").rglob("*.py")), HERE / "inputs.py", HERE / "child.py"]:
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fixture = WORK / f"fixture-{digest.hexdigest()[:16]}"
    if (fixture / "fixture.json").exists():
        return fixture
    staging = WORK / f"{fixture.name}.staging-{os.getpid()}"
    staging.mkdir(parents=True)
    child = Child([sys.executable, str(CHILD), "fixture", str(staging)],
                  WORK / "fixture.log", time.monotonic())
    code, _ = child.wait(600.0)
    if code != 0:
        raise RuntimeError(f"fixture export failed (status {code}); see {WORK / 'fixture.log'}")
    staging.rename(fixture)
    return fixture


class Server:
    """A serving child: started, probed until healthy, stopped with SIGINT."""

    def __init__(self, workload: str, fixture: Path, tag: str, layers: Path | None) -> None:
        self.port = _free_port()
        artifact = str(fixture / "artifact")
        if workload == "serve_routed":
            argv = [sys.executable, str(CHILD), "serve-routed", artifact, "--port", str(self.port)]
            if layers is not None:
                argv += ["--layers", str(layers)]
        elif layers is not None:
            argv = [sys.executable, str(CHILD), "serve", "--layers", str(layers),
                    "--", artifact, "--port", str(self.port)]
        else:
            argv = [sys.executable, "-m", "repro.serving.http", artifact, "--port", str(self.port)]
        self.child = Child(argv, WORK / f"{tag}.log", time.monotonic())
        self.setup_s = self._wait_healthy() - self.child.spawned_at

    def _wait_healthy(self) -> float:
        deadline = self.child.spawned_at + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            if not self.child.running():
                break
            try:
                status, _ = _http(self.port, _get("/healthz"))
            except OSError:
                status = 0
            if status == 200:
                return time.monotonic()
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server on port {self.port} never became healthy")

    def stop(self) -> tuple[int, float]:
        if self.child.running():
            os.kill(self.child.proc.pid, signal.SIGINT)
        return self.child.wait(SERVER_STOP_TIMEOUT_S)


def _closed_loop(
    port: int, requests: list[bytes], reference: list[int], order: Iterator[int],
    seconds: float, max_requests: int | None,
) -> dict:
    """``CONNECTIONS`` closed-loop clients, multiplexed on one selector thread.

    Each client opens a connection, sends one ``POST /match``, reads the
    reply to the end (the server speaks HTTP/1.0 and closes), and only
    then opens the next connection.  The first ``WARMUP_S`` of load is
    not timed; then requests are timed for ``seconds``, or until
    ``max_requests`` timed requests were sent.
    """
    # (completion time, latency) of every request sent after the warm-up.
    samples: list[tuple[float, float]] = []
    counts = {"sent": 0, "timed": 0, "non_200": 0, "mismatch": 0, "errors": 0}
    timed_from = time.perf_counter() + WARMUP_S
    deadline = timed_from + seconds

    with selectors.DefaultSelector() as selector:

        def send_next() -> None:
            now = time.perf_counter()
            if now >= deadline or (
                max_requests is not None and counts["timed"] >= max_requests
            ):
                return
            sock = socket.socket()
            sock.setblocking(False)
            exchange = _Exchange(next(order), now, sock)
            counts["sent"] += 1
            counts["timed"] += now >= timed_from
            sock.connect_ex(("127.0.0.1", port))
            selector.register(sock, selectors.EVENT_WRITE, exchange)

        def finish(exchange: _Exchange, outcome: str | None) -> None:
            selector.unregister(exchange.sock)
            exchange.sock.close()
            if outcome:
                counts[outcome] += 1
            send_next()

        for _ in range(CONNECTIONS):
            send_next()
        while selector.get_map():
            for key, _ in selector.select(timeout=1.0):
                exchange: _Exchange = key.data
                raw = requests[exchange.index]
                try:
                    if exchange.sent < len(raw):
                        # Writable: the connect finished, or failed.
                        error = exchange.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                        if error:
                            raise OSError(error, os.strerror(error))
                        exchange.sent += exchange.sock.send(raw[exchange.sent:])
                        if exchange.sent == len(raw):
                            selector.modify(exchange.sock, selectors.EVENT_READ, exchange)
                        continue
                    chunk = exchange.sock.recv(65536)
                except OSError:
                    finish(exchange, "errors")
                    continue
                if chunk:
                    exchange.received.append(chunk)
                    continue
                done = time.perf_counter()
                if exchange.sent_at >= timed_from:
                    samples.append((done, done - exchange.sent_at))
                finish(exchange, _outcome(b"".join(exchange.received), reference[exchange.index]))
            stuck = time.perf_counter() - REQUEST_TIMEOUT_S
            for key in list(selector.get_map().values()):
                if key.data.sent_at < stuck:
                    finish(key.data, "errors")
    failed = counts["non_200"] + counts["mismatch"] + counts["errors"]
    return {**counts, "failed": failed, "samples": samples,
            "latencies": [latency for _, latency in samples]}


@dataclass
class _Exchange:
    """One ``/match`` request on its own connection."""

    index: int
    sent_at: float
    sock: socket.socket
    sent: int = 0
    received: list[bytes] = field(default_factory=list)


def _outcome(response: bytes, expected: int) -> str | None:
    """How a reply failed its check, or ``None`` when it passed."""
    try:
        status, body = _parse(response)
    except (ValueError, IndexError):
        return "errors"
    if status != 200:
        return "non_200"
    try:
        label = json.loads(body)["label"]
    except (ValueError, KeyError):
        return "mismatch"
    return None if label == expected else "mismatch"


def _serving_pass(
    workload: str, fixture: Path, seed: int, seconds: float, setups: int,
    traced: bool, max_requests: int | None,
) -> dict:
    """Start the server ``setups`` times; load the last one for ``seconds``."""
    trace = json.loads((fixture / "trace.json").read_text())
    reference = json.loads((fixture / "reference.json").read_text())[workload]
    requests = [_post_match(pair) for pair in trace]
    tag = f"{workload}-traced" if traced else workload
    setup_samples = []
    for i in range(setups - 1):
        server = Server(workload, fixture, f"{tag}-setup-{i}", layers=None)
        setup_samples.append(server.setup_s)
        server.stop()
    layers_path = WORK / f"{tag}.layers.json" if traced else None
    if layers_path is not None:
        layers_path.unlink(missing_ok=True)
    server = Server(workload, fixture, tag, layers=layers_path)
    setup_samples.append(server.setup_s)
    try:
        load = _closed_loop(
            server.port, requests, reference, inputs.request_order(seed, len(trace)),
            seconds, max_requests,
        )
        load["server_metrics"] = json.loads(_http(server.port, _get("/metrics"))[1])
    finally:
        load_exit, rss_mb = server.stop()
    load.update(setup_samples=setup_samples, rss_mb=rss_mb, server_exit=load_exit)
    if layers_path is not None:
        load["layers"] = json.loads(layers_path.read_text())
    return load


def _windows(samples: list[tuple[float, float]]) -> list[list[tuple[float, float]]]:
    """Consecutive windows of ``WINDOW_REPLIES`` timed replies.

    A last, partial window is dropped; a load shorter than one window is
    one window.
    """
    full = range(0, len(samples) - WINDOW_REPLIES + 1, WINDOW_REPLIES)
    return [samples[i:i + WINDOW_REPLIES] for i in full] or [samples]


def _window_rate(window: list[tuple[float, float]]) -> float:
    """Replies per second between the first and the last reply of a window."""
    return (len(window) - 1) / (window[-1][0] - window[0][0])


def _serving_e2e(load: dict) -> dict[str, float]:
    """Serving metrics, each read in the best window of the timed load."""
    windows = _windows(load["samples"])
    latencies = [[latency for _, latency in window] for window in windows]
    return {
        "setup_s": statistics.median(load["setup_samples"]),
        "latency_p50_ms": 1000 * min(statistics.median(w) for w in latencies),
        "latency_p95_ms": 1000 * min(_percentile(w, 0.95) for w in latencies),
        "ops_per_s": max(_window_rate(w) for w in windows),
        "peak_rss_mb": load["rss_mb"],
    }


def _serving_layers(workload: str, untraced: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of a traced serving pass (p99 from the untraced one)."""
    table = traced["layers"]
    layers = _common_layers(table)
    server = traced["server_metrics"]
    latency = server["latency"]
    compute_key = (
        "routing.route|repro.routing.policy.MatchRouter.route"
        if workload == "serve_routed"
        else "matchers.predict_other|repro.matchers.base.Matcher.predict"
    )
    compute = _row(table, compute_key)
    client_mean = statistics.fmean(traced["latencies"])
    requests = latency["count"]
    routing = server["routing"]
    p99_ms, beyond = _p99(untraced["latencies"])
    layers.update({
        "serving.batches": server["scheduler"]["batches"],
        "serving.mean_occupancy": server["scheduler"]["mean_occupancy"],
        "serving.batch_compute_ms": 1000 * compute["inclusive_s"] / max(1, compute["calls"]),
        "serving.http_ms": 1000 * client_mean - latency["mean_ms"],
        "serving.queue_wait_ms": (
            latency["mean_ms"] * requests / 1000 - compute["item_weighted_s"]
        ) * 1000 / max(1, requests),
        "routing.escalated_frac": (
            routing["counters"]["escalations"] / max(1, routing["counters"]["requests"])
            if routing else 0.0
        ),
        "study.residual_s": 0.0,
        "runtime.cache_hit_rate": 0.0,
        "trace.overhead_frac": (
            _serving_e2e(untraced)["ops_per_s"] / _serving_e2e(traced)["ops_per_s"] - 1.0
        ),
        "models.table3_max_dev": 0.0,
        "http.latency_p99_ms": p99_ms,
        "http.beyond_p99": beyond,
    })
    return layers


def run_serving(
    workload: str, seed: int, seconds: float, trace: bool,
    max_requests: int | None = None,
) -> dict:
    """One serving workload: end-to-end metrics, or with ``trace`` the layer table."""
    fixture = ensure_fixture()
    fixture_info = json.loads((fixture / "fixture.json").read_text())
    result: dict = {
        "workload": workload, "seed": seed,
        "weights_sha256": fixture_info["weights_sha256"],
    }
    untraced = _serving_pass(workload, fixture, seed, seconds,
                             1 if trace else SETUP_REPEATS, False, max_requests)
    passes = [untraced]
    if trace:
        traced = _serving_pass(workload, fixture, seed, seconds, 1, True, max_requests)
        passes.append(traced)
        result["layers"] = _serving_layers(workload, untraced, traced)
    result["e2e"] = _serving_e2e(untraced)
    result["requests"] = [
        {k: p[k] for k in ("sent", "timed", "non_200", "mismatch", "errors")}
        for p in passes
    ]
    p99_ms, beyond = _p99(untraced["latencies"])
    result["latency_samples"] = (
        f"{len(untraced['latencies'])} timed requests after {WARMUP_S:g} s of warm-up, "
        f"best of {len(_windows(untraced['samples']))} windows of {WINDOW_REPLIES}, "
        f"connect to body read; "
        f"p99 {p99_ms:.6g} ms with {beyond} beyond, max {1000 * max(untraced['latencies']):.6g} ms "
        f"(not gating)"
    )
    problems = [
        f"{p['mismatch']} labels differ from the offline reference, "
        f"{p['non_200']} non-200 responses, {p['errors']} connection errors"
        for p in passes if p["failed"]
    ]
    attempted = sum(p["sent"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result.update(correct=not problems and attempted > 0, attempted=attempted,
                  failed=failed, problems=problems)
    return result


# -- command line ------------------------------------------------------------


def _environment() -> dict:
    """What the numbers depend on besides the code: host, versions, thread env."""
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            rev = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_rev": rev,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload.startswith("study_"):
        return run_study(workload, seed, trace)
    return run_serving(workload, seed, seconds, trace)


def report(result: dict, spec: dict, trace: bool) -> dict[str, dict]:
    """Print one workload's metrics by name and unit; return the JSON metric block."""
    section = spec["per_layer" if trace else "end_to_end"]
    values = result.get("layers" if trace else "e2e", {})
    workload = result["workload"]
    metrics = {}
    for entry in section:
        if entry["name"] not in values:
            continue
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"[e2e] {workload} {entry['name']} = {value:.6g} {entry['unit']}", flush=True)
    if "full_run_args" in result:
        print(f"[e2e] {workload} full_run {' '.join(result['full_run_args'])}", flush=True)
    if not trace and "latency_samples" in result:
        print(f"[e2e] {workload} latency samples: {result['latency_samples']}", flush=True)
    for problem in result["problems"]:
        print(f"[e2e] {workload} CHECK FAILED: {problem}", flush=True)
    print(f"[e2e] {workload} correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", flush=True)
    return metrics


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced rerun")
    parser.add_argument("--trace-layers", dest="trace", action="store_const", const=1)
    parser.add_argument("--out", type=Path, default=WORK / "result.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # Servers stop on SIGINT.  A process started in the background may
    # inherit SIGINT ignored, and an ignored signal stays ignored across
    # exec; a handled one is reset to the default, which Python turns into
    # KeyboardInterrupt.  Handling it here makes every child stoppable.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    WORK.mkdir(parents=True, exist_ok=True)
    environment = _environment()
    print(f"[e2e] environment {json.dumps(environment, sort_keys=True)}", flush=True)

    workloads = args.workload or list(WORKLOADS)
    results, metrics = [], {}
    for workload in workloads:
        print(f"[e2e] {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
              flush=True)
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        block = report(result, spec, bool(args.trace))
        if len(workloads) == 1:
            metrics = block
        else:
            metrics.update({f"{workload}:{name}": v for name, v in block.items()})

    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"environment": environment, "args": vars(args) | {"out": str(args.out)},
         "summary": summary, "workloads": results},
        indent=1, sort_keys=True, default=str,
    ))
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
