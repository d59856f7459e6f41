"""Kill-and-resume chaos harness for the crash-safe study runtime.

Runs ``repro.study.full_run`` as a real subprocess, kills it mid-grid —
once with a genuine ``SIGKILL`` from outside, once with an injected
``--faults crash_at=N,torn_write=1`` crash that tears the journal's
final record — and asserts that ``--resume`` replays the journaled
cells and produces a ``full_study.json`` byte-identical (modulo the
volatile runtime/timing blocks) to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Document keys that legitimately differ between runs (timings, the
#: runtime accounting block, the integrity footer over both).
VOLATILE_KEYS = {"runtime", "wall_clock_seconds", "_integrity"}

#: Generous per-subprocess ceiling; a smoke two-dataset run takes ~35s.
RUN_TIMEOUT_S = 420


def _command(out: Path, journal: Path, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro.study.full_run",
        "--profile", "smoke",
        "--codes", "ABT,BEER",
        "--out", str(out),
        "--journal", str(journal),
        *extra,
    ]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _stable(document: dict) -> dict:
    """The run-invariant slice of a full_study document."""
    return {k: v for k, v in document.items() if k not in VOLATILE_KEYS}


def _journaled_cells(journal: Path) -> int:
    """Completed cell records currently in the journal (headers excluded)."""
    if not journal.exists():
        return 0
    raw = journal.read_bytes().decode("utf-8", errors="replace")
    lines = raw.split("\n")[:-1]  # only newline-terminated (complete) lines
    return sum(1 for line in lines if '"kind": "result"' in line
               or '"kind": "failure"' in line)


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> dict:
    """One uninterrupted journaled smoke run — the ground truth document."""
    directory = tmp_path_factory.mktemp("reference")
    out = directory / "full_study.json"
    completed = subprocess.run(
        _command(out, directory / "study.journal.jsonl"),
        env=_env(), cwd=REPO_ROOT, timeout=RUN_TIMEOUT_S,
        capture_output=True, text=True,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(out.read_text())


def _resume(out: Path, journal: Path) -> dict:
    """Re-run with ``--resume`` and return the finished document."""
    completed = subprocess.run(
        _command(out, journal, "--resume"),
        env=_env(), cwd=REPO_ROOT, timeout=RUN_TIMEOUT_S,
        capture_output=True, text=True,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(out.read_text())


class TestSigkillResume:
    def test_killed_run_resumes_byte_identical(self, tmp_path, reference):
        out = tmp_path / "full_study.json"
        journal = tmp_path / "study.journal.jsonl"
        process = subprocess.Popen(
            _command(out, journal), env=_env(), cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + RUN_TIMEOUT_S
            while time.monotonic() < deadline:
                if _journaled_cells(journal) >= 3:
                    break
                if process.poll() is not None:
                    pytest.fail("run finished before it could be killed")
                time.sleep(0.2)
            else:
                pytest.fail("journal never reached 3 records")
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
        assert process.returncode == -signal.SIGKILL
        journaled_at_kill = _journaled_cells(journal)
        assert journaled_at_kill >= 3

        document = _resume(out, journal)

        assert _stable(document) == _stable(reference)
        resume = document["runtime"]["resume"]
        reference_total = reference["runtime"]["resume"]["cells_computed"]
        assert resume["cells_replayed"] >= 3
        assert resume["cells_computed"] >= 1
        assert resume["cells_replayed"] + resume["cells_computed"] == reference_total
        assert resume["journal_records_loaded"] == resume["cells_replayed"]

    def test_reference_run_reports_resume_block(self, reference):
        resume = reference["runtime"]["resume"]
        assert resume["cells_replayed"] == 0
        assert resume["cells_computed"] > 0
        assert resume["corrupt_quarantined"] == 0


class TestInjectedCrashTornWrite:
    def test_crash_fault_tears_journal_and_resume_recovers(
        self, tmp_path, reference
    ):
        out = tmp_path / "full_study.json"
        journal = tmp_path / "study.journal.jsonl"
        # The first LLM completion past 60 kills the process; by then the
        # non-LLM Table-3 rows (StringSim, ZeroER, Ditto, ...) have been
        # journaled, and the MatchGPT/Table-4 cells remain.
        crashed = subprocess.run(
            _command(out, journal, "--faults", "crash_at=60,torn_write=1"),
            env=_env(), cwd=REPO_ROOT, timeout=RUN_TIMEOUT_S,
            capture_output=True, text=True,
        )
        assert crashed.returncode == 137, crashed.stderr[-2000:]
        raw = journal.read_bytes()
        assert not raw.endswith(b"\n"), "torn-write mode must tear the tail"
        journaled_at_crash = _journaled_cells(journal)
        assert journaled_at_crash >= 1

        document = _resume(out, journal)

        assert _stable(document) == _stable(reference)
        resume = document["runtime"]["resume"]
        assert resume["cells_replayed"] == journaled_at_crash
        assert resume["cells_computed"] >= 1
        # The torn tail is the expected crash signature, not corruption.
        assert resume["corrupt_quarantined"] == 0
