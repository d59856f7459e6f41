"""Run the complete study and save machine-readable results.

This is the entry point behind ``python -m repro.study.full_run``: it
regenerates every table and figure at the requested scale profile and
writes one JSON document (consumed by EXPERIMENTS.md and the benchmark
harness for paper-vs-measured comparisons).

On a single CPU core the ``default`` profile takes roughly an hour
serially; ``--workers N`` fans the independent
``(matcher, target)`` grid cells across a worker pool, and ``--cache``
answers repeated prompts (Table 4's ``none`` strategy re-runs Table 3's
MatchGPT cells verbatim) from the content-addressed completion cache.
Parallel and cached runs produce bit-identical table values; the run's
wall-clock, task and cache accounting lands in the document's
``runtime`` block.

The run is fault-tolerant: with ``--retries`` every LLM request retries
transient failures under seeded exponential backoff, failed grid cells
degrade into structured ``runtime.cell_failures`` entries instead of
aborting (``--fail-fast`` restores the abort), and ``--faults SPEC``
injects deterministic faults to rehearse all of it offline — see
``docs/FAILURE_SEMANTICS.md``.

Every setting has one source: its flag here, or the matching
:func:`run_study` argument.  The retry policy, fault plan and fail-fast
switch ride on the :class:`~repro.config.StudyConfig` each grid cell
carries, and the retry/fault counts are tallied per cell.  A run leaves
no process state behind: the completion cache it installed is saved and
uninstalled when it ends, and nothing is written to the environment.

It is also crash-safe: ``--journal PATH`` write-ahead logs every
completed grid cell (fsynced JSONL), all output files are written
atomically with embedded checksums, and after a kill — even one injected
mid-write via ``--faults crash_at=N,torn_write=1`` — re-running with
``--resume`` replays the finished cells and executes only the remainder,
yielding a byte-identical ``full_study.json``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ..config import StudyConfig, get_profile
from ..errors import ConfigurationError
from ..obs.wiring import activate_observability
from ..reliability import Clock, FaultPlan, RetryPolicy, SystemClock
from ..runtime.cache import CompletionCache, activate, deactivate
from ..runtime.executor import EXECUTOR_BACKENDS, make_executor, resolve_backend
from ..runtime.journal import CellJournal
from ..runtime.persist import atomic_write_json
from ..runtime.stats import RuntimeStats
from . import figures, findings, table3, table4, table5, table6


def _with_settings(
    config: StudyConfig,
    retries: int | None = None,
    faults: str | None = None,
    fail_fast: bool = False,
) -> StudyConfig:
    """``config`` with the run's ``--retries``, ``--faults`` and
    ``--fail-fast`` applied; an unset argument keeps the config's value."""
    changes: dict = {}
    if retries is not None:
        # ``--retries N`` = N retries after the first attempt; 0 disables
        # retrying but keeps response validation on.
        changes["retry_policy"] = RetryPolicy(max_attempts=retries + 1)
    if faults:
        changes["fault_plan"] = FaultPlan.parse(faults)
    if fail_fast:
        changes["fail_fast"] = True
    return replace(config, **changes)


def default_journal_path(out_path: Path) -> Path:
    """The journal path derived from an output path (``--journal`` default)."""
    return out_path.with_name(out_path.stem + ".journal.jsonl")


def run_study(
    config: StudyConfig,
    out_path: Path,
    codes: tuple[str, ...] | None = None,
    matchers: tuple[str, ...] | None = None,
    workers: int = 1,
    backend: str = "auto",
    use_cache: bool = False,
    cache_path: str | None = None,
    retries: int | None = None,
    faults: str | None = None,
    fail_fast: bool = False,
    export_artifacts: str | None = None,
    journal_path: str | Path | None = None,
    resume: bool = False,
    cell_timeout_s: float | None = None,
    trace_path: str | Path | None = None,
    clock: Clock | None = None,
) -> dict:
    """Execute Tables 3-6, Figures 3-4 and the findings; save + return JSON.

    ``matchers`` restricts the Table 3 roster to a named subset (CI smoke
    jobs run two-matcher studies this way); the other tables and figures
    are roster-independent and run regardless.  At least one matcher must
    appear in the Table 6 cost model or Figure 3 has nothing to plot.

    ``workers``/``backend`` pick the executor (``auto``: a thread pool
    when ``workers > 1``, else serial).  ``use_cache`` installs a
    completion cache for the run (persisted at ``cache_path`` if given)
    and uninstalls it, after saving it, when the run ends.

    ``retries``/``faults``/``fail_fast`` configure the reliability layer
    (see :mod:`repro.reliability`); they are applied to ``config``, and
    every grid cell carries them to whichever process runs it.  Failed
    grid cells are retried, then recorded as structured entries under
    ``runtime.cell_failures`` in the output document instead of aborting
    the run — unless ``fail_fast``.

    ``journal_path`` attaches a write-ahead :class:`CellJournal` (every
    completed grid cell is fsynced to disk before the run moves on);
    ``resume`` replays the journal's finished cells instead of starting
    the file fresh, so a killed run re-executes only the remainder and
    produces table values byte-identical to an uninterrupted run.  With
    ``resume`` and no explicit path, the journal defaults to
    :func:`default_journal_path` next to ``out_path``.
    ``cell_timeout_s`` arms the executor's per-cell hang watchdog.

    ``export_artifacts`` names a directory to receive a deployable
    matcher artifact after the study finishes: the serving matcher is
    fitted on every benchmark and exported via
    :func:`repro.serving.artifacts.export_deployable`, and the artifact
    path is recorded in the document's ``artifacts`` block.  The export
    also embeds a routing profile (see :mod:`repro.routing.drift`) in
    the artifact manifest, summarised in the same block.

    ``trace_path`` enables the observability layer for the run: spans
    covering grid cells, LLM request retries, batch chunks and fast-path
    inference are exported as self-checksummed JSONL at that path, and
    the document gains an ``observability`` block summarising the trace
    (see ``docs/OBSERVABILITY.md``).  With
    observability off (the default) the document is byte-identical to
    one produced without the layer.

    ``clock`` is the injectable time source the run's elapsed-seconds
    reporting (``wall_clock_seconds``, the per-row progress lines) is
    measured against — a :class:`~repro.reliability.clock.FakeClock`
    makes those values exact in tests.  Defaults to the system clock.
    """
    clock = clock or SystemClock()
    started = clock.monotonic()
    config = _with_settings(config, retries, faults, fail_fast)
    executor = make_executor(workers, backend, cell_timeout_s)
    stats = RuntimeStats(workers=workers, backend=resolve_backend(backend, workers))

    journal = None
    if journal_path is not None or resume:
        journal_file = (
            Path(journal_path)
            if journal_path is not None
            else default_journal_path(out_path)
        )
        journal = CellJournal(journal_file, fresh=not resume, clock=clock)
        journal.write_header(
            {
                "profile": config.name,
                "codes": list(codes or ()),
                "resumed": resume,
                "faults": faults or "",
            }
        )
        stats.merge_resume(
            {
                "journal_records_loaded": journal.records_loaded,
                "corrupt_quarantined": journal.quarantined,
            }
        )
        if resume:
            print(
                f"[full_run] resuming: {journal.records_loaded} journaled cells "
                f"at {journal_file}"
                + (
                    f" ({journal.quarantined} corrupt records quarantined)"
                    if journal.quarantined
                    else ""
                ),
                flush=True,
            )

    # Installed last, just before the ``try`` whose ``finally`` removes
    # them, so a run that raises leaves no process state behind.
    cache = activate(CompletionCache(path=cache_path)) if use_cache else None
    obs = activate_observability(
        str(trace_path) if trace_path is not None else None
    )
    if obs is not None:
        print(f"[full_run] tracing spans -> {obs.trace_path}", flush=True)

    document: dict = {"profile": config.name, "codes": list(codes or ())}

    def checkpoint() -> None:
        document["runtime"] = stats.as_dict()
        atomic_write_json(out_path, document)

    try:
        # Table 3 dispatches one matcher row at a time so partial results
        # are checkpointed incrementally (a single-core run takes tens of
        # minutes); within a row, the row's target cells fan out across
        # the worker pool.
        from .roster import ROSTER_ORDER
        from .table3 import Table3Result

        roster_names = matchers or ROSTER_ORDER
        unknown = set(roster_names) - set(ROSTER_ORDER)
        if unknown:
            raise ConfigurationError(
                f"unknown matcher(s) {sorted(unknown)}; "
                f"roster: {list(ROSTER_ORDER)}"
            )
        results = []
        for name in roster_names:
            print(f"[full_run] Table 3: {name} ...", flush=True)
            started_row = clock.monotonic()
            partial = table3.run(
                config,
                matcher_names=(name,),
                codes=codes,
                executor=executor,
                stats=stats,
                use_cache=use_cache,
                journal=journal,
            )
            results.extend(partial.results)
            t3 = Table3Result(results, config.name, codes=tuple(codes or ()))
            document["table3"] = {
                "per_dataset": t3.per_dataset_table(),
                "std": {
                    r.matcher_name: {c: t.std_f1 for c, t in r.per_dataset.items()}
                    for r in t3.results
                },
                "mean": t3.quality_table(),
                "rendered": t3.render(),
            }
            checkpoint()
            if partial.results:
                print(f"[full_run]   {name}: mean {partial.results[0].mean_f1:.1f} "
                      f"({clock.monotonic() - started_row:.0f}s)", flush=True)
            else:
                # Every cell of this row failed; the structured records
                # are in the document's runtime.cell_failures block.
                print(f"[full_run]   {name}: all cells FAILED "
                      f"({clock.monotonic() - started_row:.0f}s)", flush=True)
        print(t3.render(), flush=True)

        print("[full_run] Table 4 ...", flush=True)
        t4 = table4.run(
            config,
            codes=codes,
            executor=executor,
            stats=stats,
            use_cache=use_cache,
            journal=journal,
        )
        document["table4"] = {
            "per_dataset": {
                f"{model}|{strategy}": {c: t.mean_f1 for c, t in res.per_dataset.items()}
                for (model, strategy), res in t4.results.items()
            },
            "mean": {
                f"{model}|{strategy}": res.mean_f1
                for (model, strategy), res in t4.results.items()
            },
            "rendered": t4.render(),
        }
        print(t4.render(), flush=True)

        print("[full_run] Tables 5-6, figures, findings ...", flush=True)
        with stats.phase("static"):
            t5 = table5.run()
            t6 = table6.run()
            document["table5"] = t5.throughput_table()
            document["table6"] = t6.cost_table()
            # A run whose every Table-3 cell failed has nothing to plot
            # (its failures are in runtime.cell_failures); the figures
            # are then empty and the document still finishes.
            quality = t3.quality_table()
            fig3_points, fig3_front, fig4_points = [], [], []
            if quality:
                fig3 = figures.figure3(quality, t6)
                fig3_points, fig3_front = fig3.points, fig3.front()
                fig4_points = figures.figure4(quality).points
            document["figure3"] = [
                {"matcher": p.matcher, "f1": p.mean_f1, "cost": p.dollars_per_1k_tokens}
                for p in fig3_points
            ]
            document["figure3_front"] = [p.matcher for p in fig3_front]
            document["figure4"] = [
                {"matcher": p.matcher, "f1": p.mean_f1, "params": p.params_millions}
                for p in fig4_points
            ]
            try:
                analysis = findings.run(t3.per_dataset_table())
                document["findings"] = {
                    "any_rejection": analysis.any_rejection,
                    "mean_abs_rho": analysis.mean_abs_rho(),
                    "rendered": analysis.render(),
                }
            except Exception as error:  # pragma: no cover - needs the full roster
                document["findings"] = {"error": str(error)}
        if obs is not None:
            # The trace export summary and its span series; the run's
            # own totals are in the ``runtime`` block.
            document["observability"] = obs.finish()
    finally:
        # Uninstall first so a crashed run still flushes its partial
        # trace (the flush is atomic and idempotent) and never leaks an
        # installed tracer into the next run in this process.
        if obs is not None:
            obs.uninstall()
        executor.close()
        if journal is not None:
            journal.close()
        # Warm-retry persistence: the completion cache is saved in this
        # ``finally`` so even a *crashed* run leaves its completions on
        # disk.  That partial JSON-lines file is safe to reuse because
        # every entry is content-addressed — the key is
        # sha256(model || salt || strategy || prompt), so a cached
        # response is valid independently of which run (or how much of
        # it) produced the file.  A retry run pointed at the same
        # ``--cache-path`` loads the file at CompletionCache
        # construction time and answers every already-completed prompt
        # from memory; only the work past the crash point is recomputed.
        # ``tests/study/test_warm_cache_retry.py`` pins this behaviour.
        # The cache is uninstalled too, so the next run in this process
        # starts without it.
        if cache is not None:
            deactivate()
            if cache.path is not None:
                saved_to = cache.save()
                print(f"[runtime] completion cache ({len(cache)} entries) -> {saved_to}",
                      flush=True)

    if export_artifacts is not None:
        print(f"[full_run] exporting serving artifact -> {export_artifacts}", flush=True)
        # Imported lazily so the study driver never depends on the
        # serving package unless an export was actually requested.
        from ..serving.artifacts import export_deployable, load_routing_profile

        artifact = export_deployable(config, export_artifacts)
        routing_profile = load_routing_profile(artifact)
        document["artifacts"] = {
            "path": str(artifact),
            "profile": config.name,
            "routing_profile": (
                None
                if routing_profile is None
                else {
                    "vocabulary_size": len(routing_profile.vocabulary),
                    "positive_rate": routing_profile.positive_rate,
                    "n_pairs": routing_profile.n_pairs,
                }
            ),
        }

    document["wall_clock_seconds"] = round(clock.monotonic() - started, 1)
    checkpoint()
    print(stats.footer(), flush=True)
    print(f"[full_run] done in {document['wall_clock_seconds']}s -> {out_path}", flush=True)
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="default", help="smoke | default | full")
    parser.add_argument("--out", default="results/full_study.json")
    parser.add_argument(
        "--codes", default="", help="comma-separated target subset (default: all 11)"
    )
    parser.add_argument(
        "--matchers", default="",
        help="comma-separated Table 3 roster subset, e.g. "
             "'StringSim,MatchGPT[GPT-4o-Mini]' (default: the full roster)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker-pool size (default: 1, serial)",
    )
    parser.add_argument(
        "--backend", default="auto", choices=("auto", *EXECUTOR_BACKENDS),
        help="executor backend (default: auto, a thread pool when "
             "--workers > 1)",
    )
    parser.add_argument(
        "--cache", dest="use_cache", action="store_true",
        help="answer repeated prompts from the completion cache",
    )
    parser.add_argument(
        "--cache-path", default=None,
        help="persist the completion cache as JSON-lines at this path",
    )
    parser.add_argument(
        "--retries", type=int, default=None,
        help="per-request retries after the first attempt (0 disables "
             "retrying; default: no retry layer)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject seeded faults, e.g. 'transient=0.2,rate_limit=0.05,"
             "seed=3' (see repro.reliability.FaultPlan.parse)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first failed grid cell instead of recording a "
             "structured CellFailure and continuing",
    )
    parser.add_argument(
        "--export-artifacts", default=None, metavar="DIR",
        help="after the study, fit the serving matcher on all benchmarks "
             "and export a deployable artifact directory (see repro.serving)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write-ahead cell journal: fsync every completed grid cell "
             "to this JSONL file (default with --resume: <out>.journal.jsonl)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay finished cells from the journal and execute only the "
             "remainder; output is byte-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export a self-checksummed JSONL span trace to this path and "
             "add an 'observability' block to the output (default: "
             "observability stays off and the output is byte-identical to "
             "an untraced run)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock watchdog: a cell stuck past this long is "
             "abandoned as a retryable CellFailure (default: no watchdog)",
    )
    args = parser.parse_args(argv)
    codes = tuple(c for c in args.codes.split(",") if c) or None
    matchers = tuple(m for m in args.matchers.split(",") if m) or None
    run_study(
        get_profile(args.profile),
        Path(args.out),
        codes=codes,
        matchers=matchers,
        workers=args.workers,
        backend=args.backend,
        use_cache=args.use_cache,
        cache_path=args.cache_path,
        retries=args.retries,
        faults=args.faults,
        fail_fast=args.fail_fast,
        export_artifacts=args.export_artifacts,
        journal_path=args.journal,
        resume=args.resume,
        cell_timeout_s=args.cell_timeout,
        trace_path=args.trace,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
