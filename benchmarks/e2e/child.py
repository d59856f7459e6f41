"""Entry points of the processes the end-to-end bench measures.

``run.py`` starts each of these with the program's ``src`` on
``PYTHONPATH``; none is meant to be run by hand.

``study``
    Imports ``repro.study.full_run`` and runs its ``main`` on the given
    arguments, recording when ``main`` was entered and when it returned
    (``--setup-only`` stops after the import).
``serve``
    Runs the stock ``repro.serving.http`` server on the given arguments.
    The bench starts the untraced plain server with ``python -m
    repro.serving.http`` directly; it comes here only to trace it.
``serve-routed``
    Serves an artifact through the two-rung cascade of
    :func:`inputs.build_router`, with the drift monitor armed.
``fixture``
    Exports the serving artifact and writes the request trace and the
    reference labels both servers must reproduce.

``--layers PATH`` installs the per-layer wrappers (see ``layers.py``)
before the program runs and dumps their table to ``PATH`` when it ends;
servers end on SIGINT.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402  (needs the path above)


@contextmanager
def _layers(path: str | None):
    """Wrap the program's layers for the duration, then dump their table."""
    if path is None:
        yield
        return
    import layers

    clock = layers.install()
    try:
        yield
    finally:
        clock.dump(path)


def _study(args: argparse.Namespace) -> int:
    from repro.study import full_run

    timing = {"spawned_at": args.spawned_at}
    if args.setup_only:
        timing["main_entered"] = time.monotonic()
        Path(args.timing).write_text(json.dumps(timing))
        return 0
    with _layers(args.layers):
        timing["main_entered"] = time.monotonic()
        code = full_run.main(args.program_args)
        timing["main_exited"] = time.monotonic()
    Path(args.timing).write_text(json.dumps(timing))
    return code


def _serve(args: argparse.Namespace) -> int:
    from repro.serving import http

    with _layers(args.layers):
        http.main(args.program_args)
    return 0


def _serve_routed(args: argparse.Namespace) -> int:
    from repro.routing import routed_service
    from repro.serving.http import MatchHTTPServer

    with _layers(args.layers):
        artifact = Path(args.artifact)
        service = routed_service(artifact, inputs.build_router(artifact))
        with service, MatchHTTPServer(service, port=args.port):
            try:
                threading.Event().wait()
            except KeyboardInterrupt:
                pass
    return 0


def _fixture(args: argparse.Namespace) -> int:
    from repro.config import get_profile
    from repro.serving.artifacts import export_deployable, load_artifact

    out = Path(args.directory)
    artifact = export_deployable(get_profile("smoke"), out / "artifact")
    pairs, _ = inputs.serving_datasets(inputs.TRACE_DATASET_SEED)
    labels = {
        "serve_match": [int(x) for x in load_artifact(artifact).predict(pairs)],
        "serve_routed": [d.label for d in inputs.build_router(artifact).route(pairs)],
    }
    manifest = json.loads((artifact / "manifest.json").read_text())
    (out / "trace.json").write_text(json.dumps(
        [{"left": list(p.left.values), "right": list(p.right.values)} for p in pairs]
    ))
    (out / "reference.json").write_text(json.dumps(labels))
    (out / "fixture.json").write_text(json.dumps({"weights_sha256": manifest["weights_sha256"]}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    modes = parser.add_subparsers(dest="mode", required=True)

    study = modes.add_parser("study")
    study.add_argument("--spawned-at", type=float, required=True)
    study.add_argument("--timing", required=True)
    study.add_argument("--layers")
    study.add_argument("--setup-only", action="store_true")
    study.add_argument("program_args", nargs=argparse.REMAINDER)

    serve = modes.add_parser("serve")
    serve.add_argument("--layers")
    serve.add_argument("program_args", nargs=argparse.REMAINDER)

    routed = modes.add_parser("serve-routed")
    routed.add_argument("artifact")
    routed.add_argument("--port", type=int, required=True)
    routed.add_argument("--layers")

    fixture = modes.add_parser("fixture")
    fixture.add_argument("directory")

    args = parser.parse_args(argv)
    if getattr(args, "program_args", None) and args.program_args[0] == "--":
        args.program_args = args.program_args[1:]
    handler = {
        "study": _study, "serve": _serve,
        "serve-routed": _serve_routed, "fixture": _fixture,
    }[args.mode]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
