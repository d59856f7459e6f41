"""Serve a matcher online: export, reload, index, batch, query over HTTP.

The full serving pipeline in one script:

1. fit the deployment matcher and export it as an artifact directory,
2. reload it (predictions are byte-identical to the exported instance),
3. build an incremental candidate index over a serving corpus,
4. stand up the micro-batched ``MatchService`` plus its HTTP front-end,
5. answer pair-match and candidate-lookup requests both in-process and
   over ``POST /match``.

Run:  python examples/serve_matcher.py
"""

from __future__ import annotations

import json
import tempfile
import urllib.request
from pathlib import Path

from repro.config import get_profile
from repro.data import build_dataset
from repro.serving import (
    CandidateIndex,
    MatchService,
    export_deployable,
    load_artifact,
)
from repro.serving.http import MatchHTTPServer


def main() -> None:
    # 1. Export: fit AnyMatch[GPT-2] on every benchmark (the serving
    #    scenario has no held-out target) and write manifest + weights.
    artifact_dir = Path(tempfile.mkdtemp(prefix="repro-artifact-")) / "matcher"
    export_deployable(get_profile("smoke"), artifact_dir)
    print(f"exported artifact -> {artifact_dir}")

    # 2. Reload. The manifest records the architecture and vocabulary;
    #    the checkpoint restores the exact fitted weights.
    matcher = load_artifact(artifact_dir)
    print(f"reloaded {matcher.display_name}")

    # 3. Index a serving corpus incrementally (here: one benchmark's
    #    right-hand relation). Blocking semantics match the offline
    #    TokenBlocker exactly.
    dataset, _world = build_dataset("ABT", scale=0.2, seed=7)
    corpus = [pair.right for pair in dataset.pairs]
    index = CandidateIndex(min_shared=2)
    index.add_records(corpus)
    print(f"indexed {len(index)} corpus records")

    # 4. Compose the service: index -> micro-batcher -> matcher, with
    #    bounded-queue admission control; a started dispatcher batches
    #    whatever queued while the previous batch ran.
    service = MatchService(matcher, index=index, max_batch_size=32)

    # In-process requests work without starting the dispatcher thread —
    # submissions are processed inline in deterministic FIFO batches.
    probe = dataset.pairs[0].left
    response = service.match_pair(probe, dataset.pairs[0].right)
    print(f"match_pair: label={response.label} "
          f"latency={1000 * response.latency_s:.2f}ms")
    for match in service.lookup(probe, top_k=5):
        print(f"lookup hit: {match.record.record_id} "
              f"(shared tokens: {match.shared_tokens})")

    # 5. The same service over HTTP (port 0 = pick a free port).
    with MatchHTTPServer(service) as server:
        payload = json.dumps(
            {"left": list(probe.values), "right": list(dataset.pairs[0].right.values)}
        ).encode()
        request = urllib.request.Request(
            server.url + "/match", data=payload, method="POST"
        )
        with urllib.request.urlopen(request) as http_response:
            print(f"POST /match -> {json.loads(http_response.read())}")
        with urllib.request.urlopen(server.url + "/healthz") as http_response:
            print(f"GET /healthz -> {json.loads(http_response.read())['status']}")
        with urllib.request.urlopen(server.url + "/metrics") as http_response:
            counters = json.loads(http_response.read())["counters"]
            print(f"GET /metrics -> {counters}")


if __name__ == "__main__":
    main()
