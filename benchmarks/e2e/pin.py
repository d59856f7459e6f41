"""Recompute ``pins.json``: the study outputs ``run.py`` checks against.

Runs ``study_prompted`` once and ``study_trained`` once for every target
pair a seed can draw (the 15 pairs of ``inputs.TARGET_POOL``, seed 0's
among them), about eight minutes on two cores::

    python3 benchmarks/e2e/pin.py

Re-pin only when a change is meant to alter the science outputs, and say
so in that change: a pin moved to match a regression hides it.
"""

from __future__ import annotations

import itertools
import json
import sys

import inputs
import run


def _pin(study: run.Study) -> dict:
    op = run.study_op(study, f"pin-{study.workload}")
    if op["exit"] != 0:
        raise SystemExit(f"{study} failed with status {op['exit']}")
    table3, table4 = op["doc"]["table3"], op["doc"]["table4"]
    print(f"[pin] {study.workload} {study.pin_key}: {op['wall_s']:.1f}s", flush=True)
    return {
        "table3_sha256": run.table_digest(table3["rendered"]),
        "table4_sha256": run.table_digest(table4["rendered"]),
        "table3_mean": table3["mean"],
    }


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    prompted = run.Study.of("study_prompted", 0)
    target_sets = dict.fromkeys([
        inputs.DEFAULT_TARGETS,
        *itertools.combinations(inputs.TARGET_POOL, inputs.TARGETS_PER_RUN),
    ])
    pins = {
        "study_prompted": {prompted.pin_key: _pin(prompted)},
        "study_trained": {
            ",".join(targets): _pin(run.Study("study_trained", targets, inputs.TRAINED_MATCHERS))
            for targets in target_sets
        },
    }
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
