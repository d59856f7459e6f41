"""Table 5 bench: inference throughput of the open-weight models."""

from __future__ import annotations

from repro.study import table5
from repro.study.paper_targets import TABLE5_THROUGHPUT

from _common import save_result


def test_table5_throughput(benchmark):
    result = benchmark(table5.run)
    rendered = result.render()
    save_result("table5", rendered)
    print("\n" + rendered)

    simulated = result.throughput_table()
    for model, row in TABLE5_THROUGHPUT.items():
        assert abs(simulated[model] - row["tokens_per_s"]) / row["tokens_per_s"] < 0.02
    # Finding: Ditto's BERT is ~1,146x SOLAR.
    assert 1_000 < simulated["bert"] / simulated["solar"] < 1_300
    benchmark.extra_info["tokens_per_s"] = {k: round(v) for k, v in simulated.items()}

