"""Table 5 — inference throughput of the open-weight models on 4xA100."""

from __future__ import annotations

from dataclasses import dataclass

from ..cost.hardware import ACADEMIC_4XA100, MachineSpec
from ..cost.throughput import ThroughputResult, ThroughputSimulator
from ..eval.reporting import format_rows
from ..models.cards import OPEN_WEIGHT_CARDS, get_card

__all__ = ["Table5Result", "run", "USED_BY"]

#: Which approach employs each open-weight model (the "Used by" column).
USED_BY: dict[str, str] = {
    "bert": "Ditto",
    "gpt2": "AnyMatch",
    "deberta": "Unicorn",
    "t5": "AnyMatch",
    "llama3.2-1b": "AnyMatch",
    "llama2-13b": "Jellyfish",
    "mixtral-8x7b": "MatchGPT",
    "beluga2": "MatchGPT",
    "solar": "MatchGPT",
}


@dataclass
class Table5Result:
    results: list[ThroughputResult]

    def render(self) -> str:
        rows = [
            {
                "model": r.model,
                "used by": USED_BY.get(r.model, "-"),
                "#params (M)": f"{r.params_millions:,.0f}",
                "RAM (GB)": f"{r.fp16_gb:.2f}",
                "GPUs": r.n_gpus_used,
                "batch": r.max_batch_size,
                "tokens/s": f"{r.tokens_per_second:,.0f}",
            }
            for r in self.results
        ]
        return format_rows(
            rows, ["model", "used by", "#params (M)", "RAM (GB)", "GPUs", "batch", "tokens/s"]
        )

    def throughput_table(self) -> dict[str, float]:
        return {r.model: r.tokens_per_second for r in self.results}


def run(machine: MachineSpec = ACADEMIC_4XA100) -> Table5Result:
    """Simulate the Table-5 throughput experiment on the given machine."""
    simulator = ThroughputSimulator(machine)
    return Table5Result([simulator.simulate(get_card(name)) for name in OPEN_WEIGHT_CARDS])
