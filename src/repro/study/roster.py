"""The matcher roster of the study — all 14 Table-3 variants."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..data.registry import JELLYFISH_SEEN, get_spec
from ..data.world import EntityWorld
from ..errors import ReproError
from ..llm.client import LLMClient
from ..llm.profiles import get_profile as get_llm_profile
from ..llm.prompts import DemonstrationStrategy
from ..llm.simulated import SimulatedLLM
from ..matchers import (
    AnyMatchMatcher,
    DittoMatcher,
    JellyfishMatcher,
    Matcher,
    MatchGPTMatcher,
    StringSimMatcher,
    UnicornMatcher,
    ZeroERMatcher,
)

__all__ = ["RosterEntry", "ROSTER_ORDER", "build_roster"]


@dataclass(frozen=True)
class RosterEntry:
    """One matcher variant: how to build it and how to report it."""

    name: str
    factory: Callable[[str], Matcher]
    params_millions: float
    seen_datasets: frozenset[str] = field(default_factory=frozenset)


#: Table-3 row order.
ROSTER_ORDER: tuple[str, ...] = (
    "StringSim",
    "ZeroER",
    "Ditto",
    "Unicorn",
    "AnyMatch[GPT-2]",
    "AnyMatch[T5]",
    "AnyMatch[LLaMA3.2]",
    "Jellyfish",
    "MatchGPT[Mixtral-8x7B]",
    "MatchGPT[SOLAR]",
    "MatchGPT[Beluga2]",
    "MatchGPT[GPT-4o-Mini]",
    "MatchGPT[GPT-3.5-Turbo]",
    "MatchGPT[GPT-4]",
)

_MATCHGPT_MODELS: dict[str, str] = {
    "MatchGPT[Mixtral-8x7B]": "mixtral-8x7b",
    "MatchGPT[SOLAR]": "solar",
    "MatchGPT[Beluga2]": "beluga2",
    "MatchGPT[GPT-4o-Mini]": "gpt-4o-mini",
    "MatchGPT[GPT-3.5-Turbo]": "gpt-3.5-turbo",
    "MatchGPT[GPT-4]": "gpt-4",
}


def build_roster(
    world: EntityWorld,
    names: tuple[str, ...] | None = None,
    llm_seed: int = 0,
    demo_strategy: DemonstrationStrategy = DemonstrationStrategy.NONE,
    wrap_llm: Callable[[LLMClient], LLMClient] | None = None,
) -> list[RosterEntry]:
    """Construct roster entries for the requested matcher names.

    ``world`` grounds the simulated LLM service; trainable matchers never
    receive it.  ``demo_strategy`` applies to the MatchGPT variants only
    (Table 4 uses it; Table 3 keeps the default of no demonstrations).
    ``wrap_llm`` wraps every simulated LLM client a factory builds — a
    grid cell passes its retry/fault/cache stack here; the default
    leaves the client bare.
    """
    wrap = wrap_llm or (lambda client: client)
    names = names or ROSTER_ORDER
    unknown = set(names) - set(ROSTER_ORDER)
    if unknown:
        raise ReproError(f"unknown matcher names: {sorted(unknown)}")

    entries: list[RosterEntry] = []
    for name in names:
        if name == "StringSim":
            entries.append(RosterEntry(name, lambda code: StringSimMatcher(), 0.0))
        elif name == "ZeroER":
            entries.append(
                RosterEntry(
                    name,
                    lambda code: ZeroERMatcher(get_spec(code).attribute_kinds),
                    0.0,
                )
            )
        elif name == "Ditto":
            entries.append(RosterEntry(name, lambda code: DittoMatcher(), 110))
        elif name == "Unicorn":
            entries.append(RosterEntry(name, lambda code: UnicornMatcher(), 143))
        elif name.startswith("AnyMatch["):
            base = {"AnyMatch[GPT-2]": "gpt2", "AnyMatch[T5]": "t5",
                    "AnyMatch[LLaMA3.2]": "llama3.2"}[name]
            params = {"gpt2": 124, "t5": 220, "llama3.2": 1_300}[base]
            entries.append(
                RosterEntry(
                    name,
                    lambda code, base=base: AnyMatchMatcher(base),
                    params,
                )
            )
        elif name == "Jellyfish":
            def jellyfish_factory(code: str) -> Matcher:
                client = wrap(
                    SimulatedLLM(get_llm_profile("jellyfish-13b"), world, seed=llm_seed)
                )
                return JellyfishMatcher(client)

            entries.append(
                RosterEntry(name, jellyfish_factory, 13_000, seen_datasets=JELLYFISH_SEEN)
            )
        else:  # MatchGPT variants
            model = _MATCHGPT_MODELS[name]
            profile = get_llm_profile(model)

            def matchgpt_factory(code: str, profile=profile) -> Matcher:
                client = wrap(SimulatedLLM(profile, world, seed=llm_seed))
                return MatchGPTMatcher(
                    client,
                    demo_strategy=demo_strategy,
                    display_name=profile.display_name,
                    params_millions=profile.params_millions,
                )

            entries.append(RosterEntry(name, matchgpt_factory, profile.params_millions))
    return entries
