"""Content-addressed completion cache over any LLM client.

The study grid re-issues identical prompts constantly: Table 4's ``none``
strategy re-runs exactly the prompts Table 3 sent for the same GPT
models, and low-arity schemas make distinct serialisation seeds collide
on the same column order.  Against a real Batch API every one of those
repeats is billed again; here they are answered from a cache keyed on

``sha256(model || cache_salt || demo_strategy || prompt)``

so the response is provably a function of everything that can influence
it (the simulated client's decision seed travels in ``cache_salt``; the
demonstration-strategy tag modulates the calibrated error envelope even
for byte-identical prompts).

The cache tracks hits, misses, the prompt tokens a hit avoided
re-submitting, and the simulated dollars saved at the model's published
batch price — surfaced in :meth:`repro.llm.batching.BatchJob.report` and
in the ``runtime`` block of ``full_study.json``.

One switch turns it on for a study: ``full_run --cache`` (with
``--cache-path`` to persist it; ``run_study``'s ``use_cache=`` and
``cache_path=``).  ``run_study`` then installs a process-wide *active*
cache with :func:`activate`, which the run's in-process grid cells share
and forked pool workers inherit, and uninstalls it, after saving it,
when the run ends.  A grid cell whose ``use_cache`` is set wraps its
hardened clients in a :class:`CachedClient` over that cache.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..errors import CorruptStateError, CostModelError, LLMError
from ..llm.client import LLMClient, LLMRequest, LLMResponse
from ..llm.pricing import api_price_per_1k
from ..reliability.clock import Clock, SystemClock
from .persist import atomic_write_text, canonical_json, quarantine_line, sha256_hex

__all__ = [
    "completion_key",
    "CompletionCache",
    "CachedClient",
    "activate",
    "deactivate",
    "active_cache",
    "ensure_active_cache",
]

_SEPARATOR = b"\x00"


def completion_key(
    model: str, prompt: str, salt: str = "", strategy: str = ""
) -> str:
    """The content address of one completion (hex sha256)."""
    digest = hashlib.sha256()
    for part in (model, salt, strategy, prompt):
        digest.update(part.encode("utf-8"))
        digest.update(_SEPARATOR)
    return digest.hexdigest()


class CompletionCache:
    """In-memory completion store with optional JSON-lines persistence."""

    def __init__(
        self, path: str | Path | None = None, clock: Clock | None = None
    ) -> None:
        """An empty cache; with ``path``, merge any persisted entries in.

        ``clock`` supplies the wall timestamps quarantine sidecars are
        named with (injectable for tests; defaults to the system clock).
        """
        self.clock = clock or SystemClock()
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, LLMResponse] = {}
        self.hits = 0
        self.misses = 0
        self.saved_prompt_tokens = 0
        self.saved_dollars = 0.0
        #: Structured errors for entries quarantined during :meth:`load`.
        self.corruption_errors: list[CorruptStateError] = []
        #: How many persisted lines were quarantined as damaged.
        self.quarantined = 0
        if self.path is not None and self.path.exists():
            self.load(self.path)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> LLMResponse | None:
        """Look up a completion, counting the hit or miss."""
        response = self._entries.get(key)
        if response is None:
            self.misses += 1
        else:
            self.hits += 1
            self.saved_prompt_tokens += response.prompt_tokens
        return response

    def store(self, key: str, response: LLMResponse) -> None:
        """Remember one completion under its content address."""
        self._entries[key] = response

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory (0.0 before any)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- accounting ----------------------------------------------------------

    def credit_saved_dollars(self, prompt_tokens: int, price_per_1k: float) -> None:
        """Account the dollars one hit avoided re-spending."""
        self.saved_dollars += prompt_tokens / 1_000 * price_per_1k

    def counters(self) -> dict[str, float]:
        """The running totals (the shape stored in ``full_study.json``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "saved_prompt_tokens": self.saved_prompt_tokens,
            "saved_dollars": round(self.saved_dollars, 6),
        }

    def delta_since(self, snapshot: dict[str, float]) -> dict[str, float]:
        """Counter movement since a :meth:`counters` snapshot.

        Grid workers report this per cell so a parent process can
        aggregate cache activity that happened in pool workers it cannot
        observe directly.
        """
        current = self.counters()
        return {
            key: round(current[key] - snapshot.get(key, 0), 6)
            for key in ("hits", "misses", "saved_prompt_tokens", "saved_dollars")
        }

    # -- persistence ---------------------------------------------------------

    def load(self, path: str | Path) -> int:
        """Merge entries from a JSON-lines file; returns how many loaded.

        A damaged line — unparseable JSON, missing fields, or a per-line
        ``sha256`` self-checksum that no longer matches — is quarantined
        to the file's ``.corrupt-<ts>`` sidecar and recorded in
        :attr:`corruption_errors` / :attr:`quarantined`; the healthy
        entries still load and the run continues with a partially warm
        cache instead of crashing.  A cache is a pure accelerator, so a
        dropped entry costs one recomputation, never correctness.
        """
        path = Path(path)
        loaded = 0
        quarantine_ts = self.clock.wall()
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError("cache line is not a JSON object")
                checksum = row.pop("sha256", None)
                if checksum is not None and checksum != sha256_hex(
                    canonical_json(row)
                ):
                    raise ValueError("line checksum mismatch")
                response = LLMResponse(
                    text=row["text"],
                    model=row["model"],
                    prompt_tokens=int(row["prompt_tokens"]),
                    completion_tokens=int(row["completion_tokens"]),
                )
                self._entries[row["key"]] = response
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                sidecar = quarantine_line(path, line, timestamp=quarantine_ts)
                self.quarantined += 1
                self.corruption_errors.append(
                    CorruptStateError(
                        f"corrupt cache line in {path}: {error}",
                        path=str(path),
                        quarantined_to=str(sidecar),
                    )
                )
                continue
            loaded += 1
        return loaded

    def save(self, path: str | Path | None = None) -> Path:
        """Atomically write all entries as JSON-lines (one per line).

        Each line carries a ``sha256`` self-checksum over its canonical
        content, and the whole file is written through
        :func:`~repro.runtime.persist.atomic_write_text` — a crash
        mid-save leaves the previous complete cache in place, never a
        torn prefix.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise LLMError("no cache path configured; pass one to save()")
        lines = []
        for key, response in self._entries.items():
            payload = {
                "key": key,
                "text": response.text,
                "model": response.model,
                "prompt_tokens": response.prompt_tokens,
                "completion_tokens": response.completion_tokens,
            }
            payload["sha256"] = sha256_hex(canonical_json(payload))
            lines.append(json.dumps(payload))
        atomic_write_text(target, "\n".join(lines) + ("\n" if lines else ""))
        return target


class CachedClient(LLMClient):
    """Wrap a client so repeated prompts are served from the cache.

    The wrapped client's responses are deterministic functions of the key
    material (model, salt, strategy tag, prompt), so a cached response is
    byte-identical to a recomputed one — study results do not change when
    the cache is enabled.
    """

    def __init__(self, inner: LLMClient, cache: CompletionCache) -> None:
        """Serve ``inner``'s completions through ``cache``."""
        self.inner = inner
        self.cache = cache
        self.model_name = inner.model_name
        self.cache_salt = getattr(inner, "cache_salt", "")
        # (model, salt, strategy) are fixed per client/matcher, so their
        # sha256 prefix is hashed once and copied per request.  The digest
        # is byte-identical to :func:`completion_key`.
        self._key_prefixes: dict[str, "hashlib._Hash"] = {}
        try:
            self._price_per_1k = api_price_per_1k(
                inner.model_name
            ).dollars_per_1k_input_tokens
        except CostModelError:
            self._price_per_1k = 0.0

    def _key_for(self, strategy: str, prompt: str) -> str:
        prefix = self._key_prefixes.get(strategy)
        if prefix is None:
            prefix = hashlib.sha256()
            for part in (self.model_name, self.cache_salt, strategy):
                prefix.update(part.encode("utf-8"))
                prefix.update(_SEPARATOR)
            self._key_prefixes[strategy] = prefix
        digest = prefix.copy()
        digest.update(prompt.encode("utf-8"))
        digest.update(_SEPARATOR)
        return digest.hexdigest()

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Answer from the cache, completing (and storing) on a miss."""
        key = self._key_for(
            request.metadata.get("demo_strategy", ""), request.prompt
        )
        cached = self.cache.get(key)
        if cached is not None:
            self.cache.credit_saved_dollars(cached.prompt_tokens, self._price_per_1k)
            return cached
        response = self.inner.complete(request)
        self.cache.store(key, response)
        return response


# -- process-wide active cache ----------------------------------------------

_active: CompletionCache | None = None


def activate(cache: CompletionCache) -> CompletionCache:
    """Install ``cache`` as this process's active completion cache."""
    global _active
    _active = cache
    return cache


def deactivate() -> None:
    """Remove the process-wide active cache."""
    global _active
    _active = None


def active_cache() -> CompletionCache | None:
    """The process-wide active cache, if one is installed."""
    return _active


def ensure_active_cache() -> CompletionCache:
    """Return the active cache, installing an in-memory one if absent."""
    return _active if _active is not None else activate(CompletionCache())
