"""Tests for the content-addressed completion cache."""

from __future__ import annotations

import json

import pytest

from repro.errors import CorruptStateError, LLMError
from repro.llm.batching import BatchJob
from repro.llm.client import EchoClient, LLMRequest, LLMResponse
from repro.runtime.cache import (
    CachedClient,
    CompletionCache,
    activate,
    active_cache,
    completion_key,
    deactivate,
    ensure_active_cache,
)


class _CountingClient(EchoClient):
    """Echo client that counts real completions."""

    def __init__(self, model_name: str = "gpt-4"):
        super().__init__("Yes", model_name=model_name)
        self.n_calls = 0

    def complete(self, request: LLMRequest) -> LLMResponse:
        self.n_calls += 1
        return super().complete(request)


@pytest.fixture(autouse=True)
def _no_active_cache():
    deactivate()
    yield
    deactivate()


class TestCompletionKey:
    def test_stable(self):
        assert completion_key("m", "p") == completion_key("m", "p")

    def test_every_component_matters(self):
        base = completion_key("m", "p", salt="0", strategy="none")
        assert completion_key("m2", "p", salt="0", strategy="none") != base
        assert completion_key("m", "p2", salt="0", strategy="none") != base
        assert completion_key("m", "p", salt="1", strategy="none") != base
        assert completion_key("m", "p", salt="0", strategy="random-selected") != base

    def test_components_are_delimited(self):
        # "ab" + "c" must not collide with "a" + "bc".
        assert completion_key("ab", "c") != completion_key("a", "bc")


class TestCachedClient:
    def test_hit_skips_inner_call(self):
        inner = _CountingClient()
        client = CachedClient(inner, CompletionCache())
        first = client.complete(LLMRequest(prompt="are these the same?"))
        second = client.complete(LLMRequest(prompt="are these the same?"))
        assert inner.n_calls == 1
        assert second == first

    def test_hit_miss_accounting(self):
        cache = CompletionCache()
        client = CachedClient(_CountingClient(), cache)
        client.complete(LLMRequest(prompt="p1"))
        client.complete(LLMRequest(prompt="p2"))
        client.complete(LLMRequest(prompt="p1"))
        assert cache.misses == 2
        assert cache.hits == 1
        assert cache.hit_rate == pytest.approx(1 / 3)
        assert cache.saved_prompt_tokens > 0

    def test_saved_dollars_priced_from_sheet(self):
        # gpt-4 batch price is $0.015 / 1K input tokens.
        cache = CompletionCache()
        client = CachedClient(_CountingClient("gpt-4"), cache)
        response = client.complete(LLMRequest(prompt="one two three four"))
        client.complete(LLMRequest(prompt="one two three four"))
        assert cache.saved_dollars == pytest.approx(
            response.prompt_tokens / 1_000 * 0.015
        )

    def test_unpriced_model_saves_zero_dollars(self):
        cache = CompletionCache()
        client = CachedClient(_CountingClient("no-such-model"), cache)
        client.complete(LLMRequest(prompt="p"))
        client.complete(LLMRequest(prompt="p"))
        assert cache.hits == 1
        assert cache.saved_dollars == 0.0

    def test_distinct_salts_do_not_collide(self):
        cache = CompletionCache()
        seed0, seed1 = _CountingClient(), _CountingClient()
        seed0.cache_salt, seed1.cache_salt = "0", "1"
        CachedClient(seed0, cache).complete(LLMRequest(prompt="p"))
        CachedClient(seed1, cache).complete(LLMRequest(prompt="p"))
        assert cache.misses == 2 and cache.hits == 0


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = CompletionCache()
        client = CachedClient(_CountingClient(), cache)
        client.complete(LLMRequest(prompt="p1"))
        client.complete(LLMRequest(prompt="p2"))
        cache.save(path)

        inner = _CountingClient()
        reloaded = CompletionCache(path=path)
        warm = CachedClient(inner, reloaded)
        warm.complete(LLMRequest(prompt="p1"))
        warm.complete(LLMRequest(prompt="p2"))
        assert inner.n_calls == 0
        assert reloaded.hits == 2

    def test_save_without_path_raises(self):
        with pytest.raises(LLMError):
            CompletionCache().save()

    def test_corrupt_lines_quarantined_not_fatal(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = CompletionCache()
        client = CachedClient(_CountingClient(), cache)
        client.complete(LLMRequest(prompt="p1"))
        cache.save(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k"}\n')       # missing fields
            handle.write("not json at all\n")    # unparseable

        reloaded = CompletionCache(path=path)
        assert len(reloaded) == 1  # the healthy entry still loads
        assert reloaded.quarantined == 2
        assert len(reloaded.corruption_errors) == 2
        assert all(
            isinstance(e, CorruptStateError) for e in reloaded.corruption_errors
        )
        sidecars = list(tmp_path.glob("cache.jsonl.corrupt-*"))
        assert len(sidecars) == 1
        assert len(sidecars[0].read_text().splitlines()) == 2

    def test_checksum_mismatch_quarantined(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = CompletionCache()
        client = CachedClient(_CountingClient(), cache)
        client.complete(LLMRequest(prompt="p1"))
        cache.save(path)
        # Flip a byte of the stored completion text without touching the
        # line's sha256 self-checksum.
        line = path.read_text().rstrip("\n")
        row = json.loads(line)
        row["text"] = row["text"] + "TAMPERED"
        path.write_text(json.dumps(row) + "\n")

        reloaded = CompletionCache(path=path)
        assert len(reloaded) == 0
        assert reloaded.quarantined == 1
        assert "checksum" in str(reloaded.corruption_errors[0])

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = CompletionCache()
        client = CachedClient(_CountingClient(), cache)
        client.complete(LLMRequest(prompt="p1"))
        cache.save(path)
        cache.save(path)  # overwrite goes through the tmp+rename path too
        assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


class TestActiveCache:
    def test_ensure_installs_one_in_memory_cache(self):
        assert active_cache() is None
        cache = ensure_active_cache()
        assert active_cache() is cache and cache.path is None
        assert ensure_active_cache() is cache
        installed = activate(CompletionCache())
        assert ensure_active_cache() is installed

    def test_delta_since_snapshot(self):
        cache = CompletionCache()
        client = CachedClient(_CountingClient(), cache)
        client.complete(LLMRequest(prompt="p"))
        snapshot = cache.counters()
        client.complete(LLMRequest(prompt="p"))
        delta = cache.delta_since(snapshot)
        assert delta["hits"] == 1
        assert delta["misses"] == 0


class TestBatchReportSurfacesCache:
    def test_report_includes_cache_savings(self):
        cache = CompletionCache()
        job = BatchJob(CachedClient(_CountingClient(), cache))
        job.submit_many(["same prompt", "same prompt", "other"])
        job.process()
        report = job.report()
        assert "cache 1/3 hits" in report
        assert "saved" in report

    def test_report_unchanged_without_cache(self):
        job = BatchJob(EchoClient("No"))
        job.submit("hello")
        job.process()
        assert "cache" not in job.report()
