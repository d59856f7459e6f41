"""Unit tests for the full_run CLI plumbing (the heavy path is benched)."""

from __future__ import annotations

import pytest

from repro.config import get_profile
from repro.errors import ConfigurationError
from repro.runtime.cache import active_cache
from repro.study import full_run


class TestArgumentHandling:
    def test_codes_parsing_empty_means_all(self, monkeypatch, tmp_path):
        captured = {}

        def fake_run_study(config, out_path, codes=None, **runtime_kwargs):
            captured["config"] = config
            captured["codes"] = codes
            captured["runtime_kwargs"] = runtime_kwargs
            return {}

        monkeypatch.setattr(full_run, "run_study", fake_run_study)
        full_run.main(["--profile", "smoke", "--out", str(tmp_path / "r.json")])
        assert captured["codes"] is None
        assert captured["config"].name == "smoke"
        # Runtime knobs default to a serial, uncached run.
        assert captured["runtime_kwargs"]["workers"] == 1
        assert captured["runtime_kwargs"]["backend"] == "auto"
        assert captured["runtime_kwargs"]["use_cache"] is False

    def test_codes_parsing_subset(self, monkeypatch, tmp_path):
        captured = {}

        def fake_run_study(config, out_path, codes=None, **runtime_kwargs):
            captured["codes"] = codes
            return {}

        monkeypatch.setattr(full_run, "run_study", fake_run_study)
        full_run.main(
            ["--profile", "smoke", "--codes", "ABT,BEER", "--out", str(tmp_path / "r.json")]
        )
        assert captured["codes"] == ("ABT", "BEER")

    def test_reliability_flags_forwarded(self, monkeypatch, tmp_path):
        captured = {}

        def fake_run_study(config, out_path, codes=None, **runtime_kwargs):
            captured.update(runtime_kwargs)
            return {}

        monkeypatch.setattr(full_run, "run_study", fake_run_study)
        full_run.main([
            "--profile", "smoke", "--out", str(tmp_path / "r.json"),
            "--retries", "3", "--faults", "transient=0.2,seed=3", "--fail-fast",
        ])
        assert captured["retries"] == 3
        assert captured["faults"] == "transient=0.2,seed=3"
        assert captured["fail_fast"] is True

    def test_reliability_flags_default_unset(self, monkeypatch, tmp_path):
        captured = {}

        def fake_run_study(config, out_path, codes=None, **runtime_kwargs):
            captured.update(runtime_kwargs)
            return {}

        monkeypatch.setattr(full_run, "run_study", fake_run_study)
        full_run.main(["--profile", "smoke", "--out", str(tmp_path / "r.json")])
        assert captured["retries"] is None
        assert captured["faults"] is None
        assert captured["fail_fast"] is False


class TestRejectedSettings:
    def test_zero_workers_and_timeout_rejected_before_running(self, tmp_path):
        out = tmp_path / "r.json"
        for settings in ({"workers": 0}, {"cell_timeout_s": 0},
                         {"workers": 1, "backend": "serial", "cell_timeout_s": 0}):
            with pytest.raises(ConfigurationError):
                full_run.run_study(
                    get_profile("smoke"), out, use_cache=True, **settings
                )
            assert active_cache() is None
        assert not out.exists()
