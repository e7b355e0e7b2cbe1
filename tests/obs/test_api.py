"""The front-door API: parity with legacy paths, config scoping,
deprecation of the old entry point."""

from __future__ import annotations

import pytest

from repro import api, config
from repro.experiments import registry

#: Cheap registered experiments covering table and figure kinds.
PARITY_IDS = ("figure-6.7", "table-5.1", "table-3.1")


class TestRunExperiment:
    @pytest.mark.parametrize("experiment_id", PARITY_IDS)
    def test_parity_with_direct_runner(self, experiment_id):
        direct = registry.get_experiment(experiment_id).run()
        result = api.run_experiment(experiment_id)
        assert result.experiment_id == experiment_id
        assert result.artifact.experiment_id == direct.experiment_id
        if hasattr(direct, "rows"):
            assert result.artifact.rows == direct.rows
            assert result.values == [list(r) for r in direct.rows]
        else:
            assert [s.y for s in result.artifact.series] \
                == [s.y for s in direct.series]
            assert set(result.values) == {s.label for s in direct.series}

    def test_result_carries_config_and_timing(self):
        result = api.run_experiment("table-5.1", jobs=3, seed=99)
        assert result.config["jobs"] == 3
        assert result.config["jobs_source"] == "cli"
        assert result.config["seed"] == 99
        assert result.elapsed_s >= 0.0
        assert result.obs_summary is None          # untraced run
        assert result.trace_paths == ()
        assert result.render() == result.artifact.render()

    def test_overrides_do_not_leak(self):
        api.run_experiment("table-5.1", jobs=5, seed=123)
        assert config.jobs() == 1
        assert config.seed() is None

    def test_attach_extra_rides_on_result(self):
        from repro.experiments.registry import Experiment, REGISTRY
        from repro.experiments.reporting import Table

        def runner():
            api.attach_extra("payload", {"x": 1})
            return Table(experiment_id="extra-test", title="t",
                         headers=["a"], rows=[[1]])

        REGISTRY["extra-test"] = Experiment(
            "extra-test", "t", "table", runner)
        try:
            result = api.run_experiment("extra-test")
        finally:
            REGISTRY.pop("extra-test")
        assert result.extras == {"payload": {"x": 1}}

    def test_attach_extra_outside_run_is_noop(self):
        api.attach_extra("orphan", 1)       # silently ignored
        result = api.run_experiment("table-5.1")
        assert "orphan" not in result.extras

    def test_trace_writes_both_exports(self, tmp_path):
        target = tmp_path / "run.json"
        result = api.run_experiment("figure-6.7", trace=target)
        chrome, jsonl = result.trace_paths
        assert chrome.endswith("run.json")
        assert jsonl.endswith("run.jsonl")
        from repro.obs.export import validate_jsonl
        header = validate_jsonl(jsonl)
        assert header["config"]["jobs"] == 1
        summary = result.obs_summary
        assert any(s["name"] == "experiment:figure-6.7"
                   for s in summary["top_spans"])

    def test_jsonl_trace_argument_flips_targets(self, tmp_path):
        result = api.run_experiment("table-5.1",
                                    trace=tmp_path / "run.jsonl")
        chrome, jsonl = result.trace_paths
        assert chrome.endswith("run.json")
        assert jsonl.endswith("run.jsonl")

    def test_unknown_id_still_raises_with_hint(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="unknown experiment"):
            api.run_experiment("figure-9.99")


class TestSubmitExperiment:
    """API parity: ``submit_experiment(...).result()`` must produce
    byte-identical ``ExperimentResult`` fields to ``run_experiment``
    (everything except wall-clock timing)."""

    @staticmethod
    def _assert_field_parity(async_result, inline_result):
        assert async_result.experiment_id == inline_result.experiment_id
        assert async_result.kind == inline_result.kind
        assert async_result.title == inline_result.title
        assert async_result.values == inline_result.values
        assert async_result.config == inline_result.config
        assert async_result.extras == inline_result.extras
        assert async_result.trace_paths == inline_result.trace_paths
        assert async_result.obs_summary == inline_result.obs_summary

    def test_parity_on_figure(self):
        from repro.service import ExperimentService
        service = ExperimentService()
        try:
            handle = api.submit_experiment("figure-6.7", seed=7,
                                           service=service)
            async_result = handle.result(timeout=120)
        finally:
            service.shutdown()
        inline_result = api.run_experiment("figure-6.7", seed=7)
        self._assert_field_parity(async_result, inline_result)

    def test_parity_on_seeded_chaos_run(self):
        from repro.service import ExperimentService
        service = ExperimentService()
        try:
            handle = api.submit_experiment("chaos-outage", seed=11,
                                           service=service)
            async_result = handle.result(timeout=300)
        finally:
            service.shutdown()
        inline_result = api.run_experiment("chaos-outage", seed=11)
        self._assert_field_parity(async_result, inline_result)

    def test_run_experiment_is_inline_submit(self):
        from repro.service import default_service
        before = default_service().stats()["inline"]
        api.run_experiment("table-5.1")
        stats = default_service().stats()
        assert stats["inline"] == before + 1
        # the inline lane bypasses queue and store
        assert stats["queue_depth"] == 0

    def test_submit_rejects_unknown_experiment_at_execution(self):
        from repro.errors import ReproError
        from repro.service import ExperimentService
        service = ExperimentService()
        try:
            handle = api.submit_experiment("figure-9.99",
                                           service=service)
            with pytest.raises(ReproError, match="unknown experiment"):
                handle.result(timeout=120)
        finally:
            service.shutdown()

