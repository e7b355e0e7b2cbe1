"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_list_shows_light_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table-3.1" in out
    assert "table-6.24" in out
    assert "figure-6.18" not in out        # heavy, hidden by default


def test_list_heavy_includes_figures(capsys):
    assert main(["list", "--heavy"]) == 0
    out = capsys.readouterr().out
    assert "figure-6.18" in out
    assert "(heavy)" in out


def test_run_single_table(capsys):
    assert main(["run", "table-5.2"]) == 0
    out = capsys.readouterr().out
    assert "Smart Bus Commands" in out
    assert "[table-5.2 in" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "table-99.1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_unknown_experiment_suggests_close_match(capsys):
    """A typo exits nonzero with a did-you-mean, not a traceback."""
    assert main(["run", "tabel-6.24"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "did you mean" in err
    assert "table-6.24" in err
    assert "Traceback" not in err


def test_run_unknown_experiment_lists_ids_when_no_match(capsys):
    assert main(["run", "zzzzzz"]) == 1
    err = capsys.readouterr().err
    assert "known ids:" in err
    assert "table-6.24" in err


def test_run_without_ids(capsys):
    assert main(["run"]) == 2
    assert "nothing to run" in capsys.readouterr().err


def test_solve_prints_operating_point(capsys):
    assert main(["solve", "--arch", "I", "--mode", "local",
                 "-n", "1"]) == 0
    out = capsys.readouterr().out
    assert "architecture I" in out
    assert "throughput" in out
    # architecture I local, zero compute: 4970 us round trip
    assert "4970" in out


def test_run_with_save_writes_artifacts(tmp_path, capsys):
    assert main(["run", "table-5.1", "--save", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "saved:" in out
    assert (tmp_path / "table-5.1.json").exists()
    assert (tmp_path / "table-5.1.csv").exists()


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_seed_flag_sets_global_default(capsys):
    from repro import config
    try:
        assert main(["--seed", "123", "list"]) == 0
        assert config.get("seed") == 123
    finally:
        config.set_cli("seed", None)


def test_chaos_subcommand_renders_sweep(capsys):
    assert main(["--seed", "1", "chaos", "--arch", "II",
                 "--loss", "0", "0.02", "--measure", "150000"]) == 0
    try:
        out = capsys.readouterr().out
        assert "chaos-sweep" in out
        assert "retransmits" in out
        assert "seed=1" in out
    finally:
        from repro import config
        config.set_cli("seed", None)


def test_chaos_rejects_bad_loss_rate(capsys):
    assert main(["chaos", "--loss", "1.5"]) == 1
    assert "outside [0, 1]" in capsys.readouterr().err


def test_profile_writes_dump_and_summary(tmp_path, capsys):
    assert main(["--profile", "run", "table-5.1",
                 "--save", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "profile:" in out
    prof = tmp_path / "table-5.1.prof"
    summary = tmp_path / "table-5.1.profile.txt"
    assert prof.exists() and summary.exists()
    # a real pstats dump, with the top-20 cumulative summary
    import pstats
    pstats.Stats(str(prof))
    text = summary.read_text()
    assert "cumulative" in text


def test_profile_defaults_to_cwd(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--profile", "run", "table-5.1"]) == 0
    assert (tmp_path / "table-5.1.prof").exists()
    assert (tmp_path / "table-5.1.profile.txt").exists()


def test_profile_works_on_traffic_point_runs(tmp_path, capsys):
    """`repro --profile traffic` profiles the open-arrival point and
    honours the traffic subcommand's --save directory."""
    assert main(["--profile", "--duration", "50000",
                 "traffic", "--arch", "II", "--load", "0.5",
                 "--warmup", "0", "--save", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "profile:" in out
    prof = tmp_path / "traffic-point.prof"
    summary = tmp_path / "traffic-point.profile.txt"
    assert prof.exists() and summary.exists()
    import pstats
    pstats.Stats(str(prof))
    # the profile covers the DES hot loop, not just CLI plumbing
    assert "_drain" in summary.read_text()


def test_validate_quick_end_to_end(tmp_path, capsys):
    """The acceptance gate: `repro validate --quick` agrees on every
    configuration, writes a parity report, and that report validates."""
    report_path = tmp_path / "validation-report.json"
    assert main(["validate", "--quick",
                 "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "4/4 configurations agree" in out
    assert "parity report:" in out
    from repro.validate.report import validate_report
    payload = validate_report(report_path)
    assert payload["summary"]["ok"] is True
    assert payload["grid"] == "quick"
    # the committed baseline at the repo root was found and checked
    assert payload["baseline"].get("skipped") is None
    assert payload["baseline"]["ok"] is True
    # the seeded Monte Carlo CIs equal the committed report's, exactly
    committed = json.loads(
        (Path(__file__).resolve().parents[2]
         / "validation-report.json").read_text())
    assert [point["config_id"] for point in payload["points"]] == \
        [point["config_id"] for point in committed["points"]]
    for point, pinned in zip(payload["points"], committed["points"]):
        assert point["monte_carlo"] == pinned["monte_carlo"], \
            point["config_id"]


def test_validate_rebaseline_writes_custom_path(tmp_path, capsys):
    target = tmp_path / "baseline.json"
    assert main(["validate", "--rebaseline",
                 "--baseline", str(target)]) == 0
    out = capsys.readouterr().out
    assert "baseline written" in out
    from repro.validate.baseline import load_baseline
    payload = load_baseline(target)
    # the union of the quick and full grids, exact values only
    assert len(payload["entries"]) >= 24
    entry = payload["entries"]["II-nonlocal-n2-x0"]
    assert entry["throughput_per_ms"] > 0
    assert "Host" in entry["busy"]


def test_jobs_flag_rejects_bad_values(capsys):
    with pytest.raises(SystemExit):
        main(["--jobs", "0", "list"])
    assert "--jobs must be a positive integer, got '0'" in \
        capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["--jobs", "four", "list"])
    assert "--jobs must be a positive integer, got 'four'" in \
        capsys.readouterr().err


def test_reduction_flag_is_gone(capsys):
    """Lumping follows a net's symmetry declarations; no flag selects it."""
    with pytest.raises(SystemExit) as exit_info:
        main(["--reduction", "lump", "solve", "--arch", "II", "-n", "3"])
    assert exit_info.value.code == 2
    assert "repro: error:" in capsys.readouterr().err
