import json

import pytest
import yaml

from lisnet.cli import (
    ScenarioConfig,
    default_config,
    main,
    read_trace_csv,
    replicate_fig1,
    replicate_oracle_sweep,
    write_trace_csv,
)
from lisnet.errors import ConfigurationError
from lisnet.scenario import PowerProfile


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.yaml"
    default_config().dump(path)
    return path


class TestConfigDocument:
    def test_round_trip_preserves_semantics(self, config_path):
        first = ScenarioConfig.load(config_path)
        again_path = config_path.parent / "again.yaml"
        first.dump(again_path)
        second = ScenarioConfig.load(again_path)
        assert first.to_dict() == second.to_dict()

    def test_round_trip_reproduces_the_run(self, tmp_path, config_path):
        # reloading an emitted config yields the same trace bytes
        reloaded_path = tmp_path / "emitted.yaml"
        ScenarioConfig.load(config_path).dump(reloaded_path)
        traces = []
        for source in (config_path, reloaded_path):
            out = tmp_path / f"run-{source.stem}"
            code = main([
                "run", "--config", str(source), "--cycle-only", "--at-hours", "4",
                "--seed", "5", "--out-dir", str(out), "--verbose-trace",
            ])
            assert code == 0
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_unknown_top_level_key_rejected(self, config_path):
        doc = yaml.safe_load(config_path.read_text())
        doc["mystery"] = 1
        config_path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigurationError, match="mystery"):
            ScenarioConfig.load(config_path)

    def test_unknown_nested_key_rejected(self, config_path):
        doc = yaml.safe_load(config_path.read_text())
        doc["graph"]["weights"] = "auto"
        config_path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigurationError, match="weights"):
            ScenarioConfig.load(config_path)

    def test_fleet_must_cover_graph(self, config_path):
        doc = yaml.safe_load(config_path.read_text())
        doc["fleet"] = doc["fleet"][:-1]
        config_path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigurationError, match="fleet"):
            ScenarioConfig.load(config_path)

    def test_demand_shape_parses(self, config_path):
        doc = yaml.safe_load(config_path.read_text())
        doc["demand"] = {"shape": [[0, 6000], [8, 8000]], "circulation": [2]}
        config_path.write_text(yaml.safe_dump(doc))
        config = ScenarioConfig.load(config_path)
        assert isinstance(config.dispatch.demand, PowerProfile)
        assert config.dispatch.demand_at(4.0) == pytest.approx(7000.0)

    def test_fixed_delay_edges_parse(self, config_path):
        doc = yaml.safe_load(config_path.read_text())
        doc["delay"] = {"model": "fixed", "fixed_delays": {"1->2": 2, "2->1": 3}}
        config_path.write_text(yaml.safe_dump(doc))
        config = ScenarioConfig.load(config_path)
        assert config.delay.fixed_delays[(1, 2)] == 2
        assert config.delay.fixed_delays[(2, 1)] == 3

    def test_malformed_yaml_reported_with_path(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("graph: [unclosed")
        with pytest.raises(ConfigurationError, match="broken.yaml"):
            ScenarioConfig.load(path)


class TestTraceFormat:
    def test_write_and_strict_read(self, tmp_path):
        rows = [
            {"cycle": 0, "step": 15, "node": 1, "r": 1.5, "s": 0.5, "ratio": 3.0,
             "z": 3.25, "y": 2.75, "theta": 1, "frozen": True, "pi_star": 10.0,
             "delivered_power": 10.0},
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, rows)
        parsed = read_trace_csv(path)
        assert len(parsed) == 1
        assert parsed[0]["ratio"] == "3"
        assert parsed[0]["frozen"] == "true"

    def test_reader_rejects_missing_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("cycle,step\n0,1\n")
        with pytest.raises(ConfigurationError):
            read_trace_csv(path)


class TestRunCommand:
    def test_cycle_only_run_writes_artifacts(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(config_path), "--cycle-only",
            "--at-hours", "4", "--out-dir", str(out),
        ])
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["theta"] == 3
        assert abs(results["total_command"] - 7000.0) <= 144.0
        rows = read_trace_csv(out / "trace.csv")
        assert len(rows) == 18  # six nodes at three checkpoints
        assert (out / "summary.txt").exists()

    def test_demand_override(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(config_path), "--cycle-only", "--at-hours", "4",
            "--demand", "4000", "--out-dir", str(out),
        ])
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert abs(results["total_command"] - 4000.0) <= 144.0

    def test_check_feasibility_happy(self, config_path, capsys):
        code = main(["run", "--config", str(config_path), "--check-feasibility"])
        assert code == 0
        assert "feasible at all" in capsys.readouterr().out

    def test_check_feasibility_rejects_excess_demand(self, config_path, capsys):
        code = main([
            "run", "--config", str(config_path), "--check-feasibility",
            "--demand", "9000",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "infeasible" in out

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("nonsense: true\n")
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_cycle_only_excess_demand_is_infeasible_not_malformed(
        self, tmp_path, config_path, capsys
    ):
        code = main([
            "run", "--config", str(config_path), "--cycle-only", "--demand", "99999",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, flags",
        [
            (lambda doc: doc["fleet"][1]["profile"].__setitem__(1, [3.0, float("nan")]), []),
            (lambda doc: doc["demand"].__setitem__("watts", float("nan")), []),
            (lambda doc: doc["dispatch"].__setitem__("dispatch_period", float("nan")), []),
            (lambda doc: None, ["--rho", "nan"]),
        ],
        ids=["profile-point", "demand-watts", "dispatch-period", "rho-flag"],
    )
    def test_non_finite_input_is_a_configuration_error(
        self, tmp_path, config_path, capsys, edit, flags
    ):
        doc = yaml.safe_load(config_path.read_text())
        edit(doc)
        config_path.write_text(yaml.safe_dump(doc))
        code = main(["run", "--config", str(config_path), "--out-dir", str(tmp_path), *flags])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, config_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "run", "--config", str(config_path), "--cycle-only",
                "--at-hours", "2", "--seed", "42", "--out-dir", str(out),
                "--verbose-trace",
            ])
            assert code == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_out_dir_env_fallback(self, tmp_path, config_path, monkeypatch):
        target = tmp_path / "via-env"
        monkeypatch.setenv("LISNET_OUT_DIR", str(target))
        code = main([
            "run", "--config", str(config_path), "--cycle-only", "--at-hours", "4",
        ])
        assert code == 0
        assert (target / "trace.csv").exists()


class TestEntryPointsAgree:
    """A 3-node path whose middle unit is renewable splits when it sits out."""

    @pytest.fixture
    def path_config(self, tmp_path):
        config = default_config()
        doc = config.to_dict()
        doc["graph"] = {"nodes": [1, 2, 3], "edges": [[1, 2], [2, 3]]}
        doc.pop("diameter")
        doc["fleet"] = [u for u in doc["fleet"] if u["id"] in (1, 2, 3)]
        doc["demand"] = {"watts": 2000.0, "circulation": [2]}
        path = tmp_path / "path.yaml"
        path.write_text(yaml.safe_dump(doc))
        return path

    def test_check_feasibility_names_the_split_instants(self, path_config, capsys):
        code = main(["run", "--config", str(path_config), "--check-feasibility"])
        out = capsys.readouterr().out
        assert code == 1
        flagged = [line for line in out.splitlines() if line.startswith("infeasible")]
        assert [line.split(":")[0] for line in flagged] == [
            "infeasible at t=0 h", "infeasible at t=8 h",
        ]
        assert all("not connected" in line for line in flagged)

    def test_day_flags_the_same_instants(self, tmp_path, path_config):
        code = main(["run", "--config", str(path_config), "--out-dir", str(tmp_path)])
        assert code == 0
        results = json.loads((tmp_path / "results.json").read_text())
        flagged = [c["t_hours"] for c in results["per_cycle"] if not c["feasible"]]
        assert results["infeasible_cycles"] == 2
        assert flagged == [0.0, pytest.approx(8.0)]

    def test_cycle_only_at_a_split_instant_exits_one(self, tmp_path, path_config, capsys):
        code = main([
            "run", "--config", str(path_config), "--cycle-only", "--at-hours", "0",
            "--out-dir", str(tmp_path),
        ])
        assert code == 1
        assert "not connected" in capsys.readouterr().err

    def test_cycle_only_at_a_connected_instant_runs(self, tmp_path, path_config):
        code = main([
            "run", "--config", str(path_config), "--cycle-only", "--at-hours", "4",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0


class TestReplicateCommand:
    def test_fig1_suite_passes(self):
        passed, lines = replicate_fig1(seed=0)
        assert passed
        assert any("naive baseline" in line for line in lines)

    def test_oracle_sweep_small_count(self):
        passed, lines = replicate_oracle_sweep(seed=1, count=25)
        assert passed

    def test_cli_entry_point(self, capsys):
        code = main(["replicate", "fig1-misconvergence"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["replicate", "not-a-suite"])
