import copy
import gc
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import lisnet
from lisnet.cli import (
    TRACE_COLUMNS,
    TRACE_HEADER,
    ScenarioConfig,
    default_config,
    main,
    replicate_fig1,
    replicate_oracle_sweep,
    write_trace_csv,
)
from lisnet.errors import ConfigurationError, InvariantError
from lisnet.scenario import PowerProfile, day_instants, instant_rows, run_day
from lisnet.topology import Graph
from reference import cyclic_garbage, read_trace_csv


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

    @pytest.mark.parametrize(
        "path, value",
        [
            (("delay",), 0),
            (("delay",), []),
            (("dispatch",), False),
            (("output",), ""),
            (("graph", "delay_bounds"), 0),
            (("delay", "fixed_delays"), []),
            (("name",), [1, 2]),
        ],
        ids=["delay-0", "delay-empty-list", "dispatch-false", "output-empty-string",
             "delay-bounds-0", "fixed-delays-empty-list", "name-list"],
    )
    def test_only_missing_or_null_is_absent(self, config_path, capsys, path, value):
        doc = yaml.safe_load(config_path.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent.pop(path[-1], None)
        missing = ScenarioConfig.from_dict(doc).to_dict()
        parent[path[-1]] = None
        assert ScenarioConfig.from_dict(doc).to_dict() == missing
        parent[path[-1]] = value
        config_path.write_text(yaml.safe_dump(doc))
        code = main(["run", "--config", str(config_path), "--check-feasibility"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

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
        assert isinstance(config.demand, PowerProfile)
        assert config.demand.power_at(4.0) == pytest.approx(7000.0)

    def test_fixed_delay_edges_parse(self, config_path):
        doc = yaml.safe_load(config_path.read_text())
        doc["delay"] = {"model": "fixed", "fixed_delays": {"1->2": 2, "2->1": 3}}
        config_path.write_text(yaml.safe_dump(doc))
        config = ScenarioConfig.load(config_path)
        assert config.delay.fixed_delays[(1, 2)] == 2
        assert config.delay.fixed_delays[(2, 1)] == 3

    def test_every_malformed_node_is_a_configuration_error(self):
        # each section, entry and field of a scenario using every optional
        # key, replaced by values of the wrong type or shape, or deleted
        base = default_config().to_dict()
        base["graph"]["delay_bounds"] = {"1-2": 2}
        base["delay"] = {"model": "stochastic", "probabilities": [0.1, 0.3, 0.3, 0.3]}
        base["dispatch"].update(start_hours=3.0, end_hours=3.1)
        base["fleet"][0].update(tracking="lag", lag_seconds=10.0)
        base["output"] = {"directory": "out"}
        bad = ["abc", [1], 5, None, {}, [], True, -1, 1.5, [[1]], {"a": 1}, [[1, 2, 3]]]
        delete = object()

        def nodes(node, path=()):
            children = node.items() if isinstance(node, dict) else enumerate(node[:2])
            for key, child in children:
                yield path + (key,)
                if isinstance(child, (dict, list)):
                    yield from nodes(child, path + (key,))

        checked = 0
        for path in nodes(base):
            for value in [*bad, delete]:
                doc = copy.deepcopy(base)
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                if value is delete:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                try:
                    ScenarioConfig.from_dict(doc)
                except ConfigurationError:
                    pass
                checked += 1
        assert checked > 500

    def test_malformed_yaml_reported_with_path(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("graph: [unclosed")
        with pytest.raises(ConfigurationError, match="broken.yaml"):
            ScenarioConfig.load(path)

    def test_shipped_config_is_the_built_in_scenario(self):
        shipped = Path(__file__).parent.parent / "configs" / "six_lis.yaml"
        assert ScenarioConfig.load(shipped).to_dict() == default_config().to_dict()


class TestTraceFormat:
    def test_write_and_strict_read(self, tmp_path):
        chunks = [
            instant_rows(0, [(15, 1, 1.5, 0.5, 3.0, 3.25, 2.75, 1, True)], {1: 10.0}, {1: 10.0})
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, chunks)
        parsed = read_trace_csv(path)
        assert len(parsed) == 1
        assert parsed[0]["ratio"] == "3"
        assert parsed[0]["frozen"] == "true"

    def test_rows_are_written_byte_for_byte(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        chunks = [
            instant_rows(0, [(15, 1, 1.5, 0.5, 3.0, 3.25, 2.75, 1, True)], {1: 10.0}, {1: 9.5}),
            instant_rows(2, [(7, 3, -0.0, 1e-300, 1 / 3, 1e22, nan, 4, False)], {}, {}),
            instant_rows(
                3, [(4, 5, 1e22, -0.0, nan, 1 / 3, 1e-300, 2, True)], {5: -inf}, {5: inf}
            ),
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, chunks)
        assert path.read_text().splitlines() == [
            TRACE_HEADER,
            ",".join(TRACE_COLUMNS),
            "0,15,1,1.5,0.5,3,3.25,2.75,1,true,10,9.5",
            "2,7,3,-0,1e-300,0.33333333333333331,1e+22,nan,4,false,,",
            "3,4,5,1e+22,-0,nan,0.33333333333333331,1e-300,2,true,-inf,inf",
        ]

    def test_reader_rejects_missing_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("cycle,step\n0,1\n")
        with pytest.raises(ConfigurationError):
            read_trace_csv(path)


@pytest.fixture
def four_instant_path(config_path):
    """The default scenario cut to four dispatch instants from hour 4."""
    doc = yaml.safe_load(config_path.read_text())
    doc["dispatch"].update(start_hours=4.0, end_hours=4.05)
    config_path.write_text(yaml.safe_dump(doc))
    return config_path


class TestTraceDigests:
    """trace.csv of short runs, pinned byte for byte by its sha256."""

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (["--verbose-trace"],
             "64967b3a3812734a7c7d750b3b461721f114e733a40d6b26229e16d05663c158"),
            ([],
             "f7ef53c2f19e9d6ced1f7d72a9c1153cf4d99e3b5c62926e9b8ef7c9a6e5e8a5"),
            (["--cycle-only", "--at-hours", "4", "--verbose-trace"],
             "c968327e2041c1158c8f200f289c1f52254ae70f8842f60107da40d9f5dee657"),
        ],
        ids=["verbose-day", "checkpoint-day", "verbose-cycle"],
    )
    def test_trace_digest(self, tmp_path, four_instant_path, flags, digest):
        out = tmp_path / "out"
        code = main(["run", "--config", str(four_instant_path), "--out-dir", str(out), *flags])
        assert code == 0
        assert hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest() == digest


class TestResultsDigests:
    """results.json of short runs, pinned by its sha256 on every interpreter.

    Its totals are left-to-right sums; ``sum()`` of floats rounds
    differently from Python 3.12 on, which these pins catch in CI.
    """

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "93b16bbd4aa788b67c048842bec3270f2e3b96828781346d8066dbae9868968d"),
            (["--cycle-only", "--at-hours", "4.05"],
             "5ad4f379eda58528917d918d74175cdcf8183eb8e711ed6f9c5f5108678412ad"),
        ],
        ids=["checkpoint-day", "cycle"],
    )
    def test_results_digest(self, tmp_path, four_instant_path, flags, digest):
        out = tmp_path / "out"
        code = main(["run", "--config", str(four_instant_path), "--out-dir", str(out), *flags])
        assert code == 0
        assert hashlib.sha256((out / "results.json").read_bytes()).hexdigest() == digest

    def test_budget_boundary_digest(self, tmp_path, config_path):
        # the day's first seven instants: instant 0 overruns in 76 steps, and
        # instants 5 and 6 take exactly the 60 steps a 60 s period covers
        doc = yaml.safe_load(config_path.read_text())
        doc["dispatch"]["end_hours"] = 0.1
        config_path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out-dir", str(out)]) == 0
        digest = "170edd7bf431f6f1436176be87b26188bc4f5d93dfe4e1f822ac2750df4d1fd6"
        assert hashlib.sha256((out / "results.json").read_bytes()).hexdigest() == digest


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

    @pytest.mark.parametrize("flags", [["--check-feasibility"], []], ids=["check", "day"])
    def test_dispatch_period_that_does_not_divide_the_day_runs(
        self, tmp_path, config_path, flags
    ):
        # 6000 s instants fall at 0, 1.67, ..., 6.67 h; an instant at 8.33 h
        # would lie past the renewable profile
        code = main([
            "run", "--config", str(config_path), "--dispatch-period", "6000",
            "--out-dir", str(tmp_path), *flags,
        ])
        assert code == 0
        if not flags:
            results = json.loads((tmp_path / "results.json").read_text())
            assert results["cycles"] == 5

    def test_check_feasibility_rejects_excess_demand(self, config_path, capsys):
        code = main([
            "run", "--config", str(config_path), "--check-feasibility",
            "--demand", "9000",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "infeasible" in out

    @pytest.fixture
    def static_config(self, tmp_path):
        """Two dispatchable units: every instant is feasible, even a non-finite one."""
        doc = default_config().to_dict()
        doc["graph"] = {"nodes": [1, 3], "edges": [[1, 3]]}
        doc.pop("diameter")
        doc["fleet"] = [u for u in doc["fleet"] if u["id"] in (1, 3)]
        doc["demand"] = {"watts": 1000.0, "circulation": [1]}
        path = tmp_path / "static.yaml"
        path.write_text(yaml.safe_dump(doc))
        return path

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flags", [[], ["--check-feasibility"]], ids=["run", "check"])
    def test_non_finite_at_hours_exits_two(
        self, tmp_path, static_config, capsys, value, flags
    ):
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(static_config), "--cycle-only", f"--at-hours={value}",
            "--out-dir", str(out), *flags,
        ])
        assert code == 2
        assert "--at-hours must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--check-feasibility"]], ids=["run", "check"])
    def test_at_hours_without_cycle_only_exits_two(self, tmp_path, config_path, capsys, flags):
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(config_path), "--at-hours", "4", "--out-dir", str(out),
            *flags,
        ])
        assert code == 2
        assert "--at-hours needs --cycle-only" in capsys.readouterr().err
        assert not out.exists()

    def test_cycle_only_defaults_to_hour_zero(self, tmp_path, static_config, capsys):
        code = main(["run", "--config", str(static_config), "--cycle-only", "--check-feasibility"])
        assert code == 0
        assert "feasible at all 1 instants" in capsys.readouterr().out
        code = main([
            "run", "--config", str(static_config), "--cycle-only", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert json.loads((tmp_path / "results.json").read_text())["at_hours"] == 0.0

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("nonsense: true\n")
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("seed: 0\n", "seed: 0\nseed: 5\n", r"duplicate key 'seed' on line 3"),
            (
                "  nodes: [1, 2, 3, 4, 5, 6]\n",
                '  nodes: [1, 2, 3, 4, 5, 6]\n  delay_bounds: {"1-2": 2, "1-2": 3}\n',
                r"duplicate key '1-2' on line 8",
            ),
            ("seed: 0\n", "seed: 0\n? [1, 2]\n: 3\n", "found unhashable key"),
        ],
        ids=["top-level", "nested", "unhashable"],
    )
    def test_a_repeated_or_unhashable_key_exits_two(self, tmp_path, capsys, old, new, message):
        # the last value of a repeated key must not win silently
        shipped = Path(__file__).parent.parent / "configs" / "six_lis.yaml"
        path = tmp_path / "scenario.yaml"
        path.write_text(shipped.read_text().replace(old, new, 1))
        code = main(["run", "--config", str(path), "--check-feasibility"])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(path) in err
        assert re.search(message, err), err

    def test_a_key_merged_in_may_be_written_again(self, tmp_path):
        # a YAML merge (<<) is a default the mapping overrides, not a repeat
        shipped = Path(__file__).parent.parent / "configs" / "six_lis.yaml"
        path = tmp_path / "scenario.yaml"
        text = shipped.read_text().replace("  - id: 5\n", "  - &five\n    id: 5\n", 1)
        text = text.replace(
            "  - id: 6\n    kind: non_res\n    pi_min: 0.0\n", "  - <<: *five\n    id: 6\n", 1
        )
        path.write_text(text)
        assert "<<" in text
        assert ScenarioConfig.load(path).to_dict() == default_config().to_dict()

    @pytest.mark.parametrize("kind", ["missing-file", "directory", "not-utf-8"])
    @pytest.mark.parametrize("flags", [[], ["--check-feasibility"]], ids=["day", "check"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, kind, flags):
        path = tmp_path / "scenario.yaml"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf-8":
            path.write_bytes(b"name: caf\xe9\n")
        code = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(path) in err

    @pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "below-a-file"])
    def test_unusable_out_dir_exits_two(self, tmp_path, config_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / below if below else blocker
        code = main([
            "run", "--config", str(config_path), "--cycle-only", "--at-hours", "4",
            "--out-dir", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(out) in err

    @pytest.mark.parametrize("name", ["trace.csv", "results.json", "summary.txt"])
    @pytest.mark.parametrize(
        "flags", [[], ["--cycle-only", "--at-hours", "4"]], ids=["day", "cycle"]
    )
    def test_output_file_taken_by_a_directory_exits_two(
        self, tmp_path, four_instant_path, capsys, name, flags
    ):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code = main(["run", "--config", str(four_instant_path), "--out-dir", str(out), *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err and str(out) in captured.err
        assert captured.out == ""  # the summary is printed only once all three are written

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["dispatch"].__setitem__("end_hours", 9.0), "unit 2's profile"),
            (lambda doc: doc["demand"].update(shape=[[0, 7000], [6, 7000]], watts=None),
             "the demand shape"),
        ],
        ids=["profile", "demand-shape"],
    )
    @pytest.mark.parametrize(
        "flags", [[], ["--cycle-only", "--at-hours", "4"]], ids=["day", "cycle"]
    )
    def test_day_past_a_profile_exits_two_before_any_output(
        self, tmp_path, config_path, capsys, edit, message, flags
    ):
        doc = yaml.safe_load(config_path.read_text())
        edit(doc)
        config_path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out-dir", str(out), *flags])
        assert code == 2
        assert f"lies outside {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_rho_exits_two(self, tmp_path, config_path, capsys):
        # rho 0 never freezes, so a dispatch run must not start with it
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--rho", "0", "--out-dir", str(out)])
        assert code == 2
        assert "rho must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_day_without_a_feasible_instant_exits_zero(self, tmp_path, config_path):
        # every instant is flagged and holds the previous (zero) commands
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(config_path), "--demand", "99999", "--out-dir", str(out),
        ])
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["infeasible_cycles"] == results["cycles"] == 481
        assert results["max_total_deviation"] is None
        assert {c["total_command"] for c in results["per_cycle"]} == {0.0}
        assert read_trace_csv(out / "trace.csv") == []
        assert "no feasible instants" in (out / "summary.txt").read_text()

    def test_a_run_that_breaks_an_invariant_exits_one(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InvariantError("mass leak at step 7")

        monkeypatch.setattr("lisnet.scenario.run_cycle", broken)
        code = main(["run", "--cycle-only", "--out-dir", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "run failed: mass leak at step 7\n"

    @pytest.mark.parametrize("flags", [[], ["--cycle-only"]], ids=["day", "cycle"])
    def test_a_command_outside_its_budget_exits_one(self, tmp_path, capsys, flags):
        # a one-instant day on two units: the stopping rule freezes with unit 1
        # at 184.47 W, 1.553 rho spans from the closed form's 200 W
        doc = {
            "name": "two-units",
            "rho": 0.05,
            "tau_bar": 3,
            "graph": {"nodes": [1, 2], "edges": [[1, 2]]},
            "delay": {"model": "fixed", "fixed_delays": {"1->2": 2, "2->1": 3}},
            "demand": {"watts": 300.0, "circulation": [2]},
            "fleet": [
                {"id": 1, "kind": "non_res", "pi_min": 0.0, "pi_max": 200.0},
                {"id": 2, "kind": "non_res", "pi_min": 0.0, "pi_max": 100.0},
            ],
        }
        path = tmp_path / "two-units.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out-dir", str(out), *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("run failed: node 1: command 184.47221263104555 is")
        assert list(out.iterdir()) == []  # no trace.csv, results.json or summary.txt

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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.__setitem__("seed", 1.7),
            lambda doc: doc.__setitem__("tau_bar", 2.9),
            lambda doc: doc.__setitem__("diameter", 3.5),
            lambda doc: doc["graph"].__setitem__("delay_bounds", {"1-2": 1.5}),
            lambda doc: doc.__setitem__(
                "delay", {"model": "fixed", "fixed_delays": {"1->2": 0.5}}
            ),
            lambda doc: doc["graph"]["nodes"].__setitem__(0, 1.5),
            lambda doc: doc["graph"]["edges"][0].__setitem__(1, 2.5),
        ],
        ids=["seed", "tau-bar", "diameter", "delay-bound", "fixed-delay", "node-id", "edge-end"],
    )
    def test_non_integral_integer_field_is_a_configuration_error(
        self, tmp_path, config_path, capsys, edit
    ):
        doc = yaml.safe_load(config_path.read_text())
        doc["tau_bar"] = 3.0  # an integral float is still an integer
        assert ScenarioConfig.from_dict(doc).delay.tau_bar == 3
        edit(doc)
        config_path.write_text(yaml.safe_dump(doc))
        code = main(["run", "--config", str(config_path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.__setitem__("rho", "abc"), "rho must be a number"),
            (lambda doc: doc["demand"].__setitem__("watts", "lots"), "watts must be a number"),
            (lambda doc: doc["dispatch"].__setitem__("epsilon", "x"), "epsilon must be a number"),
            (lambda doc: doc["graph"]["edges"].__setitem__(0, [1]), "entries must be pairs"),
            (lambda doc: doc["fleet"][0].pop("id"), "missing required key 'id'"),
            (lambda doc: doc.__setitem__("fleet", 5), "fleet must be a list"),
            (lambda doc: doc.__setitem__("graph", 5), "graph must be a mapping"),
            (lambda doc: doc["graph"].pop("nodes"), "graph nodes must be a list"),
            (lambda doc: doc["graph"]["nodes"].append(1), "duplicate node ids"),
            (
                lambda doc: doc["fleet"][1].__setitem__("profile", [[0, 0], [3]]),
                "profile entries must be pairs",
            ),
            (
                lambda doc: doc.__setitem__(
                    "delay", {"model": "stochastic", "probabilities": ["a", 1, 1, 1]}
                ),
                "delay probabilities must be numbers",
            ),
            (
                lambda doc: doc.__setitem__("output", {"directory": 5}),
                "directory must be a string",
            ),
            (lambda doc: doc.__setitem__("seed", True), "seed must be an integer"),
            (
                lambda doc: doc.__setitem__(
                    "delay", {"model": "fixed", "probabilities": [1, 1, 1, 1]}
                ),
                "delay probabilities need the stochastic model",
            ),
            (
                lambda doc: doc.__setitem__(
                    "delay", {"model": "stochastic", "fixed_delays": {"1->2": 1}}
                ),
                "fixed delays need the fixed model",
            ),
            (
                lambda doc: doc.__setitem__(
                    "delay", {"model": "stochastic", "probabilities": [0, 0, 0, 10**400]}
                ),
                "positive, finite total",
            ),
            (
                lambda doc: doc.__setitem__(
                    "delay", {"model": "stochastic", "probabilities": [1e308, 1e308, 0, 0]}
                ),
                "positive, finite total",
            ),
            (
                lambda doc: doc["graph"].__setitem__("delay_bounds", {"1-2": 2, "2-1": 0}),
                r"edge \(1, 2\) has two delay bounds",
            ),
            (
                lambda doc: doc["graph"].__setitem__("delay_bounds", {"1-2": 2, "1 - 2": 0}),
                r"delay_bounds key '1-2' names \(1, 2\) again",
            ),
            (
                lambda doc: doc["graph"].__setitem__("delay_bounds", {"2-5": 1}),
                "delay_bounds key '2-5' is not a graph edge",
            ),
            (
                lambda doc: doc["graph"].__setitem__("delay_bounds", {"3-3": 1}),
                "delay_bounds key '3-3' is not a graph edge",
            ),
            (
                lambda doc: doc["graph"].__setitem__("delay_bounds", {"2-1": -1}),
                r"negative delay bound on edge \(1, 2\)",
            ),
            (
                lambda doc: doc.__setitem__(
                    "delay", {"model": "fixed", "fixed_delays": {"1->4": 1}}
                ),
                "fixed_delays key '1->4' is not a graph edge",
            ),
            (
                lambda doc: doc.__setitem__(
                    "delay", {"model": "fixed", "fixed_delays": {"1->1": 1}}
                ),
                "fixed_delays key '1->1' is not a graph edge",
            ),
            (
                lambda doc: doc.__setitem__(
                    "delay", {"model": "fixed", "fixed_delays": {"1->9": 1}}
                ),
                "fixed_delays key '1->9' is not a graph edge",
            ),
            (
                lambda doc: doc.__setitem__(
                    "delay", {"model": "fixed", "fixed_delays": {"1->2": 1, "1 -> 2": 2}}
                ),
                r"fixed_delays key '1->2' names \(1, 2\) again",
            ),
            (lambda doc: doc.__setitem__("diameter", 0), "diameter must be at least 1, got 0"),
            (lambda doc: doc.__setitem__("diameter", -4), "diameter must be at least 1, got -4"),
            (
                lambda doc: doc["fleet"][1].update(pi_min=0.0, pi_max=1000.0),
                "unit 2: a res unit takes no pi_min or pi_max",
            ),
            (
                lambda doc: doc["fleet"][0].__setitem__("profile", [[0.0, 0.0], [8.0, 0.0]]),
                "unit 1: a non_res unit takes no profile",
            ),
            (
                lambda doc: doc["fleet"][0].__setitem__("lag_seconds", 5.0),
                "unit 1: lag_seconds needs tracking: lag",
            ),
            # a quoted number is a string, never converted
            (lambda doc: doc.__setitem__("seed", "7"), "seed must be an integer, got '7'"),
            (lambda doc: doc.__setitem__("rho", "0.05"), r"rho must be a number, got '0\.05'"),
            (lambda doc: doc.__setitem__("tau_bar", "2"), "tau_bar must be an integer, got '2'"),
            (
                lambda doc: doc["graph"]["nodes"].__setitem__(0, "1"),
                "node id must be an integer, got '1'",
            ),
            (
                lambda doc: doc["graph"].__setitem__("delay_bounds", {"1-+2": 1}),
                r"cannot parse edge '1-\+2'",
            ),
            (
                lambda doc: doc["graph"]["edges"].append([6, 1]),
                r"graph edge \(6, 1\) is listed twice",
            ),
            (
                lambda doc: doc["demand"].__setitem__("circulation", [2, 2]),
                "circulation node 2 is listed twice",
            ),
        ],
        ids=[
            "rho", "demand-watts", "epsilon", "short-edge", "fleet-id-missing", "fleet-scalar",
            "graph-scalar", "graph-nodes-missing", "duplicate-node", "profile-point",
            "delay-probability", "output-directory", "seed-bool", "fixed-model-probabilities",
            "stochastic-model-fixed-delays", "probability-beyond-float",
            "probability-total-infinite", "edge-bounded-twice", "delay-bound-key-twice",
            "delay-bound-non-edge", "delay-bound-self-link",
            "delay-bound-negative", "fixed-delay-non-edge", "fixed-delay-self-link",
            "fixed-delay-unknown-node", "fixed-delay-link-twice", "diameter-zero",
            "diameter-negative", "res-with-bounds", "non-res-with-profile",
            "lag-seconds-without-lag", "quoted-seed", "quoted-rho", "quoted-tau-bar",
            "quoted-node-id", "delay-bound-signed-end", "edge-twice", "circulation-node-twice",
        ],
    )
    def test_malformed_value_or_shape_is_a_configuration_error(
        self, config_path, capsys, edit, message
    ):
        doc = yaml.safe_load(config_path.read_text())
        edit(doc)
        config_path.write_text(yaml.safe_dump(doc))
        code = main(["run", "--config", str(config_path), "--check-feasibility"])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert re.search(message, err), err

    @pytest.mark.parametrize(
        "flags",
        [["--check-feasibility"], ["--cycle-only"], ["--cycle-only", "--at-hours", "4"], []],
        ids=["check-feasibility", "cycle-at-0h", "cycle-at-4h", "day"],
    )
    def test_fixed_delay_above_its_edge_bound_fails_at_every_entry_point(
        self, tmp_path, config_path, capsys, flags
    ):
        # at 0 h unit 2 sits out, so no cycle uses the edge 1-2; the scenario
        # is malformed all the same
        doc = yaml.safe_load(config_path.read_text())
        doc["delay"] = {"model": "fixed", "fixed_delays": {"1->2": 3}}
        doc["graph"]["delay_bounds"] = {"1-2": 1}
        config_path.write_text(yaml.safe_dump(doc))
        code = main(["run", "--config", str(config_path), "--out-dir", str(tmp_path), *flags])
        assert code == 2
        assert "fixed delay 3 on (1, 2) exceeds the edge bound 1" in capsys.readouterr().err

    def test_delay_override_keeps_the_delay_probabilities(
        self, tmp_path, config_path, capsys
    ):
        doc = yaml.safe_load(config_path.read_text())
        doc["delay"] = {"model": "stochastic", "probabilities": [0, 0, 0, 1]}
        config_path.write_text(yaml.safe_dump(doc))
        runs = []
        for name, flags in (("plain", []), ("same-bound", ["--tau-bar", "3"])):
            out = tmp_path / name
            code = main([
                "run", "--config", str(config_path), "--cycle-only", "--at-hours", "4",
                "--out-dir", str(out), *flags,
            ])
            assert code == 0
            runs.append(json.loads((out / "results.json").read_text()))
        assert runs[0]["iterations"] == runs[1]["iterations"]
        assert runs[1]["scenario"]["delay"]["probabilities"] == [0, 0, 0, 1]
        capsys.readouterr()
        code = main([
            "run", "--config", str(config_path), "--cycle-only", "--at-hours", "4",
            "--out-dir", str(tmp_path / "new-bound"), "--tau-bar", "2",
        ])
        assert code == 2
        assert "delay probabilities" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, value, flags, key, expected",
        [
            ("delay", {"model": "stochastic", "probabilities": [0, 0, 0, 1]},
             ["--delay-model", "fixed"], "delay", {"model": "fixed", "fixed_delays": {}}),
            ("delay", {"model": "fixed", "fixed_delays": {"1->2": 2}},
             ["--delay-model", "stochastic"], "delay", {"model": "stochastic"}),
            ("delay", {"model": "fixed", "fixed_delays": {"1->2": 2}},
             ["--delay-model", "fixed", "--tau-bar", "2"], "delay",
             {"model": "fixed", "fixed_delays": {"1->2": 2}}),
            ("demand", {"shape": [[0, 6000], [8, 8000]], "circulation": [2]},
             ["--demand", "6500"], "demand", {"watts": 6500.0, "circulation": [2]}),
            ("graph", {"nodes": [1, 2, 3, 4, 5, 6],
                       "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]],
                       "delay_bounds": {"2-1": 1}},
             ["--tau-bar", "2", "--seed", "4"], "graph",
             {"nodes": [1, 2, 3, 4, 5, 6],
              "edges": [[1, 2], [1, 6], [2, 3], [3, 4], [4, 5], [5, 6]],
              "delay_bounds": {"1-2": 1}}),
        ],
        ids=["to-fixed", "to-stochastic", "same-model", "demand-shape", "bounds-kept"],
    )
    def test_override_flags_edit_the_scenario_document(
        self, tmp_path, config_path, section, value, flags, key, expected
    ):
        doc = yaml.safe_load(config_path.read_text())
        doc[section] = value
        config_path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(config_path), "--cycle-only", "--at-hours", "4",
            "--out-dir", str(out), *flags,
        ])
        assert code == 0
        assert json.loads((out / "results.json").read_text())["scenario"][key] == expected

    def test_byte_identical_reruns(self, tmp_path, config_path):
        # a run with another seed in between: no state outlives a run
        outs = []
        for name, seed in (("a", "42"), ("other", "7"), ("b", "42")):
            out = tmp_path / name
            code = main([
                "run", "--config", str(config_path), "--cycle-only",
                "--at-hours", "2", "--seed", seed, "--out-dir", str(out),
                "--verbose-trace",
            ])
            assert code == 0
            outs.append(((out / "trace.csv").read_bytes(), (out / "results.json").read_bytes()))
        assert outs[0] == outs[2]
        assert outs[0] != outs[1]

    def test_importing_the_cli_loads_no_numpy(self):
        # the benchmark gates set-up time and peak memory, which numpy's
        # import would raise by more than they allow; YAML is read only
        # for --config
        probe = (
            "import sys, lisnet.cli; lisnet.cli.main(['run', '--check-feasibility']); "
            "print('numpy' in sys.modules, 'yaml' in sys.modules)"
        )
        path = [str(Path(lisnet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert out.stdout.splitlines()[-1] == "False False"

    def test_out_dir_env_fallback(self, tmp_path, config_path, monkeypatch):
        target = tmp_path / "via-env"
        monkeypatch.setenv("LISNET_OUT_DIR", str(target))
        code = main([
            "run", "--config", str(config_path), "--cycle-only", "--at-hours", "4",
        ])
        assert code == 0
        assert (target / "trace.csv").exists()


def without_renewables() -> tuple:
    """The built-in fleet with unit 2 dispatchable, so no profile bounds the day."""
    return tuple(
        replace(u, kind="non_res", profile=None, pi_min=0.0, pi_max=1000.0)
        if u.kind == "res" else u
        for u in default_config().fleet
    )


class TestScenarioValue:
    """A scenario built with ``dataclasses.replace`` meets the reader's rules."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"circulation": frozenset({99})}, r"circulation nodes \[99\] are not in the graph"),
            ({"circulation": frozenset()}, "circulation must name at least one node"),
            ({"graph": Graph.cycle(5)}, "fleet ids must match graph nodes"),
            ({"rho": 0.0}, "rho must be finite and positive"),
            ({"diameter_bound": 0}, "diameter must be at least 1, got 0"),
            ({"start_hours": 5.0, "end_hours": 4.0}, "day must be finite and end at or after"),
            ({"end_hours": 9.0},
             re.escape("day [0.0, 9.0] h lies outside unit 2's profile [0.0, 8.0] h")),
            ({"demand": PowerProfile(((1.0, 7000.0), (8.0, 7000.0)))},
             re.escape("day [0.0, 8.0] h lies outside the demand shape [1.0, 8.0] h")),
            # the count of 60 s periods in the day overflows to infinity
            ({"fleet": without_renewables(), "end_hours": 1.0e308},
             re.escape("day [0.0, 1e+308] h cannot be counted in dispatch periods of 60.0 s")),
            # a period of 5e-324 s is 0.0 h
            ({"dispatch_period": 5e-324, "consensus_period": 5e-324},
             re.escape("day [0.0, 8.0] h cannot be counted in dispatch periods of 5e-324 s")),
        ],
        ids=["circulation-outside", "circulation-empty", "fleet-graph", "rho-zero",
             "diameter-zero", "day-backwards", "day-past-profile", "day-past-demand-shape",
             "day-of-too-many-periods", "period-of-zero-hours"],
    )
    def test_broken_cross_field_rule_raises(self, changes, message):
        with pytest.raises(ConfigurationError, match=message):
            replace(default_config(), **changes)

    @pytest.mark.parametrize(
        "fleet, dispatch, flags",
        [
            (without_renewables(), {"end_hours": 1.0e308}, []),
            (default_config().fleet, {"consensus_period": 5e-324},
             ["--dispatch-period", "5e-324"]),
        ],
        ids=["day-of-too-many-periods", "period-of-zero-hours"],
    )
    def test_a_day_that_cannot_be_stepped_exits_two(
        self, tmp_path, capsys, fleet, dispatch, flags
    ):
        doc = replace(default_config(), fleet=fleet).to_dict()
        doc["dispatch"].update(dispatch)
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out-dir", str(out), *flags])
        assert code == 2
        assert "cannot be counted in dispatch periods" in capsys.readouterr().err
        assert not out.exists()

    def test_a_diameter_bound_past_the_budget_is_rejected_at_load(self, tmp_path):
        # a bound of 1e9 puts the first checkpoint at step 4,000,000,003: every
        # cycle would run for hours before any node could freeze
        shipped = Path(__file__).parent.parent / "configs" / "six_lis.yaml"
        path = tmp_path / "scenario.yaml"
        path.write_text(shipped.read_text().replace("diameter: 3\n", "diameter: 1000000000\n", 1))
        with pytest.raises(ConfigurationError, match="first checkpoint, at step 4000000003,"):
            ScenarioConfig.load(path)

    @pytest.mark.parametrize(
        "diameter, flags, step",
        [("1000000000", [], 4000000003), ("3", ["--tau-bar", "40"], 163)],
        ids=["diameter-1e9", "tau-bar-40"],
    )
    def test_a_first_checkpoint_past_the_budget_exits_two(
        self, tmp_path, capsys, diameter, flags, step
    ):
        shipped = Path(__file__).parent.parent / "configs" / "six_lis.yaml"
        path = tmp_path / "scenario.yaml"
        path.write_text(shipped.read_text().replace("diameter: 3\n", f"diameter: {diameter}\n", 1))
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out-dir", str(out), *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"the first checkpoint, at step {step}, lies past the dispatch budget of 60.0 steps"
        ) in captured.err
        assert not out.exists()

    def test_a_budget_beyond_float_range_flags_no_overrun(self, tmp_path):
        # 1e306 s of 0.001 s iterations is more than a float holds
        shipped = Path(__file__).parent.parent / "configs" / "six_lis.yaml"
        path = tmp_path / "scenario.yaml"
        path.write_text(shipped.read_text().replace(
            "consensus_period: 1.0\n", "consensus_period: 0.001\n", 1
        ))
        code = main([
            "run", "--config", str(path), "--dispatch-period", "1e306", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        results = json.loads((tmp_path / "results.json").read_text())
        assert results["scenario"]["dispatch"]["consensus_period"] == 0.001
        assert (results["cycles"], results["budget_exceeded_cycles"]) == (1, 0)

    def test_replaced_value_keeps_its_document_form(self):
        config = default_config()
        shorter = replace(config, end_hours=1.0)
        assert type(shorter) is ScenarioConfig
        expected = config.to_dict()
        expected["dispatch"]["end_hours"] = 1.0
        assert shorter.to_dict() == expected

    @pytest.mark.parametrize("period", [60.0, 100.0, 5400.0, 6000.0, 3700.0])
    def test_day_ends_at_the_last_instant_at_or_before_its_end(self, period):
        config = replace(default_config(), dispatch_period=period)
        step = period / 3600.0
        hours = [t for t, _ in day_instants(config)]
        assert len(hours) == math.floor(8.0 / step) + 1
        assert hours == [index * step for index in range(len(hours))]
        assert hours[-1] <= 8.0

    def test_each_instant_takes_the_next_seed_of_the_day_stream(self):
        config = replace(default_config(), seed=5)
        rng = random.Random(5)
        seeds = [seed for _, seed in day_instants(config)]
        assert seeds == [rng.randrange(2**32) for _ in seeds]


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

    @pytest.fixture(scope="class")
    def default_day(self):
        return run_day(default_config())

    @staticmethod
    def assert_cycle_is_the_record(out, record):
        results = json.loads((out / "results.json").read_text())
        assert results["index"] == record.index
        assert results["at_hours"] == record.t_hours
        assert results["commands"] == {str(i): record.commands[i] for i in record.participants}
        assert all(
            record.commands[i] == 0.0 for i in record.commands if i not in record.participants
        )
        assert results["theta"] == record.theta
        assert results["iterations"] == record.iterations
        assert results["total_command"] == record.total_command

    @pytest.mark.parametrize("index", [0, 240, 480], ids=["0h", "4h", "8h"])
    def test_cycle_only_reproduces_the_day_record(self, tmp_path, default_day, index):
        # at 0 h and 8 h unit 2 has no power and sits out
        record = default_day.records[index]
        assert record.feasible and (2 in record.participants) == (index == 240)
        code = main([
            "run", "--cycle-only", "--at-hours", repr(record.t_hours), "--out-dir", str(tmp_path),
        ])
        assert code == 0
        self.assert_cycle_is_the_record(tmp_path, record)
        # every unit tracks instantly, so the cycle's trace rows are the day's too
        prefix = b"%d," % index
        day_lines = b"".join(default_day.trace_chunks).splitlines(keepends=True)
        day_rows = [line for line in day_lines if line.startswith(prefix)]
        assert (tmp_path / "trace.csv").read_bytes().splitlines(keepends=True)[2:] == day_rows

    def test_a_lone_cycle_leaves_a_lag_units_delivered_power_empty(self, tmp_path):
        # the day tracks unit 1 from its previous delivered power; a lone
        # cycle has none, so it claims no delivered power for that unit
        doc = default_config().to_dict()
        doc["fleet"][0].update(tracking="lag", lag_seconds=30.0)
        path = tmp_path / "lag.yaml"
        path.write_text(yaml.safe_dump(doc))
        day = run_day(ScenarioConfig.from_dict(doc))
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(path), "--cycle-only", "--at-hours", "4", "--out-dir", str(out),
        ])
        assert code == 0
        self.assert_cycle_is_the_record(out, day.records[240])
        day_lines = b"".join(day.trace_chunks).splitlines(keepends=True)
        day_rows = [line for line in day_lines if line.startswith(b"240,")]
        cycle_rows = (out / "trace.csv").read_bytes().splitlines(keepends=True)[2:]
        assert len(cycle_rows) == len(day_rows) == 18
        untracked = 0
        for cycle_row, day_row in zip(cycle_rows, day_rows):
            cells, day_cells = cycle_row.split(b","), day_row.split(b",")
            if cells[2] == b"1" and cells[9] == b"true":
                assert cells[-1] == b"\n" and day_cells[-1] != b"\n"
                cells, day_cells = cells[:-1], day_cells[:-1]
                untracked += 1
            assert cells == day_cells
        assert untracked == 1

    def test_cycle_only_reproduces_the_last_record_of_a_short_day(self, tmp_path):
        config = replace(default_config(), dispatch_period=6000.0)
        record = run_day(config).records[-1]
        assert record.t_hours == 6.666666666666667
        code = main([
            "run", "--dispatch-period", "6000", "--cycle-only", "--at-hours", "6.666666666666667",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        self.assert_cycle_is_the_record(tmp_path, record)

    def test_seed_zero_cycle_at_four_hours_is_the_day_record(self, tmp_path, capsys):
        code = main([
            "run", "--seed", "0", "--cycle-only", "--at-hours", "4", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        results = json.loads((tmp_path / "results.json").read_text())
        assert results["total_command"] == 6999.944722423164
        assert (results["theta"], results["iterations"], results["index"]) == (3, 45, 240)
        assert "instant 240 of the seed-0 day" in capsys.readouterr().out

    def test_an_hour_off_an_instant_by_float_rounding_names_it(self, tmp_path):
        # the fourth 180 s instant is 3 * (180 / 3600) = 0.15000000000000002 h
        code = main([
            "run", "--dispatch-period", "180", "--cycle-only", "--at-hours", "0.15",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        results = json.loads((tmp_path / "results.json").read_text())
        assert (results["index"], results["at_hours"]) == (3, 0.15000000000000002)

    @pytest.mark.parametrize("flags", [[], ["--check-feasibility"]], ids=["run", "check"])
    def test_an_hour_between_instants_exits_two(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        code = main([
            "run", "--cycle-only", "--at-hours", "4.01", "--out-dir", str(out), *flags,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "4.01 h is not a dispatch instant of the day; "
            "nearest instants: 4.0 h, 4.016666666666667 h"
        ) in captured.err
        assert not out.exists()


class TestReplicateCommand:
    def test_fig1_suite_passes(self):
        passed, lines = replicate_fig1(seed=0)
        assert passed
        assert any("naive baseline" in line for line in lines)

    def test_oracle_sweep_small_count(self):
        passed, lines = replicate_oracle_sweep(seed=1, count=25)
        assert passed

    def test_oracle_sweep_counts_a_failed_instance_and_exits_one(self, capsys):
        code = main(["replicate", "oracle-sweep", "--seed", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert (
            "[FAIL] cycles pass run_cycle's checks: 1 of 200 instances "
            "failed; first at instance 185: node 1: command 1716.616694317539 is 1.227"
        ) in captured.out
        assert "run failed" not in captured.out
        assert captured.err == ""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the stopping rule certifies a gap below rho while shares in flight "
        "carry older quotients: instance 185 ends 1.227 rho spans from the closed form",
    )
    def test_oracle_sweep_passes_on_seed_two(self):
        passed, lines = replicate_oracle_sweep(seed=2)
        assert passed, lines

    def test_cli_entry_point(self, capsys):
        code = main(["replicate", "fig1-misconvergence"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_six_lis_day_through_the_entry_point(self, capsys):
        code = main(["replicate", "six-lis-day"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_oracle_sweep_without_instances_exits_two(self, count, capsys):
        code = main(["replicate", "oracle-sweep", "--count", count])
        assert code == 2
        assert "at least 1 instance" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["fig1-misconvergence", "six-lis-day"])
    @pytest.mark.parametrize("count", ["-5", "10"])
    def test_count_on_a_suite_without_instances_exits_two(self, suite, count, capsys):
        code = main(["replicate", suite, "--count", count])
        assert code == 2
        assert "--count applies to oracle-sweep only" in capsys.readouterr().err

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["replicate", "not-a-suite"])


class TestCollectorPaused:
    """Every command runs without the cyclic collector and leaves it as it found it."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["run", "--check-feasibility"], 0),
            (["run", "--cycle-only"], 1),
            (["run", "--at-hours", "4"], 2),
        ],
        ids=["exit-0", "exit-1", "exit-2"],
    )
    def test_main_leaves_the_collector_as_it_found_it(
        self, tmp_path, monkeypatch, capsys, collector_was, argv, code
    ):
        def broken(*args, **kwargs):
            assert not gc.isenabled()
            raise InvariantError("mass leak at step 7")

        monkeypatch.setattr("lisnet.scenario.run_cycle", broken)
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == code
        assert gc.isenabled() is collector_was

    def test_the_garbage_a_run_leaves_does_not_grow_with_the_day(self, tmp_path, capsys):
        paths = {}
        for hours in (1.0, 8.0):
            paths[hours] = tmp_path / f"{hours:g}h.yaml"
            paths[hours].write_text(
                yaml.safe_dump(replace(default_config(), end_hours=hours).to_dict())
            )

        def run(hours):
            out = tmp_path / f"out-{hours:g}h"
            assert main(["run", "--config", str(paths[hours]), "--out-dir", str(out)]) == 0

        run(1.0)  # lazy imports and caches fill once
        one_hour = cyclic_garbage(lambda: run(1.0))
        eight_hours = cyclic_garbage(lambda: run(8.0))
        assert one_hour == eight_hours
