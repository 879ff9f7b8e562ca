"""Tests for the declarative spec layer and the registered index.

Covers the four contracts the redesign is accountable for: parameter-schema
validation, ``--set`` override round-trips, deterministic grid expansion, and
the unified bench report schema (including every BENCH_*.json committed at
the repository root).  CLI smoke tests assert that every registered
experiment and bench id parses and dry-runs through ``spot-demo``.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.exceptions import ConfigurationError
from repro.eval import (
    ALL_EXPERIMENTS,
    BENCHES,
    BENCH_SCHEMA,
    EXPERIMENTS,
    bench_stamp,
    build_bench_payload,
    get_bench,
    get_experiment,
    load_and_validate_bench_report,
    registry_table,
    validate_bench_payload,
)
from repro.eval.experiments import ExperimentReport
from repro.eval.spec import Grid, GridAxis, Param, ParamSchema

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def schema():
    return ParamSchema(params=(
        Param(name="n_training", type="int", default=500),
        Param(name="rate", type="float", default=0.03),
        Param(name="engine", type="str", default="python",
              choices=("python", "vectorized")),
        Param(name="verbose", type="bool", default=False),
        Param(name="dims", type="int_list", default=(10, 30)),
        Param(name="rates", type="float_list", default=(0.01, 0.1)),
        Param(name="stop_after", type="int", default=None, optional=True),
    ))


class TestParamSchema:
    def test_defaults_round_trip(self, schema):
        resolved = schema.resolve({})
        assert resolved["n_training"] == 500
        assert resolved["dims"] == (10, 30)
        assert resolved["stop_after"] is None

    def test_unknown_parameter_is_rejected(self, schema):
        with pytest.raises(ConfigurationError):
            schema.resolve({"nonexistent": 1})

    def test_wrong_types_are_rejected(self, schema):
        with pytest.raises(ConfigurationError):
            schema.resolve({"n_training": "lots"})
        with pytest.raises(ConfigurationError):
            schema.resolve({"verbose": 1})
        with pytest.raises(ConfigurationError):
            schema.resolve({"dims": 10})
        with pytest.raises(ConfigurationError):
            schema.resolve({"engine": "cuda"})

    def test_non_optional_rejects_none(self, schema):
        with pytest.raises(ConfigurationError):
            schema.resolve({"n_training": None})

    def test_float_accepts_int_and_coerces(self, schema):
        assert schema.resolve({"rate": 1})["rate"] == 1.0

    def test_duplicate_names_are_rejected(self):
        with pytest.raises(ConfigurationError):
            ParamSchema(params=(
                Param(name="x", type="int", default=1),
                Param(name="x", type="int", default=2),
            ))

    def test_set_override_round_trip(self, schema):
        overrides = schema.apply_set([
            "n_training=300", "rate=0.2", "engine=vectorized", "verbose=true",
            "dims=8,16,32", "rates=0.5", "stop_after=none",
        ])
        assert overrides == {
            "n_training": 300, "rate": 0.2, "engine": "vectorized",
            "verbose": True, "dims": (8, 16, 32), "rates": (0.5,),
            "stop_after": None,
        }
        # Resolving the parsed overrides reproduces them unchanged.
        resolved = schema.resolve(overrides)
        assert {k: resolved[k] for k in overrides} == overrides

    def test_set_rejects_malformed_and_unknown(self, schema):
        with pytest.raises(ConfigurationError):
            schema.apply_set(["n_training"])
        with pytest.raises(ConfigurationError):
            schema.apply_set(["nonexistent=3"])
        with pytest.raises(ConfigurationError):
            schema.apply_set(["n_training=abc"])


class TestGrid:
    def _grid_schema(self):
        return ParamSchema(params=(
            Param(name="rates", type="float_list", default=(0.1, 0.2)),
            Param(name="periods", type="int_list", default=(0, 100, 200)),
        ))

    def test_expansion_is_deterministic_and_ordered(self):
        grid = Grid(axes=(GridAxis(name="rate", source="rates"),
                          GridAxis(name="period", source="periods")))
        params = self._grid_schema().resolve({})
        cells = grid.expand(params)
        assert cells == grid.expand(params)  # deterministic
        assert len(cells) == 6
        # Declaration order: first axis slowest, last axis fastest.
        assert cells[0] == {"rate": 0.1, "period": 0}
        assert cells[1] == {"rate": 0.1, "period": 100}
        assert cells[3] == {"rate": 0.2, "period": 0}

    def test_empty_axis_is_rejected(self):
        grid = Grid(axes=(GridAxis(name="rate", source="rates"),))
        with pytest.raises(ConfigurationError):
            grid.expand({"rates": ()})

    def test_grid_spec_merges_cell_rows(self):
        from repro.eval.spec import ExperimentSpec

        calls = []

        def cell_runner(*, rate, n):
            calls.append((rate, n))
            return ExperimentReport(experiment_id="CELL", title="t",
                                    rows=({"rate": rate, "n": n},),
                                    notes="cell notes")

        spec = ExperimentSpec(
            id="G1", title="grid test", description="",
            schema=ParamSchema(params=(
                Param(name="rates", type="float_list", default=(0.1, 0.3)),
                Param(name="n", type="int", default=7),
            )),
            runner=cell_runner,
            grid=Grid(axes=(GridAxis(name="rate", source="rates"),)),
        )
        report = spec.run()
        assert report.experiment_id == "G1"
        assert calls == [(0.1, 7), (0.3, 7)]
        assert [row["rate"] for row in report.rows] == [0.1, 0.3]
        assert report.notes == "cell notes"

    def test_grid_axis_must_source_a_list_param(self):
        from repro.eval.spec import ExperimentSpec

        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                id="G2", title="bad", description="",
                schema=ParamSchema(params=(
                    Param(name="rate", type="float", default=0.1),)),
                runner=lambda **kw: None,
                grid=Grid(axes=(GridAxis(name="rate", source="rate"),)),
            )


class TestRegistry:
    def test_every_design_md_experiment_is_registered(self):
        assert set(EXPERIMENTS) == {"F1", "E1", "E2", "E3", "E4", "E5",
                                    "T1", "L1", "L2", "L3", "R1", "R2",
                                    "A1", "A2", "A3", "A4"}
        assert set(ALL_EXPERIMENTS) == set(EXPERIMENTS)

    def test_every_bench_is_registered(self):
        assert set(BENCHES) == {"throughput", "learning", "service",
                                "learning-service", "serving-sweep",
                                "chaos", "rebalance"}

    def test_specs_resolve_their_defaults(self):
        for spec in list(EXPERIMENTS.values()) + list(BENCHES.values()):
            params = spec.resolve({})
            assert set(params) == set(spec.schema.names())
            # Grid specs expand their default cells deterministically.
            assert spec.cells(params) == spec.cells(params)

    def test_bench_config_builders_produce_json_safe_configs(self):
        for spec in BENCHES.values():
            config = spec.config_builder(spec.resolve({}))
            assert isinstance(config, dict) and config
            json.dumps(config)  # must be serialisable as committed

    def test_l3_is_a_grid_over_rate_and_period(self):
        spec = get_experiment("L3")
        assert spec.grid is not None
        assert [axis.name for axis in spec.grid.axes] == \
            ["outlier_rate", "evolution_period"]
        cells = spec.cells(spec.resolve({}))
        assert len(cells) == 9  # 3 rates x 3 periods by default

    def test_unknown_ids_are_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("Z9")
        with pytest.raises(ConfigurationError):
            get_bench("nonexistent")

    def test_registry_table_lists_every_experiment(self):
        table = registry_table(markdown=True)
        for experiment_id in EXPERIMENTS:
            assert f"| {experiment_id} |" in table
        # Every bench artifact is referenced from its experiment's row.
        for spec in BENCHES.values():
            assert spec.default_out in table


class TestBenchPayload:
    def test_stamp_has_git_and_dirty(self):
        stamp = bench_stamp(warn=False)
        assert set(stamp) == {"git", "dirty"}
        assert isinstance(stamp["dirty"], bool)

    def test_stamp_ignores_artifacts_and_history(self, tmp_path):
        import subprocess

        def git(*argv):
            subprocess.run(["git", *argv], cwd=tmp_path, check=True,
                           capture_output=True)

        git("init", "-q")
        git("config", "user.email", "t@t")
        git("config", "user.name", "t")
        (tmp_path / "code.py").write_text("x = 1\n")
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "guard.py").write_text("y = 1\n")
        git("add", "code.py", "benchmarks/guard.py")
        git("commit", "-q", "-m", "seed")
        # Artifact + history churn is what a regeneration sweep produces;
        # neither makes the *code* tree dirty.
        (tmp_path / "BENCH_throughput.json").write_text("{}")
        history = tmp_path / "benchmarks" / "history"
        history.mkdir(parents=True)
        (history / "throughput.jsonl").write_text("{}\n")
        assert bench_stamp(repo_root=tmp_path, warn=False)["dirty"] is False
        (tmp_path / "code.py").write_text("x = 2\n")
        assert bench_stamp(repo_root=tmp_path, warn=False)["dirty"] is True

    def test_build_payload_matches_unified_schema(self):
        spec = get_bench("serving-sweep")
        params = spec.resolve({})
        report = ExperimentReport(
            experiment_id="L3", title="t",
            rows=({"outlier_rate": 0.01, "evolution_period": 0,
                   "decisions_match": True},))
        payload = build_bench_payload(spec, params, report,
                                      stamp={"git": "test", "dirty": False})
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["benchmark"] == "serving_sweep"
        assert payload["grid"] == {"outlier_rate": [0.01, 0.03, 0.08],
                                   "evolution_period": [0, 150, 400]}
        assert validate_bench_payload(payload) == []
        json.dumps(payload)

    def test_validator_reports_problems(self):
        assert validate_bench_payload({}) != []
        problems = validate_bench_payload({
            "schema": "wrong", "benchmark": "", "experiment": "X",
            "workload": "w", "title": "t", "params": {}, "config": {},
            "seed": "nineteen", "provenance": {"dirty": "yes"}, "rows": [],
        })
        assert any("schema" in p for p in problems)
        assert any("seed" in p for p in problems)
        assert any("dirty" in p for p in problems)
        assert any("rows" in p for p in problems)

    def test_committed_bench_reports_validate(self):
        reports = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert reports, "no committed BENCH_*.json found"
        for path in reports:
            problems = load_and_validate_bench_report(path)
            assert problems == [], f"{path.name}: {problems}"


class TestCliSmoke:
    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_every_experiment_id_parses_and_dry_runs(self, capsys,
                                                     experiment_id):
        assert main(["experiment", experiment_id, "--dry-run"]) == 0
        captured = capsys.readouterr().out
        assert f"[{experiment_id}]" in captured
        assert "dry run" in captured

    @pytest.mark.parametrize("bench_id", sorted(BENCHES))
    def test_every_bench_id_parses_and_dry_runs(self, capsys, bench_id):
        assert main(["bench", bench_id, "--dry-run"]) == 0
        captured = capsys.readouterr().out
        assert "dry run" in captured

    def test_set_overrides_reach_the_dry_run(self, capsys):
        assert main(["experiment", "L3", "--dry-run",
                     "--set", "outlier_rates=0.5",
                     "--set", "evolution_periods=7,9"]) == 0
        captured = capsys.readouterr().out
        assert "outlier_rates = (0.5,)" in captured
        assert "grid: 2 cells" in captured

    def test_invalid_set_fails(self):
        with pytest.raises(ConfigurationError):
            main(["experiment", "F1", "--dry-run", "--set", "bogus=1"])

    def test_list_prints_registry(self, capsys):
        assert main(["experiment", "--list"]) == 0
        assert "L3" in capsys.readouterr().out
        assert main(["bench", "--list"]) == 0
        assert "serving-sweep" in capsys.readouterr().out

    def test_generic_bench_keeps_historic_throughput_flags(self):
        from repro.cli import _build_parser
        args = _build_parser().parse_args(
            ["bench", "--dimensions", "10", "30", "--length", "500"])
        assert args.id == "throughput"
        assert args.dimension_settings == [10, 30]
        assert args.length_override == 500

    def test_generic_bench_flag_mismatch_is_rejected(self):
        # --length belongs to the throughput spec; the learning spec spells
        # its detection length differently, so the flag must not silently
        # apply to the wrong parameter.
        with pytest.raises(ConfigurationError):
            main(["bench", "learning", "--length", "500", "--dry-run"])
