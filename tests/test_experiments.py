"""Tests of the experiment harness (reporting, settings, and fast end-to-end runs).

The NN-heavy experiments (Table 1, Fig. 1b, ablations) are exercised with a
drastically reduced settings profile so the suite stays fast; their full
versions are covered by the benchmark harness.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments import (
    ExperimentResult,
    ExperimentSettings,
    ExperimentWorkspace,
    run_experiments,
    run_fig1a,
    run_fig2,
    run_fig4a,
    run_fig4b,
    run_fig5,
    run_table2,
)
from repro.experiments.runner import EXPERIMENTS, main


@pytest.fixture(scope="module")
def fast_workspace():
    settings = ExperimentSettings.fast(
        error_samples=60,
        energy_transitions=80,
        max_alpha=4,
        max_beta=4,
        test_subset=60,
    )
    return ExperimentWorkspace.create(settings)


class TestReporting:
    def test_table_rendering_and_columns(self):
        result = ExperimentResult(
            experiment_id="demo",
            title="Demo",
            columns=["x", "y"],
            rows=[[1, 2.0], [3, 4.5]],
        )
        assert "Demo" in result.to_table()
        assert result.column_values("y") == [2.0, 4.5]
        with pytest.raises(KeyError):
            result.column_values("z")

    def test_json_round_trip(self, tmp_path):
        result = ExperimentResult("demo", "Demo", ["a"], [[np.float64(1.5)]], metadata={"k": 2})
        path = result.save_json(tmp_path / "demo.json")
        import json

        data = json.loads(path.read_text())
        assert data["experiment_id"] == "demo"
        assert data["rows"] == [[1.5]]
        assert data["metadata"] == {"k": 2}

    def test_save_json_creates_parent_directories(self, tmp_path):
        result = ExperimentResult("demo", "Demo", ["a"], [[1]])
        path = result.save_json(tmp_path / "out" / "nested" / "demo.json")
        assert path.exists() and path.parent.name == "nested"

    def test_interrupted_serialization_never_truncates(self, tmp_path):
        """A failing write must leave the previous JSON intact, not a stub."""

        class Unserializable:
            def __str__(self):
                raise RuntimeError("boom mid-serialization")

        path = tmp_path / "demo.json"
        ExperimentResult("demo", "Demo", ["a"], [[1]]).save_json(path)
        original = path.read_text()
        bad = ExperimentResult("demo", "Demo", ["a"], [[Unserializable()]])
        with pytest.raises(RuntimeError, match="boom"):
            bad.save_json(path)
        assert path.read_text() == original
        assert list(path.parent.iterdir()) == [path]  # no temp leftovers

    def test_interrupted_replace_cleans_up_temp_file(self, tmp_path, monkeypatch):
        """Dying between temp write and rename leaves no debris behind."""
        import os as os_module

        def failing_replace(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os_module, "replace", failing_replace)
        path = tmp_path / "demo.json"
        with pytest.raises(OSError, match="interrupted"):
            ExperimentResult("demo", "Demo", ["a"], [[1]]).save_json(path)
        assert list(tmp_path.iterdir()) == []


class TestSettings:
    def test_profiles(self):
        fast = ExperimentSettings.fast()
        full = ExperimentSettings.full()
        assert len(full.table1_networks) > len(fast.table1_networks)
        assert full.error_samples > fast.error_samples
        assert fast.aged_levels_mv == (10.0, 20.0, 30.0, 40.0, 50.0)

    def test_overrides(self):
        settings = ExperimentSettings.fast(seed=5).with_overrides(error_samples=10)
        assert settings.seed == 5 and settings.error_samples == 10

    def test_removed_chunk_size_field_rejected(self):
        """chunk_size is no longer a setting; overriding it is an error."""
        with pytest.raises(TypeError):
            ExperimentSettings.fast().with_overrides(chunk_size=4)


class TestHardwareSideExperiments:
    def test_fig1a_shape(self, fast_workspace):
        result = run_fig1a(workspace=fast_workspace)
        assert result.columns[0] == "delta_vth_mv"
        levels = result.column_values("delta_vth_mv")
        assert levels == list(fast_workspace.settings.aging_levels_mv)
        med = result.column_values("mean_error_distance")
        assert med[0] == 0.0
        assert med[-1] >= med[0]

    def test_fig2_delay_gain(self, fast_workspace):
        result = run_fig2(workspace=fast_workspace)
        assert result.metadata["max_delay_gain_percent"] > 10.0
        for row in result.rows:
            assert row[2] <= 1.0 + 1e-9 and row[3] <= 1.0 + 1e-9

    def test_table2_compressions_meet_timing(self, fast_workspace):
        result = run_table2(workspace=fast_workspace)
        assert len(result.rows) == 5
        ours = result.column_values("normalized_delay_ours")
        baseline = result.column_values("normalized_delay_baseline")
        assert all(value <= 1.0 + 1e-9 for value in ours)
        assert all(value >= 1.0 for value in baseline)
        surrogates = [np.hypot(row[1], row[2]) for row in result.rows]
        assert surrogates == sorted(surrogates) or max(surrogates) == surrogates[-1]

    def test_fig4a_guardband(self, fast_workspace):
        result = run_fig4a(workspace=fast_workspace)
        assert result.metadata["guardband_percent"] == pytest.approx(23.0, abs=1.5)
        assert result.column_values("ours_normalized_delay")[-1] <= 1.0 + 1e-9

    def test_fig5_energy_reduction(self, fast_workspace):
        result = run_fig5(workspace=fast_workspace)
        normalized = result.column_values("normalized_energy")
        assert normalized[0] == pytest.approx(1.0, abs=0.15)
        assert normalized[-1] < 0.95
        assert result.metadata["average_reduction_percent_aged"] > 0.0

    def test_fig4b_aggregates_from_table1(self, fast_workspace):
        table1 = ExperimentResult(
            experiment_id="table1",
            title="stub",
            columns=["network", "delta_vth_mv", "compression", "accuracy_loss_percent",
                     "selected_method", "fp32_accuracy", "quantized_accuracy"],
            rows=[
                ["A", 10.0, "(1,1)/MSB", 0.2, "M4", 0.9, 0.898],
                ["B", 10.0, "(1,1)/MSB", 0.6, "M3", 0.9, 0.894],
                ["A", 50.0, "(3,4)/LSB", 2.0, "M4", 0.9, 0.88],
                ["B", 50.0, "(3,4)/LSB", 4.0, "M4", 0.9, 0.86],
            ],
        )
        result = run_fig4b(workspace=fast_workspace, table1=table1)
        assert result.column_values("delta_vth_mv") == [10.0, 50.0]
        means = result.column_values("mean")
        assert means[0] == pytest.approx(0.4)
        assert means[1] == pytest.approx(3.0)


class TestWorkspaceProductCaching:
    """Each lazy product builds exactly once; seeds never share artifacts."""

    def test_each_product_builds_exactly_once_per_settings_object(self, monkeypatch):
        import repro.experiments.workspace as workspace_module

        calls = {"dataset": 0, "mac": 0, "libraries": 0, "model": 0}
        real_generate = workspace_module.SyntheticImageDataset.generate

        def counting_generate(*args, **kwargs):
            calls["dataset"] += 1
            return real_generate(*args, **kwargs)

        real_build_mac = workspace_module.build_mac
        real_libraries = workspace_module.AgingAwareLibrarySet.generate

        def counting_libraries(*args, **kwargs):
            calls["libraries"] += 1
            return real_libraries(*args, **kwargs)

        monkeypatch.setattr(
            workspace_module.SyntheticImageDataset, "generate", counting_generate
        )
        monkeypatch.setattr(
            workspace_module, "build_mac",
            lambda *a, **k: (calls.__setitem__("mac", calls["mac"] + 1), real_build_mac(*a, **k))[1],
        )
        monkeypatch.setattr(
            workspace_module.AgingAwareLibrarySet, "generate", counting_libraries
        )
        monkeypatch.setattr(
            workspace_module, "get_pretrained",
            lambda name, dataset, **k: (calls.__setitem__("model", calls["model"] + 1), object())[1],
        )

        settings = ExperimentSettings.fast(
            num_classes=3, image_size=8, train_per_class=4, test_per_class=2
        )
        workspace = ExperimentWorkspace.create(settings)
        _ = (workspace.dataset, workspace.dataset, workspace.calibration, workspace.test_inputs)
        assert calls["dataset"] == 1
        _ = (workspace.mac, workspace.mac, workspace.multiplier)
        assert calls["mac"] == 1
        _ = (workspace.library_set, workspace.pipeline, workspace.pipeline)
        assert calls["libraries"] == 1
        first = workspace.model("squeezenet")
        assert workspace.model("squeezenet") is first
        assert calls["model"] == 1

    def test_adopted_products_short_circuit_the_builders(self, monkeypatch):
        import repro.experiments.workspace as workspace_module

        def exploding_generate(*args, **kwargs):
            raise AssertionError("adopted dataset must not be rebuilt")

        monkeypatch.setattr(
            workspace_module.SyntheticImageDataset, "generate", exploding_generate
        )
        workspace = ExperimentWorkspace.create(ExperimentSettings.fast())
        sentinel_dataset = object()
        sentinel_model = object()
        workspace.adopt({"dataset": sentinel_dataset, "model:vgg16": sentinel_model, "table1": "ignored"})
        assert workspace.dataset is sentinel_dataset
        assert workspace.model("vgg16") is sentinel_model
        # Adoption is idempotent and never clobbers an existing product.
        workspace.adopt({"dataset": object()})
        assert workspace.dataset is sentinel_dataset

    def test_different_seeds_never_share_artifacts(self, tmp_path):
        settings = ExperimentSettings.fast(
            num_classes=3,
            image_size=8,
            train_per_class=6,
            test_per_class=3,
            training_epochs=1,
            training_batch_size=4,
            cache_dir=tmp_path,
        )
        first = ExperimentWorkspace.create(settings)
        second = ExperimentWorkspace.create(settings.with_overrides(seed=1))
        assert not np.array_equal(first.dataset.x_train, second.dataset.x_train)
        model_a = first.model("resnet20")
        model_b = second.model("resnet20")
        assert model_a is not model_b
        state_a = model_a.model.state_dict()
        state_b = model_b.model.state_dict()
        assert any(
            not np.array_equal(state_a[name], state_b[name]) for name in state_a
        )


class TestRunner:
    def test_registry_covers_all_paper_artifacts(self):
        assert {
            "fig1a", "fig1b", "fig2", "table1", "table2", "fig4a", "fig4b", "fig5",
            "ablation_surrogate", "ablation_precision_scaling",
        } <= set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["fig99"])

    def test_runner_saves_json(self, tmp_path):
        settings = ExperimentSettings.fast(max_alpha=3, max_beta=3)
        results = run_experiments(["table2"], settings=settings, output_dir=tmp_path)
        assert (tmp_path / "table2.json").exists()
        assert results[0].experiment_id == "table2"

    def test_runner_returns_one_result_per_requested_name(self, tmp_path):
        settings = ExperimentSettings.fast(max_alpha=3, max_beta=3, cache_dir=tmp_path)
        results = run_experiments(["fig2", "table2", "fig2"], settings=settings)
        assert [r.experiment_id for r in results] == ["fig2", "table2", "fig2"]
        assert results[0] is results[2]  # repeats resolve to the same object

    def test_module_entry_point_runs_once(self):
        # ``python -m`` must find the runner not yet imported by its
        # package; otherwise runpy warns and the module executes twice.
        source_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.experiments.runner", "--list",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "fig1a" in completed.stdout

    def test_cli_main(self, tmp_path, capsys):
        exit_code = main(["--experiments", "fig4a", "--profile", "fast", "--output", str(tmp_path)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Fig. 4a" in captured.out
        assert (tmp_path / "fig4a.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--workers", "-2"],
            ["--workers", "nope"],
            ["--chunk-size", "4"],
            ["--lanes", "0"],
            ["--lanes", "-64"],
            ["--batch-size", "0"],
            ["--backend", "gpu"],
            ["--backend", "wheel"],
        ],
    )
    def test_cli_rejects_invalid_parallel_and_backend_args(self, argv, capsys):
        """Bad --workers/--backend values fail at parse time.

        Previously a zero/negative value fell through to confusing errors
        deep inside the sweep machinery; argparse must reject it up front.
        The removed --chunk-size and --lanes/--batch-size options are
        rejected like any unknown one.
        """
        with pytest.raises(SystemExit) as excinfo:
            main(["--experiments", "fig2", *argv])
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_cli_accepts_backend(self, capsys):
        exit_code = main(["--experiments", "fig2", "--backend", "ndarray", "--workers", "0"])
        assert exit_code == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_cli_scenario_and_years(self, tmp_path, capsys):
        """--years implies the mission axis; the rows sweep mission points."""
        exit_code = main(
            ["--experiments", "fig1a", "--no-cache", "--years", "0", "10",
             "--output", str(tmp_path)]
        )
        assert exit_code == 0
        assert "Fig. 1a" in capsys.readouterr().out
        stored = json.loads((tmp_path / "fig1a.json").read_text())
        assert stored["metadata"]["scenario"] == "mission"
        assert [point["kind"] for point in stored["metadata"]["scenario_points"]] == [
            "mission",
            "mission",
        ]
        levels = [row[0] for row in stored["rows"]]
        assert levels[0] == 0.0
        assert levels[-1] == pytest.approx(50.0)
        assert "equivalent_stress_years" in stored["metadata"]

    def test_cli_rejects_bad_scenario_args(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--experiments", "fig1a", "--scenario", "cosmic"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["--experiments", "fig1a", "--years", "-1"])
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_fig4b_alone_pulls_table1_through_the_graph(self, tmp_path):
        """Regression: the old runner silently passed table1=None here."""
        settings = ExperimentSettings.fast(
            train_per_class=8,
            test_per_class=4,
            training_epochs=1,
            training_batch_size=8,
            test_subset=8,
            calibration_samples=8,
            table1_networks=("squeezenet",),
            aging_levels_mv=(0.0, 50.0),
            max_alpha=3,
            max_beta=3,
            cache_dir=tmp_path,
        )
        results = run_experiments(["fig4b"], settings=settings, output_dir=tmp_path / "out")
        assert [r.experiment_id for r in results] == ["fig4b"]
        # One box-plot row per aged level, aggregated from the real table1.
        assert results[0].column_values("delta_vth_mv") == [50.0]
        assert (tmp_path / "out" / "fig4b.json").exists()
        # table1 was cached along the way: rerunning it is a pure cache hit.
        from repro.pipeline import run_pipeline

        warm = run_pipeline(["table1"], settings)
        assert warm.executed_experiments == ()

    def test_cli_list_prints_registry_with_dependencies(self, tmp_path, capsys):
        exit_code = main(["--list", "--cache-dir", str(tmp_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Experiment registry" in out
        assert "fig4b" in out and "table1" in out
        assert "depends" in out and "miss" in out
        # --list must not have run anything.
        assert "Fig. 2" not in out

    def test_cli_explain_reports_cache_actions(self, tmp_path, capsys):
        argv = ["--experiments", "fig2", "--cache-dir", str(tmp_path), "--explain"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Pipeline plan" in first and "executed" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "hit" in second

    def test_cli_no_cache_disables_the_artifact_cache(self, tmp_path, capsys):
        argv = [
            "--experiments", "fig2", "--cache-dir", str(tmp_path),
            "--no-cache", "--explain",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: disabled" in out
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--cache-dir"], ["--experiments", "fig99"]])
    def test_cli_rejects_bad_pipeline_args(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err
