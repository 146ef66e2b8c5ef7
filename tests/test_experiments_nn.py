"""Fast end-to-end runs of the NN-heavy experiments (Table 1, Fig. 1b, ablations).

The settings are shrunk aggressively (tiny dataset split, one/two networks,
two epochs of training) so these complete in tens of seconds while still
exercising the full code path of each experiment module.  The benchmark
harness runs the realistically sized versions.
"""

import pytest

import repro.core.algorithm as algorithm_module
import repro.experiments.ablation_precision_scaling as precision_scaling_module
from repro.experiments import (
    ExperimentSettings,
    ExperimentWorkspace,
    run_fig1b,
    run_precision_scaling_ablation,
    run_surrogate_ablation,
    run_table1,
)
from repro.nn.quantized import record_calibration


@pytest.fixture(scope="module")
def nn_workspace(tmp_path_factory):
    # Small but genuinely trainable: at fewer samples/updates the ResNets
    # stay at chance accuracy and the fault-injection statistics are noise.
    settings = ExperimentSettings.fast(
        train_per_class=50,
        test_per_class=10,
        training_epochs=8,
        training_batch_size=16,
        test_subset=60,
        calibration_samples=24,
        table1_networks=("squeezenet",),
        fig1b_networks=("resnet20", "resnet32"),
        flip_probabilities=(1e-4, 1e-2),
        fault_repetitions=1,
        aging_levels_mv=(0.0, 20.0, 50.0),
        max_alpha=4,
        max_beta=4,
        ablation_networks=("squeezenet",),
        ablation_methods=("M2",),
        ablation_max_compression=2,
        cache_dir=tmp_path_factory.mktemp("zoo-cache"),
    )
    return ExperimentWorkspace.create(settings)


class TestWorkspace:
    def test_dataset_and_models_are_cached_in_memory(self, nn_workspace):
        assert nn_workspace.dataset is nn_workspace.dataset
        first = nn_workspace.model("squeezenet")
        second = nn_workspace.model("squeezenet")
        assert first is second
        assert 0.0 <= first.fp32_accuracy <= 1.0

    def test_test_subset_respected(self, nn_workspace):
        assert nn_workspace.test_inputs.shape[0] <= nn_workspace.settings.test_subset


class TestTable1Fast:
    def test_rows_and_metadata(self, nn_workspace):
        result = run_table1(workspace=nn_workspace)
        # one network x two aged levels
        assert len(result.rows) == 2
        assert set(result.column_values("delta_vth_mv")) == {20.0, 50.0}
        assert set(result.column_values("selected_method")) <= {"M1", "M2", "M3", "M4", "M5"}
        for loss in result.column_values("accuracy_loss_percent"):
            assert loss < 60.0
        assert set(result.metadata["average_loss_per_level"]) == {20.0, 50.0}


class TestFig1bFast:
    def test_accuracy_collapses_at_high_flip_probability(self, nn_workspace):
        result = run_fig1b(workspace=nn_workspace)
        assert len(result.rows) == 2 * 2  # networks x probabilities
        for network in ("ResNet20", "ResNet32"):
            series = {row[1]: row[3] for row in result.rows if row[0] == network}
            assert series[1e-2] <= series[1e-4]
        assert all(0.0 <= value <= 1.2 for value in result.column_values("normalized_accuracy"))


class TestAblationsFast:
    def test_surrogate_ablation_runs_and_reports_correlation(self, nn_workspace):
        # On the deliberately tiny [0,2]^2 grid and test split the measured
        # losses are dominated by noise, so only the plumbing is checked here;
        # the benchmark harness asserts the strong positive correlation on the
        # realistic grid.
        result = run_surrogate_ablation(workspace=nn_workspace)
        assert len(result.rows) == 1
        assert -1.0 <= result.rows[0][2] <= 1.0
        assert result.metadata["compression_grid"] == "[0,2]^2"
        assert result.metadata["mean_correlation"] == pytest.approx(result.rows[0][2])

    def test_precision_scaling_runs_and_reports_both_losses(self, nn_workspace):
        # On the tiny 60-image test split both losses sit inside the noise
        # floor, so only the plumbing is checked here; the benchmark harness
        # asserts the "masking is worse" claim on the realistic setup.
        result = run_precision_scaling_ablation(workspace=nn_workspace, delta_vth_mv=50.0)
        assert len(result.rows) == 1
        row = result.rows[0]
        ours_loss, masking_loss = row[2], row[4]
        assert -100.0 <= ours_loss <= 100.0
        assert -100.0 <= masking_loss <= 100.0
        assert masking_loss >= ours_loss - 5.0

    def test_precision_scaling_records_calibration_once_per_network(
        self, nn_workspace, monkeypatch
    ):
        calls = []

        def counting_record_calibration(model, calibration_data):
            calls.append(model)
            return record_calibration(model, calibration_data)

        for module in (algorithm_module, precision_scaling_module):
            monkeypatch.setattr(module, "record_calibration", counting_record_calibration)
        run_precision_scaling_ablation(workspace=nn_workspace, delta_vth_mv=50.0)
        networks = nn_workspace.settings.ablation_networks
        assert calls == [nn_workspace.model(name).model for name in networks]
