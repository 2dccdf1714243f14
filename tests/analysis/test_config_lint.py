"""Tests for the config/pipeline lint pass."""

from repro.analysis import lint_config
from repro.core import InferenceConfig
from repro.core.config import FaultPolicy
from repro.parallel import SerialExecutor


def codes(diagnostics):
    return {d.code for d in diagnostics}


class _LambdaTranslator:
    """A translator whose correspondence closes over a lambda."""

    def __init__(self):
        self.correspondence = lambda address: address

    def translate(self, rng, item):  # pragma: no cover - never called
        raise NotImplementedError


class TestConfigLint:
    def test_default_config_is_clean(self):
        assert lint_config(InferenceConfig()) == []

    def test_process_executor_with_lambda_translator_names_attribute(self):
        diagnostics = lint_config(
            InferenceConfig(executor="process"), _LambdaTranslator()
        )
        unpicklable = [d for d in diagnostics if d.code == "config-unpicklable"]
        assert len(unpicklable) == 1
        assert unpicklable[0].severity == "error"
        # The finding names the exact offending attribute path.
        assert "translator.correspondence" in unpicklable[0].message

    def test_process_executor_with_picklable_translator_is_clean(self):
        from repro.core.correspondence import Correspondence

        class _Picklable:
            correspondence = None

        translator = _LambdaTranslator.__new__(_LambdaTranslator)
        translator.correspondence = Correspondence.identity(["a"])
        diagnostics = lint_config(InferenceConfig(executor="process"), translator)
        assert "config-unpicklable" not in codes(diagnostics)

    def test_checkpoint_cadence_without_dir_warns(self):
        diagnostics = lint_config(InferenceConfig(checkpoint_every=5))
        cadence = [d for d in diagnostics if d.code == "config-checkpoint-cadence"]
        assert len(cadence) == 1
        assert cadence[0].severity == "warning"

    def test_checkpoint_cadence_with_dir_is_clean(self):
        config = InferenceConfig(checkpoint_dir="ckpt", checkpoint_every=5)
        assert "config-checkpoint-cadence" not in codes(lint_config(config))

    def test_workers_without_executor_warns(self):
        for executor in (None, "serial", SerialExecutor()):
            diagnostics = lint_config(InferenceConfig(executor=executor, workers=4))
            assert "config-workers-ignored" in codes(diagnostics), executor
        diagnostics = lint_config(InferenceConfig(executor="process", workers=4))
        assert "config-workers-ignored" not in codes(diagnostics)

    def test_ess_threshold_with_never_resample_warns(self):
        diagnostics = lint_config(
            InferenceConfig(resample="never", ess_threshold=0.9)
        )
        assert "config-ess-ignored" in codes(diagnostics)

    def test_regenerate_without_sampler_is_error(self):
        diagnostics = lint_config(InferenceConfig(fault_policy="regenerate"))
        missing = [d for d in diagnostics if d.code == "config-no-regenerate"]
        assert len(missing) == 1
        assert missing[0].severity == "error"

    def test_regenerate_with_policy_fn_is_clean(self):
        policy = FaultPolicy(mode="regenerate", regenerate_fn=lambda rng: (None, 0.0))
        diagnostics = lint_config(InferenceConfig(fault_policy=policy))
        assert "config-no-regenerate" not in codes(diagnostics)

    def test_drop_policy_without_resampling_warns(self):
        diagnostics = lint_config(InferenceConfig(fault_policy="drop"))
        assert "config-drop-accumulates" in codes(diagnostics)

    def test_no_weights_ablation_is_info(self):
        diagnostics = lint_config(InferenceConfig(use_weights=False))
        ablation = [d for d in diagnostics if d.code == "config-no-weights"]
        assert len(ablation) == 1
        assert ablation[0].severity == "info"
