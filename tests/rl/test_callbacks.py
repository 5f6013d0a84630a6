"""Unit tests for training callbacks (with a stub model)."""

import math

from repro.rl.callbacks import BaseCallback, CallbackList, TrainingCurveCallback
from repro.rl.logger import TrainingLogger


class StubModel:
    """Minimal object exposing what the callbacks need from PPO."""

    def __init__(self):
        self.logger = TrainingLogger()
        self.num_timesteps = 0


class TestBaseCallback:
    def test_defaults_do_not_stop_training(self):
        cb = BaseCallback()
        cb.init_callback(StubModel())
        assert cb.on_rollout_end() is True
        assert cb.on_update_end() is True


class TestCallbackList:
    def test_stops_if_any_callback_stops(self):
        class Stopper(BaseCallback):
            def on_update_end(self):
                return False

        cb = CallbackList([BaseCallback(), Stopper()])
        cb.init_callback(StubModel())
        assert cb.on_update_end() is False

    def test_stops_on_rollout_end_if_any_callback_stops(self):
        class Stopper(BaseCallback):
            def on_rollout_end(self):
                return False

        cb = CallbackList([Stopper(), BaseCallback()])
        cb.init_callback(StubModel())
        assert cb.on_rollout_end() is False
        assert cb.on_update_end() is True

    def test_propagates_training_start_and_end(self):
        class Recorder(BaseCallback):
            def __init__(self):
                super().__init__()
                self.calls = []

            def on_training_start(self):
                self.calls.append("start")

            def on_training_end(self):
                self.calls.append("end")

        children = [Recorder(), Recorder()]
        cb = CallbackList(children)
        cb.on_training_start()
        cb.on_training_end()
        assert all(child.calls == ["start", "end"] for child in children)

    def test_propagates_init(self):
        children = [BaseCallback(), BaseCallback()]
        cb = CallbackList(children)
        model = StubModel()
        cb.init_callback(model)
        assert all(child.model is model for child in children)


class TestTrainingCurveCallback:
    def test_collects_metrics_per_update(self):
        model = StubModel()
        cb = TrainingCurveCallback()
        cb.init_callback(model)

        model.num_timesteps = 2048
        model.logger.record("rollout/ep_rew_mean", 0.5, 2048)
        model.logger.record("train/entropy_loss", -7.0, 2048)
        model.logger.record("train/value_loss", 0.1, 2048)
        cb.on_update_end()

        model.num_timesteps = 4096
        model.logger.record("rollout/ep_rew_mean", 0.6, 4096)
        model.logger.record("train/entropy_loss", -6.0, 4096)
        cb.on_update_end()

        assert len(cb.curve) == 2
        assert cb.curve[0]["timesteps"] == 2048
        assert cb.curve[0]["ep_rew_mean"] == 0.5
        assert cb.curve[1]["entropy_loss"] == -6.0

    def test_missing_metrics_are_nan(self):
        model = StubModel()
        cb = TrainingCurveCallback()
        cb.init_callback(model)
        model.logger.record("rollout/ep_rew_mean", 0.5, 64)
        assert cb.on_update_end() is True
        point = cb.curve[0]
        assert point["ep_rew_mean"] == 0.5
        for key in ("entropy_loss", "policy_loss", "value_loss", "approx_kl"):
            assert math.isnan(point[key])
