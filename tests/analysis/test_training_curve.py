"""Unit tests for training-curve summarisation (Fig. 5)."""

import pytest

from repro.analysis.training_curve import downsample_curve, summarize_training_curve


def synthetic_curve(n=50):
    """A curve with the paper's qualitative shape: reward up, entropy loss up."""
    curve = []
    for i in range(n):
        progress = i / (n - 1)
        curve.append(
            {
                "timesteps": 2048.0 * (i + 1),
                "ep_rew_mean": 0.55 + 0.15 * progress,
                "entropy_loss": -7.0 + 5.0 * progress,
            }
        )
    return curve


class TestSummarize:
    def test_shape_metrics(self):
        stats = summarize_training_curve(synthetic_curve())
        assert stats["num_updates"] == 50
        assert stats["total_timesteps"] == 2048.0 * 50
        assert stats["reward_gain"] > 0.1
        assert stats["final_reward"] > stats["initial_reward"]
        assert stats["entropy_loss_change"] > 0
        assert stats["initial_entropy_loss"] == pytest.approx(-6.7, abs=0.5)

    def test_single_point_curve(self):
        stats = summarize_training_curve(synthetic_curve(2)[:1])
        assert stats["num_updates"] == 1
        assert stats["reward_gain"] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_training_curve([])


class TestDownsample:
    def test_no_change_when_short(self):
        curve = synthetic_curve(10)
        assert downsample_curve(curve, max_points=50) == curve

    def test_thinning_preserves_endpoints(self):
        curve = synthetic_curve(200)
        thin = downsample_curve(curve, max_points=20)
        assert len(thin) == 20
        assert thin[0] == curve[0]
        assert thin[-1] == curve[-1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            downsample_curve(synthetic_curve(5), max_points=0)
