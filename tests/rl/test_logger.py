"""Unit tests for the training logger."""

from repro.rl.logger import TrainingLogger


class TestRecording:
    def test_record_and_query(self):
        logger = TrainingLogger()
        logger.record("loss", 1.0, step=10)
        logger.record("loss", 0.5, step=20)
        assert logger.values("loss") == [1.0, 0.5]
        assert logger.latest("loss") == 0.5

    def test_latest_default(self):
        logger = TrainingLogger()
        assert logger.latest("missing") is None
        assert logger.latest("missing", default=3.0) == 3.0
