import math

import numpy as np
import pytest

from larvaecast.errors import ConfigError, DivergenceError, ShapeError
from larvaecast.optim import (
    BETA1,
    BETA2,
    EPSILON,
    PLATEAU_PATIENCE,
    AdamState,
    TrainConfig,
    adam_step,
    fit,
    init_adam,
    plateaued,
)
from larvaecast.nn import ABUNDANCE_LAYER_DIMS, backward, forward, xavier_init


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig(seed=1)
        assert cfg.batch_size == 8
        assert 0 < BETA1 < BETA2 < 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"max_epochs": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(seed=1, **kwargs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(seed=-3)


class TestAdamStep:
    def test_first_step_moves_by_learning_rate(self):
        cfg = TrainConfig(seed=0, learning_rate=0.01)
        params = np.array([1.0])
        state = init_adam(params)
        adam_step(params, np.array([0.37]), state, cfg)
        # bias-corrected first step is lr * g / (|g| + eps) ~ lr * sign(g)
        assert params[0] == pytest.approx(1.0 - 0.01, rel=1e-6)
        assert state.step_count == 1

    def test_zero_gradient_no_motion(self):
        cfg = TrainConfig(seed=0)
        params = np.array([1.0, -2.0, 0.5])
        before = params.copy()
        state = init_adam(params)
        adam_step(params, np.zeros_like(params), state, cfg)
        np.testing.assert_array_equal(params, before)

    def test_two_steps_match_hand_recurrence(self):
        lr, b1, b2, eps = 0.003, BETA1, BETA2, EPSILON
        cfg = TrainConfig(seed=0, learning_rate=lr)
        g = 0.5
        theta = 2.0
        params = np.array([theta])
        state = init_adam(params)

        m = v = 0.0
        expected = theta
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            expected -= lr * m_hat / (np.sqrt(v_hat) + eps)
            adam_step(params, np.array([g]), state, cfg)
            assert params[0] == pytest.approx(expected, rel=1e-12)
        assert state.step_count == 2

    def test_matches_per_parameter_textbook_loop_bitwise(self):
        """50 steps on the production regressor's one vector equal, bit for
        bit, the textbook update run on each weight and bias array apart."""
        lr, b1, b2, eps = 1e-3, BETA1, BETA2, EPSILON
        cfg = TrainConfig(seed=0, learning_rate=lr)
        net = xavier_init(ABUNDANCE_LAYER_DIMS, seed=15, dropout_rate=0.0)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(6, 8))
        y = rng.normal(size=(1, 8))
        state = init_adam(net.params)
        reference = [a.copy() for a in net.unpack(net.params)]
        m = [np.zeros_like(p) for p in reference]
        v = [np.zeros_like(p) for p in reference]
        for t in range(1, 51):
            grad = backward(net, forward(net, x)[1], y)
            for p, g, m_p, v_p in zip(reference, net.unpack(grad), m, v):
                m_p[:] = b1 * m_p + (1 - b1) * g
                v_p[:] = b2 * v_p + (1 - b2) * g * g
                m_hat = m_p / (1 - b1**t)
                v_hat = v_p / (1 - b2**t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            adam_step(net.params, grad, state, cfg)
        trained = [a for layer in zip(net.weights, net.biases) for a in layer]
        assert len(trained) == len(reference) == 14
        for p, expected in zip(trained, reference):
            np.testing.assert_array_equal(p, expected)
        assert not np.array_equal(net.params, xavier_init(ABUNDANCE_LAYER_DIMS, seed=15).params)

    def test_shape_mismatch_rejected(self):
        cfg = TrainConfig(seed=0)
        params = np.zeros(3)
        with pytest.raises(ShapeError):
            adam_step(params, np.zeros(4), init_adam(params), cfg)
        with pytest.raises(ShapeError):
            adam_step(params, np.zeros(3), init_adam(np.zeros(4)), cfg)

    def test_state_mirrors_parameters(self):
        """Rows 0 and 1 of the (4, n) buffer are the first and second moments."""
        params = np.zeros(5)
        state = init_adam(params)
        assert isinstance(state, AdamState)
        assert state.buffers.shape == (4, 5)
        np.testing.assert_array_equal(state.buffers, 0.0)
        g = np.arange(5.0)
        adam_step(params, g, state, TrainConfig(seed=0))
        np.testing.assert_array_equal(state.buffers[0], (1 - BETA1) * g)
        np.testing.assert_array_equal(state.buffers[1], (1 - BETA2) * g * g)


class TestPlateauDetector:
    """The plateau rule, ``plateaued``, at ``PLATEAU_PATIENCE``."""

    def test_constant_stream_halts_within_patience(self):
        losses = []
        halted_at = None
        for epoch in range(3 * PLATEAU_PATIENCE):
            losses.append(1.0)
            if plateaued(losses):
                halted_at = epoch
                break
        assert halted_at is not None
        assert halted_at <= PLATEAU_PATIENCE

    def test_steady_improvement_continues(self):
        losses = []
        loss = 1.0
        for _ in range(3 * PLATEAU_PATIENCE):
            losses.append(loss)
            assert not plateaued(losses)
            loss *= 0.99

    def test_needs_full_window(self):
        losses = []
        for _ in range(PLATEAU_PATIENCE):
            losses.append(1.0)
            assert not plateaued(losses)


class TestFit:
    """The one epoch loop both trainers run, on a least-squares line."""

    @staticmethod
    def line_problem(n=32):
        x = np.linspace(-1.0, 1.0, n)
        y = 3.0 * x - 0.5
        params = np.zeros(2)  # slope, intercept

        def step(idx, rng):
            err = params[0] * x[idx] + params[1] - y[idx]
            grad = 2.0 * err / idx.size
            return float(np.sum(err * err)), np.array([grad @ x[idx], grad.sum()])

        return params, step, n

    def test_converges_and_counts_epochs(self):
        params, step, n = self.line_problem()
        epochs = fit(params, step, n, TrainConfig(seed=3, learning_rate=0.05, max_epochs=2000), "line")
        assert 50 < epochs < 2000  # the plateau rule stopped it
        assert params[0] == pytest.approx(3.0, abs=1e-2)
        assert params[1] == pytest.approx(-0.5, abs=1e-2)

    def test_budget_binds_and_batches_cover_every_row(self):
        params, step, n = self.line_problem(n=11)
        seen = []

        def counting(idx, rng):
            seen.append(idx.copy())
            return step(idx, rng)

        assert fit(params, counting, n, TrainConfig(seed=0, batch_size=4, max_epochs=2), "line") == 2
        assert [b.size for b in seen] == [4, 4, 3, 4, 4, 3]
        for epoch in (seen[:3], seen[3:]):
            assert sorted(np.concatenate(epoch)) == list(range(n))

    def test_non_finite_loss_names_model_and_epoch(self):
        params, _, n = self.line_problem()
        step = lambda idx, rng: (float("nan"), np.zeros(2))
        with pytest.raises(DivergenceError, match="line training diverged.*epoch 1"):
            fit(params, step, n, TrainConfig(seed=0), "line")
