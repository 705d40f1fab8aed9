import copy
import dataclasses
import pickle

import numpy as np
import pytest

from conftest import GRADIENT_REL_TOL, gradient_error
from larvaecast.errors import ConfigError, DivergenceError, ShapeError
from larvaecast.lstm import lstm_init
from larvaecast.nn import (
    ABUNDANCE_LAYER_DIMS,
    backward,
    forward,
    mse_grad,
    mse_loss,
    train_abundance,
    xavier_init,
)
from larvaecast.optim import TrainConfig
from larvaecast.stats import pearson_r


class TestXavierInit:
    def test_production_parameter_count(self):
        net = xavier_init(ABUNDANCE_LAYER_DIMS, seed=0)
        assert net.params.size == 21_313

    def test_single_weight_bound(self):
        for seed in range(20):
            net = xavier_init([1, 1], seed=seed)
            bound = np.sqrt(3.0)
            assert -bound <= net.weights[0][0, 0] <= bound
            assert net.biases[0][0] == 0.0

    def test_deterministic(self):
        a = xavier_init(ABUNDANCE_LAYER_DIMS, seed=99)
        b = xavier_init(ABUNDANCE_LAYER_DIMS, seed=99)
        np.testing.assert_array_equal(a.params, b.params)

    def test_respects_glorot_bounds(self):
        net = xavier_init([6, 64, 1], seed=5)
        for w, (fan_in, fan_out) in zip(
            net.weights, zip(net.layer_dims[:-1], net.layer_dims[1:])
        ):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= bound)

    @pytest.mark.parametrize("dims", [[], [4], [4, 0], [0, 3], [-1, 2], (6, 10**20, 1)])
    def test_bad_dims_rejected(self, dims):
        """The last is beyond numpy's address space: refused before any allocation."""
        with pytest.raises(ConfigError):
            xavier_init(dims, seed=0)

    def test_final_activation_identity(self):
        # y = -relu(x): the hidden unit clips, the output keeps its sign
        net = xavier_init([1, 1, 1], seed=0, dropout_rate=0.0)
        net.weights[0][:] = 1.0
        net.weights[1][:] = -1.0
        pred, _ = forward(net, np.array([[2.0, -3.0]]))
        np.testing.assert_array_equal(pred, [[-2.0, 0.0]])


class TestForward:
    def test_relu_clips_negative(self):
        net = xavier_init([2, 2, 2], seed=0, dropout_rate=0.0)
        for w in net.weights:
            w[:] = np.eye(2)
        pred, cache = forward(net, np.array([[-1.0], [2.0]]))
        np.testing.assert_array_equal(cache.activations[1], [[0.0], [2.0]])
        np.testing.assert_array_equal(pred, [[0.0], [2.0]])

    def test_zero_network_outputs_zero(self):
        net = xavier_init([3, 5, 2], seed=0, dropout_rate=0.0)
        for w in net.weights:
            w[:] = 0.0
        pred, _ = forward(net, np.array([[1.0], [-4.0], [2.5]]))
        np.testing.assert_array_equal(pred, [[0.0], [0.0]])

    def test_dropout_masks_scale_survivors(self):
        net = xavier_init([2, 16, 1], seed=1, dropout_rate=0.2)
        net.weights[0][:] = 1.0
        net.biases[0][:] = 0.0
        rng = np.random.default_rng(123)
        _, cache = forward(net, np.array([[0.5], [0.5]]), mode="train", rng=rng)
        hidden = cache.activations[1]
        # each unit saw pre-activation 1.0: either dropped or scaled by 1/0.8
        assert set(np.round(hidden.ravel(), 12)) <= {0.0, 1.25}
        assert (hidden == 0).any() and (hidden == 1.25).any()

    def test_eval_mode_is_pure(self):
        net = xavier_init([6, 8, 1], seed=3)
        x = np.arange(6.0)[:, None]
        first, _ = forward(net, x)
        second, _ = forward(net, x)
        np.testing.assert_array_equal(first, second)

    def test_dimension_mismatch(self):
        net = xavier_init([4, 2], seed=0)
        with pytest.raises(ShapeError):
            forward(net, np.zeros((3, 1)))

    def test_one_dimensional_input_rejected(self):
        net = xavier_init([4, 2], seed=0)
        with pytest.raises(ShapeError, match=r"\(4, batch\)"):
            forward(net, np.zeros(4))

    def test_train_mode_requires_rng(self):
        net = xavier_init([2, 4, 1], seed=0, dropout_rate=0.2)
        with pytest.raises(ConfigError):
            forward(net, np.zeros((2, 1)), mode="train")

    def test_dropout_expectation_preserved(self):
        # inverted dropout: E[masked activation] == activation, checked
        # over >= 1e5 seeded mask draws.
        net = xavier_init([1, 25, 1], seed=2, dropout_rate=0.2)
        net.weights[0][:] = 1.0
        net.biases[0][:] = 0.0
        rng = np.random.default_rng(77)
        total, draws = 0.0, 0
        for _ in range(4200):
            _, cache = forward(net, np.array([[1.0]]), mode="train", rng=rng)
            hidden = cache.activations[1]
            total += float(hidden.sum())
            draws += hidden.size
        assert draws >= 100_000
        assert abs(total / draws - 1.0) < 0.01


class TestMseLoss:
    def test_zero_on_equal(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_scalar_square(self):
        assert mse_loss([3.0], [1.0]) == 4.0

    def test_mean_over_elements(self):
        assert mse_loss([0.0, 0.0], [1.0, -1.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss([1.0], [1.0, 2.0])


class TestMseGrad:
    @pytest.mark.parametrize("pred, target", [
        (np.zeros((2, 1)), np.zeros(2)),
        (np.zeros(2), np.zeros(2)),
    ])
    def test_one_dimensional_rejected(self, pred, target):
        with pytest.raises(ShapeError):
            mse_grad(pred, target)


class TestBackward:
    def test_zero_network_zero_gradients(self):
        net = xavier_init([1, 1], seed=0, dropout_rate=0.0)
        net.weights[0][:] = 0.0
        _, cache = forward(net, np.array([[1.0]]))
        np.testing.assert_array_equal(backward(net, cache, np.array([[0.0]])), 0.0)

    def test_single_layer_chain_rule(self):
        # W=[[1]], b=[0], identity, x=[2], target=[0]:
        # dL/dW = 2*(2-0)*2 = 8, dL/db = 4
        net = xavier_init([1, 1], seed=0, dropout_rate=0.0)
        net.weights[0][0, 0] = 1.0
        _, cache = forward(net, np.array([[2.0]]))
        grad_w, grad_b = net.unpack(backward(net, cache, np.array([[0.0]])))
        assert grad_w[0, 0] == pytest.approx(8.0)
        assert grad_b[0] == pytest.approx(4.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            net = xavier_init([6, 8, 1], seed=seed, dropout_rate=0.0)
            x = rng.normal(size=(6, 1))
            target = rng.normal(size=(1, 1))
            _, cache = forward(net, x)
            loss = lambda: mse_loss(forward(net, x)[0], target)
            assert gradient_error(backward(net, cache, target), net.params, loss) < GRADIENT_REL_TOL

    def test_matches_finite_differences_deeper(self):
        rng = np.random.default_rng(32)
        net = xavier_init([6, 16, 16, 1], seed=8, dropout_rate=0.0)
        x = rng.normal(size=(6, 1))
        target = rng.normal(size=(1, 1))
        _, cache = forward(net, x)
        loss = lambda: mse_loss(forward(net, x)[0], target)
        assert gradient_error(backward(net, cache, target), net.params, loss) < GRADIENT_REL_TOL

    def test_batched_gradient_is_mean_of_per_example(self):
        net = xavier_init([3, 5, 1], seed=4, dropout_rate=0.0)
        xs = np.random.default_rng(0).normal(size=(3, 4))
        ys = np.random.default_rng(1).normal(size=(1, 4))
        _, cache = forward(net, xs)
        batched = backward(net, cache, ys)
        summed = np.zeros_like(batched)
        for j in range(4):
            _, cache_j = forward(net, xs[:, [j]])
            summed += backward(net, cache_j, ys[:, [j]]) / 4
        np.testing.assert_allclose(batched, summed, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_train_mode_bits_match_pre_activation_rule(self, seed, batch):
        # backward, bit for bit against relu's derivative read from each
        # pre-activation z, recomputed here from the cache, and under dropout
        # against each layer's mask, replayed from a copy of the rng; eval
        # mode and rate 0 drop nothing and take W.T @ delta * (z > 0)
        for mode, rate in [("train", 0.2), ("eval", 0.2), ("train", 0.0)]:
            rng = np.random.default_rng(seed)
            net = xavier_init([6, 16, 16, 1], seed=seed, dropout_rate=rate)
            net.biases[0][0] = -1e3  # a dead unit: z < 0 for every input
            target = rng.normal(size=(1, batch))
            x = rng.normal(size=(6, batch))
            replay = copy.deepcopy(rng)
            _, cache = forward(net, x, mode=mode, rng=rng)
            dropping = mode == "train" and rate > 0
            masks = [(replay.random((16, batch)) >= rate).astype(float) for _ in range(2)]
            grads, delta, dropped_live = [], mse_grad(cache.activations[-1], target), False
            for layer in range(len(net.weights) - 1, -1, -1):
                grads[:0] = [delta @ cache.activations[layer].T, delta.sum(axis=1)]
                if layer:
                    w, b, mask = net.weights[layer - 1], net.biases[layer - 1], masks[layer - 1]
                    z = w @ cache.activations[layer - 1] + b[:, None]
                    if dropping:
                        delta = net.weights[layer].T @ delta * mask / (1.0 - rate) * (z > 0)
                        dropped_live |= bool(((mask == 0) & (z > 0)).any())
                    else:
                        delta = net.weights[layer].T @ delta * (z > 0)
            assert dropped_live == dropping and not (cache.activations[1][0] > 0).any()
            assert cache.keep == (1.0 - rate if dropping else 1.0)
            expected = np.concatenate([g.ravel() for g in grads])
            assert np.array_equal(backward(net, cache, target).view(np.uint64),
                                  expected.view(np.uint64))


class TestFlatParameters:
    """Each model's named arrays are views into its one ``params`` vector,
    also in a pickled, copied or replaced model."""

    MODELS = {
        "dense": (lambda: xavier_init([3, 4, 2], seed=0), lambda m: m.weights[0]),
        "lstm": (lambda: lstm_init(seed=0, hidden_size=3, output_len=2), lambda m: m.weights),
    }

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("remake", [
        lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy, copy.copy, dataclasses.replace,
    ], ids=["pickle", "deepcopy", "copy", "replace"])
    def test_first_array_views_params(self, model, remake):
        make, first_array = self.MODELS[model]
        original = make()
        clone = remake(original)
        np.testing.assert_array_equal(clone.params, original.params)
        clone.params[0] = 123.0
        assert first_array(clone).flat[0] == 123.0
        assert original.params[0] != 123.0 and first_array(original).flat[0] != 123.0

    def test_replace_with_resized_layers_reads_them_back(self):
        """The sizes are the arrays' shapes, so a replaced model has no
        stale size to lay its new arrays out by."""
        net = xavier_init([2, 3, 1], seed=0)
        weights = [np.arange(8.0).reshape(4, 2), np.arange(4.0)[None, :] + 10]
        biases = [np.arange(4.0) + 20, np.array([30.0])]
        wider = dataclasses.replace(net, weights=weights, biases=biases)
        assert wider.layer_dims == (2, 4, 1)
        assert wider.params.size == 17
        for got, given in zip(wider.weights + wider.biases, weights + biases):
            np.testing.assert_array_equal(got, given)
        assert forward(wider, np.ones((2, 5)))[0].shape == (1, 5)
        with pytest.raises(ValueError):  # a layer without its bias is not a shorter network
            dataclasses.replace(net, biases=biases[:1])

    def test_dense_layers_cannot_be_rebound(self):
        net = xavier_init([2, 2], seed=0)
        with pytest.raises(TypeError):
            net.weights[0] = np.eye(2)


class TestTrainAbundance:
    def _linear_dataset(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 6))
        y = 0.5 * x[:, 0] - 0.2 * x[:, 1] + rng.normal(0, 0.05, n)
        return x, y

    def test_learns_linear_signal(self):
        x, y = self._linear_dataset()
        cfg = TrainConfig(seed=5, max_epochs=300)
        net, _ = train_abundance(x, y, cfg, layer_dims=(6, 16, 16, 1), dropout_rate=0.1)
        pred, _ = forward(net, x.T)
        assert pearson_r(pred[0], y) >= 0.95

    def test_memorizes_single_example(self):
        x = np.tile([[0.2, -0.1, 0.5, 0.0, 1.0, -0.4]], (8, 1))
        y = np.full(8, 1.3)
        cfg = TrainConfig(seed=2, max_epochs=2000)
        net, _ = train_abundance(x, y, cfg, layer_dims=(6, 8, 1), dropout_rate=0.0)
        pred, _ = forward(net, x[:1].T)
        assert mse_loss(pred, [[1.3]]) < 1e-4

    def test_deterministic(self):
        x, y = self._linear_dataset(n=64, seed=3)
        cfg = TrainConfig(seed=11, max_epochs=40)
        a, epochs_a = train_abundance(x, y, cfg, layer_dims=(6, 8, 1))
        b, epochs_b = train_abundance(x, y, cfg, layer_dims=(6, 8, 1))
        np.testing.assert_array_equal(a.params, b.params)
        assert epochs_a == epochs_b == 40

    def test_nan_target_fails_loudly(self):
        x, y = self._linear_dataset(n=32, seed=4)
        y[5] = np.nan
        cfg = TrainConfig(seed=0, max_epochs=50)
        with pytest.raises(DivergenceError, match="abundance network.*epoch 1$"):
            train_abundance(x, y, cfg, layer_dims=(6, 8, 1))

    def test_empty_dataset_rejected(self):
        cfg = TrainConfig(seed=0)
        with pytest.raises(ConfigError):
            train_abundance(np.zeros((0, 6)), np.zeros(0), cfg)

    def test_below_batch_size_rejected(self):
        cfg = TrainConfig(seed=0, batch_size=8)
        with pytest.raises(ConfigError, match="training set of 5 rows is below the batch size of 8"):
            train_abundance(np.zeros((5, 6)), np.zeros(5), cfg)
