import numpy as np
import pytest

from larvaecast.errors import DataError, DomainError
from larvaecast.preprocess import LogCountTransform, StandardScaler, fit_scaler


class TestLogCountTransform:
    def test_zero_count_maps_to_zero(self):
        assert LogCountTransform().transform(0) == 0.0

    def test_count_99_maps_to_two(self):
        assert LogCountTransform().transform(99) == pytest.approx(2.0)

    def test_round_trip(self):
        transform = LogCountTransform()
        for count in (0.0, 1.0, 10.0, 1234.0):
            assert transform.inverse(transform.transform(count)) == pytest.approx(
                count, abs=1e-12
            )

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            LogCountTransform().transform(-1)

    def test_monotone(self):
        transform = LogCountTransform()
        values = transform.transform(np.arange(100.0))
        assert np.all(np.diff(values) > 0)


class TestStandardScaler:
    def test_two_point_example(self):
        scaler = fit_scaler([[2.0], [4.0]])
        np.testing.assert_array_equal(scaler.mean_, [3.0])
        np.testing.assert_array_equal(scaler.std_, [1.0])
        np.testing.assert_allclose(scaler.transform([[2.0], [4.0]]), [[-1.0], [1.0]])

    def test_constant_input_guard(self):
        scaler = fit_scaler([[7.0], [7.0], [7.0]])
        np.testing.assert_array_equal(scaler.transform([[7.0], [7.0], [7.0]]), [[0], [0], [0]])

    def test_transformed_moments(self):
        rng = np.random.default_rng(11)
        values = rng.normal(3.0, 2.5, size=(500, 1))
        out = fit_scaler(values).transform(values)
        assert abs(out.mean()) < 1e-10
        assert abs(out.std() - 1.0) < 1e-10

    def test_identity_scaler(self):
        scaler = StandardScaler()
        scaler.mean_, scaler.std_ = 0.0, 1.0
        values = np.array([1.5, -2.0, 0.25])
        np.testing.assert_array_equal(scaler.transform(values), values)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(40, 3)) * 10 + 2
        scaler = fit_scaler(values)
        restored = scaler.inverse_transform(scaler.transform(values))
        assert np.max(np.abs(restored - values)) < 1e-12

    def test_explicit_round_trip(self):
        scaler = fit_scaler([[5.0], [10.0]])
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform([[5.0], [10.0]])), [[5.0], [10.0]]
        )

    def test_per_column_statistics(self):
        values = np.array([[1.0, 100.0], [3.0, 300.0]])
        scaler = fit_scaler(values)
        np.testing.assert_allclose(scaler.mean_, [2.0, 200.0])
        assert scaler.n_fit_rows_ == 2

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            fit_scaler(np.zeros((0, 3)))

    def test_matrix_required(self):
        with pytest.raises(DataError, match=r"\(n, columns\)"):
            fit_scaler([2.0, 4.0])

    def test_order_preserving(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(60, 1))
        transformed = fit_scaler(values).transform(values)
        assert np.argmax(values) == np.argmax(transformed)
        assert np.argmin(values) == np.argmin(transformed)
