import numpy as np
import pytest

from jacprop import (
    ActivationSpec,
    DimensionMismatchError,
    EvalCounter,
    FDConfig,
    LayerDef,
    LayeredModel,
    NonFiniteError,
    compare_jacobians,
    finite_difference_jacobian,
    jacobian_forward,
)
from helpers import random_smooth_model, seeded_model


def _single_layer(weights, kind):
    return LayeredModel(
        layers=(LayerDef(weights=weights, activation=ActivationSpec(kind)),),
        input_dim=np.asarray(weights).shape[1],
    )


class TestEstimator:
    def test_linear_model_is_reproduced(self):
        model = _single_layer(np.array([[1.0, 2.0], [3.0, 4.0]]), "identity")
        estimate = finite_difference_jacobian(model, [0.3, -0.8], FDConfig(step=1e-3, scheme="central"))
        assert np.max(np.abs(estimate - [[1.0, 2.0], [3.0, 4.0]])) <= 1e-9

    def test_softplus_derivative_at_zero(self):
        model = _single_layer(np.array([[1.0]]), "softplus")
        estimate = finite_difference_jacobian(model, [0.0], FDConfig(step=1e-5, scheme="central"))
        assert abs(estimate[0, 0] - 0.5) <= 1e-9

    def test_mutual_verification_with_engine(self):
        for seed in range(50):
            model, x = random_smooth_model(seed)
            exact = jacobian_forward(model, x).full
            estimate = finite_difference_jacobian(model, x, FDConfig(step=1e-5, scheme="central"))
            result = compare_jacobians(exact, estimate, tolerance=1e-5)
            assert result.within_tolerance, (seed, result.max_abs_diff)

    @pytest.mark.parametrize("scheme", ["forward", "central"])
    def test_linear_models_exact_across_step_sizes(self, scheme):
        model = seeded_model(17, (4, 3, 2), ("identity", "identity"))
        x = np.array([0.5, -0.25, 1.0, 0.75])
        product = model.layers[1].weights @ model.layers[0].weights
        for step in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            estimate = finite_difference_jacobian(model, x, FDConfig(step=step, scheme=scheme))
            assert np.max(np.abs(estimate - product)) <= 1e-8, step

    def test_central_error_shrinks_quadratically(self):
        # halving h should cut the error by ~4 (spec allows [3, 5])
        for seed in range(10):
            model, x = random_smooth_model(seed, softmax_last=False)
            exact = jacobian_forward(model, x).full
            coarse = finite_difference_jacobian(model, x, FDConfig(step=1e-3, scheme="central"))
            fine = finite_difference_jacobian(model, x, FDConfig(step=5e-4, scheme="central"))
            err_coarse = np.max(np.abs(coarse - exact))
            err_fine = np.max(np.abs(fine - exact))
            assert err_fine > 0, seed
            assert 3.0 <= err_coarse / err_fine <= 5.0, seed


class TestEvaluationCounts:
    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_forward_scheme_makes_m_plus_1_evaluations(self, m):
        model = seeded_model(m, (m, 3, 2), ("tanh", "tanh"))
        counter = EvalCounter()
        finite_difference_jacobian(model, np.zeros(m), FDConfig(scheme="forward"), counter=counter)
        assert counter.model_evals == m + 1
        assert counter.weighted_input_evals == (m + 1) * (model.layer_count - 1)

    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_central_scheme_makes_2m_evaluations(self, m):
        model = seeded_model(m, (m, 3, 2), ("tanh", "tanh"))
        counter = EvalCounter()
        finite_difference_jacobian(model, np.zeros(m), FDConfig(scheme="central"), counter=counter)
        assert counter.model_evals == 2 * m
        assert counter.weighted_input_evals == 2 * m * (model.layer_count - 1)


class TestCompare:
    def test_equal_matrices(self):
        matrix = np.array([[1.0, -2.0], [3.0, 4.0]])
        result = compare_jacobians(matrix, matrix.copy(), tolerance=1e-300)
        assert result.max_abs_diff == 0.0
        assert result.max_rel_diff == 0.0
        assert result.within_tolerance is True

    def test_simple_difference(self):
        result = compare_jacobians([[1.0]], [[1.5]], tolerance=0.1)
        assert result.max_abs_diff == pytest.approx(0.5)
        assert result.max_rel_diff == pytest.approx(0.25)
        assert result.argmax_location == (1, 1)
        assert result.within_tolerance is False

    def test_argmax_location_is_one_based(self):
        a = np.zeros((2, 3))
        b = np.zeros((2, 3))
        b[1, 2] = 7.0
        result = compare_jacobians(a, b, tolerance=1.0)
        assert result.argmax_location == (2, 3)
        assert result.max_abs_diff == 7.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compare_jacobians(np.zeros((2, 2)), np.zeros((2, 3)), tolerance=1.0)

    def test_boundary_is_inclusive(self):
        result = compare_jacobians([[0.0]], [[0.5]], tolerance=0.5)
        assert result.within_tolerance is True

    @pytest.mark.parametrize("tolerance", [-1.0, float("nan")])
    def test_negative_or_nan_tolerance_rejected(self, tolerance):
        matrix = np.eye(2)
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            compare_jacobians(matrix, matrix, tolerance)


class TestConfigAndErrors:
    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            FDConfig(step=0.0)
        with pytest.raises(ValueError):
            FDConfig(step=-1e-5)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            FDConfig(scheme="complex")

    def test_defaults(self):
        cfg = FDConfig()
        assert cfg.step == 1e-5
        assert cfg.scheme == "central"

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_probe_is_named(self):
        # F(x) is finite but F(x + h) overflows
        model = _single_layer(np.array([[1e308]]), "identity")
        with pytest.raises(NonFiniteError, match="probe"):
            finite_difference_jacobian(model, [1.79], FDConfig(step=0.02, scheme="central"))
