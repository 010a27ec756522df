import numpy as np
import pytest

from jacprop import (
    ActivationSpec,
    EvalCounter,
    FDConfig,
    LayerDef,
    LayeredModel,
    ModelValidationError,
    NonFiniteError,
    SingularityError,
    finite_difference_jacobian,
    fold_bias,
    forward,
    jacobian_at_layer,
    jacobian_forward,
    prefix_model,
    suffix_model,
)
from helpers import random_smooth_model, seeded_model, spec_seed7_model


def _identity_model(matrices, input_dim):
    layers = tuple(
        LayerDef(weights=w, activation=ActivationSpec("identity")) for w in matrices
    )
    return LayeredModel(layers=layers, input_dim=input_dim)


class TestAlgorithm:
    def test_linear_model_jacobian_is_weight_product(self):
        model = _identity_model([np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2)], input_dim=2)
        trace = jacobian_forward(model, [7.0, -3.0])
        assert np.allclose(trace.full, [[1.0, 2.0], [3.0, 4.0]], atol=1e-15)

    def test_single_logistic_layer_at_origin(self):
        model = LayeredModel(
            layers=(LayerDef(weights=np.eye(2), activation=ActivationSpec("logistic")),),
            input_dim=2,
        )
        trace = jacobian_forward(model, [0.0, 0.0])
        assert np.allclose(trace.full, 0.25 * np.eye(2), atol=1e-15)

    def test_seed7_model_matches_finite_differences(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        estimate = finite_difference_jacobian(model, x, FDConfig(step=1e-5, scheme="central"))
        assert np.max(np.abs(trace.full - estimate)) <= 1e-6

    def test_seed7_intermediate_equals_truncated_model(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        truncated = jacobian_forward(prefix_model(model, 2), x)
        assert np.max(np.abs(jacobian_at_layer(trace, 2) - truncated.full)) <= 1e-12

    def test_trace_shapes_and_contents(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        m = model.input_dim
        assert trace.full.shape == (3, m)
        assert [J.shape for J in trace.per_layer] == [(4, 4), (5, 4), (5, 4), (3, 4)]
        assert np.array_equal(trace.per_layer[0], np.eye(m))
        assert trace.per_layer[-1] is trace.full
        assert [a.shape[0] for a in trace.activations] == [4, 5, 5, 3]
        assert [z.shape[0] for z in trace.weighted_inputs] == [5, 5, 3]
        # the trace snapshots the forward pass exactly
        acts = forward(model, x)
        for got, expected in zip(trace.activations, acts):
            assert np.array_equal(got, expected)

    def test_prefix_consistency_every_layer(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        for layer in range(2, model.layer_count + 1):
            truncated = jacobian_forward(prefix_model(model, layer), x)
            assert np.max(np.abs(jacobian_at_layer(trace, layer) - truncated.full)) <= 1e-12

    def test_chain_rule_split(self):
        for seed in (0, 1, 2, 3, 4):
            model, x = random_smooth_model(seed)
            if model.layer_count < 3:
                continue
            trace = jacobian_forward(model, x)
            k = 2 + seed % (model.layer_count - 2)
            a_k = forward(model, x)[k - 1]
            prefix_jac = jacobian_forward(prefix_model(model, k), x).full
            suffix_jac = jacobian_forward(suffix_model(model, k), a_k).full
            assert np.max(np.abs(suffix_jac @ prefix_jac - trace.full)) <= 1e-10

    def test_folded_bias_drops_constant_column(self):
        rng = np.random.default_rng(21)
        w1 = fold_bias(rng.uniform(-1, 1, size=(4, 3)), rng.uniform(-1, 1, size=4))
        w2 = rng.uniform(-1, 1, size=(2, 4))
        model = LayeredModel(
            layers=(
                LayerDef(weights=w1, activation=ActivationSpec("tanh"), bias_folded=True),
                LayerDef(weights=w2, activation=ActivationSpec("logistic")),
            ),
            input_dim=3,
        )
        x = np.array([0.2, -0.4, 0.6])
        trace = jacobian_forward(model, x)
        assert trace.full.shape == (2, 3)
        estimate = finite_difference_jacobian(model, x, FDConfig(step=1e-5, scheme="central"))
        assert np.max(np.abs(trace.full - estimate)) <= 1e-6

    def test_softmax_last_layer_columns_sum_to_zero(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        assert np.max(np.abs(np.sum(trace.full, axis=0))) <= 1e-10

    def test_one_pass_traversal_counts(self):
        model, x = random_smooth_model(9)
        counter = EvalCounter()
        jacobian_forward(model, x, counter=counter)
        assert counter.model_evals == 1
        assert counter.weighted_input_evals == model.layer_count - 1


class TestAccessor:
    def test_layer_one_is_identity(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        assert np.array_equal(jacobian_at_layer(trace, 1), np.eye(4))

    def test_last_layer_is_full(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        assert jacobian_at_layer(trace, trace.layer_count) is trace.full

    @pytest.mark.parametrize("layer", [0, -1, 5])
    def test_out_of_range(self, layer):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        with pytest.raises(ValueError, match="out of range"):
            jacobian_at_layer(trace, layer)


class TestSingularities:
    def _relu_model(self, policy):
        return LayeredModel(
            layers=(
                LayerDef(
                    weights=np.eye(2),
                    activation=ActivationSpec("relu", relu_zero_policy=policy),
                ),
            ),
            input_dim=2,
        )

    def test_hits_recorded_under_fallback(self):
        trace = jacobian_forward(self._relu_model("derivative_zero"), [0.0, 5.0])
        assert trace.singular_hits == ((2, 1),)
        assert np.array_equal(trace.full, np.diag([0.0, 1.0]))

    def test_derivative_one_policy_value(self):
        trace = jacobian_forward(self._relu_model("derivative_one"), [0.0, 5.0])
        assert np.array_equal(trace.full, np.diag([1.0, 1.0]))
        assert trace.singular_hits == ((2, 1),)

    def test_reject_policy_names_layer_and_coordinate(self):
        with pytest.raises(SingularityError) as excinfo:
            jacobian_forward(self._relu_model("reject"), [5.0, 0.0])
        assert excinfo.value.layer == 2
        assert excinfo.value.coordinate == 2

    def test_no_hits_on_clean_pass(self):
        trace = jacobian_forward(self._relu_model("derivative_zero"), [1.0, -1.0])
        assert trace.singular_hits == ()


class TestErrors:
    def test_invalid_model(self):
        model = _identity_model([np.ones((2, 3))], input_dim=2)
        with pytest.raises(ModelValidationError):
            jacobian_forward(model, [1.0, 2.0])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_names_layer(self):
        model = _identity_model([np.full((1, 1), 1e308), np.full((1, 1), 1e308)], input_dim=1)
        with pytest.raises(NonFiniteError, match="layer 3"):
            jacobian_forward(model, [1.0])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_errors_keep_layer_order(self):
        # a relu kink at layer 2 and an overflow at layer 3: the Jacobian
        # pass stops at the kink before layer 3 is evaluated, forward (which
        # never differentiates) reaches the overflow
        model = LayeredModel(
            layers=(
                LayerDef(
                    weights=np.array([[1.0, -1.0], [1.0, 1.0]]),
                    activation=ActivationSpec("relu", relu_zero_policy="reject"),
                ),
                LayerDef(weights=np.full((1, 2), 1e308), activation=ActivationSpec("identity")),
                LayerDef(weights=np.full((1, 1), 1e308), activation=ActivationSpec("identity")),
            ),
            input_dim=2,
        )
        with pytest.raises(SingularityError) as excinfo:
            jacobian_forward(model, [1.0, 1.0])
        assert (excinfo.value.layer, excinfo.value.coordinate) == (2, 1)
        with pytest.raises(NonFiniteError, match="layer 3"):
            forward(model, [1.0, 1.0])

    def test_trace_matrices_read_only(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        with pytest.raises(ValueError):
            trace.full[0, 0] = 1.0


class TestOracleSweep:
    def test_smooth_models_match_finite_differences(self):
        # smaller sweep here; the acceptance suite runs the full 200
        for seed in range(25):
            model, x = random_smooth_model(seed)
            trace = jacobian_forward(model, x)
            estimate = finite_difference_jacobian(model, x, FDConfig(step=1e-5, scheme="central"))
            scale = 1.0 + np.max(np.abs(trace.full))
            assert np.max(np.abs(trace.full - estimate)) <= 1e-5 * scale, seed

    def test_linear_collapse(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            depth = int(rng.integers(2, 5))
            widths = [int(w) for w in rng.integers(1, 8, size=depth + 1)]
            model = seeded_model(seed, widths, ["identity"] * depth)
            x = rng.uniform(-2.0, 2.0, size=widths[0])
            product = np.eye(model.input_dim)
            for layer in model.layers:
                product = layer.weights @ product
            trace = jacobian_forward(model, x)
            assert np.max(np.abs(trace.full - product)) <= 1e-12
