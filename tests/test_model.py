import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jacprop import (
    ActivationSpec,
    DimensionMismatchError,
    InstanceVector,
    LayerDef,
    LayeredModel,
    ModelValidationError,
    NonFiniteError,
    activation_apply,
    build_report,
    compare_jacobians,
    emit_matrix,
    finite_difference_jacobian,
    fold_bias,
    forward,
    jacobian_forward,
    load_model,
    prefix_model,
    softmax,
    suffix_model,
    save_model,
    validate_model,
)
from helpers import clones, flat_forward, random_smooth_model, seeded_model, sweep_model, uncertified


def _model(shapes_and_kinds, input_dim, biased=()):
    layers = []
    for pos, (weights, kind) in enumerate(shapes_and_kinds, start=1):
        layers.append(
            LayerDef(
                weights=weights,
                activation=ActivationSpec(kind),
                bias_folded=pos in biased,
            )
        )
    return LayeredModel(layers=tuple(layers), input_dim=input_dim)


class TestValidateModel:
    def test_consistent_chain_2_3_2(self):
        model = _model(
            [(np.zeros((3, 2)), "identity"), (np.zeros((2, 3)), "identity")], input_dim=2
        )
        assert validate_model(model) == []

    def test_chain_mismatch_names_layer_2(self):
        model = _model(
            [(np.zeros((3, 2)), "identity"), (np.zeros((4, 5)), "identity")], input_dim=2
        )
        violations = validate_model(model)
        assert len(violations) == 1
        assert violations[0].startswith("layer 2:")
        assert "5" in violations[0] and "3" in violations[0]

    def test_single_layer_logistic(self):
        model = _model([(np.zeros((1, 4)), "logistic")], input_dim=4)
        assert validate_model(model) == []

    def test_first_layer_against_input_dim(self):
        model = _model([(np.zeros((2, 3)), "identity")], input_dim=2)
        violations = validate_model(model)
        assert len(violations) == 1
        assert violations[0].startswith("layer 1:")

    def test_empty_model(self):
        model = LayeredModel(layers=(), input_dim=3)
        assert any("no layers" in v for v in validate_model(model))
        assert model.output_dim == 3

    def test_a_matrix_without_rows_is_named(self):
        model = _model([(np.zeros((0, 2)), "identity")], input_dim=2)
        assert validate_model(model) == ["layer 1: weight matrix must have at least one row and one column, got 0x2"]
        assert model._safe_input == 0.0

    def test_non_finite_weights(self):
        model = _model([(np.array([[np.nan, 1.0]]), "identity")], input_dim=2)
        assert any("non-finite" in v for v in validate_model(model))

    def test_folded_layer_expects_extra_column(self):
        weights = fold_bias(np.ones((2, 3)), np.zeros(2))
        model = _model([(weights, "identity")], input_dim=3, biased=(1,))
        assert validate_model(model) == []
        # same augmented matrix without the folded flag no longer chains
        bad = _model([(weights, "identity")], input_dim=3)
        assert len(validate_model(bad)) == 1


class TestFoldBias:
    def test_row_vector(self):
        assert np.array_equal(fold_bias([[1.0, 2.0]], [3.0]), [[1.0, 2.0, 3.0]])

    def test_zero_case(self):
        assert np.array_equal(fold_bias(np.zeros((2, 2)), np.zeros(2)), np.zeros((2, 3)))

    def test_column_pair(self):
        assert np.array_equal(fold_bias([[1.0], [-1.0]], [5.0, -5.0]), [[1.0, 5.0], [-1.0, -5.0]])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fold_bias([[1.0, 2.0]], [1.0, 2.0])

    def test_shapes_are_a_matrix_and_a_vector(self):
        with pytest.raises(DimensionMismatchError, match=r"^weights must be a 2-D matrix, got shape \(2,\)$"):
            fold_bias([1.0, 2.0], [1.0])
        with pytest.raises(DimensionMismatchError, match=r"^bias must be a 1-D vector, got shape \(1, 1\)$"):
            fold_bias([[1.0, 2.0]], [[1.0]])

    @given(rows=st.integers(1, 5), cols=st.integers(1, 5), seed=st.integers(0, 999))
    def test_fold_appends_last_column(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(rows, cols))
        bias = rng.normal(size=rows)
        folded = fold_bias(weights, bias)
        assert folded.shape == (rows, cols + 1)
        assert np.array_equal(folded[:, :cols], weights)
        assert np.array_equal(folded[:, cols], bias)


class TestForward:
    def test_identity_linear_map(self):
        model = _model([(np.array([[2.0, 0.0], [0.0, 3.0]]), "identity")], input_dim=2)
        activations = forward(model, [1.0, 1.0])
        assert np.array_equal(activations[0], [1.0, 1.0])
        assert np.array_equal(activations[-1], [2.0, 3.0])

    def test_logistic_at_zero(self):
        model = _model([(np.array([[1.0]]), "logistic")], input_dim=1)
        assert forward(model, [0.0])[-1] == pytest.approx([0.5], abs=1e-15)

    def test_seed42_tanh_against_flat_loop_oracle(self):
        model = seeded_model(42, (3, 5, 4, 2), ("tanh", "tanh", "tanh"))
        got = forward(model, np.ones(3))[-1]
        expected = flat_forward(model, np.ones(3))
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_returns_all_layer_activations(self):
        model = seeded_model(3, (2, 4, 3), ("tanh", "logistic"))
        activations = forward(model, [0.3, -0.7])
        assert [a.shape[0] for a in activations] == [2, 4, 3]

    def test_composition_across_any_split(self):
        model = seeded_model(11, (3, 4, 5, 2, 3), ("tanh", "logistic", "softplus", "identity"))
        x = np.array([0.4, -0.1, 0.9])
        full = forward(model, x)[-1]
        for k in range(2, model.layer_count):
            mid = forward(prefix_model(model, k), x)[-1]
            again = forward(suffix_model(model, k), mid)[-1]
            assert np.array_equal(full, again)

    def test_identity_model_scales_linearly(self):
        model = seeded_model(5, (3, 4, 2), ("identity", "identity"))
        x = np.array([0.2, -0.5, 1.1])
        base = forward(model, x)[-1]
        for alpha in (-2.0, 0.0, 0.5, 3.25):
            scaled = forward(model, alpha * x)[-1]
            assert np.allclose(scaled, alpha * base, rtol=1e-12, atol=1e-15)

    def test_folded_bias_equals_affine_map(self):
        rng = np.random.default_rng(8)
        weights = rng.normal(size=(3, 2))
        bias = rng.normal(size=3)
        model = _model([(fold_bias(weights, bias), "identity")], input_dim=2, biased=(1,))
        x = np.array([0.7, -1.2])
        got = forward(model, x)[-1]
        assert np.allclose(got, weights @ x + bias, rtol=1e-14, atol=1e-14)

    def test_wrong_input_length(self):
        model = _model([(np.ones((1, 2)), "identity")], input_dim=2)
        with pytest.raises(DimensionMismatchError):
            forward(model, [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError, match=r"^input must be a 1-D vector, got shape \(1, 2\)$"):
            forward(model, [[1.0, 2.0]])

    def test_non_finite_input_rejected(self):
        model = _model([(np.ones((1, 2)), "identity")], input_dim=2)
        with pytest.raises(NonFiniteError):
            forward(model, [np.nan, 0.0])

    def test_empty_input_is_a_length_mismatch(self):
        # max|x| of no entries is no reduction numpy can take: the length rule names it
        model = _model([(np.ones((1, 2)), "identity")], input_dim=2)
        for run in (forward, jacobian_forward, finite_difference_jacobian):
            with pytest.raises(DimensionMismatchError, match="^input length 0 does not match model input_dim 2$"):
                run(model, np.array([]))

    def test_invalid_model_rejected(self):
        model = _model([(np.ones((1, 3)), "identity")], input_dim=2)
        with pytest.raises(ModelValidationError):
            forward(model, [1.0, 2.0])

    def test_overflow_reports_layer(self):
        model = _model(
            [(np.full((1, 1), 1e308), "identity"), (np.full((1, 1), 1e308), "identity")],
            input_dim=1,
        )
        with pytest.raises(NonFiniteError, match="layer 3"):
            forward(model, [1.0])

    def test_accepts_instance_vector(self):
        model = _model([(np.array([[1.0, 1.0]]), "identity")], input_dim=2)
        assert forward(model, InstanceVector(values=np.array([1.0, 2.0])))[-1] == pytest.approx([3.0])


class TestTypes:
    def test_weights_are_read_only(self):
        layer = LayerDef(weights=[[1.0, 2.0]], activation=ActivationSpec("identity"))
        with pytest.raises(ValueError):
            layer.weights[0, 0] = 5.0

    def test_ragged_weights_rejected(self):
        with pytest.raises(ValueError):
            LayerDef(weights=[[1.0, 2.0], [3.0]], activation=ActivationSpec("identity"))

    def test_a_layer_is_a_matrix_with_a_spec(self):
        with pytest.raises(ValueError, match=r"^weights must be a 2-D matrix, got 1 dimension\(s\)$"):
            LayerDef(weights=[1.0, 2.0], activation=ActivationSpec("identity"))
        with pytest.raises(TypeError, match="^activation must be an ActivationSpec$"):
            LayerDef(weights=[[1.0]], activation="identity")
        with pytest.raises(TypeError, match="^layers must contain LayerDef values$"):
            LayeredModel(layers=("x",), input_dim=1)

    def test_input_dim_must_be_positive(self):
        with pytest.raises(ValueError):
            LayeredModel(layers=(LayerDef(weights=[[1.0]], activation=ActivationSpec("identity")),), input_dim=0)

    def test_input_dim_must_be_an_integer(self):
        layers = (LayerDef(weights=[[1.0]], activation=ActivationSpec("identity")),)
        for not_an_integer in (float("inf"), float("nan"), None, "1", 1.5, True, 1 + 0j, [1]):
            with pytest.raises(TypeError, match="^input_dim must be an integer$"):
                LayeredModel(layers=layers, input_dim=not_an_integer)
        for integer in (1, 1.0, np.int64(1), np.float64(1.0)):
            model = LayeredModel(layers=layers, input_dim=integer)
            assert model.input_dim == 1 and type(model.input_dim) is int

    def test_instance_vector_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            InstanceVector(values=np.array([1.0, np.inf]))

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 2's copy keyword")
    def test_instance_vector_follows_numpys_copy_protocol(self):
        instance = InstanceVector(values=[1.0, 2.0])
        for dtype in (None, np.float64, "float64"):
            assert np.asarray(instance, dtype=dtype, copy=False) is instance.values
            assert np.asarray(instance, dtype=dtype) is instance.values
            copy = np.asarray(instance, dtype=dtype, copy=True)
            assert copy is not instance.values and copy.flags.writeable and copy.tolist() == [1.0, 2.0]
        # as numpy does for the array itself
        with pytest.raises(ValueError):
            np.asarray(instance.values, dtype=np.float32, copy=False)
        with pytest.raises(ValueError, match="^an instance is float64: float32 needs a copy, which copy=False forbids$"):
            np.asarray(instance, dtype=np.float32, copy=False)

    def test_instance_vector_as_an_array(self):
        instance = InstanceVector(values=[1.0, 2.0])
        assert len(instance) == 2
        assert np.asarray(instance) is instance.values
        as_float32 = np.asarray(instance, dtype=np.float32)
        assert as_float32.dtype == np.float32 and as_float32.tolist() == [1.0, 2.0]
        copy = np.array(instance, copy=True)
        assert copy is not instance.values and copy.flags.writeable and copy.tolist() == [1.0, 2.0]

    def test_prefix_suffix_ranges(self):
        model = seeded_model(1, (2, 3, 2), ("tanh", "tanh"))
        with pytest.raises(ValueError):
            prefix_model(model, 1)
        with pytest.raises(ValueError):
            prefix_model(model, model.layer_count + 1)
        with pytest.raises(ValueError):
            suffix_model(model, model.layer_count)
        for not_an_index in (2.0, True):
            with pytest.raises(ValueError, match="layer must be an integer"):
                prefix_model(model, not_an_index)
            with pytest.raises(ValueError, match="layer must be an integer"):
                suffix_model(model, not_an_index)
        assert suffix_model(model, 1) is model

    def test_verdict_is_the_models_own(self):
        model = _model([(np.zeros((3, 2)), "identity")], input_dim=2)
        violations = validate_model(model)
        assert violations == []
        violations.append("tampered")
        assert validate_model(model) == []
        # a model built from another gets its own verdict, and equality ignores it
        wider = dataclasses.replace(model, input_dim=3)
        assert validate_model(wider) == ["layer 1: weight column count 2 does not match input_dim 3"]
        assert dataclasses.replace(wider, input_dim=2) == model
        assert "_violations" not in repr(model)
        with pytest.raises(ModelValidationError):
            forward(wider, [1.0, 2.0, 3.0])


def _bits(model, x):
    """forward, full and every prefix read input-first, as bytes."""
    trace = jacobian_forward(model, x)
    return [a.tobytes() for a in forward(model, x)] + [jac.tobytes() for jac in (trace.full, *trace.per_layer)]


class TestValue:
    """Layers, models and instances compare and hash by value, and copies keep their invariants."""

    def test_two_loads_of_one_document_are_equal(self):
        model = seeded_model(3, (4, 5, 3), ("tanh", "softmax"), biased=(1,))
        document = save_model(model)
        first, second = load_model(document), load_model(document)
        assert first == second == model and hash(first) == hash(second) == hash(model)
        assert first.layers[0] == second.layers[0] and hash(first.layers[0]) == hash(second.layers[0])
        assert len({first, second, model}) == 1
        instance = InstanceVector(values=[1.0, -2.0])
        assert instance == InstanceVector(values=np.array([1.0, -2.0])) and hash(instance) == hash(
            InstanceVector(values=(1.0, -2.0))
        )

    def test_values_differ_where_shapes_or_bytes_do(self):
        tanh = ActivationSpec("tanh")
        layer = LayerDef(weights=[[1.0, 0.0, 2.0, 3.0]], activation=tanh)
        assert layer != LayerDef(weights=[[1.0, -0.0, 2.0, 3.0]], activation=tanh)  # -0.0 has other bytes
        assert layer != LayerDef(weights=[[1.0, 0.0], [2.0, 3.0]], activation=tanh)  # same bytes, other shape
        assert layer != LayerDef(weights=[[1.0, 0.0, 2.0, 3.0]], activation=ActivationSpec("identity"))
        assert layer != LayerDef(weights=[[1.0, 0.0, 2.0, 3.0]], activation=tanh, bias_folded=True)
        assert layer != "layer" and layer != (layer.activation, False, layer.weights.shape)
        model = LayeredModel(layers=(layer,), input_dim=4)
        assert model != LayeredModel(layers=(layer, layer), input_dim=4)
        other = LayerDef(weights=[[1.0, 0.0, 2.0, 3.5]], activation=tanh)
        assert model != LayeredModel(layers=(other,), input_dim=4)
        assert InstanceVector(values=[0.0]) != InstanceVector(values=[-0.0])
        assert InstanceVector(values=[1.0]) != InstanceVector(values=[1.0, 1.0])

    def test_copies_keep_read_only_weights_views_and_bits(self):
        folded = 0
        for seed in range(200):
            model, x = sweep_model(seed)
            folded += any(layer.bias_folded for layer in model.layers)
            expected = _bits(model, x)
            for clone in clones(model):
                assert clone == model and hash(clone) == hash(model), seed
                assert clone._safe_input == model._safe_input
                for layer, original in zip(clone.layers, model.layers):
                    assert layer == original and hash(layer) == hash(original)
                    assert not layer.weights.flags.writeable
                    assert np.shares_memory(layer.linear_part(), layer.weights)
                    assert layer.linear_part().strides == original.linear_part().strides
                assert _bits(clone, x) == expected, seed
        assert 0 < folded < 200

    def test_an_instance_stays_read_only_when_copied(self):
        instance = InstanceVector(values=[1.0, -0.0, 2.5])
        for clone in clones(instance):
            assert not clone.values.flags.writeable
            assert clone == instance and hash(clone) == hash(instance)
            assert clone.values.tobytes() == instance.values.tobytes()


class TestSafeInput:
    """The largest max|x| at which no value and no Jacobian product can pass 2^1000, fixed when a model is built."""

    def test_values_grow_until_a_layer_bounds_them_by_one(self):
        # 2 max(|x|, 1) <= 2^1000 for one identity layer of weight 2
        assert _model([(np.full((1, 1), 2.0), "identity")], 1)._safe_input == 2.0**999
        # softplus doubles a value above 1, leaky_relu grows it by alpha; the bias column counts for values
        assert _model([(np.full((1, 1), 2.0), "softplus")], 1)._safe_input == 2.0**998
        steep = ActivationSpec("leaky_relu", alpha=4.0)
        leaky = LayeredModel(layers=(LayerDef(weights=[[2.0, 2.0]], activation=steep, bias_folded=True),), input_dim=1)
        assert leaky._safe_input == 2.0**996
        # after tanh a value is at most 1, and no later layer depends on x
        for weight, safe in ((2.0**400, 2.0**997), (2.0**1001, 0.0)):
            assert _model([(np.full((1, 1), 8.0), "tanh"), (np.full((1, 1), weight), "identity")], 1)._safe_input == safe
        # a model whose weights are all zero is safe at every input
        assert _model([(np.zeros((2, 2)), "relu")], 2)._safe_input == np.inf

    def test_a_jacobian_beyond_the_limit_certifies_no_input(self):
        # the bound takes max(1, kappa) max(1, rho') per layer: a slope norm of 1/4 (logistic) or 1/2
        # (softmax) does not bring 2^600 2^600 under the limit
        for kind in ("logistic", "softmax", "tanh"):
            model = _model([(np.full((1, 1), 2.0**600), kind), (np.full((1, 1), 2.0**600), "identity")], 1)
            assert model._safe_input == 0.0, kind
        # tanh keeps every value within 1, so the Jacobian bound alone decides: 2^500 2^500 is the limit itself
        at_limit = _model([(np.full((1, 1), 2.0**500), "tanh"), (np.full((1, 1), 2.0**500), "tanh")], 1)
        beyond = _model([(np.full((1, 1), 2.0**500), "tanh"), (np.full((1, 1), 2.0**500 * (1 + 2.0**-52)), "tanh")], 1)
        assert at_limit._safe_input == 2.0**500
        assert beyond._safe_input == 0.0

    def test_an_invalid_model_is_never_safe(self):
        for model in (
            _model([(np.ones((1, 3)), "identity")], 2),
            _model([(np.array([[1.0, np.inf]]), "identity")], 2),
            LayeredModel(layers=(), input_dim=2),
        ):
            assert validate_model(model) and model._safe_input == 0.0

    def test_finite_weights_whose_row_sum_overflows_stay_valid(self):
        model = _model([(np.full((1, 2), 1.7e308), "identity")], 2)
        assert validate_model(model) == [] and model._safe_input == 0.0
        assert forward(model, [0.0, 0.0])[-1].tolist() == [0.0]

    def test_forward_below_the_safe_input_never_overflows(self):
        for seed in range(100):
            model, x = random_smooth_model(seed)
            peak = np.max(np.abs(x))
            point = x / peak * model._safe_input * (1.0 - 2.0**-20)
            with np.errstate(over="raise", invalid="raise"):
                values = forward(model, point)
            assert all(np.isfinite(a).all() for a in values)
            # the same bits as the checked path
            assert [a.tobytes() for a in values] == [a.tobytes() for a in forward(uncertified(model), point)]

    def test_above_the_safe_input_forward_names_the_overflow(self):
        model = _model([(np.full((1, 1), 2.0), "identity"), (np.full((1, 1), 2.0**999), "identity")], 1)
        assert model._safe_input == 1.0
        assert forward(model, [0.75])[-1].tolist() == [1.5 * 2.0**999]
        # 2^25 2 2^999 = 2^1025
        with pytest.raises(NonFiniteError, match="^non-finite weighted input at layer 3$"):
            forward(model, [2.0**25])


_IDENTITY_2_TO_1 = LayeredModel(layers=(LayerDef(weights=[[1.0, 2.0]], activation=ActivationSpec("identity")),), input_dim=2)


# each entry point takes a vector (1+5j, 2) or a matrix [[1+5j, 2]]; a cast would keep only the real parts
@pytest.mark.parametrize(
    "call,what",
    [
        (lambda v, m: jacobian_forward(_IDENTITY_2_TO_1, v), "input"),
        (lambda v, m: forward(_IDENTITY_2_TO_1, v), "input"),
        (lambda v, m: InstanceVector(values=v), "instance"),
        (lambda v, m: activation_apply(ActivationSpec("tanh"), v), "activation input"),
        (lambda v, m: softmax(v), "softmax input"),
        (lambda v, m: compare_jacobians(m, [[1.0, 2.0]], 0.0), "a"),
        (lambda v, m: compare_jacobians([[1.0, 2.0]], m, 0.0), "b"),
        (lambda v, m: build_report(m), "jacobian"),
        (lambda v, m: emit_matrix(m), "matrix"),
        (lambda v, m: LayerDef(weights=m, activation=ActivationSpec("identity")), "weights"),
        (lambda v, m: fold_bias(m, [0.0]), "weights"),
        (lambda v, m: fold_bias([[1.0], [2.0]], v), "bias"),
    ],
    ids=[
        "jacobian_forward", "forward", "InstanceVector", "activation_apply", "softmax", "compare_jacobians a",
        "compare_jacobians b", "build_report", "emit_matrix", "LayerDef", "fold_bias weights", "fold_bias bias",
    ],
)
@pytest.mark.parametrize("container", [np.array, list], ids=["ndarray", "list"])
def test_complex_input_is_refused(call, what, container):
    with pytest.raises(ValueError, match=f"{what} must hold real numbers, got dtype complex128$"):
        call(container([1 + 5j, 2.0]), container([[1 + 5j, 2.0]]))
