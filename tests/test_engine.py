import pickle
import sys
import threading
from collections.abc import Sequence

import numpy as np
import pytest

from jacprop import (
    ActivationSpec,
    FDConfig,
    LayerDef,
    LayeredModel,
    ModelValidationError,
    NonFiniteError,
    SingularityError,
    activation_jacobian,
    finite_difference_jacobian,
    fold_bias,
    forward,
    jacobian_at_layer,
    jacobian_forward,
    prefix_model,
)
from jacprop import engine
from helpers import (
    clones,
    overflowing_activation_model,
    random_smooth_model,
    seeded_model,
    spec_seed7_model,
    sweep_model,
    uncertified,
)


def _identity_model(matrices, input_dim):
    layers = tuple(
        LayerDef(weights=w, activation=ActivationSpec("identity")) for w in matrices
    )
    return LayeredModel(layers=layers, input_dim=input_dim)


def _pass_with(model, trace, matmul):
    """The weighted inputs, the prefixes J[1..L] and the output-first product, each product through matmul.

    The file's one float reference for the pass, built from the trace's own a and z. J[1] is I_m, J[2] is F[2] + 0,
    which is what the product F[2] I_m gives (a -0 becomes +0); every later prefix is J_sigma (W J[l-1]).
    The output-first product starts from F[L] and applies each earlier factor to it as (C J_sigma) W.
    """
    zs, prefixes, factors = [], [np.eye(model.input_dim)], []
    for layer, a, z in zip(model.layers, trace.activations, trace.weighted_inputs):
        src = np.concatenate((a, [1.0])) if layer.bias_folded else a
        zs.append(matmul(layer.weights, src))
        slope = activation_jacobian(layer.activation, z).matrix
        dense = layer.activation.kind == "softmax"
        factors.append((slope if dense else np.diag(slope), dense, layer.linear_part()))
    for slope, dense, linear in factors:
        if len(prefixes) == 1:
            jac = (matmul(slope, linear) if dense else slope[:, np.newaxis] * linear) + 0.0
        else:
            product = matmul(linear, prefixes[-1])
            jac = matmul(slope, product) if dense else slope[:, np.newaxis] * product
        prefixes.append(jac)
    slope, dense, linear = factors[-1]
    product = matmul(slope, linear) if dense else slope[:, np.newaxis] * linear
    for slope, dense, linear in reversed(factors[:-1]):
        product = matmul(matmul(product, slope) if dense else product * slope, linear)
    return zs, prefixes, product


def _overflowing_prefix_model():
    """2->1->1->1 at (1e-200, 0): values 1, 1e200, 1; the product is 1e200 but the prefix J[3] is 1e400."""
    return _identity_model(
        [np.full((1, 2), 1e200), np.full((1, 1), 1e200), np.full((1, 1), 1e-200)], input_dim=2
    )


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


class TestAccessor:
    def test_layer_one_is_identity(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        assert np.array_equal(jacobian_at_layer(trace, 1), np.eye(4))

    def test_last_layer_is_full(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        assert jacobian_at_layer(trace, trace.layer_count) is trace.full

    @pytest.mark.parametrize("layer", [0, -1, 5, True, 2.0])
    def test_out_of_range(self, layer):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        with pytest.raises(ValueError, match=r"layer must be an integer in \[1, 4\]"):
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

    def test_overflow_names_layer(self):
        model = _identity_model([np.full((1, 1), 1e308), np.full((1, 1), 1e308)], input_dim=1)
        with pytest.raises(NonFiniteError, match="layer 3"):
            jacobian_forward(model, [1.0])

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

    def test_jacobian_overflow_names_its_layer(self):
        # the values stay finite (1, then 1e200) while J[3] = 1e400 overflows
        model = _identity_model([np.full((1, 1), 1e200)] * 2, input_dim=1)
        with pytest.raises(NonFiniteError, match="^non-finite Jacobian entries at layer 3$"):
            jacobian_forward(model, [1e-200])

    def test_value_pass_errors_come_before_an_earlier_jacobian_overflow(self):
        # J[3] overflows, but the Jacobian is checked after the last layer:
        # the value pass's own error at layer 4 is reported first
        model = _identity_model([np.full((1, 1), 1e200)] * 3, input_dim=1)
        with pytest.raises(NonFiniteError, match="^non-finite weighted input at layer 4$"):
            jacobian_forward(model, [1e-200])
        kinked = LayeredModel(
            layers=_identity_model([np.full((1, 1), 1e200)] * 2, input_dim=1).layers
            + (LayerDef(weights=np.zeros((1, 1)), activation=ActivationSpec("relu", relu_zero_policy="reject")),),
            input_dim=1,
        )
        with pytest.raises(SingularityError) as excinfo:
            jacobian_forward(kinked, [1e-200])
        assert (excinfo.value.layer, excinfo.value.coordinate) == (4, 1)

    def test_finite_product_with_an_overflowing_prefix(self):
        # output-to-input: 1e-200 * 1e200 first
        trace = jacobian_forward(_overflowing_prefix_model(), [1e-200, 0.0])
        assert np.allclose(trace.full, [[1e200, 1e200]], rtol=1e-15, atol=0)
        assert np.array_equal(trace.per_layer[1], [[1e200, 1e200]])
        assert jacobian_at_layer(trace, 4) is trace.full
        # the prefix is refused where it is read, every time, and without a numpy warning
        for _ in range(2):
            with pytest.raises(NonFiniteError, match="^non-finite Jacobian entries at layer 3$"):
                trace.per_layer[2]
            with pytest.raises(NonFiniteError, match="^non-finite Jacobian entries at layer 3$"):
                jacobian_at_layer(trace, 3)

    def test_product_overflow_falls_back_to_the_input_to_output_order(self):
        # output-to-input meets 1e200 * 1e200 first; input-to-output stays finite
        model = _identity_model(
            [np.full((1, 2), 1e-200), np.full((1, 1), 1e200), np.full((1, 1), 1e200)], input_dim=2
        )
        trace = jacobian_forward(model, [1.0, 0.0])
        with np.errstate(over="ignore"):
            _, expected, product = _pass_with(model, trace, np.matmul)
        assert not np.isfinite(product).any()
        assert np.all(np.isfinite(trace.full))
        assert np.array_equal(trace.full, expected[-1])
        assert np.array_equal(trace.per_layer[2], expected[2])
        assert trace.per_layer[-1] is trace.full

    def test_finite_entries_whose_sum_overflows_pass_the_check(self):
        # J = [[1.7e308, 1.7e308]] is finite although its sum is not: one factor (input-first) and two (output-first)
        w = np.full((1, 2), 1.7e308)
        for model in (_identity_model([w], 2), _identity_model([w, np.ones((1, 1))], 2)):
            trace = jacobian_forward(model, [0.0, 0.0])
            assert np.array_equal(trace.full, w)
            assert np.array_equal(trace.per_layer[1], w)

    def test_trace_matrices_read_only(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        with pytest.raises(ValueError):
            trace.full[0, 0] = 1.0

    def test_non_finite_activation_names_its_layer(self):
        for run in (forward, jacobian_forward):
            with pytest.raises(NonFiniteError, match="^non-finite activation at layer 2$"):
                run(overflowing_activation_model(), [-1e10])


class TestPlan:
    def test_every_shape_folds_from_the_output_end(self):
        wide = seeded_model(4, (784, 512, 512, 10), ("relu", "relu", "softmax"))
        narrow = seeded_model(4, (1, 64, 64, 64), ("tanh", "logistic", "softplus"))
        for model, x in ((wide, np.linspace(-1.0, 1.0, 784)), (narrow, [0.5])):
            trace = jacobian_forward(model, x)
            assert trace.full.tobytes() == _pass_with(model, trace, np.matmul)[2].tobytes()

    def test_ties_break_the_same_way_every_time(self):
        model = seeded_model(3, (4, 4, 4, 4, 4), ("tanh", "softplus", "logistic", "tanh"))
        x = np.array([0.3, -0.1, 0.7, 0.2])
        trace = jacobian_forward(model, x)
        first, again = trace.full, jacobian_forward(model, x).full
        assert first.tobytes() == again.tobytes()
        assert first.tobytes() == _pass_with(model, trace, np.matmul)[2].tobytes()

    def test_product_agrees_with_the_input_to_output_order(self):
        # the models of acceptance criterion 1
        for seed in range(200):
            model, x = random_smooth_model(seed)
            trace = jacobian_forward(model, x)
            full, expected = trace.full, _pass_with(model, trace, np.matmul)[1][-1]
            assert np.max(np.abs(full - expected)) <= 1e-13 * (1.0 + np.max(np.abs(expected))), seed

    def test_signed_zero_weights_keep_the_prefix_bits(self):
        # J[2] = F[2] I_m, and the product with I_m turns a -0 weight into +0
        for weights in ([[-0.0, 1.0]], [[-0.0], [1.0]]):
            w = np.array(weights)
            for model in (_identity_model([w], w.shape[1]), _identity_model([w, np.ones((1, w.shape[0]))], w.shape[1])):
                x = np.ones(w.shape[1])
                prefix = jacobian_forward(model, x).per_layer[1]
                # F[2] = W for an identity layer
                assert prefix.tobytes() == (w @ np.eye(w.shape[1])).tobytes()
                assert not np.signbit(prefix).any()


def _wide_first_layers():
    """One- and two-layer models whose first layer is 64 to 257 columns wide, folded or not, at an input.

    The weights hold -0.0 and +-1e-300 entries; relu rows with z < 0 are dead over negative weights, and
    leaky_relu's slope alpha = 1e-30 times a weight of 1e-300 underflows to zero.
    """
    rng = np.random.default_rng(19)
    kinds = ("relu", "leaky_relu", "tanh", "identity", "softmax")
    for cols in (64, 100, 257):
        for kind in kinds:
            for folded in (False, True):
                linear = rng.uniform(-1.0, 1.0, size=(9, cols))
                pick = rng.random(linear.shape)
                linear[pick < 0.2] = -0.0
                linear[(pick >= 0.2) & (pick < 0.3)] = 1e-300
                linear[(pick >= 0.3) & (pick < 0.4)] = -1e-300
                weights = fold_bias(linear, rng.uniform(-1.0, 1.0, size=9)) if folded else linear
                spec = ActivationSpec(kind, alpha=1e-30) if kind == "leaky_relu" else ActivationSpec(kind)
                first = LayerDef(weights=weights, activation=spec, bias_folded=folded)
                second = LayerDef(weights=rng.uniform(-1.0, 1.0, size=(3, 9)), activation=ActivationSpec("tanh"))
                for layers in ((first,), (first, second)):
                    yield LayeredModel(layers=layers, input_dim=cols), rng.uniform(-1.0, 1.0, size=cols)


def _folded_signed_zero_models():
    """sweep_model's models with 0, -0.0 and 1e-300 weights and a folded bias on every other layer, at
    their input, at 0 and at an input with zero coordinates: where a product over an inner dimension
    of 1 is -0, and where a strided weight view rounds differently under another kernel."""
    for seed in range(300):
        model, x = sweep_model(seed)
        rng = np.random.default_rng(seed)
        layers = []
        for pos, layer in enumerate(model.layers):
            linear = np.array(layer.linear_part())
            pick = rng.random(linear.shape)
            linear[pick < 0.2] = 0.0
            linear[(pick >= 0.2) & (pick < 0.4)] = -0.0
            linear[(pick >= 0.4) & (pick < 0.45)] = 1e-300
            if (pos + seed) % 2 == 0:
                bias = rng.choice([0.0, -0.0, 0.5, -1.0], size=linear.shape[0])
                layers.append(LayerDef(weights=fold_bias(linear, bias), activation=layer.activation, bias_folded=True))
            else:
                layers.append(LayerDef(weights=linear, activation=layer.activation))
        folded = LayeredModel(layers=tuple(layers), input_dim=model.input_dim)
        for point in (x, np.zeros_like(x), np.where(rng.random(x.shape) < 0.5, 0.0, x)):
            yield folded, point
    # the relu's zero value, and J[2] a 1x1 zero (relu off), meet a 1x1 negative weight: over an inner
    # dimension of 1, ndarray.dot keeps the product's -0 and @ sums it into +0, so the value pass uses @ there
    column = (np.array([[1.0]]), np.array([[-1.0]]), np.array([[0.5], [-0.25]]))
    kinds = ("relu", "identity", "tanh")
    layers = tuple(LayerDef(weights=w, activation=ActivationSpec(kind)) for w, kind in zip(column, kinds))
    yield LayeredModel(layers=layers, input_dim=1), np.array([-1.0])


class TestProductsKeepTheBitsOfMatmul:
    """Every product of the pass gives the bits of @: the value pass multiplies the weighted inputs
    through ndarray.dot only where it gives them, and the prefixes and the fold multiply with @."""

    def test_pass_and_folds_are_the_matmul_formulas_bit_for_bit(self):
        # sweep_model's models as drawn and with signed zeros, and the wide first layers, where J[2] = F[2] + 0 is
        # checked on rows long enough for the vectorised loops; a chain of one factor has no output-first product
        cases = [sweep_model(seed) for seed in range(400)] + [*_folded_signed_zero_models(), *_wide_first_layers()]
        assert sum(model.layer_count > 2 for model, _ in cases) >= 100
        for model, x in cases:
            trace = jacobian_forward(model, x)
            zs, prefixes, product = _pass_with(model, trace, np.matmul)
            assert [z.tobytes() for z in trace.weighted_inputs] == [z.tobytes() for z in zs]
            expected = [*prefixes[:-1], product if model.layer_count > 2 else prefixes[-1]]
            assert [jac.tobytes() for jac in trace.per_layer] == [jac.tobytes() for jac in expected]
            assert trace.per_layer[-1] is trace.full

    def test_the_wide_first_layers_hold_what_the_bit_check_is_for(self):
        # -0 and underflowing products of slope and weight, strided weight views (the bias column dropped), softmax
        seen = dict.fromkeys(("negative zero products", "underflows", "strided", "softmax"), 0)
        for model, x in _wide_first_layers():
            layer, linear = model.layers[0], model.layers[0].linear_part()
            seen["strided"] += not linear.flags.c_contiguous
            if layer.activation.kind == "softmax":
                seen["softmax"] += 1
                continue
            z = jacobian_forward(model, x).weighted_inputs[0]
            slope = np.diag(activation_jacobian(layer.activation, z).matrix)[:, np.newaxis]
            product = slope * linear
            seen["negative zero products"] += int(np.signbit(product[product == 0.0]).sum())
            seen["underflows"] += int(((product == 0.0) & (linear != 0.0) & (slope != 0.0)).sum())
        assert all(seen.values()), seen

    def test_the_bit_check_sees_dot_everywhere(self):
        # ndarray.dot on every product, the strided views and inner dimensions of 1 included, parts from @
        parted = {"weighted inputs": 0, "prefixes": 0, "output-first product": 0}
        for model, x in _folded_signed_zero_models():
            trace = jacobian_forward(model, x)
            at, dot = _pass_with(model, trace, np.matmul), _pass_with(model, trace, np.dot)
            for name, mine, other in zip(parted, at, dot):
                mine, other = (mine, other) if isinstance(mine, list) else ([mine], [other])
                parted[name] += [m.tobytes() for m in mine] != [o.tobytes() for o in other]
        assert all(parted.values()), parted


class TestPrefixes:
    def test_per_layer_is_a_read_only_sequence(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        per_layer = trace.per_layer
        assert isinstance(per_layer, Sequence) and len(per_layer) == 4
        assert per_layer[3] is per_layer[-1] is trace.full
        assert per_layer[0] is per_layer[-4] and per_layer[1] is per_layer[1]
        assert [J.shape for J in per_layer[1:3]] == [(5, 4), (5, 4)]
        assert [J.shape for J in per_layer[::-1]] == [(3, 4), (5, 4), (5, 4), (4, 4)]
        with pytest.raises(IndexError):
            per_layer[4]
        with pytest.raises(TypeError):
            per_layer[1] = np.zeros((5, 4))
        for matrix in per_layer:
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0

    def test_traces_compare_and_hash_by_identity(self):
        # value equality would fill every prefix, and a fill can raise; a generated __hash__ would raise TypeError
        model, x = spec_seed7_model()
        first, second = jacobian_forward(model, x), jacobian_forward(model, x)
        assert first == first and first != second
        assert hash(first) == hash(first) and len({first, second}) == 2

    def test_a_filled_slot_keeps_its_prefix_past_a_failed_read(self):
        # J[2] is finite, J[3] overflows and J[4] = full is the finite output-end product
        trace = jacobian_forward(_overflowing_prefix_model(), [1e-200, 0.0])
        second = trace.per_layer[1]
        for _ in range(2):
            with pytest.raises(NonFiniteError, match="^non-finite Jacobian entries at layer 3$"):
                trace.per_layer[2]
        assert trace.per_layer[1] is second
        assert trace.per_layer[-1] is trace.full

    def test_reading_backwards_gives_the_objects_read_forwards(self):
        def read(trace, index):
            try:
                return trace.per_layer[index]
            except NonFiniteError as exc:
                return str(exc)

        trace = jacobian_forward(_overflowing_prefix_model(), [1e-200, 0.0])
        backwards = [read(trace, index) for index in (3, 2, 1, 0)][::-1]
        forwards = [read(trace, index) for index in (0, 1, 2, 3)]
        assert backwards[2] == forwards[2] == "non-finite Jacobian entries at layer 3"
        for index in (0, 1, 3):
            assert backwards[index] is forwards[index]
        assert forwards[3] is trace.full

    def test_a_prefix_read_below_the_safe_input_multiplies_no_product(self, monkeypatch):
        model, x = spec_seed7_model()
        right, calls = engine._right, []

        def counting(*args):
            calls.append(args[0].shape)
            return right(*args)

        monkeypatch.setattr(engine, "_right", counting)
        trace = jacobian_forward(model, x)
        prefixes = [trace.per_layer[index] for index in range(3)]
        assert calls == [] and trace.per_layer._slots[-1] is None
        _, expected, product = _pass_with(model, trace, np.matmul)
        assert [jac.tobytes() for jac in prefixes] == [jac.tobytes() for jac in expected[:3]]
        assert trace.full.tobytes() == product.tobytes()
        assert calls == [(3, 5), (3, 5)]
        # at or above the safe input the call reads full itself
        calls.clear()
        jacobian_forward(uncertified(model), x)
        assert calls == [(3, 5), (3, 5)]

    def test_full_keeps_its_bits_whatever_is_read_first(self):
        # the folded-bias models drop the bias column by a strided view: a pickled trace rebuilds its layers
        # through their constructor, so the view keeps its strides and @ its bits
        cases = [sweep_model(seed) for seed in range(200)] + list(_folded_signed_zero_models())
        for model, x in cases:
            expected = jacobian_forward(model, x).full.tobytes()
            prefix_first = jacobian_forward(model, x)
            prefix_first.per_layer[-2]
            unread = pickle.loads(pickle.dumps(jacobian_forward(model, x)))
            checked = jacobian_forward(uncertified(model), x)
            assert [trace.full.tobytes() for trace in (prefix_first, unread, checked)] == [expected] * 3

    def test_trace_survives_pickling(self):
        model, x = spec_seed7_model()
        trace = jacobian_forward(model, x)
        copy = pickle.loads(pickle.dumps(trace))
        for got, expected in zip(copy.per_layer, trace.per_layer):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("read", ["nothing", "full", "every prefix"])
    def test_copies_keep_read_only_arrays_and_bits(self, read):
        # a copy rebuilds its prefixes from the factors, whichever slots the original had filled
        folded = seeded_model(3, (3, 4, 2), ("leaky_relu", "softmax"), biased=(1, 2)), [0.5, -0.25, 1.0]
        for model, x in (spec_seed7_model(), folded):
            fresh = jacobian_forward(model, x)
            full, prefixes = fresh.full.tobytes(), [jac.tobytes() for jac in fresh.per_layer]
            trace = jacobian_forward(model, x)
            if read == "full":
                trace.full
            elif read == "every prefix":
                list(trace.per_layer)
            for clone in clones(trace):
                assert clone.full.tobytes() == full
                assert [jac.tobytes() for jac in clone.per_layer] == prefixes
                arrays = [*clone.activations, *clone.weighted_inputs, *clone.per_layer]
                assert not any(arr.flags.writeable for arr in arrays)
                assert [arr.tobytes() for arr in (*clone.activations, *clone.weighted_inputs)] == [
                    arr.tobytes() for arr in (*trace.activations, *trace.weighted_inputs)
                ]
                assert clone.singular_hits == trace.singular_hits

    def test_concurrent_first_reads_agree(self):
        model = seeded_model(5, (6, 8, 8, 8, 8, 3), ("tanh", "relu", "softplus", "logistic", "softmax"))
        x = np.linspace(-1.0, 1.0, 6)
        _, expected, full = _pass_with(model, jacobian_forward(model, x), np.matmul)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                trace = jacobian_forward(model, x)
                seen = []

                def read():
                    seen.append([trace.full] + [trace.per_layer[index] for index in (4, 1, 3, 0, 2)])

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 8
                for got in seen:
                    assert got[0].tobytes() == full.tobytes()
                    for matrix, index in zip(got[1:], (4, 1, 3, 0, 2)):
                        assert np.array_equal(matrix, expected[index])
        finally:
            sys.setswitchinterval(interval)


# the largest absolute row sum of each kind's slope (the activation's Jacobian), for any z
_SLOPE_NORMS = {"identity": 1.0, "logistic": 0.25, "tanh": 1.0, "softplus": 1.0, "relu": 1.0, "softmax": 0.5}


def _jacobian_bounds(model):
    """||J[l]||_inf <= prod over layers 2..l of kappa ||W_l||_inf, the bias column left out."""
    bounds, bound = [1.0], 1.0
    for layer in model.layers:
        spec = layer.activation
        kappa = max(1.0, spec.alpha) if spec.kind == "leaky_relu" else _SLOPE_NORMS[spec.kind]
        bound *= kappa * np.abs(layer.linear_part()).sum(axis=1).max()
        bounds.append(bound)
    return bounds


def _near_limit_model(seed):
    """sweep_model(seed), leaky_relu with alpha 4, each layer's weights scaled by a power of two so that the
    model's bound, the product of c max(1, n max|w|) over the layers, lies in [2^990, 2^1000)."""
    model, x = sweep_model(seed)
    share = 995.0 / len(model.layers)
    layers = []
    for layer in model.layers:
        spec = ActivationSpec("leaky_relu", alpha=4.0) if layer.activation.kind == "leaky_relu" else layer.activation
        gain = {"leaky_relu": 4.0, "softplus": 2.0}.get(spec.kind, 1.0)
        # each layer's factor within a factor sqrt(2) of 2^share, far above 1
        row_sum = layer.weights.shape[1] * np.abs(layer.weights).max()
        scaled = np.ldexp(layer.weights, round(share - np.log2(gain * row_sum)))
        layers.append(LayerDef(weights=scaled, activation=spec, bias_folded=layer.bias_folded))
    near = LayeredModel(layers=tuple(layers), input_dim=model.input_dim)
    assert 1.0 < near._safe_input <= 2.0**10, seed
    return near, x


def _bound_models():
    """Acceptance criterion 1's models, the sweep's of every kind with folded biases and softmax anywhere, and
    sweep models scaled to just below the bound's limit."""
    for seed in range(200):
        yield random_smooth_model(seed)
    for seed in range(400):
        yield sweep_model(seed)
    for seed in range(400, 500):
        yield _near_limit_model(seed)


class TestSafeInput:
    def test_inputs_just_below_the_safe_input_never_overflow(self):
        certified = 0
        for model, x in _bound_models():
            safe = model._safe_input
            assert safe > 0.0 and np.isfinite(safe)
            certified += 1
            peak = np.max(np.abs(x))
            unit = x / peak if peak > 0.0 else np.ones_like(x)
            scaled = unit * (safe * (1.0 - 2.0**-20))
            assert np.max(np.abs(scaled)) < safe
            for point in (x, scaled):
                # nothing in the pass may overflow, or make a NaN, not even where no errstate would see it
                with np.errstate(over="raise", invalid="raise"):
                    trace = jacobian_forward(model, point)
                    prefixes = list(trace.per_layer)
                    values = forward(model, point)
                assert all(np.isfinite(a).all() for a in values + prefixes)
                for prefix, bound in zip(prefixes, _jacobian_bounds(model)):
                    assert np.abs(prefix).sum(axis=1).max() <= bound * (1.0 + 1e-12)
        assert certified == 700

    def test_the_near_limit_family_covers_every_kind(self):
        models = [model for model, _ in map(_near_limit_model, range(400, 500))]
        assert {layer.activation.kind for model in models for layer in model.layers} == {
            "identity", "logistic", "tanh", "softplus", "relu", "leaky_relu", "softmax"
        }
        assert any(layer.bias_folded for model in models for layer in model.layers)
        assert any(model.layers[-1].activation.kind == "softmax" for model in models)

    def test_the_certified_path_gives_the_checked_paths_bits(self):
        for model, x in _bound_models():
            checked = uncertified(model)
            for point in (x, 1e-3 * x):
                mine, theirs = jacobian_forward(model, point), jacobian_forward(checked, point)
                for name in ("activations", "weighted_inputs", "per_layer"):
                    assert [a.tobytes() for a in getattr(mine, name)] == [a.tobytes() for a in getattr(theirs, name)]
                assert mine.full.tobytes() == theirs.full.tobytes()
                assert mine.singular_hits == theirs.singular_hits
                assert [a.tobytes() for a in forward(model, point)] == [a.tobytes() for a in forward(checked, point)]

    def test_models_beyond_the_bound_keep_their_errors(self):
        # J = 1e400 at layer 3, J[3] = 1e400 while full = 1e200, and z = 1e400 at layer 4: nothing is certified
        chain2 = _identity_model([np.full((1, 1), 1e200)] * 2, input_dim=1)
        chain3 = _identity_model([np.full((1, 1), 1e200)] * 3, input_dim=1)
        for model in (chain2, chain3, _overflowing_prefix_model()):
            assert model._safe_input == 0.0
        with pytest.raises(NonFiniteError, match="^non-finite Jacobian entries at layer 3$"):
            jacobian_forward(chain2, [1e-200])
        with pytest.raises(NonFiniteError, match="^non-finite weighted input at layer 4$"):
            jacobian_forward(chain3, [1e-200])
        trace = jacobian_forward(_overflowing_prefix_model(), [1e-200, 0.0])
        with pytest.raises(NonFiniteError, match="^non-finite Jacobian entries at layer 3$"):
            trace.per_layer[2]

    def test_a_bound_just_above_the_limit_certifies_nothing(self):
        # 2^500 2^500 is the limit itself, and one ulp more on the second weight is past it
        at_limit = _identity_model([np.full((1, 1), 2.0**500)] * 2, input_dim=1)
        beyond = _identity_model([np.full((1, 1), 2.0**500), np.full((1, 1), 2.0**500 * (1 + 2.0**-52))], input_dim=1)
        assert at_limit._safe_input == 1.0
        assert beyond._safe_input == 0.0
        with np.errstate(over="raise", invalid="raise"):
            assert jacobian_forward(at_limit, [0.5]).full.tolist() == [[2.0**1000]]
        assert jacobian_forward(beyond, [0.5]).full.tolist() == [[2.0**1000 * (1 + 2.0**-52)]]
        # 2^30 is above either model's safe input: the checked path names the overflow as it always did
        for model in (at_limit, beyond):
            for run in (forward, jacobian_forward):
                with pytest.raises(NonFiniteError, match="^non-finite weighted input at layer 3$"):
                    run(model, [2.0**30])

    def test_a_steep_leaky_relu_is_bounded_by_its_slope_alone(self):
        # the fold multiplies C = F[4] = 2^500 by the slope 2^600 before the weight 2^-600 comes in: a bound of
        # c n max|w| = 1 for that layer would certify a pass whose product overflows, so the bound takes
        # c max(1, n max|w|) and the checked path finds J = 2^950 input-to-output
        steep = ActivationSpec("leaky_relu", alpha=2.0**600)
        model = LayeredModel(
            layers=(
                LayerDef(weights=np.full((1, 1), 2.0**450), activation=ActivationSpec("identity")),
                LayerDef(weights=np.full((1, 1), 2.0**-600), activation=steep),
                LayerDef(weights=np.full((1, 1), 2.0**500), activation=ActivationSpec("identity")),
            ),
            input_dim=1,
        )
        assert model._safe_input == 0.0
        trace = jacobian_forward(model, [-(2.0**-500)])
        assert trace.full.tolist() == [[2.0**950]]
        assert trace.per_layer[-1] is trace.full
