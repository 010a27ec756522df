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
    forward,
    jacobian_forward,
)
from jacprop import fd
from helpers import (
    awkward_matrices,
    overflowing_activation_model,
    random_smooth_model,
    seeded_model,
    spec_seed7_model,
    sweep_model,
)


# How far two estimates at h = 1e-5 may differ, scaled by 1 + max|J|, when their probes went through
# the value pass in blocks of different widths (a one-column block is a vector pass). BLAS picks its
# kernel by the block's shape, and F moves by a few ulps between kernels; the estimate divides
# that by the spacing, 2h (central) or h (forward). A misplaced probe moves it by the order of |J|.
_ROUNDING = {"central": 1e-10, "forward": 2e-10}


def _one_probe_at_a_time(model, x, step, scheme):
    """The estimate from one forward pass per probe, each probe a vector of its own."""
    x = np.asarray(x, dtype=np.float64)
    base = forward(model, x)[-1]
    columns = []
    for j in range(x.shape[0]):
        high, low = x.copy(), x.copy()
        high[j] += step
        if scheme == "central":
            low[j] -= step
        down = forward(model, low)[-1] if scheme == "central" else base
        columns.append((forward(model, high)[-1] - down) / (high[j] - low[j]))
    return np.column_stack(columns)


def _overflowing_probes_model():
    """3->2->1 relu/identity at (0, 0, 1) with h = 1: x - h e_2 overflows at layer 3, x + h e_3 at layer 2."""
    return LayeredModel(
        layers=(
            LayerDef(weights=np.array([[0.0, 0.0, 1e308], [0.0, -1e308, 0.0]]), activation=ActivationSpec("relu")),
            LayerDef(weights=np.array([[0.0, 10.0]]), activation=ActivationSpec("identity")),
        ),
        input_dim=3,
    )


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


class TestBatchedProbes:
    """The probes run as the columns of blocks of the one value pass."""

    @pytest.mark.parametrize("scheme", ["central", "forward"])
    def test_estimate_agrees_with_one_probe_at_a_time(self, scheme):
        # the models of acceptance criterion 1 (softmax last in about half), then every kind,
        # softmax anywhere and folded biases
        tolerance = _ROUNDING[scheme]
        cases = [random_smooth_model(seed) for seed in range(200)] + [sweep_model(seed) for seed in range(400)]
        for index, (model, x) in enumerate(cases):
            expected = _one_probe_at_a_time(model, x, 1e-5, scheme)
            estimate = finite_difference_jacobian(model, x, FDConfig(step=1e-5, scheme=scheme))
            scale = 1.0 + np.max(np.abs(expected))
            assert np.max(np.abs(estimate - expected)) <= tolerance * scale, index

    def test_vector_pass_keeps_its_bits(self):
        # pinned from the value pass before it took matrices, and seed-7's J since softmax's dominant diagonal
        # became s_m sum_{k != m} s_k: seed-7, and leaky_relu/softmax with folded biases
        model, x = spec_seed7_model()
        assert [v.hex() for v in forward(model, x)[-1].tolist()] == [
            "0x1.44241c9ad7c2bp-2", "0x1.9f2b5ef989729p-2", "0x1.1cb0846b9ecabp-2",
        ]
        assert [v.hex() for v in jacobian_forward(model, x).full.ravel().tolist()] == [
            "-0x1.075154eaf4b9bp-4", "-0x1.e232b0b349006p-5", "0x1.370f1cabe0b6cp-4", "0x1.09e09ee89aad1p-3",
            "0x1.3c0f878b633b6p-2", "0x1.414011021910ep-3", "-0x1.8a10f437383f7p-4", "-0x1.b85eafceeaea9p-3",
            "-0x1.f47664a14c19dp-3", "-0x1.9166c9aa8da10p-4", "0x1.4c075e2d5e245p-6", "0x1.5cfc21cca07b6p-4",
        ]
        biased = seeded_model(3, (3, 4, 2), ("leaky_relu", "softmax"), biased=(1, 2))
        x = [0.5, -0.25, 1.0]
        assert [v.hex() for v in forward(biased, x)[-1].tolist()] == ["0x1.967a7f2f08595p-1", "0x1.a6160343de9aap-3"]
        assert [v.hex() for v in jacobian_forward(biased, x).full.ravel().tolist()] == [
            "-0x1.81e916bf7e562p-4", "-0x1.953b79183ce8fp-5", "0x1.0be4d3f6ac692p-3",
            "0x1.81e916bf7e562p-4", "0x1.953b79183ce8fp-5", "-0x1.0be4d3f6ac692p-3",
        ]

    def test_first_overflowing_probe_is_named_before_an_earlier_layer(self):
        # the block overflows at layer 2 (x + h e_3), but x - h e_2 comes first and overflows at layer 3
        counter = EvalCounter()
        message = r"^non-finite model output at probe x - h e_2: non-finite weighted input at layer 3$"
        with pytest.raises(NonFiniteError, match=message):
            finite_difference_jacobian(_overflowing_probes_model(), [0.0, 0.0, 1.0], FDConfig(step=1.0), counter=counter)
        # x +- h e_1 and x + h e_2 through both layers, then x - h e_2 through layers 2 and 3
        assert (counter.model_evals, counter.weighted_input_evals) == (4, 8)
        counter.reset()
        with pytest.raises(NonFiniteError, match=r"^non-finite model output at probe x \+ h e_3: .* at layer 2$"):
            finite_difference_jacobian(
                _overflowing_probes_model(), [0.0, 0.0, 1.0], FDConfig(step=1.0, scheme="forward"), counter=counter
            )
        assert (counter.model_evals, counter.weighted_input_evals) == (4, 7)

    def test_block_that_overflows_only_as_a_block_uses_its_probes(self, monkeypatch):
        # a block's rounding may overflow where no single probe does; its probes, one at a time, then
        # give its columns, and are counted as such
        def matrix_overflows(model, vec, counter=None):
            if vec.ndim == 2:
                raise NonFiniteError("non-finite weighted input at layer 2")
            return layer_values(model, vec, counter)

        layer_values = fd._layer_values
        monkeypatch.setattr(fd, "_layer_values", matrix_overflows)
        model, x = spec_seed7_model()
        for scheme in ("central", "forward"):
            counter = EvalCounter()
            estimate = finite_difference_jacobian(model, x, FDConfig(scheme=scheme), counter=counter)
            assert estimate.tobytes() == _one_probe_at_a_time(model, x, 1e-5, scheme).tobytes()
            evaluations = 8 if scheme == "central" else 5
            assert (counter.model_evals, counter.weighted_input_evals) == (evaluations, 3 * evaluations)

    def _wide_model(self):
        """16->3->2 tanh with a bias on layer 1; 16 inputs need 32 central probes."""
        return seeded_model(16, (16, 3, 2), ("tanh", "tanh"), biased=(1,)), np.linspace(-1.0, 1.0, 16)

    @pytest.mark.parametrize("scheme", ["central", "forward"])
    def test_block_seams_keep_the_estimate(self, monkeypatch, scheme):
        model, x = self._wide_model()
        one_block = finite_difference_jacobian(model, x, FDConfig(scheme=scheme))
        tolerance = _ROUNDING[scheme] * (1.0 + np.max(np.abs(one_block)))
        for columns in (1, 5, 7):
            # one column costs 8 bytes for each input, z and a: (17 + 3 + 3) + (3 + 2 + 2)
            monkeypatch.setattr(fd, "_BLOCK_BYTES", 8 * 30 * columns)
            assert fd._block_columns(model) == columns
            counter = EvalCounter()
            blocks = finite_difference_jacobian(model, x, FDConfig(scheme=scheme), counter=counter)
            assert np.max(np.abs(blocks - one_block)) <= tolerance, columns
            evaluations = 32 if scheme == "central" else 17
            assert (counter.model_evals, counter.weighted_input_evals) == (evaluations, 2 * evaluations)

    def test_failure_in_a_later_block_names_the_same_probe(self, monkeypatch):
        # 16->1 identity at x_4 = 1, h = 1: x + h e_4, the 7th probe, overflows; blocks of 5 put it in the second
        weights = np.full((1, 16), 0.5)
        weights[0, 3] = 1e308
        model = _single_layer(weights, "identity")
        x = np.zeros(16)
        x[3] = 1.0
        message = r"^non-finite model output at probe x \+ h e_4: non-finite weighted input at layer 2$"
        for columns in (5, 64):
            monkeypatch.setattr(fd, "_BLOCK_BYTES", 8 * 18 * columns)
            assert fd._block_columns(model) == columns
            counter = EvalCounter()
            with pytest.raises(NonFiniteError, match=message):
                finite_difference_jacobian(model, x, FDConfig(step=1.0), counter=counter)
            # the probes one at a time up to and including the failing one
            assert (counter.model_evals, counter.weighted_input_evals) == (7, 7), columns


class TestEvaluationCounts:
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

    @pytest.mark.parametrize("a,shape", [([], r"\(1, 0\)"), (np.zeros((0, 3)), r"\(0, 3\)"), (np.zeros((3, 0)), r"\(3, 0\)")])
    def test_empty_matrices_rejected(self, a, shape):
        with pytest.raises(DimensionMismatchError, match=f"^matrices of shape {shape} have no entries to compare$"):
            compare_jacobians(a, np.array(a), tolerance=1.0)

    def test_more_than_two_dimensions_rejected(self):
        three_d = np.zeros((1, 1, 2))
        with pytest.raises(DimensionMismatchError, match=r"^a must have at most 2 dimensions, got shape \(1, 1, 2\)$"):
            compare_jacobians(three_d, three_d, tolerance=1.0)
        with pytest.raises(DimensionMismatchError, match=r"^b must have at most 2 dimensions, got shape \(1, 1, 2\)$"):
            compare_jacobians(np.zeros((1, 2)), three_d, tolerance=1.0)

    @pytest.mark.parametrize(
        "b,error,message",
        [
            ("abc", ValueError, "could not convert string to float: 'abc'"),
            (np.array([[1 + 1j]]), ValueError, "b must hold real numbers, got dtype complex128"),
            (np.zeros((2, 1, 1)), DimensionMismatchError, r"a must have at most 2 dimensions, got shape \(1, 1, 2\)"),
        ],
        ids=["string", "complex", "three_d"],
    )
    def test_both_arguments_are_cast_before_either_shape_is_checked(self, b, error, message):
        # with a 3-D a, b's cast error comes first; a's shape is named only when b casts
        with pytest.raises(error, match=f"^{message}$"):
            compare_jacobians(np.zeros((1, 1, 2)), b, tolerance=1.0)

    def test_boundary_is_inclusive(self):
        result = compare_jacobians([[0.0]], [[0.5]], tolerance=0.5)
        assert result.within_tolerance is True

    def test_non_finite_matrices_are_named(self):
        for a, b, name in (([[np.inf]], [[np.inf]], "a"), ([[np.nan]], [[0.0]], "a"), ([[0.0, 1.0]], [[0.0, -np.inf]], "b")):
            with pytest.raises(NonFiniteError, match=f"^{name} contains non-finite entries$"):
                compare_jacobians(a, b, tolerance=1.0)

    @pytest.mark.parametrize(
        "a,b,location",
        [([[1e308]], [[-1e308]], r"\(1, 1\)"), ([[0.0, 1.0], [-1e308, 1e308]], [[5.0, 1.0], [1e308, -1e308]], r"\(2, 1\)")],
        ids=["1x1", "2x2"],
    )
    def test_a_difference_beyond_float64_is_refused(self, a, b, location):
        # finite entries, an infinite difference: no tolerance, inf included, gives it a verdict, and the
        # subtraction's overflow warning (an error here) does not escape
        for tolerance in (1.0, float("inf")):
            with pytest.raises(NonFiniteError, match=f"^a - b is beyond float64's range at {location}$"):
                compare_jacobians(a, b, tolerance)

    @pytest.mark.parametrize("tolerance", [-1.0, float("nan")])
    def test_negative_or_nan_tolerance_rejected(self, tolerance):
        matrix = np.eye(2)
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            compare_jacobians(matrix, matrix, tolerance)
        for not_real in ("0.1", True, [0.1]):
            with pytest.raises(ValueError, match="tolerance must be a real number"):
                compare_jacobians(matrix, matrix, not_real)
        with pytest.raises(ValueError, match="tolerance must be >= 0, got an integer beyond float64"):
            compare_jacobians(matrix, matrix, -(10**400))
        # inf and an integer beyond float64 (read as inf) admit every finite difference
        assert compare_jacobians(matrix, matrix, float("inf")).within_tolerance
        assert compare_jacobians(matrix, matrix, 10**400).within_tolerance


def _numpy_argmax(diff):
    """1-based (row, col) of the first largest entry, as numpy locates it."""
    return tuple(int(i) + 1 for i in np.unravel_index(np.argmax(diff), diff.shape))


def _last_argmax(diff):
    """A wrong way to the same maximum: the last of tied entries instead of the first."""
    flat = diff.size - 1 - int(np.argmax(diff.ravel()[::-1]))
    return tuple(int(i) + 1 for i in np.unravel_index(flat, diff.shape))


def _comparison_pairs():
    """(a, b) pairs whose differences tie often: b is a plus a few whole halves."""
    rng = np.random.default_rng(4)
    pairs = []
    for a in awkward_matrices(2):
        pairs.append((a, a + rng.integers(-2, 3, size=a.shape) * 0.5))
        pairs.append((a, -a))
    return pairs


class TestComparisonIsNumpysFormula:
    def test_fields_are_the_numpy_formulas_bit_for_bit(self):
        for a, b in _comparison_pairs():
            result = compare_jacobians(a, b, 0.5)
            diff = np.abs(a - b)
            assert result.argmax_location == _numpy_argmax(diff)
            assert result.max_abs_diff.hex() == float(np.max(diff)).hex()
            assert result.max_rel_diff.hex() == float(np.max(diff / (1.0 + np.abs(a)))).hex()

    def test_vectors_are_one_row(self):
        result = compare_jacobians([1.0, 2.0, 3.0, 4.0], [1.0, 2.5, 3.0, 4.5], 0.1)
        assert result.argmax_location == (1, 2)

    def test_the_argmax_check_sees_the_last_of_tied_maxima(self):
        pairs = _comparison_pairs()
        assert any(_last_argmax(np.abs(a - b)) != _numpy_argmax(np.abs(a - b)) for a, b in pairs)


class TestConfigAndErrors:
    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            FDConfig(step=0.0)
        with pytest.raises(ValueError):
            FDConfig(step=-1e-5)
        for step in ("1e-5", True, [1e-5], 10**400):
            with pytest.raises(ValueError, match="step must be"):
                FDConfig(step=step)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            FDConfig(scheme="complex")
        with pytest.raises(ValueError, match="unknown scheme"):
            FDConfig(scheme=["central"])

    def test_defaults(self):
        cfg = FDConfig()
        assert cfg.step == 1e-5
        assert cfg.scheme == "central"

    def test_non_finite_estimate_is_named(self):
        # both probe outputs (+-1.7e308) are finite; their difference is not
        model = _single_layer(np.array([[1.7e308]]), "identity")
        counter = EvalCounter()
        with pytest.raises(NonFiniteError, match="^non-finite finite-difference estimate in column 1$"):
            finite_difference_jacobian(model, [0.0], FDConfig(step=1.0, scheme="central"), counter=counter)
        assert (counter.model_evals, counter.weighted_input_evals) == (2, 2)
        wide = _single_layer(np.array([[1.0, 1.7e308]]), "identity")
        with pytest.raises(NonFiniteError, match="^non-finite finite-difference estimate in column 2$"):
            finite_difference_jacobian(wide, [0.0, 0.0], FDConfig(step=1.0, scheme="central"))
        # the forward scheme's difference F(x + h e_j) - F(x) still fits
        estimate = finite_difference_jacobian(wide, [0.0, 0.0], FDConfig(step=1.0, scheme="forward"))
        assert np.array_equal(estimate, [[1.0, 1.7e308]])

    def test_columns_are_divided_by_the_probes_spacing(self):
        # x +- h is rounded: 1e4 +- 1e-12 and 3 +- 3e-16 are not 2h apart, but one identity layer moves by exactly as much
        model = _single_layer(np.array([[1.0]]), "identity")
        for x, step in ((1e4, 1e-12), (3.0, 3e-16), (1.0, 1e-5)):
            for scheme in ("central", "forward"):
                estimate = finite_difference_jacobian(model, [x], FDConfig(step=step, scheme=scheme))
                assert estimate.tolist() == [[1.0]], (x, step, scheme)

    def test_vanishing_step_is_named(self):
        # 1 +- 1e-17 rounds to 1: no probe could see a change; the step is refused before any probe
        model = _single_layer(np.eye(2), "identity")
        counter = EvalCounter()
        for scheme in ("central", "forward"):
            with pytest.raises(ValueError, match=r"^step 1e-17 vanishes in rounding at input coordinate 2 \(value 1.0\)$"):
                finite_difference_jacobian(model, [0.0, 1.0], FDConfig(step=1e-17, scheme=scheme), counter=counter)
        assert counter.model_evals == 0

    def test_non_finite_probe_is_named(self):
        # F(x) is finite but F(x + h) overflows
        model = _single_layer(np.array([[1e308]]), "identity")
        with pytest.raises(NonFiniteError, match="probe"):
            finite_difference_jacobian(model, [1.79], FDConfig(step=0.02, scheme="central"))
        # tanh(inf) is 1: the weighted input itself must be checked
        saturating = _single_layer(np.array([[1e308]]), "tanh")
        message = r"^non-finite model output at probe x \+ h e_1: non-finite weighted input at layer 2$"
        with pytest.raises(NonFiniteError, match=message):
            finite_difference_jacobian(saturating, [1.79], FDConfig(step=0.02, scheme="central"))

    def test_non_finite_activation_of_a_probe_is_named(self):
        for scheme, probe in (("central", r"x \+ h e_1"), ("forward", "base point")):
            message = rf"^non-finite model output at probe {probe}: non-finite activation at layer 2$"
            with pytest.raises(NonFiniteError, match=message):
                finite_difference_jacobian(overflowing_activation_model(), [-1e10], FDConfig(scheme=scheme))
