import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jacprop import (
    ActivationSpec,
    ELEMENTWISE_KINDS,
    KINDS,
    LayerDef,
    LayeredModel,
    NonFiniteError,
    SingularityError,
    activation_apply,
    activation_jacobian,
    elementwise_derivative,
    forward,
    jacobian_forward,
    softmax,
    softmax_jacobian,
)
from jacprop.activations import _ByValue, _freeze, _Rebuilt
from helpers import clones, decimal_activation, fd_activation_jacobian, make_spec, random_smooth_model, sweep_model


@dataclass(frozen=True, eq=False)
class Grown(_Rebuilt):
    """A value type that gained a defaulted array field after its first one: every copy must keep both."""

    matrix: np.ndarray
    extra: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        _freeze(self.matrix)
        _freeze(self.extra)


@dataclass(frozen=True, eq=False)
class GrownByValue(_ByValue, Grown):
    pass


class TestApply:
    def test_logistic_at_zero(self):
        assert activation_apply(ActivationSpec("logistic"), [0.0, 0.0]) == pytest.approx([0.5, 0.5])

    def test_softmax_symmetry(self):
        assert activation_apply(ActivationSpec("softmax"), [0.0, 0.0]) == pytest.approx([0.5, 0.5])

    def test_softplus_at_zero(self):
        got = activation_apply(ActivationSpec("softplus"), [0.0])
        assert got == pytest.approx([math.log(2.0)], abs=1e-15)

    def test_identity(self):
        z = np.array([1.5, -2.0, 0.0])
        assert np.array_equal(activation_apply(ActivationSpec("identity"), z), z)

    def test_relu_and_leaky_values(self):
        z = [-2.0, 0.0, 3.0]
        assert activation_apply(ActivationSpec("relu"), z) == pytest.approx([0.0, 0.0, 3.0])
        leaky = ActivationSpec("leaky_relu", alpha=0.1)
        assert activation_apply(leaky, z) == pytest.approx([-0.2, 0.0, 3.0])

    def test_relu_value_at_zero_never_errors_under_reject(self):
        spec = ActivationSpec("relu", relu_zero_policy="reject")
        assert activation_apply(spec, [0.0]) == pytest.approx([0.0])

    def test_logistic_extreme_arguments_stay_finite(self):
        got = activation_apply(ActivationSpec("logistic"), [-700.0, 700.0])
        assert np.all(np.isfinite(got))
        assert got == pytest.approx([0.0, 1.0], abs=1e-300)

    def test_softplus_large_argument(self):
        got = activation_apply(ActivationSpec("softplus"), [1000.0])
        assert got == pytest.approx([1000.0])

    def test_non_finite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            activation_apply(ActivationSpec("tanh"), [np.inf])

    def test_leaky_relu_value_overflows_only_where_it_is_not_finite(self):
        # alpha z is never formed for a positive z, and no numpy warning escapes either way
        assert activation_apply(ActivationSpec("leaky_relu", alpha=10.0), [1e308]).tolist() == [1e308]
        with pytest.raises(NonFiniteError, match="^activation value contains non-finite entries$"):
            activation_apply(ActivationSpec("leaky_relu", alpha=1e300), [-1e10])

    def test_matrix_is_applied_column_by_column(self):
        z = np.random.default_rng(5).uniform(-3.0, 3.0, size=(4, 6))
        z[0, 0], z[1, 1] = 0.0, -0.0
        for kind in sorted(KINDS):
            values = activation_apply(make_spec(kind), z)
            for column in range(6):
                assert values[:, column].tobytes() == activation_apply(make_spec(kind), z[:, column]).tobytes(), kind
        with pytest.raises(NonFiniteError, match="^activation input contains non-finite entries$"):
            activation_apply(ActivationSpec("tanh"), np.array([[0.0, np.nan]]))
        with pytest.raises(ValueError, match="^activation input must be a vector or a matrix of columns"):
            activation_apply(ActivationSpec("tanh"), np.zeros((1, 1, 1)))


class TestJacobian:
    def test_identity_is_identity_matrix(self):
        result = activation_jacobian(ActivationSpec("identity"), [3.0, -1.0, 0.5])
        assert np.array_equal(result.matrix, np.eye(3))
        assert result.singular_hit is False

    def test_logistic_derivative_at_zero(self):
        result = activation_jacobian(ActivationSpec("logistic"), [0.0])
        assert np.allclose(result.matrix, [[0.25]], atol=1e-15)

    def test_softmax_diag_minus_outer(self):
        result = activation_jacobian(ActivationSpec("softmax"), [0.0, 0.0])
        assert np.allclose(result.matrix, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_relu_policy_zero_with_hit(self):
        spec = ActivationSpec("relu", relu_zero_policy="derivative_zero")
        result = activation_jacobian(spec, [-1.0, 2.0, 0.0])
        assert np.array_equal(result.matrix, np.diag([0.0, 1.0, 0.0]))
        assert result.singular_hit is True

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matrix_is_read_only(self, kind):
        matrix = activation_jacobian(make_spec(kind), [0.5, -1.0]).matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["softmax", "tanh", "relu"])
    def test_copies_keep_a_read_only_matrix(self, kind):
        result = activation_jacobian(make_spec(kind), [0.5, -1.0, 0.0])
        for clone in clones(result):
            assert not clone.matrix.flags.writeable
            assert clone.matrix.tobytes() == result.matrix.tobytes()
            assert clone.singular_hit is result.singular_hit

    def test_copies_keep_every_init_field(self):
        # a __reduce__ that listed the fields by hand would drop a field added later
        value = Grown(np.array([[1.0, -0.0]]), extra=np.array([2.5, -3.0]))
        for clone in clones(value):
            assert type(clone) is Grown
            assert clone.extra.tobytes() == value.extra.tobytes() and not clone.extra.flags.writeable
            assert clone.matrix.tobytes() == value.matrix.tobytes() and not clone.matrix.flags.writeable

    def test_a_later_field_counts_for_equality(self):
        value = GrownByValue(np.array([[1.0]]), extra=np.array([2.5]))
        assert value == GrownByValue(np.array([[1.0]]), extra=np.array([2.5]))
        assert value != GrownByValue(np.array([[1.0]]), extra=np.array([-2.5]))
        assert value != GrownByValue(np.array([[1.0]]))
        for clone in clones(value):
            assert clone == value and hash(clone) == hash(value)

    def test_results_compare_and_hash_by_identity(self):
        # a generated __eq__ over the matrix would raise "truth value ... is ambiguous", and its __hash__ TypeError
        first, second = (activation_jacobian(ActivationSpec("softmax"), [0.1, -0.2, 0.3]) for _ in range(2))
        assert np.array_equal(first.matrix, second.matrix)
        assert first == first and first != second
        assert hash(first) == hash(first) and len({first, second}) == 2

    def test_elementwise_derivative_takes_an_elementwise_vector(self):
        with pytest.raises(ValueError, match=r"^activation input must be a 1-D vector, got shape \(2, 2\)$"):
            elementwise_derivative(ActivationSpec("tanh"), np.ones((2, 2)))
        with pytest.raises(ValueError, match="^'softmax' is not an elementwise activation$"):
            elementwise_derivative(ActivationSpec("softmax"), [1.0, 2.0])

    def test_leaky_relu_slope_is_finite_where_its_value_overflows(self):
        spec = ActivationSpec("leaky_relu", alpha=1e300)
        deriv, hits = elementwise_derivative(spec, [-1e10])
        assert (deriv.tolist(), hits) == ([1e300], [])
        assert activation_jacobian(spec, [-1e10]).matrix.tolist() == [[1e300]]

    def test_tanh_matches_central_differences(self):
        spec = ActivationSpec("tanh")
        z = np.array([0.3, -1.7])
        result = activation_jacobian(spec, z)
        expected_diag = 1.0 - np.tanh(z) ** 2
        assert np.allclose(np.diag(result.matrix), expected_diag, atol=1e-15)
        assert np.max(np.abs(result.matrix - fd_activation_jacobian(spec, z, h=1e-6))) <= 1e-8

    def test_elementwise_jacobians_are_diagonal(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-3.0, 3.0, size=5)
        for kind in sorted(ELEMENTWISE_KINDS):
            matrix = activation_jacobian(make_spec(kind), z).matrix
            assert np.array_equal(matrix, np.diag(np.diag(matrix))), kind

    def test_all_kinds_match_central_differences(self):
        # 100 random points per kind, |z| <= 10, relu kinks excluded
        rng = np.random.default_rng(1234)
        for kind in sorted(KINDS):
            spec = make_spec(kind)
            for _ in range(100):
                z = rng.uniform(-10.0, 10.0, size=int(rng.integers(1, 7)))
                if kind in ("relu", "leaky_relu"):
                    z = z[np.abs(z) > 1e-4]
                    if z.size == 0:
                        continue
                exact = activation_jacobian(spec, z).matrix
                estimate = fd_activation_jacobian(spec, z, h=1e-6)
                assert np.max(np.abs(exact - estimate)) <= 1e-6, kind


def _worst_relative_errors(kind: str, z) -> tuple[Decimal, Decimal]:
    """The largest relative errors of the package's value and slope against the 50-digit reference."""
    spec = ActivationSpec(kind)
    z = np.asarray(z, dtype=np.float64)
    values, (slopes, _) = activation_apply(spec, z), elementwise_derivative(spec, z)
    worst = [Decimal(0), Decimal(0)]
    for point, value, slope in zip(z.tolist(), values.tolist(), slopes.tolist()):
        for i, (got, exact) in enumerate(zip((value, slope), decimal_activation(kind, point))):
            error = abs(Decimal(got) - exact)
            worst[i] = max(worst[i], error / abs(exact) if exact else error)
    return worst[0], worst[1]


# relative error allowed against the 50-digit reference: the worst on |z| <= 5 is ~6e-16, logistic's slope
_REFERENCE_TOLERANCE = Decimal("1e-11")


class TestHighPrecisionReference:
    """Values and slopes against stdlib ``decimal`` at 50 digits, the weighted input taken as exact."""

    @pytest.mark.parametrize("kind", ["tanh", "logistic", "softplus"])
    def test_within_1e_11_relative_on_the_unsaturated_range(self, kind):
        value_error, slope_error = _worst_relative_errors(kind, np.linspace(-5.0, 5.0, 2001))
        assert value_error <= _REFERENCE_TOLERANCE and slope_error <= _REFERENCE_TOLERANCE

    # deep in saturation, where 1 - a*a and 0.5 (1 + tanh(z/2)) cancel (ROADMAP item 1)
    @pytest.mark.parametrize(
        "kind,z,which",
        [
            pytest.param("tanh", 18.0, 1, id="tanh-slope-at-18"),
            pytest.param("logistic", -30.0, 0, id="logistic-value-at-minus-30"),
            pytest.param("logistic", -30.0, 1, id="logistic-slope-at-minus-30"),
        ],
    )
    def test_within_1e_11_relative_in_saturation(self, kind, z, which):
        assert _worst_relative_errors(kind, [z])[which] <= _REFERENCE_TOLERANCE

    @pytest.mark.parametrize("z", [-113.5, -300.0, -700.0])
    def test_the_reference_softplus_keeps_50_digits_far_below_zero(self, z):
        # 1 + e^z rounded to 50 digits keeps no digit of e^z below z ~ -115
        with localcontext() as ctx:
            ctx.prec = 400
            exact = (1 + Decimal(z).exp()).ln()
        assert abs(decimal_activation("softplus", z)[0] - exact) <= Decimal("1e-49") * exact


class TestSoftmaxProperties:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda z: activation_apply(ActivationSpec("softmax"), z),
            softmax_jacobian,
            lambda z: activation_jacobian(ActivationSpec("softmax"), z),
        ],
        ids=["apply", "softmax_jacobian", "activation_jacobian"],
    )
    def test_empty_vector_rejected(self, fn):
        with pytest.raises(ValueError, match="softmax requires a vector of length >= 1"):
            fn([])

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    def test_values_sum_to_one(self, z):
        assert float(np.sum(activation_apply(ActivationSpec("softmax"), z))) == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    def test_jacobian_rows_sum_to_zero_and_symmetric(self, z):
        matrix = activation_jacobian(ActivationSpec("softmax"), z).matrix
        assert np.max(np.abs(matrix.sum(axis=1))) <= 1e-12
        assert np.array_equal(matrix, matrix.T)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, z, c):
        base = activation_apply(ActivationSpec("softmax"), z)
        shifted = activation_apply(ActivationSpec("softmax"), np.asarray(z) + c)
        assert np.max(np.abs(base - shifted)) <= 1e-12

    def test_entries_beyond_float64_range_apart_do_not_warn(self):
        # the shift 1e308 - (-1e308) overflows to inf, exp of its negation is the exact 0, and no numpy warning escapes
        z = [1e308, -1e308]
        assert softmax(np.array(z)).tolist() == [1.0, 0.0]
        assert activation_apply(ActivationSpec("softmax"), z).tolist() == [1.0, 0.0]
        assert softmax_jacobian(z).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert activation_jacobian(ActivationSpec("softmax"), z).matrix.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        columns = activation_apply(ActivationSpec("softmax"), np.array([[1e308, 0.0], [-1e308, 0.0]]))
        assert columns.tolist() == [[1.0, 0.5], [0.0, 0.5]]

    def test_matrix_is_taken_column_by_column(self):
        # the value pass gives softmax the probes as columns; 1000 apart, a shared shift would underflow
        z = np.array([[0.0, 1000.0, -3.0], [1.0, 1001.0, 2.0], [-2.0, 999.0, 0.5]])
        values = softmax(z)
        for column in range(3):
            assert values[:, column].tobytes() == softmax(z[:, column]).tobytes(), column

    @pytest.mark.parametrize(
        "z",
        [
            [np.nan, 1.0],
            [np.inf, 1.0],
            [-np.inf, -np.inf],
            [1.0, np.nan, -np.inf],
            [[1.0, 0.0], [np.nan, 2.0]],
            [[0.0, np.inf], [1.0, 0.0]],
            [[-np.inf, 0.0], [-np.inf, 1.0]],
        ],
        ids=["nan", "inf", "only-minus-inf", "nan-among-finite", "matrix-nan", "matrix-inf", "matrix-minus-inf"],
    )
    def test_a_column_without_a_finite_maximum_is_refused(self, z):
        # that is exactly when the result would hold NaN; no numpy warning comes first (warnings are errors here)
        with pytest.raises(NonFiniteError, match=r"^softmax input contains NaN or \+inf, or a column of only -inf$"):
            softmax(np.array(z))

    def test_minus_inf_below_a_finite_maximum_has_weight_zero(self):
        assert softmax(np.array([-np.inf, 1.0])).tolist() == [0.0, 1.0]
        assert softmax(np.array([[-np.inf, 2.0], [0.0, -np.inf]])).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("z,shape", [(5.0, r"\(\)"), (np.zeros((2, 2, 2)), r"\(2, 2, 2\)")], ids=["scalar", "3-d"])
    def test_only_a_vector_or_a_matrix_of_columns_is_taken(self, z, shape):
        # as activation_apply refuses them; an empty input keeps its own message
        with pytest.raises(ValueError, match=f"^softmax input must be a vector or a matrix of columns, got shape {shape}$"):
            softmax(z)
        with pytest.raises(ValueError, match="^softmax requires a vector of length >= 1$"):
            softmax(np.zeros((0, 2, 2)))

    @pytest.mark.parametrize("z", [[np.nan, 1.0], [np.inf, 1.0], [-np.inf, -np.inf], [-np.inf, 1.0]])
    def test_the_checked_entry_points_keep_their_message(self, z):
        # activation_apply and softmax_jacobian check z before softmax sees it
        for fn in (lambda v: activation_apply(ActivationSpec("softmax"), v), softmax_jacobian):
            with pytest.raises(NonFiniteError, match="^activation input contains non-finite entries$"):
                fn(z)


_LARGEST = 1.7976931348623157e308
_EXTREME_Z = [
    [_LARGEST], [-_LARGEST], [5e-324], [-5e-324], [0.0], [-0.0],
    [_LARGEST, -_LARGEST, 5e-324, -0.0], [-5e-324, 0.0, -_LARGEST, _LARGEST, 1.0],
]
# every kind, and leaky_relu on both sides of alpha = 1
_RULE_SPECS = [make_spec(kind) for kind in sorted(KINDS - {"leaky_relu"})] + [
    ActivationSpec("leaky_relu", alpha=alpha) for alpha in (0.0, 0.5, 1.0, 2.0)
]


class TestValueRule:
    """Only leaky_relu with alpha > 1 can turn a finite z into a non-finite value."""

    @pytest.mark.parametrize("spec", _RULE_SPECS, ids=lambda spec: f"{spec.kind}-{spec.alpha}")
    def test_a_finite_z_has_a_finite_value(self, spec):
        grows = spec.alpha is not None and spec.alpha > 1.0
        for z in _EXTREME_Z:
            if grows and min(z) * spec.alpha < -_LARGEST:
                continue  # alpha z leaves float64: the next test
            for arr in (np.array(z), np.array(z)[:, np.newaxis], np.array([z, z[::-1]]).T):
                assert np.isfinite(activation_apply(spec, arr)).all(), (spec, z)

    @pytest.fixture
    def entered(self, monkeypatch):
        """The keyword arguments of each ``np.errstate`` entered while the test runs."""
        calls = []
        errstate = np.errstate

        def counting(**kwargs):
            calls.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counting)
        return calls

    def test_only_a_leaky_relu_above_one_enters_an_errstate(self, entered):
        z = np.array([1e300, -3.0, 0.0, 2.5])
        for spec in _RULE_SPECS:
            entered.clear()
            activation_apply(spec, z)
            assert len(entered) == (1 if spec.alpha == 2.0 else 0), spec

    @pytest.mark.parametrize(
        "z,count",
        [
            pytest.param([1.0, -2.0, 0.5], 0, id="vector"),
            pytest.param([1e308, -1e307, 0.0], 0, id="vector-whose-spread-just-fits"),
            pytest.param([1e308, -1e308], 1, id="vector-too-wide"),
            pytest.param([0.0, -np.inf], 1, id="vector-with-minus-inf"),
            pytest.param([[1.0, 2.0], [-2.0, 0.5]], 1, id="matrix"),
            pytest.param([[1.0], [-2.0]], 1, id="one-column"),
        ],
    )
    def test_only_a_softmax_vector_whose_spread_fits_enters_no_errstate(self, entered, z, count):
        # the shift by the maximum is the one step that can overflow, and a vector's spread says whether it does
        value = softmax(np.array(z))
        assert len(entered) == count
        assert np.isfinite(value).all() and np.all(value >= 0.0)

    def test_passes_below_the_safe_input_enter_no_errstate(self, entered):
        # nothing can overflow there, so no slope, tanh's included, pays for an errstate
        for make in (sweep_model, random_smooth_model):
            for seed in range(300):
                model, x = make(seed)
                assert np.max(np.abs(x)) < model._safe_input
                jacobian_forward(model, x).full
        assert entered == []

    def test_a_leaky_relu_above_one_still_refuses_an_overflowing_value(self):
        spec = ActivationSpec("leaky_relu", alpha=2.0)
        with pytest.raises(NonFiniteError, match="^activation value contains non-finite entries$"):
            activation_apply(spec, [-1e308])
        with pytest.raises(NonFiniteError, match="^activation value contains non-finite entries$"):
            activation_apply(spec, np.array([[1.0, -1e308]]))
        model = LayeredModel(layers=(LayerDef(weights=np.ones((1, 1)), activation=spec),), input_dim=1)
        for run in (forward, jacobian_forward):
            with pytest.raises(NonFiniteError, match="^non-finite activation at layer 2$"):
                run(model, [-1e308])


class TestZeroPolicies:
    @pytest.mark.parametrize(
        "kind,alpha,policy,expected",
        [
            ("relu", None, "derivative_zero", 0.0),
            ("relu", None, "derivative_one", 1.0),
            ("leaky_relu", 0.2, "derivative_zero", 0.2),
            ("leaky_relu", 0.2, "derivative_one", 1.0),
        ],
    )
    def test_fallback_policies_flag_the_hit(self, kind, alpha, policy, expected):
        spec = ActivationSpec(kind, alpha=alpha, relu_zero_policy=policy)
        result = activation_jacobian(spec, [0.0])
        assert np.allclose(result.matrix, [[expected]], atol=0.0)
        assert result.singular_hit is True

    @pytest.mark.parametrize("kind,alpha", [("relu", None), ("leaky_relu", 0.5)])
    def test_reject_names_the_coordinate(self, kind, alpha):
        spec = ActivationSpec(kind, alpha=alpha, relu_zero_policy="reject")
        with pytest.raises(SingularityError) as excinfo:
            activation_jacobian(spec, [1.0, 0.0, -1.0])
        assert excinfo.value.coordinate == 2

    def test_hits_reported_per_coordinate(self):
        spec = ActivationSpec("relu")
        deriv, hits = elementwise_derivative(spec, [0.0, 1.0, 0.0])
        assert hits == [1, 3]
        assert np.array_equal(deriv, [0.0, 1.0, 0.0])

    def test_away_from_zero_no_hit(self):
        result = activation_jacobian(ActivationSpec("relu", relu_zero_policy="reject"), [1e-12, -1e-12])
        assert result.singular_hit is False
        assert np.array_equal(result.matrix, np.diag([1.0, 0.0]))


class TestSpecValidation:
    def test_unknown_kind(self):
        for kind in ("swish", ["relu"]):
            with pytest.raises(ValueError, match="unknown activation kind"):
                ActivationSpec(kind)

    @pytest.mark.parametrize("policy", ["maybe", "", []])
    def test_unknown_policy(self, policy):
        with pytest.raises(ValueError, match="unknown relu_zero_policy"):
            ActivationSpec("relu", relu_zero_policy=policy)

    def test_alpha_only_for_leaky(self):
        with pytest.raises(ValueError):
            ActivationSpec("tanh", alpha=0.1)

    def test_leaky_requires_alpha(self):
        with pytest.raises(ValueError):
            ActivationSpec("leaky_relu")

    def test_negative_alpha_rejected(self):
        for alpha in (-0.5, 10**400, [1], "0.5", True):
            with pytest.raises(ValueError, match="leaky_relu alpha must be"):
                ActivationSpec("leaky_relu", alpha=alpha)

    def test_policy_only_for_kinked_kinds(self):
        with pytest.raises(ValueError):
            ActivationSpec("logistic", relu_zero_policy="reject")

    def test_policy_defaults_to_derivative_zero(self):
        assert ActivationSpec("relu").relu_zero_policy == "derivative_zero"
        assert ActivationSpec("tanh").relu_zero_policy is None
