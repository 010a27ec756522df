import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jacprop import (
    ActivationSpec,
    ELEMENTWISE_KINDS,
    KINDS,
    NonFiniteError,
    SingularityError,
    activation_apply,
    activation_jacobian,
    elementwise_derivative,
    softmax_jacobian,
)
from helpers import fd_activation_jacobian, make_spec


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
