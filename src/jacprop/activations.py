"""Activation functions and their Jacobians.

Supported kinds: identity, logistic, tanh, softplus, relu, leaky_relu
(elementwise) and softmax (multivariate). One table maps every kind to
its value function and, for elementwise kinds, to its exact slope
computed from the weighted input z and the stored value a (tanh' = 1-a^2,
logistic' = a(1-a)), which is what the forward Jacobian pass requires of
each layer.

relu and leaky_relu are not differentiable at exactly 0; the behaviour
there is controlled by ``relu_zero_policy``:

- ``derivative_zero``: use the negative-branch slope (0 for relu, alpha
  for leaky_relu) and flag the hit,
- ``derivative_one``: use the positive-branch slope (1) and flag the hit,
- ``reject``: raise :class:`SingularityError` naming the coordinate.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, SingularityError

KINDS = frozenset(
    {"identity", "logistic", "tanh", "softplus", "relu", "leaky_relu", "softmax"}
)
ELEMENTWISE_KINDS = KINDS - {"softmax"}
ZERO_POLICIES = frozenset({"derivative_zero", "derivative_one", "reject"})

_KINKED = frozenset({"relu", "leaky_relu"})


@dataclass(frozen=True)
class ActivationSpec:
    """One layer's activation: a kind plus its parameters.

    ``alpha`` is required for leaky_relu, where it must be a finite real
    number >= 0 (not a bool or a string), and forbidden otherwise.
    ``relu_zero_policy`` applies to relu/leaky_relu only and defaults to
    ``derivative_zero``.
    """

    kind: str
    alpha: float | None = None
    relu_zero_policy: str | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}; expected one of {sorted(KINDS)}")
        if self.kind == "leaky_relu":
            if self.alpha is None:
                raise ValueError("leaky_relu requires an alpha parameter")
            if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
                raise ValueError(f"leaky_relu alpha must be a real number, got {self.alpha!r}")
            try:
                alpha = float(self.alpha)
            except OverflowError:  # an integer beyond float64 is as non-finite as 1e400
                raise ValueError("leaky_relu alpha must be finite and >= 0, got an integer beyond float64") from None
            if not np.isfinite(alpha) or alpha < 0:
                raise ValueError(f"leaky_relu alpha must be finite and >= 0, got {self.alpha!r}")
            object.__setattr__(self, "alpha", alpha)
        elif self.alpha is not None:
            raise ValueError(f"alpha is only valid for leaky_relu, not {self.kind!r}")
        if self.kind in _KINKED:
            policy = "derivative_zero" if self.relu_zero_policy is None else self.relu_zero_policy
            if not isinstance(policy, str) or policy not in ZERO_POLICIES:
                raise ValueError(
                    f"unknown relu_zero_policy {policy!r}; expected one of {sorted(ZERO_POLICIES)}"
                )
            object.__setattr__(self, "relu_zero_policy", policy)
        elif self.relu_zero_policy is not None:
            raise ValueError(f"relu_zero_policy is only valid for relu/leaky_relu, not {self.kind!r}")


@dataclass(frozen=True)
class ActivationJacobian:
    """Jacobian of an activation at a point.

    ``matrix`` is the dense n x n Jacobian (diagonal for elementwise
    kinds). ``singular_hit`` is set when a relu/leaky_relu coordinate sat
    exactly at 0 and a fallback policy supplied the value.
    """

    matrix: np.ndarray
    singular_hit: bool


def _as_finite_vector(x, what: str, shape_error: type[Exception] = ValueError) -> np.ndarray:
    """x as a float64 vector (no copy if it is one); ``shape_error`` if not 1-D, NonFiniteError if not finite."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise shape_error(f"{what} must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what} contains non-finite entries")
    return arr


def _logistic(z: np.ndarray) -> np.ndarray:
    # tanh form is overflow-free for all finite z
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def softmax(z: np.ndarray) -> np.ndarray:
    if np.size(z) < 1:
        raise ValueError("softmax requires a vector of length >= 1")
    shifted = np.exp(z - np.max(z))
    return shifted / np.sum(shifted)


def _kinked_slope(spec: ActivationSpec, z: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    negative_slope = 0.0 if spec.kind == "relu" else spec.alpha
    deriv = np.where(z > 0.0, 1.0, negative_slope)
    hits = [int(i) + 1 for i in np.flatnonzero(z == 0.0)]
    if hits:
        if spec.relu_zero_policy == "reject":
            raise SingularityError(
                f"{spec.kind} differentiated at its singular point z=0 (coordinate {hits[0]})",
                coordinate=hits[0],
            )
        if spec.relu_zero_policy == "derivative_one":
            deriv[z == 0.0] = 1.0
        # derivative_zero keeps the negative-branch slope already in place
    return deriv, hits


# kind -> (value(spec, z), slope(spec, z, a) -> (diagonal, singular coordinates));
# softmax has no diagonal slope, see softmax_jacobian
_TABLE = {
    "identity": (lambda spec, z: z.copy(), lambda spec, z, a: (np.ones_like(z), [])),
    "logistic": (lambda spec, z: _logistic(z), lambda spec, z, a: (a * (1.0 - a), [])),
    "tanh": (lambda spec, z: np.tanh(z), lambda spec, z, a: (1.0 - a * a, [])),
    # z + log1p(exp(-z)) for positive z, log1p(exp(z)) otherwise
    "softplus": (lambda spec, z: np.logaddexp(0.0, z), lambda spec, z, a: (_logistic(z), [])),
    "relu": (lambda spec, z: np.maximum(z, 0.0), _kinked_slope),
    "leaky_relu": (lambda spec, z: np.where(z > 0.0, z, spec.alpha * z), _kinked_slope),
    "softmax": (lambda spec, z: softmax(z), None),
}


def activation_apply(spec: ActivationSpec, z) -> np.ndarray:
    """Apply the activation to a weighted-input vector."""
    return _TABLE[spec.kind][0](spec, _as_finite_vector(z, "activation input"))


def _slope(spec: ActivationSpec, z: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Diagonal Jacobian and singular coordinates of an elementwise activation.

    Computed from the stored input z and value a = activation_apply(spec, z),
    neither of which is checked again.
    """
    return _TABLE[spec.kind][1](spec, z, a)


def elementwise_derivative(spec: ActivationSpec, z) -> tuple[np.ndarray, list[int]]:
    """Pointwise derivative of an elementwise activation.

    Returns the diagonal of the Jacobian plus the 1-based coordinates
    where a relu/leaky_relu singularity policy fired. Raises
    :class:`SingularityError` under the reject policy.
    """
    if spec.kind not in ELEMENTWISE_KINDS:
        raise ValueError(f"{spec.kind!r} is not an elementwise activation")
    arr = _as_finite_vector(z, "activation input")
    return _slope(spec, arr, _TABLE[spec.kind][0](spec, arr))


def softmax_jacobian(z) -> np.ndarray:
    """diag(s) - s s^T where s = softmax(z)."""
    s = softmax(_as_finite_vector(z, "activation input"))
    return np.diag(s) - np.outer(s, s)


def activation_jacobian(spec: ActivationSpec, z) -> ActivationJacobian:
    """Exact Jacobian of the activation at z, as a dense matrix."""
    if spec.kind == "softmax":
        return ActivationJacobian(matrix=softmax_jacobian(z), singular_hit=False)
    deriv, hits = elementwise_derivative(spec, z)
    return ActivationJacobian(matrix=np.diag(deriv), singular_hit=bool(hits))
