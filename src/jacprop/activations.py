"""Activation functions and their Jacobians.

Supported kinds: identity, logistic, tanh, softplus, relu, leaky_relu
(elementwise) and softmax (multivariate). One table maps every kind to
its value function and to its exact Jacobian slope: the diagonal of an
elementwise kind's Jacobian, computed from the weighted input z and the
stored value a in forms that do not cancel in saturation (tanh' =
1/cosh(z)^2, logistic' = a logistic(-z), softplus' = logistic(z), with
logistic(z) = exp(-log(1 + e^-z))), or softmax's dense matrix. That
slope is what the forward Jacobian pass requires of each layer. The
table also gives every kind one gain that bounds its value and its slope
at any finite z, from which a model bounds its whole pass.

Every numpy call of the package that may overflow, because its caller
tests the result, runs through :func:`_guarded`, the package's one
``np.errstate``.

relu and leaky_relu are not differentiable at exactly 0; the behaviour
there is controlled by ``relu_zero_policy``:

- ``derivative_zero``: use the negative-branch slope (0 for relu, alpha
  for leaky_relu) and flag the hit,
- ``derivative_one``: use the positive-branch slope (1) and flag the hit,
- ``reject``: raise :class:`SingularityError` naming the coordinate.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SingularityError

ZERO_POLICIES = frozenset({"derivative_zero", "derivative_one", "reject"})

_KINKED = frozenset({"relu", "leaky_relu"})


def _checked_real(value, what: str, rule: str, ok) -> float:
    """value as a float: a real number (not a bool, a string or a sequence) for which ok holds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        number, beyond = float(value), False
    except OverflowError:  # an integer beyond float64 reads as +-inf, as 1e400 does
        number, beyond = math.inf if value > 0 else -math.inf, True
    if not ok(number):
        raise ValueError(f"{what} must be {rule}, got {'an integer beyond float64' if beyond else repr(value)}")
    return number


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
            alpha = _checked_real(self.alpha, "leaky_relu alpha", "finite and >= 0", lambda v: 0 <= v < np.inf)
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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _Rebuilt:
    """A frozen dataclass that pickle, ``copy`` and ``deepcopy`` rebuild through its constructor.

    They send the init fields, so every field reaches the copy, and the
    constructor makes its arrays read-only again and a view a view again.
    """

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


class _ByValue(_Rebuilt):
    """A :class:`_Rebuilt` dataclass compared and hashed by its init fields, each array by its shape and bytes."""

    def _key(self) -> tuple:
        # the values a copy is rebuilt from
        return tuple((v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in self.__reduce__()[1])

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class ActivationJacobian(_Rebuilt):
    """Jacobian of an activation at a point, compared and hashed by identity.

    ``matrix`` is the dense n x n Jacobian (diagonal for elementwise
    kinds), made read-only by the constructor. ``singular_hit`` is set
    when a relu/leaky_relu coordinate sat exactly at 0 and a fallback
    policy supplied the value.
    """

    matrix: np.ndarray
    singular_hit: bool

    def __post_init__(self):
        _freeze(self.matrix)


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of a float array is finite.

    Counting the finite entries is numpy's cheapest whole-array test: on
    small arrays ``count_nonzero`` costs a fraction of a reduction such as
    ``.all()``, which every call on the request path would otherwise pay.
    """
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def _guarded(safe: bool, fn, *args):
    """fn(*args), with numpy's overflow warnings silenced only where something can overflow.

    A plain call where the caller knows that nothing can (a model's pass
    below its safe input, see ``model._survey``); under
    ``np.errstate(over="ignore", invalid="ignore")`` otherwise, where the
    caller's own tests name what overflows. The package's one errstate.
    """
    if safe:
        return fn(*args)
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(*args)


_FLOAT64 = np.dtype(np.float64)


def _as_real(x, what: str) -> np.ndarray:
    """x as a float64 array (no copy if it is one); ValueError if it holds complex numbers.

    The dtype is read before the cast, which would keep only the real part, with a ComplexWarning.
    Anything else is cast from x itself, so that numpy's own conversion errors keep their text.
    """
    arr = np.asarray(x)
    if arr.dtype != _FLOAT64:
        if arr.dtype.kind == "c":
            raise ValueError(f"{what} must hold real numbers, got dtype {arr.dtype}")
        arr = np.asarray(x, dtype=np.float64)
    return arr


def _as_matrix(x, what: str) -> np.ndarray:
    """x as a float64 matrix (no copy if it is one), a vector or a scalar as one row.

    Raises :class:`DimensionMismatchError` naming ``what`` and the shape past 2 dimensions.
    """
    arr = _as_real(x, what)
    if arr.ndim > 2:
        raise DimensionMismatchError(f"{what} must have at most 2 dimensions, got shape {arr.shape}")
    return np.atleast_2d(arr) if arr.ndim < 2 else arr


def _as_finite_vector(x, what: str) -> np.ndarray:
    """x as a float64 vector (no copy if it is one); ValueError if not 1-D, NonFiniteError if not finite."""
    arr = _as_real(x, what)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-D vector, got shape {arr.shape}")
    if not _all_finite(arr):
        raise NonFiniteError(f"{what} contains non-finite entries")
    return arr


def _logistic(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) as exp(-log(1 + e^-z)): logaddexp neither overflows nor cancels at any finite z, so the
    # value keeps its relative accuracy far below 0 too
    return np.exp(-np.logaddexp(0.0, -z))


def _sech_squared(z: np.ndarray) -> np.ndarray:
    # tanh' as 1 / cosh(z)^2, which does not cancel where 1 - tanh(z)^2 does; cosh overflows past |z| ~ 710.5,
    # so |z| is clamped to 710, where the square is already 0, as the true slope, below 2^-2000, rounds to
    return np.square(1.0 / np.cosh(np.minimum(np.abs(z), 710.0)))


def softmax(z: np.ndarray) -> np.ndarray:
    """softmax of a vector; a matrix is taken column by column.

    Raises ``ValueError`` for an empty input, then for a scalar or an
    array of 3 or more dimensions, and :class:`NonFiniteError` when a
    column's maximum is not finite, which is exactly when the result would
    hold NaN. An entry of -inf below a finite maximum has weight exactly 0.
    """
    z = _as_real(z, "softmax input")
    if z.size < 1:
        raise ValueError("softmax requires a vector of length >= 1")
    if z.ndim not in (1, 2):
        raise ValueError(f"softmax input must be a vector or a matrix of columns, got shape {z.shape}")
    peak = np.maximum.reduce(z)
    # a vector's maximum is a scalar, which math.isfinite tests at a fraction of numpy's cost
    if not (math.isfinite(peak) if z.ndim == 1 else _all_finite(peak)):
        raise NonFiniteError("softmax input contains NaN or +inf, or a column of only -inf")
    # a vector's spread is taken between Python floats, which overflow to inf without a numpy warning; where
    # it does not fit, entries more than float64's range below the maximum shift to -inf, and exp gives their 0
    fits = z.ndim == 1 and math.isfinite(float(peak) - float(np.minimum.reduce(z)))
    shifted = np.exp(_guarded(fits, np.subtract, z, peak))
    return shifted / np.add.reduce(shifted)


def _kinked_slope(spec: ActivationSpec, z: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    negative_slope = 0.0 if spec.kind == "relu" else spec.alpha
    deriv = np.where(z > 0.0, 1.0, negative_slope)
    if np.count_nonzero(z) == z.size:  # no coordinate sits at the kink (-0.0 counts as zero too)
        return deriv, []
    hits = [int(i) + 1 for i in np.flatnonzero(z == 0.0)]
    if spec.relu_zero_policy == "reject":
        raise SingularityError(
            f"{spec.kind} differentiated at its singular point z=0 (coordinate {hits[0]})",
            coordinate=hits[0],
        )
    if spec.relu_zero_policy == "derivative_one":
        deriv[z == 0.0] = 1.0
    # derivative_zero keeps the negative-branch slope already in place
    return deriv, hits


def _leaky_relu(spec: ActivationSpec, z: np.ndarray) -> np.ndarray:
    # |alpha z| <= |z| up to alpha 1; above it alpha z may overflow: the value is then -inf, which
    # activation_apply refuses
    return _guarded(spec.alpha <= 1.0, np.multiply, z, np.where(z > 0.0, 1.0, spec.alpha))


# kind -> (value(spec, z), slope(spec, z, a) -> (slope, singular coordinates), gain(spec) -> c), where the
# slope is the Jacobian's diagonal for elementwise kinds and the dense matrix for softmax. The gain c >= 1
# bounds the kind for any finite z: |value| <= c max(1, |z|) entrywise, and the largest absolute row sum
# of the slope is at most c (1/4 for logistic, 2 s_i (1 - s_i) <= 1/2 for softmax).
_TABLE = {
    "identity": (lambda spec, z: z.copy(), lambda spec, z, a: (np.ones(z.shape), []), lambda spec: 1.0),
    "logistic": (lambda spec, z: _logistic(z), lambda spec, z, a: (a * _logistic(-z), []), lambda spec: 1.0),
    "tanh": (lambda spec, z: np.tanh(z), lambda spec, z, a: (_sech_squared(z), []), lambda spec: 1.0),
    # z + log1p(exp(-z)) for positive z, log1p(exp(z)) otherwise; log(1 + e^t) <= 2 max(1, t) for t >= 0
    "softplus": (lambda spec, z: np.logaddexp(0.0, z), lambda spec, z, a: (_logistic(z), []), lambda spec: 2.0),
    "relu": (lambda spec, z: np.maximum(z, 0.0), _kinked_slope, lambda spec: 1.0),
    "leaky_relu": (_leaky_relu, _kinked_slope, lambda spec: max(1.0, spec.alpha)),
    # softmax_jacobian is looked up at call time, so a wrapper put on the module's name sees the call
    "softmax": (lambda spec, z: softmax(z), lambda spec, z, a: (softmax_jacobian(z), []), lambda spec: 1.0),
}
KINDS = frozenset(_TABLE)
ELEMENTWISE_KINDS = KINDS - {"softmax"}


def activation_apply(spec: ActivationSpec, z) -> np.ndarray:
    """Apply the activation to a weighted-input vector, or to each column of an (n, k) matrix of them.

    Raises :class:`NonFiniteError` when z or the value has a non-finite entry. Only the value
    of leaky_relu with alpha > 1 can leave float64 at a finite z, so only that value is tested.
    """
    arr = _as_real(z, "activation input")
    if arr.ndim not in (1, 2):
        raise ValueError(f"activation input must be a vector or a matrix of columns, got shape {arr.shape}")
    if not _all_finite(arr):
        raise NonFiniteError("activation input contains non-finite entries")
    value = _TABLE[spec.kind][0](spec, arr)
    # alpha is set for leaky_relu only
    if spec.alpha is not None and spec.alpha > 1.0 and not _all_finite(value):
        raise NonFiniteError("activation value contains non-finite entries")
    return value


def _slope(spec: ActivationSpec, z: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Jacobian slope and singular coordinates of an activation at a vector z.

    The slope is the Jacobian's diagonal for an elementwise kind and the
    dense matrix for softmax. It is computed from the stored input z and
    value a = activation_apply(spec, z), neither of which is checked
    again (softmax's matrix is rebuilt from z).
    """
    return _TABLE[spec.kind][1](spec, z, a)


def _gain(spec: ActivationSpec) -> float:
    """The table's gain c >= 1, which bounds the kind's value and slope, for a model's overflow bound."""
    return _TABLE[spec.kind][2](spec)


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
    """diag(s) - s s^T where s = softmax(z), the dominant class m's diagonal taken as s_m sum_{k != m} s_k.

    s_m - s_m^2 is exactly 0 once 1 - s_m is below the rounding unit, while
    the other classes' sum keeps their accuracy. Only one class can exceed
    1/2, so s_i - s_i^2 does not cancel for any other i.
    """
    s = softmax(_as_finite_vector(z, "activation input"))
    jacobian = np.diag(s) - np.outer(s, s)
    m = s.argmax()
    jacobian[m, m] = s[m] * (np.add.reduce(s[:m]) + np.add.reduce(s[m + 1 :]))
    return jacobian


def activation_jacobian(spec: ActivationSpec, z) -> ActivationJacobian:
    """Exact Jacobian of the activation at z, as a dense read-only matrix.

    :func:`softmax_jacobian` for softmax, else the diagonal matrix of
    :func:`elementwise_derivative`; each raises what it raises on its own.
    """
    if spec.kind == "softmax":
        return ActivationJacobian(matrix=softmax_jacobian(z), singular_hit=False)
    slope, hits = elementwise_derivative(spec, z)
    return ActivationJacobian(matrix=np.diag(slope), singular_hit=bool(hits))
