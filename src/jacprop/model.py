"""Layered feedforward model representation.

A model is an ordered list of weight layers, each a dense matrix paired
with an activation, defining F: R^m -> R^n. Network layers are numbered
1..L with layer 1 the input, so ``layers[i]`` is network layer ``i+2``
in messages about traces; messages about the layers list itself (file
loading, validation) use the 1-based list position instead.

Biases are supported only in folded form: a folded layer stores the
augmented matrix (bias as the last column) and applies it to its input
extended by a constant 1. See :func:`fold_bias`.
"""

from dataclasses import dataclass, field

import numpy as np

from .activations import ActivationSpec, _as_finite_vector, activation_apply
from .errors import DimensionMismatchError, ModelValidationError, NonFiniteError
from .instrumentation import EvalCounter


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LayerDef:
    """One weight layer: a dense matrix and its activation.

    ``bias_folded`` marks that the last weight column is a folded bias,
    consumed by a constant-1 input component appended at evaluation time.
    """

    weights: np.ndarray
    activation: ActivationSpec
    bias_folded: bool = False

    def __post_init__(self):
        try:
            w = np.array(self.weights, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"weights must form a rectangular numeric matrix: {exc}") from None
        if w.ndim != 2:
            raise ValueError(f"weights must be a 2-D matrix, got {w.ndim} dimension(s)")
        if not isinstance(self.activation, ActivationSpec):
            raise TypeError("activation must be an ActivationSpec")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "bias_folded", bool(self.bias_folded))

    @property
    def output_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_in(self) -> int:
        """Number of true (non-constant) inputs this layer consumes."""
        return self.weights.shape[1] - (1 if self.bias_folded else 0)

    def linear_part(self) -> np.ndarray:
        """Weight matrix without the folded-bias column, for differentiation."""
        return self.weights[:, :-1] if self.bias_folded else self.weights


@dataclass(frozen=True)
class LayeredModel:
    """Immutable feedforward model F: R^input_dim -> R^output_dim.

    The constructor only guarantees representability; structural
    invariants (dimension chaining, finiteness, non-emptiness) are
    checked by :func:`validate_model`, which reports violations as data.
    """

    layers: tuple[LayerDef, ...]
    input_dim: int

    def __post_init__(self):
        layers = tuple(self.layers)
        if not all(isinstance(layer, LayerDef) for layer in layers):
            raise TypeError("layers must contain LayerDef values")
        if isinstance(self.input_dim, bool) or int(self.input_dim) != self.input_dim:
            raise TypeError("input_dim must be an integer")
        if int(self.input_dim) < 1:
            raise ValueError("input_dim must be a positive integer")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "input_dim", int(self.input_dim))

    @property
    def layer_count(self) -> int:
        """Total number of network layers L, counting the input layer."""
        return len(self.layers) + 1

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim if self.layers else self.input_dim


@dataclass(frozen=True)
class InstanceVector:
    """A validated input instance: finite real features of fixed length."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_finite_vector(self.values, "instance")
        object.__setattr__(self, "values", _freeze(arr.copy()))

    def __len__(self) -> int:
        return self.values.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.values.astype(dtype)
        if copy:
            return self.values.copy()
        return self.values


def fold_bias(weights, bias) -> np.ndarray:
    """Append a bias vector to a weight matrix as its final column.

    The caller contract from the augmented-model form: the input of the
    resulting matrix gains a trailing constant-1 component.
    """
    w = np.asarray(weights, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    if w.ndim != 2:
        raise DimensionMismatchError(f"weights must be a 2-D matrix, got shape {w.shape}")
    if b.ndim != 1:
        raise DimensionMismatchError(f"bias must be a 1-D vector, got shape {b.shape}")
    if b.shape[0] != w.shape[0]:
        raise DimensionMismatchError(
            f"bias length {b.shape[0]} does not match weight row count {w.shape[0]}"
        )
    return np.hstack([w, b[:, np.newaxis]])


def validate_model(model: LayeredModel) -> list[str]:
    """Check the structural invariants; return violations (empty = valid).

    Violations name layers by their 1-based position in ``model.layers``.
    """
    violations: list[str] = []
    if not model.layers:
        violations.append("model has no layers; at least one weight layer is required")
        return violations
    prev_size = model.input_dim
    prev_name = f"input_dim {model.input_dim}"
    for pos, layer in enumerate(model.layers, start=1):
        rows, cols = layer.weights.shape
        if rows < 1 or cols < 1:
            violations.append(
                f"layer {pos}: weight matrix must have at least one row and one column, got {rows}x{cols}"
            )
            prev_size = rows
            prev_name = f"layer {pos} output size {rows}"
            continue
        if not np.all(np.isfinite(layer.weights)):
            violations.append(f"layer {pos}: weights contain non-finite entries")
        expected = prev_size + (1 if layer.bias_folded else 0)
        if cols != expected:
            suffix = " plus the folded bias column" if layer.bias_folded else ""
            violations.append(
                f"layer {pos}: weight column count {cols} does not match {prev_name}{suffix}"
            )
        prev_size = rows
        prev_name = f"layer {pos} output size {rows}"
    return violations


def as_input_vector(x, input_dim: int) -> np.ndarray:
    """Coerce an instance (InstanceVector or array-like) to a checked, fresh vector."""
    arr = _as_finite_vector(x, "input", DimensionMismatchError).copy()
    if arr.shape[0] != input_dim:
        raise DimensionMismatchError(
            f"input length {arr.shape[0]} does not match model input_dim {input_dim}"
        )
    return arr


def _checked_input(model: LayeredModel, x) -> np.ndarray:
    """Validate the model and coerce x; the boundary checks of every pass."""
    violations = validate_model(model)
    if violations:
        raise ModelValidationError(violations)
    return as_input_vector(x, model.input_dim)


def _layer_values(model: LayeredModel, vec: np.ndarray, counter: EvalCounter | None = None):
    """The value pass, one layer at a time: yields (net_layer, layer, z, a).

    The only place that computes z = W a and the activation, for forward,
    the finite-difference probes and the Jacobian pass alike. It is lazy,
    so a consumer's own error at layer l (a relu kink under ``reject``)
    still comes before anything at layer l+1. Each z and a is checked
    once; errors name network layers (2..L). Assumes the model already
    validated and ``vec`` checked.
    """
    if counter is not None:
        counter.count_model_eval()
    a = vec
    for net_layer, layer in enumerate(model.layers, start=2):
        src = np.append(a, 1.0) if layer.bias_folded else a
        z = layer.weights @ src
        if counter is not None:
            counter.count_weighted_input()
        try:
            a = activation_apply(layer.activation, z)  # checks z
        except NonFiniteError:
            raise NonFiniteError(f"non-finite weighted input at layer {net_layer}") from None
        if not np.all(np.isfinite(a)):
            raise NonFiniteError(f"non-finite activation at layer {net_layer}")
        yield net_layer, layer, z, a


def forward(model: LayeredModel, x, counter: EvalCounter | None = None) -> list[np.ndarray]:
    """Evaluate the model, returning all activations a^[1..L] (last is y)."""
    vec = _checked_input(model, x)
    return [vec] + [a for _, _, _, a in _layer_values(model, vec, counter)]


def prefix_model(model: LayeredModel, layer: int) -> LayeredModel:
    """The initial part of the model up to network layer ``layer`` (2..L)."""
    if not 2 <= layer <= model.layer_count:
        raise ValueError(f"layer must be in [2, {model.layer_count}], got {layer}")
    return LayeredModel(layers=model.layers[: layer - 1], input_dim=model.input_dim)


def suffix_model(model: LayeredModel, layer: int) -> LayeredModel:
    """The remaining model consuming a^[layer], for ``layer`` in 1..L-1."""
    if not 1 <= layer <= model.layer_count - 1:
        raise ValueError(f"layer must be in [1, {model.layer_count - 1}], got {layer}")
    if layer == 1:
        return model
    input_dim = model.layers[layer - 2].output_dim
    return LayeredModel(layers=model.layers[layer - 1 :], input_dim=input_dim)
