"""Layered feedforward model representation.

A model is an ordered list of weight layers, each a dense matrix paired
with an activation, defining F: R^m -> R^n. Network layers are numbered
1..L with layer 1 the input, so ``layers[i]`` is network layer ``i+2``
in messages about traces; messages about the layers list itself (file
loading, validation) use the 1-based list position instead.

Biases are supported only in folded form: a folded layer stores the
augmented matrix (bias as the last column) and applies it to its input
extended by a constant 1. See :func:`fold_bias`.

A model checks its structure once, when it is built, and in the same walk
over the layers computes its safe input: an input magnitude below which
no value and no Jacobian product of a pass can overflow, from one product
of layer norms, each times its activation's gain (Szegedy et al., ICLR
2014; Virmaux & Scaman, NeurIPS 2018). A pass over an input below it
skips the Jacobian's overflow tests, which cannot fail there (see
:func:`_survey`). Every pass runs through ``activations._guarded``, the
package's one overflow guard: a plain call below the safe input, and
under ``np.errstate`` at or above it.

An optional :class:`EvalCounter`, defined beside :func:`_layer_values`,
counts evaluations: two plain integers that the value pass adds to, as
does the finite-difference oracle for a block of probes it has found
finite.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .activations import (
    ActivationSpec, _ByValue, _as_finite_vector, _as_real, _freeze, _gain, _guarded, activation_apply,
)
from .errors import DimensionMismatchError, ModelValidationError, NonFiniteError


@dataclass(frozen=True, eq=False)
class LayerDef(_ByValue):
    """One weight layer: a dense matrix and its activation.

    ``bias_folded`` marks that the last weight column is a folded bias,
    consumed by a constant-1 input component appended at evaluation time.
    The weights are a read-only copy and ``linear_part`` a view of them.
    A copy or pickle is rebuilt through the constructor, so it keeps both,
    and ``@`` gives its linear part the original's bits. Layers compare
    and hash by value: the shape and bytes of the weights, the activation
    and the flag.
    """

    weights: np.ndarray
    activation: ActivationSpec
    bias_folded: bool = False
    _linear: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            w = np.array(_as_real(self.weights, "weights"))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"weights must form a rectangular numeric matrix: {exc}") from None
        if w.ndim != 2:
            raise ValueError(f"weights must be a 2-D matrix, got {w.ndim} dimension(s)")
        if not isinstance(self.activation, ActivationSpec):
            raise TypeError("activation must be an ActivationSpec")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "bias_folded", bool(self.bias_folded))
        object.__setattr__(self, "_linear", w[:, :-1] if self.bias_folded else w)

    @property
    def output_dim(self) -> int:
        return self.weights.shape[0]

    def linear_part(self) -> np.ndarray:
        """Weight matrix without the folded-bias column, for differentiation."""
        return self._linear


@dataclass(frozen=True)
class LayeredModel:
    """Immutable feedforward model F: R^input_dim -> R^output_dim.

    The constructor rejects what cannot represent a model and checks the
    structural invariants (dimension chaining, finiteness, non-emptiness)
    once. An invalid model is still built; :func:`validate_model` reports
    the verdict, which cannot go stale: model and weights are read-only.
    Models compare and hash by value, through their layers.
    """

    layers: tuple[LayerDef, ...]
    input_dim: int
    _violations: tuple[str, ...] = field(init=False, compare=False, repr=False)
    # see _survey
    _safe_input: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        layers = tuple(self.layers)
        if not all(isinstance(layer, LayerDef) for layer in layers):
            raise TypeError("layers must contain LayerDef values")
        try:
            not_integer = isinstance(self.input_dim, bool) or int(self.input_dim) != self.input_dim
        except (TypeError, ValueError, OverflowError):  # None, a string, NaN, an infinity
            not_integer = True
        if not_integer:
            raise TypeError("input_dim must be an integer")
        if int(self.input_dim) < 1:
            raise ValueError("input_dim must be a positive integer")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "input_dim", int(self.input_dim))
        violations, safe_input = _survey(self)
        object.__setattr__(self, "_violations", violations)
        object.__setattr__(self, "_safe_input", safe_input)

    @property
    def layer_count(self) -> int:
        """Total number of network layers L, counting the input layer."""
        return len(self.layers) + 1

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim if self.layers else self.input_dim


@dataclass(frozen=True, eq=False)
class InstanceVector(_ByValue):
    """A validated input instance: finite real features of fixed length, read-only, compared by value."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_finite_vector(self.values, "instance")
        object.__setattr__(self, "values", _freeze(arr.copy()))

    def __len__(self) -> int:
        return self.values.shape[0]

    def __array__(self, dtype=None, copy=None):
        # numpy 2's protocol: the read-only values themselves unless a copy is asked for or needed, and
        # ValueError where copy=False forbids a needed one
        if dtype is not None and np.dtype(dtype) != self.values.dtype:
            if copy is False:
                raise ValueError(f"an instance is float64: {np.dtype(dtype)} needs a copy, which copy=False forbids")
            return self.values.astype(dtype)
        return self.values.copy() if copy else self.values


def fold_bias(weights, bias) -> np.ndarray:
    """Append a bias vector to a weight matrix as its final column.

    The caller contract from the augmented-model form: the input of the
    resulting matrix gains a trailing constant-1 component.
    """
    w = _as_real(weights, "weights")
    b = _as_real(bias, "bias")
    if w.ndim != 2:
        raise DimensionMismatchError(f"weights must be a 2-D matrix, got shape {w.shape}")
    if b.ndim != 1:
        raise DimensionMismatchError(f"bias must be a 1-D vector, got shape {b.shape}")
    if b.shape[0] != w.shape[0]:
        raise DimensionMismatchError(
            f"bias length {b.shape[0]} does not match weight row count {w.shape[0]}"
        )
    return np.hstack([w, b[:, np.newaxis]])


# no value and no Jacobian product of a pass leaves float64 (2^1024) while its bound stays below this one:
# the 2^24 margin covers the rounding of every sum, in any order, and of the bound itself
_LIMIT = 2.0**1000


def _survey(model: LayeredModel) -> tuple[tuple[str, ...], float]:
    """One walk over the layers: the structural violations and the safe input.

    The violations are the verdict :func:`validate_model` reports. The
    safe input is 2^1000 / P, where P is the product over the layers of
    c max(1, n max|w|): the activation table's gain c times the layer's
    n columns (the bias column counted) times its largest absolute weight.
    It is 0.0 where P exceeds 2^1000 or the model is invalid. One
    reduction per layer gives max|w|, and it is the finiteness test the
    walk makes anyway. Since n max|w| bounds a layer's absolute row sums,
    and c bounds both |a| <= c max(1, |z|) and the slope's row sums,
    induction over the layers bounds every weighted input and every value
    of a pass by P max(1, max|x|), and every prefix, every partial product
    of the output-end fold and every product on the way (W J, C D) by P.
    """
    if not model.layers:
        return ("model has no layers; at least one weight layer is required",), 0.0
    violations: list[str] = []
    prev_size = model.input_dim
    prev_name = f"input_dim {model.input_dim}"
    bound = 1.0
    for pos, layer in enumerate(model.layers, start=1):
        rows, cols = layer.weights.shape
        if rows < 1 or cols < 1:
            violations.append(
                f"layer {pos}: weight matrix must have at least one row and one column, got {rows}x{cols}"
            )
        else:
            # NaN or inf exactly when a weight is, so it is the finiteness test too
            peak = float(np.maximum.reduce(np.abs(layer.weights), axis=None))
            if not math.isfinite(peak):
                violations.append(f"layer {pos}: weights contain non-finite entries")
            expected = prev_size + (1 if layer.bias_folded else 0)
            if cols != expected:
                suffix = " plus the folded bias column" if layer.bias_folded else ""
                violations.append(f"layer {pos}: weight column count {cols} does not match {prev_name}{suffix}")
            bound *= _gain(layer.activation) * max(1.0, cols * peak)
        prev_size = rows
        prev_name = f"layer {pos} output size {rows}"
    return tuple(violations), 0.0 if violations or bound > _LIMIT else _LIMIT / bound


def validate_model(model: LayeredModel) -> list[str]:
    """Violations found when the model was built (empty = valid); layers by 1-based list position."""
    return list(model._violations)


def _validated(model: LayeredModel) -> LayeredModel:
    """The model itself; ModelValidationError if it breaks its structural invariants."""
    violations = validate_model(model)
    if violations:
        raise ModelValidationError(violations)
    return model


def _checked_input(model: LayeredModel, x) -> tuple[np.ndarray, bool]:
    """Refuse an invalid model and coerce x to a checked, fresh vector: the boundary of every pass.

    Also says whether max|x| is below the model's safe input, where no
    value and no Jacobian product of the pass can overflow (see _survey).
    """
    model = _validated(model)
    arr = _as_real(x, "input")
    if arr.ndim != 1:
        raise DimensionMismatchError(f"input must be a 1-D vector, got shape {arr.shape}")
    # max|x| is NaN or inf exactly when an entry is, so it is the finiteness test too; an empty input goes
    # on to its length error
    peak = np.maximum.reduce(np.abs(arr)) if arr.size else 0.0
    if not math.isfinite(peak):
        raise NonFiniteError("input contains non-finite entries")
    if arr.shape[0] != model.input_dim:
        raise DimensionMismatchError(f"input length {arr.shape[0]} does not match model input_dim {model.input_dim}")
    return arr.copy(), peak < model._safe_input


def _checked_layer(layer, low: int, high: int) -> int:
    """The network-layer index rule: an integer (not a bool) in [low, high]."""
    if isinstance(layer, bool) or not isinstance(layer, numbers.Integral) or not low <= layer <= high:
        raise ValueError(f"layer must be an integer in [{low}, {high}], got {layer!r}")
    return int(layer)


@dataclass
class EvalCounter:
    """Counts the work of model evaluations, for the one-pass-vs-finite-difference cost comparison.

    ``model_evals`` grows by one per full evaluation of the model (a plain
    forward pass, one finite-difference probe, or one Jacobian pass), and
    ``weighted_input_evals`` by one per weighted input W a, L-1 times per
    full evaluation. A value pass over k instances at once (the
    finite-difference probes, stacked as columns) counts k of each, as k
    separate passes would. Two plain integers that the passes add to, and
    ``reset()``; not safe for concurrent increments, so run instrumented
    operations single-threaded.
    """

    model_evals: int = 0
    weighted_input_evals: int = 0

    def reset(self) -> None:
        self.model_evals = 0
        self.weighted_input_evals = 0


# the constant-1 component a folded bias meets in a pass over one instance
_ONE = _freeze(np.ones(1))


def _layer_values(model: LayeredModel, vec: np.ndarray, counter: EvalCounter | None = None):
    """The value pass, one layer at a time: yields (net_layer, layer, z, a).

    The only place that computes z = W a and the activation, for forward,
    the finite-difference probes and the Jacobian pass alike. ``vec`` is
    one instance, or an (m, k) matrix of k instances as columns (the
    finite-difference probes, in bounded blocks): a folded bias then meets
    a row of ones and softmax is taken column by column, and ``counter``
    counts k evaluations. On a vector the pass is what it is for one
    instance, bit for bit. It is lazy, so a consumer's own error at layer l
    (a relu kink under ``reject``) still comes before anything at layer
    l+1. Each z (and a leaky_relu value with alpha > 1) is checked once,
    as a whole, by ``activation_apply``; errors name network layers
    (2..L), overflow included, so the consumer reads it through
    ``activations._guarded``, which silences numpy's overflow warnings
    only where something can overflow. Assumes the model already
    validated and ``vec`` checked.
    """
    columns = 1 if vec.ndim == 1 else vec.shape[1]
    if counter is not None:
        counter.model_evals += columns
    ones = _ONE if vec.ndim == 1 else np.ones((1, columns))
    a = vec
    for net_layer, layer in enumerate(model.layers, start=2):
        src = np.concatenate((a, ones)) if layer.bias_folded else a
        # ndarray.dot costs less per call than @ and gives the same bits between C-contiguous
        # operands over an inner dimension above 1; over 1 it multiplies, and keeps the -0 of a
        # product that @'s sum turns into +0
        z = layer.weights.dot(src) if layer.weights.shape[1] > 1 else layer.weights @ src
        if counter is not None:
            counter.weighted_input_evals += columns
        try:
            a = activation_apply(layer.activation, z)  # checks z, and a where it can overflow
        except NonFiniteError:
            what = "activation" if np.isfinite(z).all() else "weighted input"
            raise NonFiniteError(f"non-finite {what} at layer {net_layer}") from None
        yield net_layer, layer, z, a


def forward(model: LayeredModel, x, counter: EvalCounter | None = None) -> list[np.ndarray]:
    """Evaluate the model, returning all activations a^[1..L] (last is y)."""
    vec, safe = _checked_input(model, x)
    # the pass is lazy: list runs it inside the guard
    return [vec] + [a for _, _, _, a in _guarded(safe, list, _layer_values(model, vec, counter))]


def prefix_model(model: LayeredModel, layer: int) -> LayeredModel:
    """The initial part of the model up to network layer ``layer`` (2..L)."""
    layer = _checked_layer(layer, 2, model.layer_count)
    return LayeredModel(layers=model.layers[: layer - 1], input_dim=model.input_dim)


def suffix_model(model: LayeredModel, layer: int) -> LayeredModel:
    """The remaining model consuming a^[layer], for ``layer`` in 1..L-1."""
    layer = _checked_layer(layer, 1, model.layer_count - 1)
    if layer == 1:
        return model
    input_dim = model.layers[layer - 2].output_dim
    return LayeredModel(layers=model.layers[layer - 1 :], input_dim=input_dim)
