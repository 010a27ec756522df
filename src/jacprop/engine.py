"""One-pass forward propagation of the Jacobian.

The model's Jacobian factors through the layers as a matrix chain, so it
can be accumulated alongside the activations in a single input-to-output
traversal:

    a[1] = x,  J[1] = I_m
    for l = 2..L:
        z[l] = W[l] a[l-1]
        a[l] = sigma[l](z[l])
        J[l] = J_sigma[l](z[l], a[l]) . W[l] . J[l-1]

The values z[l] and a[l] come from the model's own lazy value pass (the
one ``forward`` and the finite-difference probes read), and each factor
is multiplied in as its layer arrives. J[L] is the full Jacobian dF/dx;
every intermediate J[l] is the Jacobian of the model prefix ending at
layer l, kept in the trace as a byproduct. Each weight matrix is
multiplied against exactly one vector and one matrix per call.

For folded-bias layers the value pass uses the augmented matrix while
the Jacobian factor drops the bias column, so reported Jacobians are
always with respect to the true m inputs.
"""

from dataclasses import dataclass

import numpy as np

# activation_apply stays importable here: perfbench/selftest.py's tracer test looks it up
from .activations import _slope, activation_apply, softmax_jacobian  # noqa: F401
from .errors import NonFiniteError, SingularityError
from .instrumentation import EvalCounter
from .model import LayeredModel, _checked_input, _checked_layer, _freeze, _layer_values


@dataclass(frozen=True)
class JacobianTrace:
    """Everything produced by one Jacobian pass at one instance.

    ``per_layer[l-1]`` is J[l] for l = 1..L, where layer 1 is the input
    (J[1] = I_m) and J[L] is ``full``.
    ``singular_hits`` lists (layer, coordinate) pairs, 1-based, where a
    relu/leaky_relu singularity policy supplied the derivative.
    """

    full: np.ndarray
    per_layer: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]
    weighted_inputs: tuple[np.ndarray, ...]
    singular_hits: tuple[tuple[int, int], ...]

    @property
    def layer_count(self) -> int:
        return len(self.per_layer)


def jacobian_forward(model: LayeredModel, x, counter: EvalCounter | None = None) -> JacobianTrace:
    """Compute the full Jacobian at x in one forward traversal.

    Raises :class:`SingularityError` (annotated with layer and
    coordinate) when a relu/leaky_relu layer under the reject policy is
    differentiated at exactly 0, and :class:`NonFiniteError` naming the
    layer when any intermediate overflows.
    """
    vec = _freeze(_checked_input(model, x))
    jac = _freeze(np.eye(model.input_dim))
    per_layer = [jac]
    activations = [vec]
    weighted_inputs: list[np.ndarray] = []
    hits: list[tuple[int, int]] = []

    # one errstate for the whole pass: the value pass and each update report overflow themselves
    with np.errstate(over="ignore", invalid="ignore"):
        for net_layer, layer, z, a in _layer_values(model, vec, counter):
            linear = layer.linear_part()
            # associate the cheaper way; both orders are exact
            factor_first = linear.shape[0] <= linear.shape[1]
            if layer.activation.kind == "softmax":
                sigma_jac = softmax_jacobian(z)
                jac = (sigma_jac @ linear) @ jac if factor_first else sigma_jac @ (linear @ jac)
            else:
                try:
                    deriv, layer_hits = _slope(layer.activation, z, a)
                except SingularityError as exc:
                    raise SingularityError(
                        f"layer {net_layer}: {exc}", layer=net_layer, coordinate=exc.coordinate
                    ) from None
                hits.extend((net_layer, coord) for coord in layer_hits)
                # diagonal activation Jacobian applied as a row scaling
                rows = deriv[:, np.newaxis]
                jac = (rows * linear) @ jac if factor_first else rows * (linear @ jac)
            if not np.all(np.isfinite(jac)):
                raise NonFiniteError(f"non-finite Jacobian entries at layer {net_layer}")

            per_layer.append(_freeze(jac))
            weighted_inputs.append(_freeze(z))
            activations.append(_freeze(a))

    return JacobianTrace(
        full=per_layer[-1],
        per_layer=tuple(per_layer),
        activations=tuple(activations),
        weighted_inputs=tuple(weighted_inputs),
        singular_hits=tuple(hits),
    )


def jacobian_at_layer(trace: JacobianTrace, layer: int) -> np.ndarray:
    """The stored J[layer] for layer in 1..L (1 = input, so J[1] = I_m)."""
    return trace.per_layer[_checked_layer(layer, 1, trace.layer_count) - 1]
