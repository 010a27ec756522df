"""The exact Jacobian of a layered model at one instance, as a chain product.

The model's Jacobian factors through the layers as a matrix chain:

    J = F[L] ... F[3] F[2],   F[l] = J_sigma[l](z[l], a[l]) . W[l]

J_sigma[l] is the activation's Jacobian at the weighted input z[l]: a
diagonal D[l] = diag(d) for elementwise kinds, the dense softmax matrix S
otherwise. Either is the slope the activation table gives every kind
(``activations._slope``), so the pass never asks a layer's kind. For
folded-bias layers the value pass uses the augmented matrix while the
factor drops the bias column, so reported Jacobians are always with
respect to the true m inputs.

The values z[l] and a[l] come from the model's own lazy value pass (the
one ``forward`` and the finite-difference probes read). Each layer's
slope is taken as its layer arrives, so a relu kink under ``reject``
stops the pass before the next layer is evaluated. A factor is kept as
a (slope, weights) pair and multiplied with ``@``. Only the factor a fold
starts from is multiplied out; every other one is applied to a dense
matrix C as D W C = d * (W C) or C D W = (C * d) W (S (W C) or (C S) W
for softmax).

The prefix Jacobians J[l], one per layer, are the Jacobians of the model
prefix ending at layer l:

    J[1] = I_m,  J[2] = F[2],  J[l] = F[l] J[l-1]  for l = 3..L,  J[L] = J

J[2] is F[2] multiplied out, plus 0 (what the product with I_m gives: a
-0 entry becomes +0). Every later prefix is J_sigma[l] (W[l] J[l-1]):
the weights meet the prefix first, then its rows are scaled, the forward
accumulation of the chain rule, whatever the layer's shape.

Once every factor is in, the chain is multiplied from the output end:
F[L] is multiplied out and F[L-1], ..., F[2] are applied to it. For the
models this serves, many input features and few outputs, that end is the
cheaper one. The product is checked once, and only when it is not finite
is the input-to-output order replayed, to name the first layer whose
prefix overflows; if none does, that order's product is the answer. A
chain of one factor is J[2] itself.

The prefixes have one owner, ``_Prefixes``: it builds them input-to-output
on first access, checks each new one, and keeps them. The one-factor chain
and the replay are both a read of its last entry, which builds, checks and
keeps every prefix on the way.

Every check above can fail only beyond the model's safe input, the bound
``LayeredModel`` computes from its weights when it is built (see
``model._survey``): below it, no value and no product of the pass can
leave float64. An input whose max|x| is below it runs without
``np.errstate``, and neither the product nor the prefixes are tested.
Every other input takes the checked path, with the same bits.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# activation_apply stays importable here: perfbench/selftest.py's tracer test looks it up
from .activations import _all_finite, _slope, activation_apply  # noqa: F401
from .errors import NonFiniteError, SingularityError
from .instrumentation import EvalCounter
from .model import LayeredModel, _checked_input, _checked_layer, _freeze, _layer_values


def _dense(slope: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """F = J_sigma W, multiplied out."""
    return slope[:, np.newaxis] * linear if slope.ndim == 1 else slope @ linear


def _left(slope: np.ndarray, linear: np.ndarray, c: np.ndarray) -> np.ndarray:
    """F C, as d * (W C) or S (W C)."""
    product = linear @ c
    return slope[:, np.newaxis] * product if slope.ndim == 1 else slope @ product


def _right(c: np.ndarray, slope: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """C F, as (C * d) W or (C S) W."""
    return (c * slope if slope.ndim == 1 else c @ slope) @ linear


class _Prefixes(Sequence):
    """J[1], ..., J[L] as a read-only sequence, and the one owner of the prefixes built so far.

    J[1] is the identity and J[L] is ``full`` when the output-end product
    gave it (``None`` otherwise). Every other entry is built on first
    access, input-to-output through the factors, and kept. When
    ``checked``, each new prefix is checked, and NonFiniteError names the
    first layer whose prefix overflows; otherwise the input is below the
    model's safe input, where no prefix can. Without ``full``, J[L] is the
    last built prefix. Concurrent readers may build a prefix twice; both
    get the same values.
    """

    def __init__(
        self,
        input_dim: int,
        factors: tuple[tuple[np.ndarray, np.ndarray], ...],
        full: np.ndarray | None,
        checked: bool,
    ):
        self._input_dim = input_dim
        self._factors = factors
        self._full = full
        self._checked = checked
        self._identity = None
        self._built: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._factors) + 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        index = range(len(self))[index]
        if index == len(self) - 1 and self._full is not None:
            return self._full
        if index == 0:
            if self._identity is None:
                self._identity = _freeze(np.eye(self._input_dim))
            return self._identity
        if len(self._built) < index:
            if self._checked:
                with np.errstate(over="ignore", invalid="ignore"):
                    self._built = self._extended(index)
            else:
                self._built = self._extended(index)
        return self._built[index - 1]

    def _extended(self, index: int) -> list[np.ndarray]:
        """A copy of the built prefixes extended to J[index + 1], every new prefix checked when ``checked``:
        the copy is kept only once every new prefix has passed."""
        built = list(self._built)
        for net_layer in range(len(built) + 2, index + 2):
            slope, linear = self._factors[net_layer - 2]
            if built:
                jac = _left(slope, linear, built[-1])
            else:
                jac = _dense(slope, linear)
                jac += 0.0  # F I_m is F + 0, which only turns -0 into +0
            if self._checked and not _all_finite(jac):
                raise NonFiniteError(f"non-finite Jacobian entries at layer {net_layer}")
            built.append(_freeze(jac))
        return built


@dataclass(frozen=True)
class JacobianTrace:
    """Everything produced by one Jacobian pass at one instance.

    ``per_layer[l-1]`` is J[l] for l = 1..L, where layer 1 is the input
    (J[1] = I_m) and J[L] is ``full``. It is a read-only sequence whose
    intermediate entries are built on first access; reading one whose
    input-to-output product overflows raises :class:`NonFiniteError`
    naming that layer, even though ``full`` is finite.
    ``singular_hits`` lists (layer, coordinate) pairs, 1-based, where a
    relu/leaky_relu singularity policy supplied the derivative.
    """

    full: np.ndarray
    per_layer: Sequence[np.ndarray]
    activations: tuple[np.ndarray, ...]
    weighted_inputs: tuple[np.ndarray, ...]
    singular_hits: tuple[tuple[int, int], ...]

    @property
    def layer_count(self) -> int:
        return len(self.per_layer)


def _pass(model: LayeredModel, vec: np.ndarray, counter: EvalCounter | None):
    """The value pass with each layer's factor, and the output-end product (None for one factor), unchecked."""
    factors: list[tuple[np.ndarray, np.ndarray]] = []
    activations = [vec]
    weighted_inputs: list[np.ndarray] = []
    hits: list[tuple[int, int]] = []
    for net_layer, layer, z, a in _layer_values(model, vec, counter):
        try:
            slope, layer_hits = _slope(layer.activation, z, a)
        except SingularityError as exc:
            raise SingularityError(f"layer {net_layer}: {exc}", layer=net_layer, coordinate=exc.coordinate) from None
        if layer_hits:
            hits.extend((net_layer, coord) for coord in layer_hits)
        factors.append((slope, layer.linear_part()))
        weighted_inputs.append(_freeze(z))
        activations.append(_freeze(a))

    product = None
    # a chain of one factor is J[2] = F[2] + 0, which _Prefixes builds
    if len(factors) > 1:
        product = _dense(*factors[-1])
        for slope, linear in reversed(factors[:-1]):
            product = _right(product, slope, linear)
        _freeze(product)
    return tuple(factors), tuple(activations), tuple(weighted_inputs), tuple(hits), product


def jacobian_forward(model: LayeredModel, x, counter: EvalCounter | None = None) -> JacobianTrace:
    """Compute the full Jacobian at x from one value pass.

    Raises :class:`SingularityError` (annotated with layer and
    coordinate) when a relu/leaky_relu layer under the reject policy is
    differentiated at exactly 0, and :class:`NonFiniteError` naming the
    layer when a value or the Jacobian overflows. Errors of the value
    pass come first, in layer order; the Jacobian is checked after the
    last layer.
    """
    vec, safe = _checked_input(model, x)
    vec = _freeze(vec)
    if safe:
        factors, activations, weighted_inputs, hits, product = _pass(model, vec, counter)
    else:
        # the value pass and the product report overflow themselves
        with np.errstate(over="ignore", invalid="ignore"):
            factors, activations, weighted_inputs, hits, product = _pass(model, vec, counter)
        if product is not None and not _all_finite(product):
            product = None
    per_layer = _Prefixes(model.input_dim, factors, product, checked=not safe)
    return JacobianTrace(
        # without the product (one factor, or it overflowed), J[L] builds the prefixes input-to-output:
        # it names the layer that order overflows at or, if it does not, its product is the answer
        full=per_layer[-1] if product is None else product,
        per_layer=per_layer,
        activations=activations,
        weighted_inputs=weighted_inputs,
        singular_hits=hits,
    )


def jacobian_at_layer(trace: JacobianTrace, layer: int) -> np.ndarray:
    """J[layer] for layer in 1..L (1 = input, so J[1] = I_m); see :class:`JacobianTrace`."""
    return trace.per_layer[_checked_layer(layer, 1, trace.layer_count) - 1]
