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
a (slope, layer) pair and multiplied with ``@``, W being the layer's
``linear_part()`` view. Only the factor a fold starts from is multiplied
out; every other one is applied to a dense matrix C as D W C = d * (W C)
or C D W = (C * d) W (S (W C) or (C S) W for softmax). A copied or
pickled trace keeps its layers, rebuilt by their constructor, so W keeps
its strides and every product its bits.

The prefix Jacobians J[l], one per layer, are the Jacobians of the model
prefix ending at layer l:

    J[1] = I_m,  J[2] = F[2],  J[l] = F[l] J[l-1]  for l = 3..L,  J[L] = J

J[2] is F[2] multiplied out, plus 0 (what the product with I_m gives: a
-0 entry becomes +0), in one pass: ``np.einsum("i,ij->ij", d, W)`` adds
each product d_i w_ij to +0 (``S @ W + 0.0`` for softmax). Every later
prefix is J_sigma[l] (W[l] J[l-1]): the weights meet the prefix first,
then its rows are scaled, the forward accumulation of the chain rule,
whatever the layer's shape.

The whole Jacobian J = J[L] is multiplied from the output end: F[L] is
multiplied out and F[L-1], ..., F[2] are applied to it, the cheaper end
for the models this serves (many input features, few outputs). A chain
of one factor has no such product; its J[L] is J[2].

The prefixes have one owner, ``_Prefixes``: one slot per prefix, J[1]
to J[L], each filled on its first read and kept. ``full`` is a read of
J[L], so a trace read only for its prefixes never multiplies the
output-end product. J[L] takes that product when it is finite. Reading
any other empty slot, or J[L] without a finite product, fills every
empty slot up to it input-to-output and tests each new prefix: J[L] then
names the first layer whose prefix overflows or, if none does, is that
order's product.

Every test above can fail only at or above the model's safe input, the
bound ``LayeredModel`` computes from its weights (see
``model._survey``); below it nothing in the pass can leave float64 and
nothing is tested, so ``jacobian_forward`` leaves J[L] to its first
reader. At or above it the call reads J[L] itself, so an overflow of
``full`` is raised by the call. The pass and every slot fill run
through ``activations._guarded``, which enters ``np.errstate`` only at
or above the safe input. Either way the bits are the same.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# activation_apply stays importable here: perfbench/selftest.py's tracer test looks it up
from .activations import _Rebuilt, _all_finite, _freeze, _guarded, _slope, activation_apply  # noqa: F401
from .errors import NonFiniteError, SingularityError
from .model import EvalCounter, LayerDef, LayeredModel, _checked_input, _checked_layer, _layer_values


def _dense(slope: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """F = J_sigma W, multiplied out."""
    return slope[:, np.newaxis] * linear if slope.ndim == 1 else slope @ linear


def _right(c: np.ndarray, slope: np.ndarray, linear: np.ndarray) -> np.ndarray:
    """C F, as (C * d) W or (C S) W."""
    return (c * slope if slope.ndim == 1 else c @ slope) @ linear


class _Prefixes(Sequence):
    """J[1], ..., J[L] as a read-only sequence: one slot per prefix, and the one owner of them.

    Each slot is filled on its first read and kept. J[1] is the identity.
    J[L] takes the output-end product when there is one and it is finite
    (below the model's safe input it is not tested: it cannot overflow).
    Reading any other empty slot, or J[L] without such a product, fills
    every empty slot up to it, input-to-output. At or above the safe input
    each new prefix is tested, and NonFiniteError names the first layer
    whose prefix overflows; nothing past it is filled. Concurrent readers
    may fill a slot twice; both get the same values. A copy or pickle
    starts with every slot empty, and fills them with the original's bits.
    """

    def __init__(self, factors: tuple[tuple[np.ndarray, LayerDef], ...], safe: bool):
        self._factors = factors
        self._safe = safe
        self._slots: list[np.ndarray | None] = [None] * (len(factors) + 1)

    def __reduce__(self):
        # the factors alone: a copy fills its own slots, read-only and with the original's bits
        return type(self), (self._factors, self._safe)

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        index = range(len(self))[index]
        if self._slots[index] is None:
            if index == 0:
                # the first layer's weights, bias column dropped, have one column per input
                self._slots[0] = _freeze(np.eye(self._factors[0][1].linear_part().shape[1]))
            else:
                _guarded(self._safe, self._fill, index)
        return self._slots[index]

    def _fill(self, index: int) -> None:
        """Fill J[index + 1]: J[L] by the output-end product if finite, else every empty slot up to it in order."""
        if index == len(self._factors) > 1:  # a chain of one factor has no output-end product
            slope, layer = self._factors[-1]
            product = _dense(slope, layer.linear_part())
            for slope, layer in reversed(self._factors[:-1]):
                product = _right(product, slope, layer.linear_part())
            if self._safe or _all_finite(product):
                self._slots[index] = _freeze(product)
                return
        for slot in range(1, index + 1):
            if self._slots[slot] is None:
                slope, layer = self._factors[slot - 1]
                linear = layer.linear_part()
                if slot > 1:
                    jac = _dense(slope, linear @ self._slots[slot - 1])
                elif slope.ndim == 1:  # F I_m is F + 0: einsum adds each product to +0, so -0 becomes +0
                    jac = np.einsum("i,ij->ij", slope, linear)
                else:
                    jac = slope @ linear + 0.0
                if not self._safe and not _all_finite(jac):
                    raise NonFiniteError(f"non-finite Jacobian entries at layer {slot + 1}")
                self._slots[slot] = _freeze(jac)


@dataclass(frozen=True, eq=False)
class JacobianTrace(_Rebuilt):
    """Everything produced by one Jacobian pass at one instance, compared and hashed by identity.

    ``per_layer`` is J[1..L] (J[1] = I_m at the input, J[L] = ``full``), a
    read-only sequence built on first read; reading an entry whose
    input-to-output product overflows raises :class:`NonFiniteError`
    naming that layer, even where ``full`` is finite.
    ``singular_hits`` lists (layer, coordinate) pairs, 1-based, where a
    relu/leaky_relu singularity policy supplied the derivative.
    The constructor makes the activations and weighted inputs read-only,
    and pickle, ``copy`` and ``deepcopy`` rebuild a trace through it.
    """

    per_layer: Sequence[np.ndarray]
    activations: tuple[np.ndarray, ...]
    weighted_inputs: tuple[np.ndarray, ...]
    singular_hits: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for arr in (*self.activations, *self.weighted_inputs):
            _freeze(arr)

    @property
    def full(self) -> np.ndarray:
        """The Jacobian at the instance, J[L] = ``per_layer[-1]``, multiplied from the output end on its first read."""
        return self.per_layer[-1]

    @property
    def layer_count(self) -> int:
        return len(self.per_layer)


def _pass(model: LayeredModel, vec: np.ndarray, counter: EvalCounter | None):
    """The value pass with each layer's factor, unchecked."""
    factors: list[tuple[np.ndarray, LayerDef]] = []
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
        factors.append((slope, layer))
        weighted_inputs.append(z)
        activations.append(a)
    return tuple(factors), tuple(activations), tuple(weighted_inputs), tuple(hits)


def jacobian_forward(model: LayeredModel, x, counter: EvalCounter | None = None) -> JacobianTrace:
    """Compute the Jacobian at x from one value pass; ``full`` is multiplied on its first read.

    Raises :class:`SingularityError` (annotated with layer and
    coordinate) when a relu/leaky_relu layer under the reject policy is
    differentiated at exactly 0, and :class:`NonFiniteError` naming the
    layer when a value or the Jacobian overflows. Errors of the value
    pass come first, in layer order. At or above the model's safe input,
    where the Jacobian can overflow, the call reads ``full`` itself.
    """
    vec, safe = _checked_input(model, x)
    factors, activations, weighted_inputs, hits = _guarded(safe, _pass, model, vec, counter)
    trace = JacobianTrace(_Prefixes(factors, safe), activations, weighted_inputs, hits)
    if not safe:
        trace.full  # raises here if it overflows
    return trace


def jacobian_at_layer(trace: JacobianTrace, layer: int) -> np.ndarray:
    """J[layer] for layer in 1..L (1 = input, so J[1] = I_m); see :class:`JacobianTrace`."""
    return trace.per_layer[_checked_layer(layer, 1, trace.layer_count) - 1]
