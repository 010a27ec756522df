"""The engine's Jacobian J against a 50-digit reference J* (``helpers.decimal_jacobian``).

The check is componentwise, ``|J - J*| <= gamma' (|F_L| ... |F_2|)``, with
``|F_l| = |J_sigma*[l]| |W_l|`` built from J*'s own slopes: the engine's
slope is exactly 0 where ``1 - a*a`` cancels, so a bound built from it
would be 0 there too. ``gamma'`` is ROADMAP item 1's rounding bound,

    gamma' = (L n_max + c L) u + sum over tanh/logistic/softplus layers of kappa n_l u max_i (|W_l| |a_{l-1}|)_i

with L the number of network layers (the input layer counted), n_max the
widest layer, n_l the columns of W_l (a folded bias's counted), a_{l-1}
J*'s value of the layer's input, c = 8, kappa = 2 and u = 2^-53. The
first term covers the rounding of a product of L matrices of inner
dimension at most n_max (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., section 3.5), the second the rounding of z = W a
over n_l columns, which moves such a slope by at most
``|sigma''/sigma'| <= 2`` times itself per unit of z. The bound ignores
value errors carried in from earlier layers, so it is a measuring stick,
not a proof. Nor does it model underflow: deep in saturation a J* entry
can lie below the smallest normal float64, 2^-1022, where J holds a
subnormal or 0, so the saturated family is held to it above that floor.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from jacprop import FDConfig, LayerDef, LayeredModel, finite_difference_jacobian, jacobian_forward
from helpers import decimal_jacobian, random_smooth_model, seeded_model, sweep_model

_U = 2.0**-53
_C = 8
_KAPPA = 2
# kinds whose slope moves with the rounding of z, by at most kappa times itself per unit of z
_Z_SENSITIVE = frozenset({"tanh", "logistic", "softplus"})


def _rounding_bound(model, layers) -> tuple[float, list[list[Decimal]]]:
    """gamma' and |F_L| ... |F_2|, the latter in ``Decimal`` from J*'s slopes."""
    widest = max([model.input_dim] + [layer.output_dim for layer in model.layers])
    gamma = (model.layer_count * widest + _C * model.layer_count) * _U
    with localcontext() as ctx:
        ctx.prec = 50
        product = [[Decimal(int(i == j)) for j in range(model.input_dim)] for i in range(model.input_dim)]
        for layer, (inputs, _, slope) in zip(model.layers, layers):
            weights = [[abs(Decimal(float(w))) for w in row] for row in layer.weights]
            if layer.activation.kind in _Z_SENSITIVE:
                top = max(sum(w * abs(v) for w, v in zip(row, inputs)) for row in weights)
                gamma += _KAPPA * len(inputs) * _U * float(top)
            # |W| times the product so far, over the linear part
            scaled = [
                [sum(row[k] * product[k][j] for k in range(len(product))) for j in range(len(product[0]))]
                for row in weights
            ]
            if layer.activation.kind == "softmax":
                # |diag(s) - s s^T|: s_i s_k off the diagonal, s_i (1 - s_i) = s_i sum_{k != i} s_k on it
                n = len(slope)
                entries = [
                    [slope[i] * (sum(slope[:i] + slope[i + 1 :]) if i == k else slope[k]) for k in range(n)]
                    for i in range(n)
                ]
                product = [
                    [sum(entries[i][k] * scaled[k][j] for k in range(n)) for j in range(len(scaled[0]))]
                    for i in range(n)
                ]
            else:
                product = [[abs(d) * q for q in row] for d, row in zip(slope, scaled)]
    return gamma, product


def _worst_ratio(jacobian: np.ndarray, reference, gamma: float, product, floor: Decimal = Decimal(0)) -> float:
    """max |J - J*| / (gamma' |F_L| ... |F_2|) over the entries with |J*| >= floor.

    inf where J differs from J* and the bound is 0.
    """
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        for row, reference_row, bound_row in zip(jacobian, reference, product):
            for value, exact, bound in zip(row, reference_row, bound_row):
                diff = abs(Decimal(float(value)) - exact)
                if diff and abs(exact) >= floor:
                    worst = max(worst, float(diff / (Decimal(gamma) * bound)) if bound else math.inf)
    return worst


def _kink_flips(model, trace, layers) -> list[tuple[int, int]]:
    """(network layer, 1-based coordinate) of each relu/leaky_relu unit whose exact z* and float z differ in sign."""
    return [
        (net_layer, i + 1)
        for net_layer, (layer, z, (_, exact, _)) in enumerate(zip(model.layers, trace.weighted_inputs, layers), start=2)
        if layer.activation.kind in ("relu", "leaky_relu")
        for i in range(len(exact))
        if (exact[i] > 0) != (z[i] > 0) or (exact[i] == 0) != (z[i] == 0)
    ]


def _ratio_to_the_bound(model, x, floor: Decimal = Decimal(0)) -> float:
    trace = jacobian_forward(model, x)
    reference, layers = decimal_jacobian(model, x)
    # a flip puts x within rounding of a kink, where J* is another piece's Jacobian: not an error of J
    assert _kink_flips(model, trace, layers) == [], "x sits within rounding of a kink"
    return _worst_ratio(trace.full, reference, *_rounding_bound(model, layers), floor)


def _cases():
    """Criterion 1's 200 models and sweep_model seeds 0-299, each with its input."""
    for seed in range(200):
        yield pytest.param(random_smooth_model, seed, id=f"criterion-1-{seed}")
    for seed in range(300):
        yield pytest.param(sweep_model, seed, id=f"sweep-{seed}")


@pytest.mark.parametrize("make,seed", _cases())
def test_the_jacobian_is_within_the_rounding_bound_of_the_reference(make, seed):
    assert _ratio_to_the_bound(*make(seed)) <= 1.0


def _saturated_model(seed):
    """tanh/logistic/softplus 6->6->6->3, uniform[-1,1] weights times 12: |z| reaches the tens."""
    rng = np.random.default_rng(seed)
    kinds = [("tanh", "logistic", "softplus")[int(k)] for k in rng.integers(0, 3, size=3)]
    model = seeded_model(seed, (6, 6, 6, 3), kinds)
    layers = tuple(LayerDef(weights=12.0 * layer.weights, activation=layer.activation) for layer in model.layers)
    return LayeredModel(layers=layers, input_dim=6), rng.uniform(-1.0, 1.0, size=6)


# the smallest normal float64: a J* entry below it lies where float64 underflows, which gamma' does not model
_NORMAL = Decimal(2.0**-1022)


def test_saturated_models_are_within_the_rounding_bound_where_the_reference_is_normal():
    assert max(_ratio_to_the_bound(*_saturated_model(seed), _NORMAL) for seed in range(100)) <= 1.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="float64 underflow: 9 of 100 models are over gamma' only where |J*| < 2^-1022 (seed 27: J = 0 at J* ~ 1e-368)",
)
def test_saturated_models_are_within_the_rounding_bound_of_the_reference():
    assert max(_ratio_to_the_bound(*_saturated_model(seed)) for seed in range(100)) <= 1.0


def test_central_fd_meets_criterion_1_against_the_reference():
    # the oracle's own error, not its distance to the engine: about 2e-10 scaled on these models
    for seed in range(200):
        model, x = random_smooth_model(seed)
        reference = np.array([[float(v) for v in row] for row in decimal_jacobian(model, x)[0]])
        estimate = finite_difference_jacobian(model, x, FDConfig(step=1e-5, scheme="central"))
        assert np.max(np.abs(estimate - reference)) <= 1e-5 * (1.0 + np.max(np.abs(reference))), seed
