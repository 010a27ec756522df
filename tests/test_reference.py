"""The engine's Jacobian J against a 50-digit reference J* (``helpers.decimal_jacobian``).

The check is componentwise, ``|J - J*| <= gamma' (|F_L| ... |F_2|) + E``,
with ``|F_l| = |J_sigma*[l]| |W_l|`` built from J*'s own slopes, so the
bound does not lean on the slopes it checks. ``gamma'`` is ROADMAP item
1's rounding bound,

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
not a proof.

E is gradual underflow's absolute error, which no relative bound
covers: deep in saturation a J* entry can lie below 2^-1022, where J
holds a subnormal or 0. With underflow (Higham, ch. 2),
``fl(x y) = x y (1 + delta) + eta`` with ``|eta| <= 2^-1075``, and sums
in the subnormal range are exact. E counts eta = 2^-1074 for each
rounded product of the output-end fold and each slope entry the engine
computes, carried by the |F| factors it still meets. The fold takes
``C = F_L``, then ``C <- (C J_sigma[l]) W_l`` for l = L-1, ..., 2, so an
error put into C reaches J through ``R_{l-1} = |F_{l-1}| ... |F_2|``
(R_1 = I). With 1 the all-ones matrix of n_L rows, and k_l = 1 for a
diagonal J_sigma[l] or n_l for softmax's dense one, E sums
``k_L eta 1 R_{L-1}`` for forming F_L; for each later step,
``k_l eta 1 |W_l| R_{l-1}`` for C J_sigma and ``n_l eta 1 R_{l-1}`` for
its product with W_l; and for each layer's slopes,
``eta (|F_L| ... |F_{l+1}|) P_l |W_l| R_{l-1}``, with P_l the identity
for a diagonal and 1 for softmax. No other constant enters.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from jacprop import FDConfig, LayerDef, LayeredModel, finite_difference_jacobian, jacobian_forward
from helpers import decimal_jacobian, decimal_matmul, random_smooth_model, seeded_model, sweep_model

_U = 2.0**-53
_C = 8
_KAPPA = 2
# gradual underflow's absolute error per rounded product and per slope entry: one subnormal spacing
_ETA = Decimal(2.0**-1074)
# kinds whose slope moves with the rounding of z, by at most kappa times itself per unit of z
_Z_SENSITIVE = frozenset({"tanh", "logistic", "softplus"})


def _rounding_bound(model, layers) -> list[list[Decimal]]:
    """gamma' |F_L| ... |F_2| + E, entrywise, in ``Decimal`` from J*'s slopes."""
    widest = max([model.input_dim] + [layer.output_dim for layer in model.layers])
    gamma = (model.layer_count * widest + _C * model.layer_count) * _U
    with localcontext() as ctx:
        ctx.prec = 50
        m = model.input_dim
        # |F_l| ... |F_2|, and E in units of eta: the slopes' part, and the fold's, the same in every row
        product = [[Decimal(int(i == j)) for j in range(m)] for i in range(m)]
        slope_etas = [[Decimal(0)] * m for _ in range(m)]
        fold_etas = [Decimal(0)] * m
        for position, (layer, (inputs, _, slope)) in enumerate(zip(model.layers, layers), start=2):
            weights = [[abs(Decimal(float(w))) for w in row] for row in layer.weights]
            if layer.activation.kind in _Z_SENSITIVE:
                top = max(sum(w * abs(v) for w, v in zip(row, inputs)) for row in weights)
                gamma += _KAPPA * len(inputs) * _U * float(top)
            n, dense = len(slope), layer.activation.kind == "softmax"
            if dense:
                # |diag(s) - s s^T|: s_i s_k off the diagonal, s_i (1 - s_i) = s_i sum_{k != i} s_k on it
                factor = [
                    [slope[i] * (sum(slope[:i] + slope[i + 1 :]) if i == k else slope[k]) for k in range(n)]
                    for i in range(n)
                ]
            else:
                factor = [[abs(slope[i]) if i == k else Decimal(0) for k in range(n)] for i in range(n)]
            scaled = decimal_matmul(weights, product)
            columns, scaled_columns = [sum(c) for c in zip(*product)], [sum(c) for c in zip(*scaled)]
            # P_l |W_l| R_{l-1}: the diagonal's eta scales its row, and every entry of softmax's has one
            fresh = [scaled_columns] * n if dense else scaled
            carried = decimal_matmul(factor, decimal_matmul(weights, slope_etas))
            slope_etas = [[c + e for c, e in zip(*rows)] for rows in zip(carried, fresh)]
            k = n if dense else 1
            if position == model.layer_count:  # F_L, the fold's first factor
                fold_etas = [f + k * c for f, c in zip(fold_etas, columns)]
            else:
                fold_etas = [f + k * s + n * c for f, s, c in zip(fold_etas, scaled_columns, columns)]
            product = decimal_matmul(factor, scaled)
        return [
            [Decimal(gamma) * p + _ETA * (c + f) for p, c, f in zip(*rows, fold_etas)]
            for rows in zip(product, slope_etas)
        ]


def _kink_flips(model, trace, layers) -> list[tuple[int, int]]:
    """(network layer, 1-based coordinate) of each relu/leaky_relu unit whose exact z* and float z differ in sign."""
    return [
        (net_layer, i + 1)
        for net_layer, (layer, z, (_, exact, _)) in enumerate(zip(model.layers, trace.weighted_inputs, layers), start=2)
        if layer.activation.kind in ("relu", "leaky_relu")
        for i in range(len(exact))
        if (exact[i] > 0) != (z[i] > 0) or (exact[i] == 0) != (z[i] == 0)
    ]


def _ratio_to_the_bound(model, x) -> float:
    """max |J - J*| / bound over J's entries; inf where J differs from J* and the bound is 0."""
    trace = jacobian_forward(model, x)
    reference, layers = decimal_jacobian(model, x)
    # a flip puts x within rounding of a kink, where J* is another piece's Jacobian: not an error of J
    assert _kink_flips(model, trace, layers) == [], "x sits within rounding of a kink"
    with localcontext() as ctx:
        ctx.prec = 50
        entries = zip(trace.full.ravel(), sum(reference, []), sum(_rounding_bound(model, layers), []))
        diffs = [(abs(Decimal(float(value)) - exact), bound) for value, exact, bound in entries]
        return max((float(diff / bound) if bound else math.inf for diff, bound in diffs if diff), default=0.0)


def _saturated_model(seed, softmax=False):
    """tanh/logistic/softplus 6->6->6->3, uniform[-1,1] weights times 12: |z| reaches the tens.

    With ``softmax``, the output layer is a softmax, which saturates when one class takes nearly all the mass.
    """
    rng = np.random.default_rng(seed)
    kinds = [("tanh", "logistic", "softplus")[int(k)] for k in rng.integers(0, 3, size=3)]
    if softmax:
        kinds[-1] = "softmax"
    model = seeded_model(seed, (6, 6, 6, 3), kinds)
    layers = tuple(LayerDef(weights=12.0 * layer.weights, activation=layer.activation) for layer in model.layers)
    return LayeredModel(layers=layers, input_dim=6), rng.uniform(-1.0, 1.0, size=6)


def _cases():
    """Criterion 1's 200 models, sweep_model seeds 0-299 and the saturated family's 100, each with its input."""
    for seed in range(200):
        yield pytest.param(random_smooth_model, seed, id=f"criterion-1-{seed}")
    for seed in range(300):
        yield pytest.param(sweep_model, seed, id=f"sweep-{seed}")
    for seed in range(100):
        yield pytest.param(_saturated_model, seed, id=f"saturated-{seed}")


@pytest.mark.parametrize("make,seed", _cases())
def test_the_jacobian_is_within_the_rounding_bound_of_the_reference(make, seed):
    assert _ratio_to_the_bound(*make(seed)) <= 1.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a saturated softmax's Jacobian is off by more than rounding")
def test_the_saturated_family_with_a_softmax_output_is_within_the_rounding_bound():
    # 60 of the 100 models exceed the bound, the worst by 8.9e12 times. One cause is softmax's diagonal s - s^2,
    # which cancels where one class saturates, as tanh's 1 - a^2 once did; it is not the only one (ROADMAP item 16)
    ratios = [_ratio_to_the_bound(*_saturated_model(seed, softmax=True)) for seed in range(100)]
    assert max(ratios) <= 1.0, f"{sum(r > 1.0 for r in ratios)} of 100 models beyond the bound, worst {max(ratios):.3g}"


def test_central_fd_meets_criterion_1_against_the_reference():
    # the oracle's own error, not its distance to the engine: about 2e-10 scaled on these models
    for seed in range(200):
        model, x = random_smooth_model(seed)
        reference = np.array([[float(v) for v in row] for row in decimal_jacobian(model, x)[0]])
        estimate = finite_difference_jacobian(model, x, FDConfig(step=1e-5, scheme="central"))
        assert np.max(np.abs(estimate - reference)) <= 1e-5 * (1.0 + np.max(np.abs(reference))), seed
