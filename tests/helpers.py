"""Seeded model generators and independent oracles shared by the tests.

The oracles here deliberately avoid the package's vectorized code paths:
``flat_forward`` is a pure-Python loop re-implementation of the value
pass, ``fd_activation_jacobian`` differentiates activation values by
central differences, ``decimal_activation`` computes values and slopes
to 50 digits with stdlib ``decimal``, and ``decimal_jacobian`` builds a
whole pass and the Jacobian J* from them at the same precision.
``run_cli`` runs the command-line front end in this process.
"""

import copy
import math
import os
import pickle
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, localcontext
from io import StringIO
from typing import NamedTuple

import numpy as np

from jacprop import ActivationSpec, LayerDef, LayeredModel, activation_apply, cli, fold_bias

SMOOTH_KINDS = ("identity", "logistic", "tanh", "softplus")
ALL_ELEMENTWISE = ("identity", "logistic", "tanh", "softplus", "relu", "leaky_relu")


# the CLI tests' model documents: a 2->1 identity layer, a weight row one entry too long, and a 2x2 relu identity
MINIMAL = '{"schema_version": "1", "input_dim": 2, "layers": [{"weights": [[1, 2]], "activation": {"kind": "identity"}}]}'
INVALID = '{"schema_version": "1", "input_dim": 2, "layers": [{"weights": [[1, 2, 3]], "activation": {"kind": "identity"}}]}'
RELU_EYE = '{"schema_version": "1", "input_dim": 2, "layers": [{"weights": [[1, 0], [0, 1]], "activation": {"kind": "relu"}}]}'


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*argv, cwd=None) -> CliRun:
    """``jacprop.cli.run`` on the arguments, each through ``str``, in this process and in ``cwd`` if given.

    Returns the exit code and what the run wrote to stdout and to stderr.
    """
    out, err, here = StringIO(), StringIO(), os.getcwd()
    if cwd is not None:
        os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run([str(arg) for arg in argv])
    finally:
        os.chdir(here)
    return CliRun(code, out.getvalue(), err.getvalue())


def make_spec(kind: str) -> ActivationSpec:
    if kind == "leaky_relu":
        return ActivationSpec("leaky_relu", alpha=0.2)
    return ActivationSpec(kind)


def seeded_model(seed, widths, kinds, biased=()):
    """Model with uniform[-1,1] weights drawn layer by layer from one seed.

    ``widths`` is (m, n2, ..., nL); ``kinds`` one activation kind per
    weight layer; ``biased`` lists 1-based layer positions that also draw
    a uniform[-1,1] bias, folded into the weights.
    """
    assert len(kinds) == len(widths) - 1
    rng = np.random.default_rng(seed)
    layers = []
    for pos, (fan_in, fan_out, kind) in enumerate(zip(widths, widths[1:], kinds), start=1):
        weights = rng.uniform(-1.0, 1.0, size=(fan_out, fan_in))
        if pos in biased:
            bias = rng.uniform(-1.0, 1.0, size=fan_out)
            layers.append(LayerDef(weights=fold_bias(weights, bias), activation=make_spec(kind), bias_folded=True))
        else:
            layers.append(LayerDef(weights=weights, activation=make_spec(kind)))
    return LayeredModel(layers=tuple(layers), input_dim=int(widths[0]))


def overflowing_activation_model():
    """One leaky_relu layer, weight 1 and alpha 1e300: at x = -1e10 the weighted input is finite, alpha z is not."""
    layer = LayerDef(weights=np.ones((1, 1)), activation=ActivationSpec("leaky_relu", alpha=1e300))
    return LayeredModel(layers=(layer,), input_dim=1)


def uncertified(model):
    """The same model with no input below its safe input, so that every pass takes the checked path."""
    copy = LayeredModel(layers=model.layers, input_dim=model.input_dim)
    object.__setattr__(copy, "_safe_input", 0.0)
    return copy


def random_smooth_model(seed, softmax_last="maybe", min_depth=2, max_depth=5):
    """Random model per the oracle-equivalence recipe, plus a random input.

    Depth (number of weight layers) 2..5, widths 1..8, smooth activation
    kinds, softmax optionally last. Returns (model, x).
    """
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(min_depth, max_depth + 1))
    widths = [int(w) for w in rng.integers(1, 9, size=depth + 1)]
    kinds = [SMOOTH_KINDS[int(k)] for k in rng.integers(0, len(SMOOTH_KINDS), size=depth)]
    if softmax_last is True or (softmax_last == "maybe" and rng.random() < 0.5):
        kinds[-1] = "softmax"
    model = seeded_model(seed, widths, kinds)
    x = rng.uniform(-1.0, 1.0, size=widths[0])
    return model, x


def sweep_model(seed):
    """Depth 1-5, widths 1-8, every kind (softmax anywhere), some folded biases; plus an input."""
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 6))
    widths = [int(w) for w in rng.integers(1, 9, size=depth + 1)]
    kinds = [(*ALL_ELEMENTWISE, "softmax")[int(k)] for k in rng.integers(0, 7, size=depth)]
    biased = tuple(pos for pos in range(1, depth + 1) if rng.random() < 0.3)
    return seeded_model(seed, widths, kinds, biased=biased), rng.uniform(-1.0, 1.0, size=widths[0])


def spec_seed7_model():
    """The 4->5->5->3 tanh/tanh/softmax model with seed-7 weights."""
    model = seeded_model(7, (4, 5, 5, 3), ("tanh", "tanh", "softmax"))
    x = np.array([0.1, -0.2, 0.3, -0.4])
    return model, x


def awkward_matrices(seed, count=200):
    """Random matrices of 1-7 rows and columns that hold 0, -0.0, tiny entries and tied entries.

    For pinning a rewritten reduction to the numpy formula it replaces,
    byte for byte: ties, signed zeros and sums that round differently in
    another order are where two formulas part.
    """
    rng = np.random.default_rng(seed)
    palette = np.array([0.0, -0.0, 0.5, -0.5, 1.0, 1e-200, -3e-160, 2.0**-1074])
    matrices = []
    for _ in range(count):
        shape = tuple(int(n) for n in rng.integers(1, 8, size=2))
        matrix = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        pick = rng.random(shape)
        matrix[pick < 0.4] = rng.choice(palette, size=int((pick < 0.4).sum()))
        matrices.append(matrix)
    return matrices


def _scalar_apply(kind: str, v: float, alpha: float | None) -> float:
    if kind == "identity":
        return v
    if kind == "logistic":
        return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))
    if kind == "tanh":
        return math.tanh(v)
    if kind == "softplus":
        return max(v, 0.0) + math.log1p(math.exp(-abs(v)))
    if kind == "relu":
        return v if v > 0 else 0.0
    if kind == "leaky_relu":
        return v if v > 0 else alpha * v
    raise AssertionError(kind)


def flat_forward(model, x):
    """Pure-Python loop re-implementation of the forward value pass."""
    a = [float(v) for v in x]
    for layer in model.layers:
        src = a + [1.0] if layer.bias_folded else a
        weights = layer.weights
        z = []
        for i in range(weights.shape[0]):
            acc = 0.0
            for j in range(len(src)):
                acc += float(weights[i, j]) * src[j]
            z.append(acc)
        kind = layer.activation.kind
        if kind == "softmax":
            peak = max(z)
            exps = [math.exp(v - peak) for v in z]
            total = sum(exps)
            a = [e / total for e in exps]
        else:
            a = [_scalar_apply(kind, v, layer.activation.alpha) for v in z]
    return np.array(a)


def fd_activation_jacobian(spec, z, h=1e-6):
    """Central-difference Jacobian of an activation's value function."""
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    jac = np.empty((n, n))
    for j in range(n):
        plus = z.copy()
        plus[j] += h
        minus = z.copy()
        minus[j] -= h
        jac[:, j] = (activation_apply(spec, plus) - activation_apply(spec, minus)) / (2.0 * h)
    return jac


def clones(value):
    """The value through ``pickle``, ``copy.copy`` and ``copy.deepcopy``."""
    return pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)


def decimal_activation(kind: str, z) -> tuple[Decimal, Decimal]:
    """(value, slope) of tanh, logistic or softplus at z, to 50 significant digits.

    A float z is taken as exact (``Decimal(float)`` is), as the engine's
    stored weighted input is; a ``Decimal`` z is used as it is. Every form
    is a ratio of sums of positive terms, built from ``exp`` and ``ln``
    alone, so nothing cancels in saturation: tanh' = 4 e^2z / (1 + e^2z)^2,
    logistic' = e^-z / (1 + e^-z)^2, and softplus' is the logistic.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        t = z if isinstance(z, Decimal) else Decimal(float(z))
        if kind == "tanh":
            e = (2 * t).exp()
            return (e - 1) / (e + 1), 4 * e / (1 + e) ** 2
        if kind == "logistic":
            e = (-t).exp()
            return 1 / (1 + e), e / (1 + e) ** 2
        if kind == "softplus":
            e = t.exp()
            # 1 + e keeps e's 50 digits only with one more digit of working precision for each decade of e below 1
            with localcontext() as wide:
                wide.prec += max(0, -e.adjusted())
                value = (1 + e).ln()
            return +value, e / (1 + e)
    raise AssertionError(kind)


def decimal_matmul(left, right):
    """left @ right for lists of ``Decimal`` rows, summed over right's rows: extra columns of left meet none."""
    return [[sum(row[k] * right[k][j] for k in range(len(right))) for j in range(len(right[0]))] for row in left]


def _decimal_elementwise(spec, z: Decimal) -> tuple[Decimal, Decimal]:
    """(value, slope) of an elementwise kind at an exact z; relu and leaky_relu branch on z itself."""
    if spec.kind == "identity":
        return z, Decimal(1)
    if spec.kind in ("relu", "leaky_relu"):
        low = Decimal(0) if spec.kind == "relu" else Decimal(spec.alpha)
        if z != 0:
            return (z, Decimal(1)) if z > 0 else (low * z, low)
        # at the kink, the slope the fallback policy gives (under reject the engine raises first)
        return Decimal(0), Decimal(1) if spec.relu_zero_policy == "derivative_one" else low
    return decimal_activation(spec.kind, z)


def decimal_jacobian(model, x):
    """The Jacobian J* of a model at x to 50 significant digits, and each layer's pass.

    Weights and x enter exactly, as ``Decimal(float)`` takes them; every
    weighted input z* = W a* is summed in ``Decimal``, and values and
    slopes come from :func:`decimal_activation`'s forms. relu and
    leaky_relu branch on z* itself. Softmax's factor is applied to
    P = W J without forming it, as s_i (P_i - sum_k s_k P_k). No numpy
    arithmetic is used. Returns ``(jacobian, layers)``: J* as a list of
    rows, and per weight layer ``(inputs, z, slope)``, where ``inputs`` is
    a* (with the folded bias's 1 appended) and ``slope`` the Jacobian's
    diagonal for an elementwise kind and s for softmax.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a = [Decimal(float(v)) for v in x]
        jacobian = [[Decimal(int(i == j)) for j in range(len(a))] for i in range(len(a))]
        layers = []
        for layer in model.layers:
            inputs = a + [Decimal(1)] if layer.bias_folded else a
            weights = [[Decimal(float(w)) for w in row] for row in layer.weights]
            z = [sum(w * v for w, v in zip(row, inputs)) for row in weights]
            # P = W J over the linear part: the bias column meets no row of J
            product = decimal_matmul(weights, jacobian)
            if layer.activation.kind == "softmax":
                peak = max(z)
                exps = [(v - peak).exp() for v in z]
                total = sum(exps)
                a = slope = [e / total for e in exps]
                means = [sum(s * row[j] for s, row in zip(slope, product)) for j in range(len(product[0]))]
                jacobian = [[s * (p - mean) for p, mean in zip(row, means)] for s, row in zip(slope, product)]
            else:
                a, slope = map(list, zip(*(_decimal_elementwise(layer.activation, v) for v in z)))
                jacobian = [[d * p for p in row] for d, row in zip(slope, product)]
            layers.append((inputs, z, slope))
        return jacobian, layers
