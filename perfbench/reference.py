"""Independent reference results and the checker that compares against them.

Nothing here imports jacprop. Model documents are read with ``json`` and
evaluated with this file's own value and derivative formulas; Jacobians
are the product of the per-layer factors D[l] W[l], accumulated from the
output back to the input. The engine accumulates input to output, so the
two agree only if both are right.

Tolerances (scaled by the size of the reference Jacobian J):

- exact Jacobians, values and sensitivity scores: 1e-10 * (1 + max|J|)
- finite-difference estimates: 1e-5 * (1 + max|J|)
- rankings: equal wherever the reference scores differ by more than the
  score tolerance
"""

import json
import math
import re

import numpy as np

EXACT_RTOL = 1e-10
FD_RTOL = 1e-5
LIB_CHECK_TOLERANCE = 1e-5  # the tolerance library check requests pass to compare_jacobians
CLI_CHECK_TOLERANCE = 1e-5  # the CLI's default --tolerance

# README example: net.json at x = (1, 1); the printed Jacobian is %.17g.
README_NET = {
    "schema_version": "1",
    "input_dim": 2,
    "layers": [
        {"weights": [[0.5, -0.3], [0.1, 0.8]], "bias": [0.0, 0.1], "activation": {"kind": "tanh"}},
        {"weights": [[1.0, -1.0], [0.2, 0.4]], "activation": {"kind": "softmax"}},
    ],
}
README_JACOBIAN = np.array(
    [
        [0.066679422287228465, -0.14355261079177767],
        [-0.066679422287228479, 0.14355261079177764],
    ]
)


class RefLayer:
    """One weight layer as the reference sees it: W, bias, activation."""

    def __init__(self, entry: dict):
        self.weights = np.array(entry["weights"], dtype=np.float64)
        bias = entry.get("bias")
        self.bias = None if bias is None else np.array(bias, dtype=np.float64)
        act = entry["activation"]
        self.kind = act["kind"]
        self.alpha = act.get("alpha")
        self.policy = act.get("relu_zero_policy", "derivative_zero")


class RefModel:
    """A model document parsed by the reference; no validation beyond shapes."""

    def __init__(self, doc: dict):
        self.input_dim = int(doc["input_dim"])
        self.layers = [RefLayer(entry) for entry in doc["layers"]]

    @property
    def layer_count(self) -> int:
        return len(self.layers) + 1


def _logistic(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(z):
    e = np.exp(z - np.max(z))
    return e / e.sum()


def value(layer: RefLayer, z: np.ndarray) -> np.ndarray:
    kind = layer.kind
    if kind == "identity":
        return z.copy()
    if kind == "logistic":
        return _logistic(z)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "softplus":
        return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    if kind == "relu":
        return np.where(z > 0.0, z, 0.0)
    if kind == "leaky_relu":
        return np.where(z > 0.0, z, layer.alpha * z)
    if kind == "softmax":
        return _softmax(z)
    raise ValueError(f"unknown activation kind {kind!r}")


def factor(layer: RefLayer, z: np.ndarray) -> np.ndarray:
    """The layer's Jacobian factor D W, with D the activation Jacobian at z."""
    w = layer.weights
    kind = layer.kind
    if kind == "softmax":
        s = _softmax(z)
        return s[:, None] * w - np.outer(s, s @ w)
    if kind == "identity":
        d = np.ones_like(z)
    elif kind == "logistic":
        s = _logistic(z)
        d = s * (1.0 - s)
    elif kind == "tanh":
        with np.errstate(over="ignore"):
            d = 1.0 / np.cosh(z) ** 2
    elif kind == "softplus":
        d = _logistic(z)
    else:
        negative = 0.0 if kind == "relu" else layer.alpha
        d = np.where(z > 0.0, 1.0, negative)
        if layer.policy == "derivative_one":
            d[z == 0.0] = 1.0
    return d[:, None] * w


def propagate(model: RefModel, x):
    """Value pass: returns (activations a[1..L], weighted inputs z[2..L])."""
    a = np.asarray(x, dtype=np.float64)
    acts, zs = [a], []
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in model.layers:
            z = layer.weights @ a
            if layer.bias is not None:
                z = z + layer.bias
            a = value(layer, z)
            zs.append(z)
            acts.append(a)
    return acts, zs


def prefix_jacobian(model: RefModel, zs, layer: int) -> np.ndarray:
    """J[layer] = F[layer] ... F[2], multiplied from the output side."""
    if layer == 1:
        return np.eye(model.input_dim)
    jac = factor(model.layers[layer - 2], zs[layer - 2])
    for pos in range(layer - 3, -1, -1):
        jac = jac @ factor(model.layers[pos], zs[pos])
    return jac


def kink_margin(model: RefModel, zs) -> float:
    """Smallest |z| over relu/leaky_relu coordinates (inf when there are none)."""
    margins = [
        float(np.min(np.abs(z)))
        for layer, z in zip(model.layers, zs)
        if layer.kind in ("relu", "leaky_relu") and z.size
    ]
    return min(margins, default=math.inf)


def column_scores(jac: np.ndarray):
    return np.sqrt(np.sum(jac * jac, axis=0)), np.sqrt(np.sum(jac * jac, axis=1))


class Reference:
    """Reference results for one (model, instance): values and prefix Jacobians."""

    def __init__(self, model: RefModel, x, layers=None):
        self.acts, self.zs = propagate(model, x)
        wanted = layers if layers is not None else range(2, model.layer_count + 1)
        self.jac = {l: prefix_jacobian(model, self.zs, l) for l in set(wanted) | {model.layer_count}}
        self.full = self.jac[model.layer_count]
        self.scale = 1.0 + float(np.max(np.abs(self.full)))
        self.feature_scores, self.output_scores = column_scores(self.full)


def expected_error(model: RefModel, x):
    """The error the program must raise at x, from the reference's own pass.

    Returns (error type name, network layer, coordinate or None), or None
    when the Jacobian pass should succeed.
    """
    acts, zs = propagate(model, x)
    for pos, (layer, z, a) in enumerate(zip(model.layers, zs, acts[1:])):
        net_layer = pos + 2
        if not np.all(np.isfinite(z)) or not np.all(np.isfinite(a)):
            return ("NonFiniteError", net_layer, None)
        if layer.kind in ("relu", "leaky_relu") and layer.policy == "reject":
            zeros = np.flatnonzero(z == 0.0)
            if zeros.size:
                return ("SingularityError", net_layer, int(zeros[0]) + 1)
    return None


def first_mismatch(doc: dict):
    """1-based list position of the first layer whose width breaks the chain."""
    prev = int(doc["input_dim"])
    for pos, entry in enumerate(doc["layers"], start=1):
        cols = len(entry["weights"][0])
        if cols != prev:
            return pos
        prev = len(entry["weights"])
    return None


# ---------------------------------------------------------------- checker


class Mismatch(Exception):
    """An output missed its reference; the message says where."""


def check_close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    if got.shape != np.shape(want):
        raise Mismatch(f"{what}: shape {got.shape} != {np.shape(want)}")
    if not np.all(np.isfinite(got)):
        raise Mismatch(f"{what}: non-finite entries")
    diff = float(np.max(np.abs(got - want))) if got.size else 0.0
    if diff > tol:
        raise Mismatch(f"{what}: max |diff| {diff:.3e} > {tol:.3e}")


def check_ranking(ranking, ref_scores: np.ndarray, tol: float, what: str) -> None:
    """Ranking must be a permutation that never puts a clearly lower score first."""
    order = [int(i) - 1 for i in ranking]
    n = ref_scores.shape[0]
    if sorted(order) != list(range(n)):
        raise Mismatch(f"{what}: not a permutation of 1..{n}")
    ordered = ref_scores[order]
    # suffix maximum: the best score still to come after each position
    later_best = np.maximum.accumulate(ordered[::-1])[::-1]
    if n > 1 and np.any(ordered[:-1] + tol < later_best[1:]):
        pos = int(np.flatnonzero(ordered[:-1] + tol < later_best[1:])[0])
        raise Mismatch(f"{what}: rank {pos + 1} (index {order[pos] + 1}) outranks a higher score")


def check_report(ref: Reference, feature_scores, output_scores, feature_ranking, output_ranking,
                 per_entry=None) -> None:
    tol = EXACT_RTOL * ref.scale
    check_close(feature_scores, ref.feature_scores, tol, "feature scores")
    check_close(output_scores, ref.output_scores, tol, "output scores")
    check_ranking(feature_ranking, ref.feature_scores, tol, "feature ranking")
    check_ranking(output_ranking, ref.output_scores, tol, "output ranking")
    if per_entry is not None:
        check_close(per_entry, ref.full, tol, "report per_entry")


def check_comparison(exact, estimate, max_abs, max_rel, location, within, tolerance) -> None:
    """A ComparisonResult must describe the two matrices it was given."""
    diff = np.abs(np.asarray(exact) - np.asarray(estimate))
    want = float(np.max(diff))
    if abs(max_abs - want) > 1e-12 * (1.0 + want):
        raise Mismatch(f"comparison max_abs_diff {max_abs!r} != {want!r}")
    row, col = location
    if not (1 <= row <= diff.shape[0] and 1 <= col <= diff.shape[1]) or diff[row - 1, col - 1] != want:
        raise Mismatch(f"comparison argmax {location} does not hold the largest difference")
    rel = float(np.max(diff / (1.0 + np.abs(np.asarray(exact)))))
    if abs(max_rel - rel) > 1e-12 * (1.0 + rel):
        raise Mismatch(f"comparison max_rel_diff {max_rel!r} != {rel!r}")
    if bool(within) != (max_abs <= tolerance):
        raise Mismatch(f"comparison within_tolerance {within} disagrees with {max_abs!r} <= {tolerance!r}")


def check_error(got_type: str, message: str, layer, coordinate, want) -> None:
    """An expected-error request must raise the right type naming the right place.

    ``want`` is (type name, layer, coordinate or None). ``layer`` and
    ``coordinate`` are the exception's attributes when it has them.
    """
    want_type, want_layer, want_coord = want
    if got_type != want_type:
        raise Mismatch(f"raised {got_type} ({message!r}), expected {want_type}")
    if not re.search(rf"\blayer {want_layer}\b", message):
        raise Mismatch(f"{got_type} message {message!r} does not name layer {want_layer}")
    if layer is not None and layer != want_layer:
        raise Mismatch(f"{got_type}.layer is {layer}, expected {want_layer}")
    if want_coord is not None:
        if coordinate != want_coord or not re.search(rf"\bcoordinate {want_coord}\b", message):
            raise Mismatch(f"{got_type} does not name coordinate {want_coord}: {message!r}")


def readme_sanity() -> None:
    """The reference must reproduce the README's net.json Jacobian."""
    ref = Reference(RefModel(README_NET), [1.0, 1.0])
    check_close(ref.full, README_JACOBIAN, 1e-15, "README net.json Jacobian")


# ---------------------------------------------------------------- CLI outputs


def parse_csv(text: str) -> np.ndarray:
    rows = [[float(tok) for tok in line.split(",")] for line in text.splitlines() if line]
    return np.array(rows, dtype=np.float64)


def check_cli_output(kind: str, fmt: str, stdout: str, ref: Reference, layer=None, tolerance=None):
    """Check the stdout of one CLI invocation against the reference.

    For ``check`` returns the reported within-tolerance flag (exit 0
    requires true, exit 4 false); otherwise returns None.
    """
    tol = EXACT_RTOL * ref.scale
    doc = json.loads(stdout) if fmt == "json" else None
    if kind == "forward":
        got = doc["output"] if doc else parse_csv(stdout)[0]
        check_close(got, ref.acts[-1], tol, "forward output")
    elif kind == "jacobian":
        want_layer = layer or len(ref.acts)
        if doc:
            if doc["layer"] != want_layer or doc["singular_hits"]:
                raise Mismatch(f"jacobian JSON header {doc['layer']}, {doc['singular_hits']}")
            got = doc["jacobian"]
        else:
            got = parse_csv(stdout)
        check_close(got, ref.jac[want_layer], tol, f"J[{want_layer}]")
    elif kind == "check":
        if doc:
            fields = (doc["max_abs_diff"], doc["max_rel_diff"], *doc["argmax_location"], doc["within_tolerance"])
        else:
            toks = stdout.strip().split(",")
            fields = (float(toks[0]), float(toks[1]), int(toks[2]), int(toks[3]), toks[4] == "true")
        max_abs, max_rel, row, col, within = fields
        n, m = ref.full.shape
        if not (1 <= row <= n and 1 <= col <= m):
            raise Mismatch(f"check argmax ({row}, {col}) outside {n}x{m}")
        if not 0.0 <= max_rel <= max_abs <= FD_RTOL * ref.scale:
            raise Mismatch(f"check differences {max_abs!r}, {max_rel!r} outside the FD tolerance")
        if within != (max_abs <= tolerance):
            raise Mismatch(f"check within_tolerance {within} disagrees with {max_abs!r} <= {tolerance!r}")
        return within
    elif kind == "report":
        if doc:
            if doc["singular_hits"]:
                raise Mismatch(f"report singular_hits {doc['singular_hits']}")
            check_report(ref, doc["feature_scores"], doc["output_scores"],
                         doc["feature_ranking"], doc["output_ranking"])
        else:
            rows = [line.split(",") for line in stdout.splitlines() if line]
            n_feat = ref.feature_scores.shape[0]
            feats, outs = rows[:n_feat], rows[n_feat:]
            if any(r[0] != "feature" for r in feats) or any(r[0] != "output" for r in outs):
                raise Mismatch("report CSV axis labels out of order")
            f_rank = [int(r[1]) for r in feats]
            o_rank = [int(r[1]) for r in outs]
            check_ranking(f_rank, ref.feature_scores, tol, "feature ranking")
            check_ranking(o_rank, ref.output_scores, tol, "output ranking")
            check_close([float(r[2]) for r in feats], ref.feature_scores[np.array(f_rank) - 1], tol, "feature scores")
            check_close([float(r[2]) for r in outs], ref.output_scores[np.array(o_rank) - 1], tol, "output scores")
    else:
        raise ValueError(f"unknown CLI request kind {kind!r}")
    return None


# ---------------------------------------------------------------- requests


def verify_library(wl, req, status, payload) -> None:
    if req.expect is not None:
        if status != "error":
            raise Mismatch(f"{req.kind} succeeded where {req.expect[0]} was expected")
        check_error(*payload, req.expect)
        return
    if status != "ok":
        raise Mismatch(f"{req.kind} raised {payload[0]}: {payload[1]}")
    ref = wl.refs[(req.model, req.inst)]
    tol = EXACT_RTOL * ref.scale
    if req.kind == "forward":
        if len(payload) != len(ref.acts):
            raise Mismatch(f"forward returned {len(payload)} activations, expected {len(ref.acts)}")
        for layer, (got, want) in enumerate(zip(payload, ref.acts), start=1):
            check_close(got, want, EXACT_RTOL * (1.0 + float(np.max(np.abs(want)))), f"a[{layer}]")
        return
    hits = payload[-1]
    if hits:
        raise Mismatch(f"unexpected singular hits {hits}")
    if req.kind == "report":
        check_report(ref, *payload[:5])
    elif req.kind == "prefix":
        check_close(payload[0], ref.jac[req.layer], tol, f"J[{req.layer}]")
    elif req.kind == "check":
        exact, estimate, max_abs, max_rel, location, within = payload[:6]
        check_close(exact, ref.full, tol, "J")
        check_close(estimate, ref.full, FD_RTOL * ref.scale, "FD estimate")
        check_comparison(exact, estimate, max_abs, max_rel, location, within, LIB_CHECK_TOLERANCE)
    else:
        raise ValueError(f"unknown request kind {req.kind!r}")


def verify_cli(wl, req, code, stdout, stderr) -> None:
    ref = wl.refs[(0, req.inst)]
    if req.expect is not None:
        want_code, needles = req.expect
        if code != want_code:
            raise Mismatch(f"{' '.join(req.argv[:1])} exited {code}, expected {want_code}: {stderr.strip()}")
        for needle in needles:
            if not re.search(rf"\b{re.escape(needle)}\b", stderr):
                raise Mismatch(f"stderr does not name {needle!r}: {stderr.strip()!r}")
        if want_code == 4 and check_cli_output("check", req.fmt, stdout, ref, tolerance=0.0):
            raise Mismatch("check exited 4 but reported within_tolerance true")
        return
    if code != 0:
        raise Mismatch(f"{req.kind} exited {code}: {stderr.strip()}")
    within = check_cli_output(req.kind, req.fmt, stdout, ref, req.layer, tolerance=CLI_CHECK_TOLERANCE)
    if within is False:
        raise Mismatch("check exited 0 but reported within_tolerance false")
