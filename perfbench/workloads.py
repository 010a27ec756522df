"""Seeded inputs for each workload: model documents, instances, request cycles.

Everything is drawn from ``numpy.random.default_rng`` seeded with the
workload seed, so one seed always gives byte-identical documents and the
same request sequence. References are computed here, before any timing,
for every (model, instance, layer) a request can ask about.

Requests come in cycles. A run stops at the first cycle boundary after
its time is up, so every run sees whole cycles and the same request mix.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as R

ELEMENTWISE = ("identity", "logistic", "tanh", "softplus", "relu", "leaky_relu")
POLICIES = ("derivative_zero", "derivative_one", "reject")
# An instance closer than this to a relu/leaky_relu kink is redrawn: central
# differences with step 1e-5 straddling a kink miss the one-sided derivative.
KINK_MARGIN = 1e-3

TINY_MODELS = 300
TINY_CYCLE = 20
WIDE_INSTANCES = 4
MNIST_WIDTHS = (784, 512, 512, 10)
# The probes: small versions of tiny-sweep and cli-mnist that a traced run
# adds for the layers its own workload never reaches.
PROBE_MODELS = 8
PROBE_WIDTHS = (16, 8, 8, 4)


@dataclass(frozen=True)
class Request:
    """One request as the client sees it.

    Library kinds: forward, report, prefix, check, load. CLI kinds are the
    subcommands. ``expect`` is None for a request that must succeed; for
    library requests it is (error type, layer, coordinate), for CLI
    requests (exit code, substrings stderr must contain).
    """

    kind: str
    model: int = 0
    inst: int = 0
    layer: int | None = None
    argv: tuple = ()
    fmt: str | None = None
    expect: tuple | None = None


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    docs: list = field(default_factory=list)        # paths the serving process loads at set-up
    instances: list = field(default_factory=list)   # per model: list of input vectors
    refs: dict = field(default_factory=dict)        # (model, inst) -> reference.Reference
    bad_docs: list = field(default_factory=list)    # texts of documents that must fail to load
    cycle_fn: object = None                         # rng -> list[Request]

    def cycles(self):
        rng = np.random.default_rng([self.seed, 99])
        while True:
            yield self.cycle_fn(rng)


def _glorot(rng, n_out, n_in):
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


def _layer(weights, kind, bias=None, alpha=None, policy=None) -> dict:
    entry = {"weights": weights.tolist()}
    if bias is not None:
        entry["bias"] = bias.tolist()
    act = {"kind": kind}
    if alpha is not None:
        act["alpha"] = float(alpha)
    if policy is not None:
        act["relu_zero_policy"] = policy
    entry["activation"] = act
    return entry


def _doc(input_dim: int, layers: list) -> dict:
    return {"schema_version": "1", "input_dim": int(input_dim), "layers": layers}


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _draw_instances(rng, model: R.RefModel, count: int, low: float, high: float, tries: int = 200):
    """Up to ``count`` instances at least KINK_MARGIN away from every relu/leaky_relu kink."""
    found = []
    for _ in range(tries):
        x = rng.uniform(low, high, size=model.input_dim)
        if R.kink_margin(model, R.propagate(model, x)[1]) > KINK_MARGIN:
            found.append(x)
            if len(found) == count:
                break
    return found


# ---------------------------------------------------------------- tiny-sweep


def seed7_doc() -> dict:
    """The 4->5->5->3 tanh/tanh/softmax model with seed-7 uniform[-1,1] weights."""
    rng = np.random.default_rng(7)
    widths = (4, 5, 5, 3)
    kinds = ("tanh", "tanh", "softmax")
    layers = [
        _layer(rng.uniform(-1.0, 1.0, size=(n_out, n_in)), kind)
        for n_in, n_out, kind in zip(widths, widths[1:], kinds)
    ]
    return _doc(4, layers)


def _random_tiny_doc(rng) -> dict:
    """Criterion 1's recipe widened: depth 2-5, widths 1-8, every elementwise kind."""
    depth = int(rng.integers(2, 6))
    widths = [int(w) for w in rng.integers(1, 9, size=depth + 1)]
    layers = []
    for pos in range(depth):
        kind = ELEMENTWISE[int(rng.integers(len(ELEMENTWISE)))]
        if pos == depth - 1 and rng.random() < 0.3:
            kind = "softmax"
        weights = rng.uniform(-1.0, 1.0, size=(widths[pos + 1], widths[pos]))
        bias = rng.uniform(-1.0, 1.0, size=widths[pos + 1]) if rng.random() < 0.3 else None
        alpha = rng.uniform(0.01, 0.3) if kind == "leaky_relu" else None
        policy = POLICIES[int(rng.integers(3))] if kind in ("relu", "leaky_relu") else None
        layers.append(_layer(weights, kind, bias, alpha, policy))
    return _doc(widths[0], layers)


def _singular_doc(rng):
    """relu under reject first, with one zero bias: x = 0 hits the kink there."""
    widths = [int(w) for w in rng.integers(2, 9, size=3)]
    bias = rng.uniform(0.1, 1.0, size=widths[1]) * rng.choice([-1.0, 1.0], size=widths[1])
    bias[int(rng.integers(widths[1]))] = 0.0
    layers = [
        _layer(rng.uniform(-1.0, 1.0, size=(widths[1], widths[0])), "relu", bias, policy="reject"),
        _layer(rng.uniform(-1.0, 1.0, size=(widths[2], widths[1])), "tanh"),
    ]
    return _doc(widths[0], layers), np.zeros(widths[0])


def _overflow_doc(rng):
    """Positive identity layers scaled so the weighted input overflows at layer 3, 4 or 5."""
    scale = (1e160, 1e110, 1e80)[int(rng.integers(3))]
    depth = 4
    widths = [int(w) for w in rng.integers(1, 6, size=depth + 1)]
    layers = [
        _layer(rng.uniform(0.5, 1.0, size=(n_out, n_in)) * scale, "identity")
        for n_in, n_out in zip(widths, widths[1:])
    ]
    return _doc(widths[0], layers), rng.uniform(0.5, 1.0, size=widths[0])


def _mismatch_doc(rng) -> dict:
    doc = _random_tiny_doc(rng)
    pos = int(rng.integers(1, len(doc["layers"])))
    entry = doc["layers"][pos]
    entry["weights"] = [row + [0.5] for row in entry["weights"]]
    return doc


def tiny_sweep(seed: int, workdir: Path, models: int = TINY_MODELS) -> Workload:
    rng = np.random.default_rng([seed, 1])
    wl = Workload("tiny-sweep", seed, workdir)
    models_dir = workdir / "models"
    models_dir.mkdir(parents=True)

    def add(doc, instances, model=None):
        index = len(wl.docs)
        wl.docs.append(_write(models_dir / f"m{index:04d}.json", doc))
        wl.instances.append(instances)
        for inst, x in enumerate(instances if model else ()):
            wl.refs[(index, inst)] = R.Reference(model, x)
        return index

    seed7 = seed7_doc()
    add(seed7, [np.array([0.1, -0.2, 0.3, -0.4]), rng.uniform(-1.0, 1.0, size=4)], R.RefModel(seed7))
    while len(wl.docs) < models + 1:
        doc = _random_tiny_doc(rng)
        model = R.RefModel(doc)
        xs = _draw_instances(rng, model, 2, -1.0, 1.0)
        if len(xs) == 2:
            add(doc, xs, model)
    regular = len(wl.docs)

    errors = []
    for make in (_singular_doc, _overflow_doc) * 3:
        doc, x = make(rng)
        index = add(doc, [x])
        want = R.expected_error(R.RefModel(doc), x)
        if want is None:
            raise RuntimeError("generated error model does not fail")
        errors.append(Request("report", index, 0, expect=want))
    for _ in range(3):
        doc = _mismatch_doc(rng)
        errors.append(
            Request("load", len(wl.bad_docs), expect=("ModelValidationError", R.first_mismatch(doc), None))
        )
        wl.bad_docs.append(json.dumps(doc))

    kinds = ("check", "report", "prefix", "forward")
    weights = np.array([0.30, 0.25, 0.20, 0.25])

    def cycle(rng):
        out = []
        for slot in range(TINY_CYCLE - 1):
            index = 0 if slot == 0 else int(rng.integers(1, regular))
            kind = kinds[int(rng.choice(len(kinds), p=weights))]
            inst = int(rng.integers(len(wl.instances[index])))
            layer = (len(wl.refs[(index, inst)].acts) + 1) // 2 if kind == "prefix" else None
            out.append(Request(kind, index, inst, layer))
        # one expected-error request per cycle: 5% of the load
        out.insert(int(rng.integers(TINY_CYCLE)), errors[int(rng.integers(len(errors)))])
        return out

    wl.cycle_fn = cycle
    return wl


# ---------------------------------------------------------------- wide models


def wide_1024_doc(rng) -> dict:
    layers = [
        _layer(_glorot(rng, 1024, 1024), "tanh"),
        _layer(_glorot(rng, 1024, 1024), "tanh"),
        _layer(_glorot(rng, 10, 1024), "softmax"),
    ]
    return _doc(1024, layers)


def mnist_doc(rng, widths=MNIST_WIDTHS):
    """784->512->512->10 (or ``widths``) relu/relu/softmax with biases.

    One first-layer bias is exactly 0, so x = 0 sits on a relu kink at
    network layer 2; returns the document and that 1-based coordinate.
    """
    kinds = ("relu", "relu", "softmax")
    layers = []
    kink = int(rng.integers(widths[1])) + 1
    for pos, (n_in, n_out, kind) in enumerate(zip(widths, widths[1:], kinds)):
        bias = rng.uniform(-0.1, 0.1, size=n_out)
        if pos == 0:
            bias[kink - 1] = 0.0
        layers.append(_layer(_glorot(rng, n_out, n_in), kind, bias))
    return _doc(widths[0], layers), kink


def _wide_refs(wl: Workload, index: int, model: R.RefModel, xs) -> None:
    if len(xs) < WIDE_INSTANCES:
        raise RuntimeError(f"found only {len(xs)} instances clear of relu kinks")
    wl.instances.append(xs)
    for inst, x in enumerate(xs):
        wl.refs[(index, inst)] = R.Reference(model, x, layers=[2])


def wide_mlp(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    wl = Workload("wide-mlp", seed, workdir)
    models_dir = workdir / "models"
    models_dir.mkdir(parents=True)
    big = wide_1024_doc(rng)
    mnist, _ = mnist_doc(rng)
    for index, doc in enumerate((big, mnist)):
        wl.docs.append(_write(models_dir / f"m{index:04d}.json", doc))
        model = R.RefModel(doc)
        low = -1.0 if index == 0 else 0.0
        _wide_refs(wl, index, model, _draw_instances(rng, model, WIDE_INSTANCES, low, 1.0))

    # 1024 model once and 784 model twice per three requests keeps p50 inside
    # the 784 mode and p90 inside the 1024 mode; every fourth request is a
    # prefix J[2] request. Twelve requests make the pattern whole.
    def cycle(rng):
        out = []
        for k in range(12):
            index = 0 if k % 3 == 0 else 1
            inst = int(rng.integers(WIDE_INSTANCES))
            if k % 4 == 3:
                out.append(Request("prefix", index, inst, 2))
            else:
                out.append(Request("report", index, inst))
        return out

    wl.cycle_fn = cycle
    return wl


# ---------------------------------------------------------------- cli-mnist


def cli_mnist(seed: int, workdir: Path, widths=MNIST_WIDTHS) -> Workload:
    rng = np.random.default_rng([seed, 3])
    wl = Workload("cli-mnist", seed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    doc, kink = mnist_doc(rng, widths)
    path = _write(workdir / "mnist.json", doc)
    wl.docs.append(path)
    model = R.RefModel(doc)
    xs = _draw_instances(rng, model, WIDE_INSTANCES, 0.0, 1.0)
    _wide_refs(wl, 0, model, xs)
    inputs = []
    for inst, x in enumerate(xs):
        p = workdir / f"x{inst}.csv"
        p.write_text(",".join(repr(float(v)) for v in x) + "\n")
        inputs.append(p)
    zero = workdir / "zero.csv"
    zero.write_text(",".join(["0"] * widths[0]) + "\n")
    bad_col = int(rng.integers(1, widths[0] + 1))
    bad = workdir / "bad.csv"
    tokens = [repr(float(v)) for v in xs[0]]
    tokens[bad_col - 1] = "0.5x"
    bad.write_text(",".join(tokens) + "\n")

    commands = (
        ("forward", ()),
        ("jacobian", ()),
        ("jacobian", ("--layer", "2")),
        ("check", ()),
        ("report", ()),
    )

    def cycle(rng):
        out = []
        for k in range(10):
            cmd, extra = commands[k % 5]
            fmt = ("csv", "json")[k % 2]
            inst = int(rng.integers(WIDE_INSTANCES))
            argv = (cmd, "--model", str(path), "--input", f"@{inputs[inst]}", *extra, "--format", fmt)
            layer = 2 if extra else None
            out.append(Request(cmd, 0, inst, layer, argv, fmt))
        inst = int(rng.integers(WIDE_INSTANCES))
        out.append(
            Request("forward", 0, 0, None, ("forward", "--model", str(path), "--input", f"@{bad}"),
                    "csv", (1, (f"column {bad_col}",)))
        )
        out.append(
            Request("jacobian", 0, 0, None,
                    ("jacobian", "--model", str(path), "--input", f"@{zero}", "--strict-singularities"),
                    "csv", (3, ("layer 2", f"coordinate {kink}")))
        )
        out.append(
            Request("check", 0, inst, None,
                    ("check", "--model", str(path), "--input", f"@{inputs[inst]}", "--tolerance", "0"),
                    "csv", (4, ()))
        )
        return out

    wl.cycle_fn = cycle
    return wl


WORKLOADS = {"tiny-sweep": tiny_sweep, "wide-mlp": wide_mlp, "cli-mnist": cli_mnist}
PROBES = {
    "library": lambda seed, workdir: tiny_sweep(seed, workdir, PROBE_MODELS),
    "cli": lambda seed, workdir: cli_mnist(seed, workdir, PROBE_WIDTHS),
}
