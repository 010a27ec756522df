"""Text formats: model documents (JSON), matrix/vector dumps (CSV), reports.

The model document schema, version "1":

    {
      "schema_version": "1",
      "input_dim": <positive int>,
      "layers": [
        {
          "weights": [[...], ...],          # row-major, rectangular
          "bias": [...],                     # optional, folded on load
          "activation": {
            "kind": "identity|logistic|tanh|softplus|relu|leaky_relu|softmax",
            "alpha": <float>,                # leaky_relu only (required)
            "relu_zero_policy": "derivative_zero|derivative_one|reject"
          }
        }, ...
      ]
    }

Parsing is strict: unknown and repeated keys anywhere are rejected.
Biases are folded into augmented weight matrices at load time and
unfolded again on save, so documents round-trip bit-exactly.

CSV dumps use %.17g per entry, which round-trips IEEE doubles exactly.

The CLI reads a model document through :func:`_read_model`, which keeps
the parsed model beside the document, in
``<dir>/__jacprop_cache__/<name>.npz``, under the SHA-256 digest of the
document's bytes, and rebuilds it from there while the bytes stay the
same, as checked-hash ``.pyc`` files do (PEP 552). :func:`load_model`
itself never touches the disk.
"""

import contextlib
import io
import json
import numbers
import os
import stat
import zipfile
from dataclasses import asdict

import numpy as np

from .activations import ActivationSpec, _all_finite, _as_real
from .errors import DimensionMismatchError, FormatError, NonFiniteError
from .model import InstanceVector, LayerDef, LayeredModel, _validated, fold_bias
from .sensitivity import _AXES, SensitivityReport, _axis, _checked_k

_NUMBER_TYPES = {int, float}  # what json.loads makes of a JSON number; bool is its own type


def _all_numbers(values: list) -> bool:
    return set(map(type, values)) <= _NUMBER_TYPES


def _require_keys(obj: dict, where: str, required: tuple = (), optional: tuple = ()) -> None:
    """Raise FormatError at ``where`` naming obj's first unknown key (sorted), else its first missing required one.

    A key is unknown when it is neither required nor optional; missing
    keys are looked for in the order ``required`` lists them.
    """
    unknown = set(obj).difference(required, optional)
    if unknown:
        raise FormatError(f"{where}: unknown key {sorted(unknown)[0]!r} (strict schema)")
    for key in required:
        if key not in obj:
            raise FormatError(f"{where}: missing required key {key!r}")


def _parse_activation(obj, where: str) -> ActivationSpec:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: activation must be an object")
    # a missing kind is ActivationSpec's to name
    _require_keys(obj, where, optional=("kind", "alpha", "relu_zero_policy"))
    try:
        return ActivationSpec(kind=obj.get("kind"), alpha=obj.get("alpha"), relu_zero_policy=obj.get("relu_zero_policy"))
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def _parse_weights(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise FormatError(f"{where}: weights must be a non-empty array of rows")
    width = None
    for row in obj:
        if not isinstance(row, list) or not row:
            raise FormatError(f"{where}: every weights row must be a non-empty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"{where}: ragged weights, row of length {len(row)} where {width} expected")
        if not _all_numbers(row):
            value = next(v for v in row if type(v) not in _NUMBER_TYPES)
            raise FormatError(f"{where}: weights entries must be numbers, got {value!r}")
    return np.array(obj, dtype=np.float64)


def _unique_keys(pairs: list) -> dict:
    # json.loads would keep the last of a repeated key's values without a word
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise FormatError(f"repeated key {repeated!r} in a JSON object")
    return obj


def _parse_int(token: str):
    # past 308 characters an integer may exceed float64 (and past 4300 digits
    # int() refuses it); float() reads it as 1e400 is read, as +-inf
    return int(token) if len(token) <= 308 else float(token)


def load_model(text: str) -> LayeredModel:
    """Parse a model document, folding biases; the result passes validation.

    Raises :class:`FormatError` on syntax or schema problems and
    :class:`ModelValidationError` when the parsed model breaks the
    structural invariants (dimension chain, finiteness).
    """
    return _build_model(_parse_json(text))


def _parse_json(text: str):
    try:
        return json.loads(text, parse_int=_parse_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _build_model(doc) -> LayeredModel:
    """The model a parsed document describes: load_model's schema checks, after the JSON syntax."""
    if not isinstance(doc, dict):
        raise FormatError("model document must be a JSON object")
    _require_keys(doc, "model document", required=("schema_version", "input_dim", "layers"))
    if doc["schema_version"] != "1":
        raise FormatError(f"unsupported schema_version {doc['schema_version']!r}; expected \"1\"")
    input_dim = doc["input_dim"]
    if not isinstance(input_dim, int) or isinstance(input_dim, bool) or input_dim < 1:
        raise FormatError(f"input_dim must be a positive integer, got {input_dim!r}")
    if not isinstance(doc["layers"], list):
        raise FormatError("layers must be an array")

    layer_defs = []
    for pos, entry in enumerate(doc["layers"], start=1):
        where = f"layer {pos}"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: must be an object")
        _require_keys(entry, where, required=("weights", "activation"), optional=("bias",))
        weights = _parse_weights(entry["weights"], where)
        activation = _parse_activation(entry["activation"], where)
        bias = entry.get("bias")
        folded = bias is not None
        if folded:
            if not isinstance(bias, list) or not _all_numbers(bias):
                raise FormatError(f"{where}: bias must be an array of numbers")
            try:
                weights = fold_bias(weights, bias)
            except DimensionMismatchError as exc:
                raise FormatError(f"{where}: {exc}") from None
        layer_defs.append(LayerDef(weights=weights, activation=activation, bias_folded=folded))

    return _validated(LayeredModel(layers=tuple(layer_defs), input_dim=input_dim))


# names the sidecar layout and load_model's rules: change it whenever either changes, so that no sidecar
# outlives the rules it was parsed under
_SIDECAR_FORMAT = "jacprop-sidecar-2"
_CACHE_DIR = "__jacprop_cache__"


def _decoded(path: str, data: bytes) -> str:
    """data as text-mode ``open(path, encoding="utf-8")`` reads it, newline translation included."""
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as text:
            return text.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _read_model(path: str) -> LayeredModel:
    """The model document at path, rebuilt from its sidecar when that holds the document's digest.

    Otherwise the document is parsed as :func:`load_model` parses it,
    with its errors, and a valid one is stored in a fresh sidecar. Only a
    regular file on a system with effective user ids gets a sidecar.
    """
    # imported here, for the CLI alone: OpenSSL's libcrypto adds ~3.6 MB to a process's memory, and with
    # it loaded the benchmark's wide-mlp library requests had a ~4% slower p90 (2-vCPU x86_64 VM)
    import hashlib

    with open(path, "rb") as handle:
        cacheable = stat.S_ISREG(os.fstat(handle.fileno()).st_mode) and hasattr(os, "geteuid")
        data = handle.read()
    digest = hashlib.sha256(data).hexdigest()
    sidecar = os.path.join(os.path.dirname(path), _CACHE_DIR, os.path.basename(path) + ".npz")
    model = _from_sidecar(sidecar, digest) if cacheable else None
    if model is None:
        # the bytes go before the JSON parse and the text before the rows become arrays: a lower peak than
        # load_model(open(path).read())'s, which holds the text to the end
        text = _decoded(path, data)
        del data
        doc = _parse_json(text)
        del text
        model = _build_model(doc)
        if cacheable:
            _write_sidecar(sidecar, digest, model, [layer["activation"] for layer in doc["layers"]])
    return model


def _nonblocking(path: str, flags: int) -> int:
    # a FIFO in the sidecar's place must not block the open: fstat turns it down
    return os.open(path, flags | os.O_NONBLOCK)


def _from_sidecar(sidecar: str, digest: str) -> LayeredModel | None:
    """The model stored for digest, or None for a miss.

    A sidecar is read only when it is a regular file owned by the
    effective user and not writable by group or others. Each activation
    is read by :func:`_parse_activation`, as the document's was, and the
    layers are rebuilt through their constructors, so the model derives
    its structure checks, finiteness and safe input again; a stale,
    foreign or damaged sidecar, or one that rebuilds an invalid model, is
    a miss.
    """
    try:
        with open(sidecar, "rb", opener=_nonblocking) as handle:
            st = os.fstat(handle.fileno())
            shared = st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
            if not stat.S_ISREG(st.st_mode) or st.st_uid != os.geteuid() or shared:
                return None
            stored = np.load(handle, allow_pickle=False)
            if not isinstance(stored, np.lib.npyio.NpzFile):  # a bare .npy array, which has no context manager
                return None
            with stored:
                tag, stored_digest, input_dim, specs = json.loads(stored["meta"].item())
                if (tag, stored_digest) != (_SIDECAR_FORMAT, digest):
                    return None
                layers = []
                for index, (activation, folded) in enumerate(specs):
                    weights = stored[f"w{index}"]
                    if weights.dtype != np.float64:  # LayerDef would convert it; its shape is LayerDef's to check
                        return None
                    layers.append(LayerDef(weights, _parse_activation(activation, sidecar), folded))
        model = LayeredModel(layers=tuple(layers), input_dim=input_dim)
    except (OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile, FormatError):
        return None
    return None if model._violations else model


def _write_sidecar(sidecar: str, digest: str, model: LayeredModel, activations: list) -> None:
    """Store a valid model under digest: a temporary file in the sidecar's directory, then ``os.replace``.

    ``activations`` are the document's ``activation`` objects, stored as
    it wrote them, next to each layer's folded-bias flag. Any OSError (an
    unwritable directory, a file where the cache directory would be, a
    full disk) leaves no sidecar, without a word.
    """
    import tempfile  # a miss's alone, as hashlib is _read_model's

    specs = [[activation, layer.bias_folded] for activation, layer in zip(activations, model.layers)]
    meta = np.array(json.dumps([_SIDECAR_FORMAT, digest, model.input_dim, specs]))
    weights = {f"w{index}": layer.weights for index, layer in enumerate(model.layers)}
    directory = os.path.dirname(sidecar)
    with contextlib.suppress(OSError):
        os.makedirs(directory, exist_ok=True)
        fd, temporary = tempfile.mkstemp(suffix=".tmp", dir=directory)
        try:
            with open(fd, "wb") as handle:
                np.savez(handle, meta=meta, **weights)
            os.replace(temporary, sidecar)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
            raise


def save_model(model: LayeredModel) -> str:
    """Emit the canonical document for a model; folded biases are unfolded."""
    layers = []
    for layer in _validated(model).layers:
        entry: dict = {"weights": layer.linear_part().tolist()}
        if layer.bias_folded:
            entry["bias"] = layer.weights[:, -1].tolist()
        entry["activation"] = {key: value for key, value in asdict(layer.activation).items() if value is not None}
        layers.append(entry)
    doc = {"schema_version": "1", "input_dim": model.input_dim, "layers": layers}
    return json.dumps(doc, indent=2) + "\n"


def _format_entry(value: float) -> str:
    return "%.17g" % value


def emit_matrix(matrix, header: list[str] | None = None) -> str:
    """Format a matrix (or vector, as one row) as CSV text, %.17g entries.

    Raises :class:`DimensionMismatchError` naming the shape of an array
    with more than 2 dimensions or of a matrix with no entries, and
    ValueError for a header given as one string or bytes object, whose
    items are characters or code points, or with labels that are not one
    per column or that hold a comma, a double quote, a newline or a
    carriage return, any of which a CSV reader takes as more fields or
    rows, or as quoting.
    """
    mat = _as_real(matrix, "matrix")
    if mat.ndim > 2:
        raise DimensionMismatchError(f"matrix must have at most 2 dimensions, got shape {mat.shape}")
    if mat.size == 0:
        raise DimensionMismatchError(f"matrix of shape {mat.shape} has no entries to write")
    if mat.ndim < 2:
        mat = np.atleast_2d(mat)
    if not _all_finite(mat):
        raise NonFiniteError("matrix contains non-finite entries")
    lines = []
    if header is not None:
        if isinstance(header, (str, bytes, bytearray)):
            raise ValueError(f"header must be a sequence of labels, not {type(header).__name__}")
        labels = [str(label) for label in header]
        if any(char in label for label in labels for char in ',"\n\r'):
            raise ValueError("header labels must not contain commas, double quotes, newlines or carriage returns")
        if len(labels) != mat.shape[1]:
            raise ValueError(f"{len(labels)} header labels for {mat.shape[1]} columns")
        lines.append(",".join(labels))
    # one format string per row: each entry is _format_entry's %.17g
    row_format = ",".join(["%.17g"] * mat.shape[1])
    lines.extend(row_format % tuple(row) for row in mat.tolist())
    return "\n".join(lines) + "\n"


def _parse_token(token: str, where: str) -> float:
    stripped = token.strip()
    if not stripped:
        raise FormatError(f"malformed numeric token at {where}: empty field")
    try:
        if "_" in stripped or not stripped.isascii():
            raise ValueError  # float() takes "1_0" and non-ASCII digits; a token is a plain decimal
        value = float(stripped)
    except ValueError:
        raise FormatError(f"malformed numeric token at {where}: {stripped!r}") from None
    if not np.isfinite(value):
        raise FormatError(f"non-finite value at {where}: {stripped!r}")
    return value


def parse_vector(text: str) -> InstanceVector:
    """Parse one CSV line of decimals (optional whitespace) into an instance."""
    content = text.strip("\r\n")
    if "\n" in content or "\r" in content:
        raise FormatError("expected a single CSV line, got multiple lines")
    tokens = content.split(",")
    return InstanceVector(values=[_parse_token(tok, f"column {col}") for col, tok in enumerate(tokens, start=1)])


def parse_matrix(text: str) -> np.ndarray:
    """Parse rectangular CSV text into a matrix; a line ends at \\n, \\r\\n or a lone \\r."""
    raw_lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    while raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    if not raw_lines:
        raise FormatError("empty CSV document")
    rows = []
    width = None
    for line_no, line in enumerate(raw_lines, start=1):
        if line.strip() == "":
            raise FormatError(f"row {line_no}: empty line inside CSV document")
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise FormatError(f"row {line_no}: has {len(tokens)} columns, expected {width}")
        rows.append(
            [_parse_token(tok, f"row {line_no}, column {col}") for col, tok in enumerate(tokens, start=1)]
        )
    return np.array(rows, dtype=np.float64)


def report_to_json(
    report: SensitivityReport,
    singular_hits=(),
    k: int | None = None,
) -> str:
    """Serialize a sensitivity report; ``k`` (>= 1) truncates the rankings only.

    Each singular hit must be a (layer, coordinate) pair of integers, not
    bools: anything else raises ValueError naming the hit.
    """
    n = None if k is None else _checked_k(k)
    doc = {
        "feature_scores": [float(v) for v in report.feature_scores],
        "output_scores": [float(v) for v in report.output_scores],
        "feature_ranking": list(report.feature_ranking[:n]),
        "output_ranking": list(report.output_ranking[:n]),
        "singular_hits": [_checked_hit(hit) for hit in singular_hits],
        "same_unit": bool(report.same_unit),
    }
    return json.dumps(doc, indent=2) + "\n"


def _checked_hit(hit) -> list[int]:
    pair = list(hit) if isinstance(hit, (tuple, list)) else []
    if len(pair) != 2 or any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in pair):
        raise ValueError(f"a singular hit must be a (layer, coordinate) pair of integers, got {hit!r}")
    return [int(v) for v in pair]


def report_to_csv(report: SensitivityReport, k: int | None = None) -> str:
    """CSV rows of (axis, index, score) in ranking order; ``k`` (>= 1) truncates."""
    n = None if k is None else _checked_k(k)
    lines = []
    for axis in _AXES:
        ranking, scores = _axis(report, axis)
        for index in ranking[:n]:
            lines.append(f"{axis},{index},{_format_entry(scores[index - 1])}")
    return "\n".join(lines) + "\n"
