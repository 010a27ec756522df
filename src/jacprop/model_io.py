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
"""

import json
from dataclasses import asdict

import numpy as np

from .activations import ActivationSpec, _all_finite, _as_real
from .errors import DimensionMismatchError, FormatError, NonFiniteError
from .model import InstanceVector, LayerDef, LayeredModel, _validated, fold_bias
from .sensitivity import SensitivityReport, _checked_k

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
    try:
        doc = json.loads(text, parse_int=_parse_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
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
    with more than 2 dimensions or of a matrix with no entries.
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
        labels = [str(label) for label in header]
        if any("," in label or "\n" in label for label in labels):
            raise ValueError("header labels must not contain commas or newlines")
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
    """Parse rectangular CSV text into a matrix."""
    raw_lines = text.replace("\r\n", "\n").split("\n")
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
    """Serialize a sensitivity report; ``k`` (>= 1) truncates the rankings only."""
    n = None if k is None else _checked_k(k)
    doc = {
        "feature_scores": [float(v) for v in report.feature_scores],
        "output_scores": [float(v) for v in report.output_scores],
        "feature_ranking": list(report.feature_ranking[:n]),
        "output_ranking": list(report.output_ranking[:n]),
        "singular_hits": [[int(layer), int(coord)] for layer, coord in singular_hits],
        "same_unit": bool(report.same_unit),
    }
    return json.dumps(doc, indent=2) + "\n"


def report_to_csv(report: SensitivityReport, k: int | None = None) -> str:
    """CSV rows of (axis, index, score) in ranking order; ``k`` (>= 1) truncates."""
    n = None if k is None else _checked_k(k)
    lines = []
    for axis, ranking, scores in (
        ("feature", report.feature_ranking, report.feature_scores),
        ("output", report.output_ranking, report.output_scores),
    ):
        for index in ranking[:n]:
            lines.append(f"{axis},{index},{_format_entry(scores[index - 1])}")
    return "\n".join(lines) + "\n"
