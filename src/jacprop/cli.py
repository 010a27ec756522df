"""Command-line front end.

Subcommands: validate, forward, jacobian, check, report. Results (CSV or
JSON) go to stdout; diagnostics always go to stderr, so with --format csv
the stdout of every successful run parses as rectangular CSV.

Exit codes: 0 success, 1 I/O or parse failure (including usage errors),
2 model validation failure, 3 singularity under the reject policy,
4 check outside tolerance.
"""

import argparse
import dataclasses
import json
import sys

from .engine import jacobian_forward, jacobian_at_layer
from .errors import (
    DimensionMismatchError,
    FormatError,
    ModelValidationError,
    NonFiniteError,
    SingularityError,
)
from .fd import FDConfig, compare_jacobians, finite_difference_jacobian
from .model import LayeredModel, forward
from .model_io import (
    emit_matrix,
    load_model,
    parse_vector,
    report_to_csv,
    report_to_json,
    _format_entry,
)
from .sensitivity import build_report

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID_MODEL = 2
EXIT_SINGULARITY = 3
EXIT_TOLERANCE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 means "invalid model" here
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jacprop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        p.add_argument("--model", required=True, metavar="PATH", help="model document path")
        if with_input:
            p.add_argument(
                "--input",
                action="append",
                metavar="CSV|@FILE",
                help="instance as inline CSV, or @path to a one-line CSV file",
            )

    p_validate = sub.add_parser("validate", help="check a model document")
    add_common(p_validate, with_input=False)

    p_forward = sub.add_parser("forward", help="evaluate the model at an instance")
    add_common(p_forward)
    p_forward.add_argument("--format", choices=("csv", "json"), default="csv")
    p_forward.add_argument("--verbose", action="store_true", help="print every layer's activation to stderr")

    p_jac = sub.add_parser("jacobian", help="compute the Jacobian at an instance")
    add_common(p_jac)
    p_jac.add_argument("--layer", type=int, metavar="N", help="emit the intermediate Jacobian J[N] (1=input .. L=output)")
    p_jac.add_argument("--format", choices=("csv", "json"), default="csv")
    p_jac.add_argument("--strict-singularities", action="store_true", help="treat relu/leaky_relu at 0 as an error")

    p_check = sub.add_parser("check", help="verify the Jacobian against finite differences")
    add_common(p_check)
    p_check.add_argument("--fd-step", type=float, default=1e-5, metavar="REAL")
    p_check.add_argument("--fd-scheme", choices=("forward", "central"), default="central")
    p_check.add_argument("--tolerance", type=float, default=1e-5, metavar="REAL")
    p_check.add_argument("--format", choices=("csv", "json"), default="csv")
    p_check.add_argument("--strict-singularities", action="store_true")

    p_report = sub.add_parser("report", help="per-feature and per-output sensitivity report")
    add_common(p_report)
    p_report.add_argument("--top-k", type=int, metavar="N", help="truncate rankings to the top N entries")
    p_report.add_argument("--format", choices=("csv", "json"), default="csv")
    p_report.add_argument("--strict-singularities", action="store_true")

    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_input(args):
    values = args.input
    if not values:
        raise _UsageError("--input is required")
    if len(values) > 1:
        raise _UsageError("--input given more than once; ambiguous instance")
    raw = values[0]
    if raw.startswith("@"):
        raw = _read_text(raw[1:]).strip("\r\n")
    return parse_vector(raw)


def _apply_strict_singularities(model: LayeredModel) -> LayeredModel:
    layers = []
    for layer in model.layers:
        spec = layer.activation
        if spec.kind in ("relu", "leaky_relu") and spec.relu_zero_policy != "reject":
            spec = dataclasses.replace(spec, relu_zero_policy="reject")
            layer = dataclasses.replace(layer, activation=spec)
        layers.append(layer)
    return LayeredModel(layers=tuple(layers), input_dim=model.input_dim)


def _load_model_for(args) -> LayeredModel:
    model = load_model(_read_text(args.model))
    if getattr(args, "strict_singularities", False):
        model = _apply_strict_singularities(model)
    return model


def _warn_singular_hits(hits) -> None:
    if hits:
        rendered = "; ".join(f"layer {layer}, coordinate {coord}" for layer, coord in hits)
        print(f"warning: singular activation points encountered: {rendered}", file=sys.stderr)


def _cmd_validate(args) -> int:
    try:
        load_model(_read_text(args.model))
    except ModelValidationError as exc:
        for violation in exc.violations:
            print(violation)
        return EXIT_INVALID_MODEL
    print("OK")
    return EXIT_OK


def _cmd_forward(args) -> int:
    model = _load_model_for(args)
    vec = _load_input(args)
    activations = forward(model, vec)
    y = activations[-1]
    if args.format == "csv":
        sys.stdout.write(emit_matrix(y))
    else:
        sys.stdout.write(json.dumps({"output": [float(v) for v in y]}, indent=2) + "\n")
    if args.verbose:
        for net_layer, act in enumerate(activations, start=1):
            rendered = ",".join(_format_entry(v) for v in act)
            print(f"a[{net_layer}]: {rendered}", file=sys.stderr)
    return EXIT_OK


def _cmd_jacobian(args) -> int:
    model = _load_model_for(args)
    vec = _load_input(args)
    layer = args.layer if args.layer is not None else model.layer_count
    if not 1 <= layer <= model.layer_count:
        raise _UsageError(f"--layer must be in [1, {model.layer_count}], got {layer}")
    trace = jacobian_forward(model, vec)
    matrix = jacobian_at_layer(trace, layer)
    if args.format == "csv":
        sys.stdout.write(emit_matrix(matrix))
    else:
        doc = {
            "layer": layer,
            "jacobian": [[float(v) for v in row] for row in matrix],
            "singular_hits": [[l, c] for l, c in trace.singular_hits],
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    _warn_singular_hits(trace.singular_hits)
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        fd_config = FDConfig(step=args.fd_step, scheme=args.fd_scheme)
    except ValueError as exc:
        raise _UsageError(f"--fd-step: {exc}") from None
    if not args.tolerance >= 0:
        raise _UsageError(f"--tolerance must be >= 0, got {args.tolerance}")
    model = _load_model_for(args)
    vec = _load_input(args)
    trace = jacobian_forward(model, vec)
    estimate = finite_difference_jacobian(model, vec, fd_config)
    result = compare_jacobians(trace.full, estimate, args.tolerance)
    row, col = result.argmax_location
    if args.format == "csv":
        line = ",".join(
            (
                _format_entry(result.max_abs_diff),
                _format_entry(result.max_rel_diff),
                str(row),
                str(col),
                "true" if result.within_tolerance else "false",
            )
        )
        sys.stdout.write(line + "\n")
    else:
        doc = {
            "max_abs_diff": result.max_abs_diff,
            "max_rel_diff": result.max_rel_diff,
            "argmax_location": [row, col],
            "within_tolerance": result.within_tolerance,
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    _warn_singular_hits(trace.singular_hits)
    return EXIT_OK if result.within_tolerance else EXIT_TOLERANCE


def _cmd_report(args) -> int:
    if args.top_k is not None and args.top_k < 1:
        raise _UsageError(f"--top-k must be >= 1, got {args.top_k}")
    model = _load_model_for(args)
    vec = _load_input(args)
    trace = jacobian_forward(model, vec)
    report = build_report(trace.full)
    if args.format == "csv":
        sys.stdout.write(report_to_csv(report, k=args.top_k))
    else:
        sys.stdout.write(report_to_json(report, trace.singular_hits, k=args.top_k))
    _warn_singular_hits(trace.singular_hits)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "forward": _cmd_forward,
    "jacobian": _cmd_jacobian,
    "check": _cmd_check,
    "report": _cmd_report,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (
        _UsageError, OSError, UnicodeDecodeError, FormatError, DimensionMismatchError, NonFiniteError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ModelValidationError as exc:
        print("error: model is invalid", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULARITY


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
