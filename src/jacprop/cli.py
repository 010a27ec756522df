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
from .fd import SCHEMES, FDConfig, _checked_tolerance, compare_jacobians, finite_difference_jacobian
from .model import LayeredModel, _checked_layer, forward
from .model_io import (
    emit_matrix,
    parse_vector,
    report_to_csv,
    report_to_json,
    _decoded,
    _format_entry,
    _read_model,
)
from .sensitivity import _checked_k, build_report

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

    def add_command(name, handler, help, *options, with_input=True, strict=True):
        """A subcommand: the model, then the instance, its own options and --format."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--model", required=True, metavar="PATH", help="model document path")
        if with_input:
            p.add_argument(
                "--input",
                action="append",
                metavar="CSV|@FILE",
                help="instance as inline CSV, or @path to a one-line CSV file",
            )
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if strict:
            p.add_argument("--strict-singularities", action="store_true", help="treat relu/leaky_relu at 0 as an error")
        return p

    add_command("validate", _cmd_validate, "check a model document", with_input=False, strict=False)
    p_forward = add_command("forward", _cmd_forward, "evaluate the model at an instance", strict=False)
    p_forward.add_argument("--verbose", action="store_true", help="print every layer's activation to stderr")

    add_command(
        "jacobian",
        _cmd_jacobian,
        "compute the Jacobian at an instance",
        ("--layer", dict(type=int, metavar="N", help="emit the intermediate Jacobian J[N] (1=input .. L=output)")),
    )
    add_command(
        "check",
        _cmd_check,
        "verify the Jacobian against finite differences",
        # FD's own rules: a frozenset's order moves with the hash seed, so the choices are sorted
        ("--fd-step", dict(type=float, default=FDConfig.step, metavar="REAL")),
        ("--fd-scheme", dict(choices=sorted(SCHEMES), default=FDConfig.scheme)),
        ("--tolerance", dict(type=float, default=1e-5, metavar="REAL")),
    )
    add_command(
        "report",
        _cmd_report,
        "per-feature and per-output sensitivity report",
        ("--top-k", dict(type=int, metavar="N", help="truncate rankings to the top N entries")),
    )
    return parser


def _checked_option(flag: str, owner, *args, **kwargs):
    """Apply the library rule that owns an option; its ValueError is a usage error."""
    try:
        return owner(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from None


def _read_text(path: str) -> str:
    with open(path, "rb") as handle:
        return _decoded(path, handle.read())


def _load(args):
    """The model, with --strict-singularities applied, and the instance.

    --input's usage errors come before the model is read, as every option's do.
    """
    if not args.input:
        raise _UsageError("--input is required")
    if len(args.input) > 1:
        raise _UsageError("--input given more than once; ambiguous instance")
    model = _read_model(args.model)
    if getattr(args, "strict_singularities", False):
        # ActivationSpec sets a policy on exactly the kinked kinds
        layers = tuple(
            dataclasses.replace(layer, activation=dataclasses.replace(layer.activation, relu_zero_policy="reject"))
            if layer.activation.relu_zero_policy is not None
            else layer
            for layer in model.layers
        )
        model = LayeredModel(layers=layers, input_dim=model.input_dim)
    raw = args.input[0]
    if raw.startswith("@"):
        raw = _read_text(raw[1:]).strip("\r\n")
    return model, parse_vector(raw)


def _write(out, singular_hits=()) -> None:
    """Print the result (text, or a document as JSON) to stdout, then warn about singular hits."""
    sys.stdout.write(out if isinstance(out, str) else json.dumps(out, indent=2) + "\n")
    if singular_hits:
        rendered = "; ".join(f"layer {layer}, coordinate {coord}" for layer, coord in singular_hits)
        print(f"warning: singular activation points encountered: {rendered}", file=sys.stderr)


def _cmd_validate(args) -> int:
    try:
        _read_model(args.model)
    except ModelValidationError as exc:
        for violation in exc.violations:
            print(violation)
        return EXIT_INVALID_MODEL
    print("OK")
    return EXIT_OK


def _cmd_forward(args) -> int:
    model, vec = _load(args)
    activations = forward(model, vec)
    y = activations[-1]
    _write(emit_matrix(y) if args.format == "csv" else {"output": y.tolist()})
    if args.verbose:
        for net_layer, act in enumerate(activations, start=1):
            rendered = ",".join(_format_entry(v) for v in act)
            print(f"a[{net_layer}]: {rendered}", file=sys.stderr)
    return EXIT_OK


def _cmd_jacobian(args) -> int:
    model, vec = _load(args)
    layer = model.layer_count
    if args.layer is not None:  # checked before the pass
        layer = _checked_option("--layer", _checked_layer, args.layer, 1, model.layer_count)
    trace = jacobian_forward(model, vec)
    matrix = jacobian_at_layer(trace, layer)
    if args.format == "csv":
        out = emit_matrix(matrix)
    else:
        out = {
            "layer": layer,
            "jacobian": matrix.tolist(),
            "singular_hits": [[l, c] for l, c in trace.singular_hits],
        }
    _write(out, trace.singular_hits)
    return EXIT_OK


def _cmd_check(args) -> int:
    fd_config = _checked_option("--fd-step", FDConfig, step=args.fd_step, scheme=args.fd_scheme)
    tolerance = _checked_option("--tolerance", _checked_tolerance, args.tolerance)
    model, vec = _load(args)
    trace = jacobian_forward(model, vec)
    estimate = _checked_option("--fd-step", finite_difference_jacobian, model, vec, fd_config)
    result = compare_jacobians(trace.full, estimate, tolerance)
    if args.format == "csv":
        row, col = result.argmax_location
        fields = (
            _format_entry(result.max_abs_diff),
            _format_entry(result.max_rel_diff),
            str(row),
            str(col),
            "true" if result.within_tolerance else "false",
        )
        out = ",".join(fields) + "\n"
    else:
        out = dataclasses.asdict(result)
    _write(out, trace.singular_hits)
    return EXIT_OK if result.within_tolerance else EXIT_TOLERANCE


def _cmd_report(args) -> int:
    k = None if args.top_k is None else _checked_option("--top-k", _checked_k, args.top_k)
    model, vec = _load(args)
    trace = jacobian_forward(model, vec)
    report = build_report(trace.full)
    if args.format == "csv":
        out = report_to_csv(report, k=k)
    else:
        out = report_to_json(report, trace.singular_hits, k=k)
    _write(out, trace.singular_hits)
    return EXIT_OK


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (_UsageError, OSError, FormatError, DimensionMismatchError, NonFiniteError) as exc:
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
