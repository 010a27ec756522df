"""The public surface: ``jacprop.__all__`` and the parameters of every public callable.

A failure here means the API changed. Update the table only when that is
the intent.
"""

import inspect

import pytest

import jacprop

# parameters as a def would write them (names, kinds through "*" and "/",
# defaults), without annotations; None for an exception class that keeps
# Exception's own constructor
SIGNATURES = {
    "ActivationJacobian": "(matrix, singular_hit)",
    "ActivationSpec": "(kind, alpha=None, relu_zero_policy=None)",
    "ComparisonResult": "(max_abs_diff, max_rel_diff, argmax_location, within_tolerance)",
    "DimensionMismatchError": None,
    "EvalCounter": "(model_evals=0, weighted_input_evals=0)",
    "FDConfig": "(step=1e-05, scheme='central')",
    "FormatError": None,
    "InstanceVector": "(values)",
    "JacobianTrace": "(per_layer, activations, weighted_inputs, singular_hits)",
    "JacpropError": None,
    "LayerDef": "(weights, activation, bias_folded=False)",
    "LayeredModel": "(layers, input_dim)",
    "ModelValidationError": "(violations)",
    "NonFiniteError": None,
    "SensitivityReport": "(feature_scores, output_scores, feature_ranking, output_ranking, per_entry, same_unit=False)",
    "SingularityError": "(message, *, layer=None, coordinate=None)",
    "activation_apply": "(spec, z)",
    "activation_jacobian": "(spec, z)",
    "build_report": "(jacobian, same_unit=False)",
    "compare_jacobians": "(a, b, tolerance)",
    "elementwise_derivative": "(spec, z)",
    "emit_matrix": "(matrix, header=None)",
    "finite_difference_jacobian": "(model, x, cfg=None, counter=None)",
    "fold_bias": "(weights, bias)",
    "forward": "(model, x, counter=None)",
    "jacobian_at_layer": "(trace, layer)",
    "jacobian_forward": "(model, x, counter=None)",
    "load_model": "(text)",
    "parse_matrix": "(text)",
    "parse_vector": "(text)",
    "prefix_model": "(model, layer)",
    "report_to_csv": "(report, k=None)",
    "report_to_json": "(report, singular_hits=(), k=None)",
    "save_model": "(model)",
    "softmax": "(z)",
    "softmax_jacobian": "(z)",
    "suffix_model": "(model, layer)",
    "top_k": "(report, axis, k)",
    "validate_model": "(model)",
}
CONSTANTS = {"ELEMENTWISE_KINDS", "KINDS", "ZERO_POLICIES"}


def _parameters(obj):
    if isinstance(obj, type) and obj.__init__ is Exception.__init__:
        return None
    sig = inspect.signature(obj)
    plain = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=plain, return_annotation=sig.empty))


def test_all_is_pinned():
    assert jacprop.__all__ == sorted([*SIGNATURES, *CONSTANTS])
    assert not any(callable(getattr(jacprop, name)) for name in CONSTANTS)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_is_pinned(name):
    assert _parameters(getattr(jacprop, name)) == SIGNATURES[name]
