"""Exact Jacobians of feedforward models in one forward pass.

The Jacobian factors of a layered model are collected alongside the
activations in a single input-to-output traversal and multiplied out
from the output end of the chain; every intermediate prefix Jacobian is
available as a byproduct. A finite-difference oracle provides
independent verification, and sensitivity reports turn a Jacobian into
per-feature and per-output rankings for one instance.
"""

from .activations import (
    ActivationJacobian,
    ActivationSpec,
    ELEMENTWISE_KINDS,
    KINDS,
    ZERO_POLICIES,
    activation_apply,
    activation_jacobian,
    elementwise_derivative,
    softmax,
    softmax_jacobian,
)
from .engine import JacobianTrace, jacobian_at_layer, jacobian_forward
from .errors import (
    DimensionMismatchError,
    FormatError,
    JacpropError,
    ModelValidationError,
    NonFiniteError,
    SingularityError,
)
from .fd import ComparisonResult, FDConfig, compare_jacobians, finite_difference_jacobian
from .model import (
    EvalCounter,
    InstanceVector,
    LayerDef,
    LayeredModel,
    fold_bias,
    forward,
    prefix_model,
    suffix_model,
    validate_model,
)
from .model_io import (
    emit_matrix,
    load_model,
    parse_matrix,
    parse_vector,
    report_to_csv,
    report_to_json,
    save_model,
)
from .sensitivity import SensitivityReport, build_report, top_k

__version__ = "0.1.0"

__all__ = [
    "ActivationJacobian",
    "ActivationSpec",
    "ComparisonResult",
    "DimensionMismatchError",
    "ELEMENTWISE_KINDS",
    "EvalCounter",
    "FDConfig",
    "FormatError",
    "InstanceVector",
    "JacobianTrace",
    "JacpropError",
    "KINDS",
    "LayerDef",
    "LayeredModel",
    "ModelValidationError",
    "NonFiniteError",
    "SensitivityReport",
    "SingularityError",
    "ZERO_POLICIES",
    "activation_apply",
    "activation_jacobian",
    "build_report",
    "compare_jacobians",
    "elementwise_derivative",
    "emit_matrix",
    "finite_difference_jacobian",
    "fold_bias",
    "forward",
    "jacobian_at_layer",
    "jacobian_forward",
    "load_model",
    "parse_matrix",
    "parse_vector",
    "prefix_model",
    "report_to_csv",
    "report_to_json",
    "save_model",
    "softmax",
    "softmax_jacobian",
    "suffix_model",
    "top_k",
    "validate_model",
]
