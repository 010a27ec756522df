"""Finite-difference Jacobian estimation, the independent verification baseline.

Deliberately knows nothing about the one-pass engine: it only evaluates
the model, perturbing one input coordinate at a time. The forward scheme
costs exactly m+1 model evaluations, the central scheme exactly 2m.
"""

from dataclasses import dataclass

import numpy as np

from .activations import _checked_real
from .errors import DimensionMismatchError, NonFiniteError
from .instrumentation import EvalCounter
from .model import LayeredModel, _checked_input, _layer_values

SCHEMES = frozenset({"forward", "central"})


@dataclass(frozen=True)
class FDConfig:
    """Step size and differencing scheme."""

    step: float = 1e-5
    scheme: str = "central"

    def __post_init__(self):
        step = _checked_real(self.step, "step", "positive and finite", lambda v: 0 < v < np.inf)
        if not isinstance(self.scheme, str) or self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {sorted(SCHEMES)}")
        object.__setattr__(self, "step", step)


@dataclass(frozen=True)
class ComparisonResult:
    """Elementwise discrepancy between two same-shape matrices.

    ``argmax_location`` is the 1-based (row, col) of the largest absolute
    difference. ``max_rel_diff`` uses the |a-b| / (1+|a|) convention.
    """

    max_abs_diff: float
    max_rel_diff: float
    argmax_location: tuple[int, int]
    within_tolerance: bool


def _probe_output(model: LayeredModel, vec: np.ndarray, counter, probe: str) -> np.ndarray:
    try:
        *_, (_, _, _, output) = _layer_values(model, vec, counter)
    except NonFiniteError as exc:
        raise NonFiniteError(f"non-finite model output at probe {probe}: {exc}") from None
    return output


def finite_difference_jacobian(
    model: LayeredModel, x, cfg: FDConfig | None = None, counter: EvalCounter | None = None
) -> np.ndarray:
    """Estimate the Jacobian at x by perturbing one coordinate at a time.

    Forward scheme: column j = (F(x + h e_j) - F(x)) / ((x + h)_j - x_j).
    Central scheme: column j = (F(x + h e_j) - F(x - h e_j)) / ((x + h)_j - (x - h)_j).
    The divisor is the spacing the probes have, h or 2h only where
    x_j +- h is exact. Raises ``ValueError`` naming the first input
    coordinate (1-based) where the step vanishes in rounding, and
    :class:`NonFiniteError` naming the first column that is not finite,
    for instance when two finite probe outputs differ by more than
    float64 can hold.
    """
    cfg = cfg or FDConfig()
    vec = _checked_input(model, x)
    h = cfg.step
    # Python floats round as float64 does; an x_j + h that overflows is inf, and its probe reports it
    coords = vec.tolist()
    high = [v + h for v in coords]
    low = coords if cfg.scheme == "forward" else [v - h for v in coords]
    spacing = [up - down for up, down in zip(high, low)]
    if 0.0 in spacing:
        j = spacing.index(0.0)
        raise ValueError(f"step {h!r} vanishes in rounding at input coordinate {j + 1} (value {coords[j]!r})")

    def probe(j: int, shifted_j: float, label: str) -> np.ndarray:
        """F at x with coordinate j moved to shifted_j."""
        shifted = vec.copy()
        shifted[j] = shifted_j
        return _probe_output(model, shifted, counter, f"x {label} h e_{j + 1}")

    # every probe reports its own overflow, and the estimate is checked as a whole
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.scheme == "forward":
            base = _probe_output(model, vec, counter, "base point")
            pairs = [(probe(j, high[j], "+"), base) for j in range(model.input_dim)]
        else:
            pairs = [(probe(j, high[j], "+"), probe(j, low[j], "-")) for j in range(model.input_dim)]
        estimate = np.column_stack([(up - down) / step for (up, down), step in zip(pairs, spacing)])
    finite = np.isfinite(estimate)
    if not finite.all():
        column = int(np.flatnonzero(~finite.all(axis=0))[0]) + 1
        raise NonFiniteError(f"non-finite finite-difference estimate in column {column}")
    return estimate


def _checked_tolerance(tolerance) -> float:
    # inf is a tolerance every finite difference meets; NaN fails v >= 0
    return _checked_real(tolerance, "tolerance", ">= 0", lambda v: v >= 0)


def compare_jacobians(a, b, tolerance: float) -> ComparisonResult:
    """Elementwise comparison of two finite matrices against an absolute tolerance (>= 0).

    Raises :class:`NonFiniteError` naming the argument (``a`` or ``b``)
    that holds a NaN or an infinity: no difference to it is meaningful.
    """
    mat_a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    mat_b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if mat_a.shape != mat_b.shape:
        raise DimensionMismatchError(f"shape mismatch: {mat_a.shape} vs {mat_b.shape}")
    tol = _checked_tolerance(tolerance)
    for name, matrix in (("a", mat_a), ("b", mat_b)):
        if not np.isfinite(matrix).all():
            raise NonFiniteError(f"{name} contains non-finite entries")
    diff = np.abs(mat_a - mat_b)
    flat_argmax = int(np.argmax(diff))
    row, col = np.unravel_index(flat_argmax, diff.shape)
    max_abs = float(diff[row, col])
    max_rel = float(np.max(diff / (1.0 + np.abs(mat_a))))
    return ComparisonResult(
        max_abs_diff=max_abs,
        max_rel_diff=max_rel,
        argmax_location=(int(row) + 1, int(col) + 1),
        within_tolerance=bool(max_abs <= tol),
    )
