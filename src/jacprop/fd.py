"""Finite-difference Jacobian estimation, the independent verification baseline.

Deliberately knows nothing about the one-pass engine: it only evaluates
the model, perturbing one input coordinate at a time. The forward scheme
costs exactly m+1 model evaluations, the central scheme exactly 2m.
"""

from dataclasses import dataclass

import numpy as np

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
        step = float(self.step)
        if not np.isfinite(step) or step <= 0:
            raise ValueError(f"step must be positive and finite, got {self.step!r}")
        if self.scheme not in SCHEMES:
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

    Forward scheme: column j = (F(x + h e_j) - F(x)) / h.
    Central scheme: column j = (F(x + h e_j) - F(x - h e_j)) / (2h).
    """
    cfg = cfg or FDConfig()
    vec = _checked_input(model, x)
    m = model.input_dim
    jac = np.empty((model.output_dim, m), dtype=np.float64)
    h = cfg.step
    if cfg.scheme == "forward":
        base = _probe_output(model, vec, counter, "base point")
        for j in range(m):
            probe = vec.copy()
            probe[j] += h
            out = _probe_output(model, probe, counter, f"x + h e_{j + 1}")
            jac[:, j] = (out - base) / h
    else:
        for j in range(m):
            plus = vec.copy()
            plus[j] += h
            minus = vec.copy()
            minus[j] -= h
            out_plus = _probe_output(model, plus, counter, f"x + h e_{j + 1}")
            out_minus = _probe_output(model, minus, counter, f"x - h e_{j + 1}")
            jac[:, j] = (out_plus - out_minus) / (2.0 * h)
    return jac


def _checked_tolerance(tolerance) -> float:
    tol = float(tolerance)
    if not tol >= 0:  # also rejects NaN
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    return tol


def compare_jacobians(a, b, tolerance: float) -> ComparisonResult:
    """Elementwise comparison of two matrices against an absolute tolerance (>= 0)."""
    mat_a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    mat_b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if mat_a.shape != mat_b.shape:
        raise DimensionMismatchError(f"shape mismatch: {mat_a.shape} vs {mat_b.shape}")
    tol = _checked_tolerance(tolerance)
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
