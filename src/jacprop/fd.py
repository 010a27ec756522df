"""Finite-difference Jacobian estimation, the independent verification baseline.

Deliberately knows nothing about the one-pass engine: it only evaluates
the model, perturbing one input coordinate at a time. The forward scheme
costs exactly m+1 model evaluations, the central scheme exactly 2m.

The probes are stacked as the columns of a matrix and go through the
model's one value pass in column blocks of bounded size (``_BLOCK_BYTES``),
so a check on a wide input needs memory of the order of the budget, not
of m^2. Only a block that holds a non-finite value is evaluated again one
probe at a time, which names the first probe that overflows and the
layer, exactly as evaluating every probe on its own would.
"""

from dataclasses import dataclass

import numpy as np

from .activations import _all_finite, _as_matrix, _as_real, _checked_real
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


_DEFAULT_CONFIG = FDConfig()

# bytes of one block's instances, weighted inputs and activations (see _block_columns)
_BLOCK_BYTES = 1 << 20


def _block_columns(model: LayeredModel) -> int:
    """How many probes one block holds: the pass over one column keeps at most every
    layer's input (bias row included), z and a, of 8 bytes each, which the model counted when it was built."""
    return max(1, _BLOCK_BYTES // model._column_bytes)


def _probe_outputs(model: LayeredModel, vec: np.ndarray, rows, values, labels, counter) -> np.ndarray:
    """F at every probe, as the columns of one matrix; probe i is x with coordinate rows[i] set to values[i].

    Each probe is built once, as a column of its block, and the block goes
    through the value pass. A block with a non-finite value passes its
    columns again one at a time, in order, each as a vector: the first
    probe to overflow is named (``labels(i)``) with its layer, and the
    counter counts just the evaluations made that way.
    """
    size = _block_columns(model)
    blocks = []
    for start in range(0, len(rows), size):
        block_rows = rows[start : start + size]
        block = vec.repeat(len(block_rows)).reshape(-1, len(block_rows))
        block[block_rows, np.arange(len(block_rows))] = values[start : start + size]
        try:
            for *_, outputs in _layer_values(model, block):
                pass
        except NonFiniteError:
            replayed = []
            # each column as a C-contiguous copy: a strided view gives .dot other bits than a probe of its own
            for i, probe in enumerate(block.T, start=start):
                try:
                    *_, (_, _, _, output) = _layer_values(model, probe.copy(), counter)
                except NonFiniteError as exc:
                    raise NonFiniteError(f"non-finite model output at probe {labels(i)}: {exc}") from None
                replayed.append(output)
            outputs = np.column_stack(replayed)
        else:
            # counted once the block is known finite, as k passes over L-1 layers; a replayed block
            # counts its own probes
            if counter is not None:
                counter.count_model_eval(len(block_rows))
                counter.count_weighted_input(len(block_rows) * len(model.layers))
        blocks.append(outputs)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def finite_difference_jacobian(
    model: LayeredModel, x, cfg: FDConfig | None = None, counter: EvalCounter | None = None
) -> np.ndarray:
    """Estimate the Jacobian at x by perturbing one coordinate at a time.

    Forward scheme: column j = (F(x + h e_j) - F(x)) / ((x + h)_j - x_j).
    Central scheme: column j = (F(x + h e_j) - F(x - h e_j)) / ((x + h)_j - (x - h)_j).
    The divisor is the spacing the probes have, h or 2h only where
    x_j +- h is exact. Raises ``ValueError`` naming the first input
    coordinate (1-based) where the step vanishes in rounding, before any
    probe is evaluated; :class:`NonFiniteError` naming the first probe
    (forward: base point, x + h e_1, x + h e_2, ...; central: x + h e_1,
    x - h e_1, x + h e_2, ...) whose output overflows, and its layer; and
    :class:`NonFiniteError` naming the first column of the estimate that
    is not finite, for instance when two finite probe outputs differ by
    more than float64 can hold.
    """
    cfg = _DEFAULT_CONFIG if cfg is None else cfg
    vec, _ = _checked_input(model, x)
    h = cfg.step
    m = vec.shape[0]
    # every probe reports its own overflow, and the estimate is checked as a whole
    with np.errstate(over="ignore", invalid="ignore"):
        # an x_j + h that overflows is inf, and its probe reports it
        high = vec + h
        # each scheme's low side, its probes in the order evaluating them one at a time takes, their labels,
        # and the two column sets its estimate subtracts
        if cfg.scheme == "forward":
            # the base point (coordinate 1 set to itself), then x + h e_j
            low = vec
            rows = np.concatenate(([0], np.arange(m)))
            values = np.concatenate((vec[:1], high))

            def labels(i: int) -> str:
                return f"x + h e_{i}" if i else "base point"

            plus, minus = slice(1, None), slice(0, 1)
        else:
            # x + h e_j, then x - h e_j
            low = vec - h
            rows = np.arange(m).repeat(2)
            values = np.array((high, low)).T.ravel()

            def labels(i: int) -> str:
                return f"x {'+-'[i % 2]} h e_{i // 2 + 1}"

            plus, minus = slice(0, None, 2), slice(1, None, 2)
        spacing = high - low
        if np.count_nonzero(spacing) < m:
            j = int(np.flatnonzero(spacing == 0.0)[0])
            raise ValueError(f"step {h!r} vanishes in rounding at input coordinate {j + 1} (value {float(vec[j])!r})")
        outputs = _probe_outputs(model, vec, rows, values, labels, counter)
        estimate = (outputs[:, plus] - outputs[:, minus]) / spacing
    if not _all_finite(estimate):
        column = int(np.flatnonzero(~np.isfinite(estimate).all(axis=0))[0]) + 1
        raise NonFiniteError(f"non-finite finite-difference estimate in column {column}")
    return estimate


def _checked_tolerance(tolerance) -> float:
    # inf is a tolerance every finite difference meets; NaN fails v >= 0
    return _checked_real(tolerance, "tolerance", ">= 0", lambda v: v >= 0)


def compare_jacobians(a, b, tolerance: float) -> ComparisonResult:
    """Elementwise comparison of two finite matrices against an absolute tolerance (>= 0).

    A vector or a scalar is one row. Both arguments are cast to float64
    before either one's shape is checked, so a ValueError of ``b`` (a
    string, complex entries) comes before ``a``'s shape. Raises
    :class:`DimensionMismatchError` naming the argument and its shape
    when it has more than 2 dimensions, naming the shapes when they
    differ or hold no entries, and :class:`NonFiniteError` naming the
    argument (``a`` or ``b``) that holds a NaN or an infinity: no
    difference to it is meaningful.
    """
    # both are cast before either shape is checked, so b's cast error comes before a's shape
    mat_a, mat_b = _as_real(a, "a"), _as_real(b, "b")
    mat_a, mat_b = _as_matrix(mat_a, "a"), _as_matrix(mat_b, "b")
    if mat_a.shape != mat_b.shape:
        raise DimensionMismatchError(f"shape mismatch: {mat_a.shape} vs {mat_b.shape}")
    if mat_a.size == 0:
        raise DimensionMismatchError(f"matrices of shape {mat_a.shape} have no entries to compare")
    tol = _checked_tolerance(tolerance)
    for name, matrix in (("a", mat_a), ("b", mat_b)):
        if not _all_finite(matrix):
            raise NonFiniteError(f"{name} contains non-finite entries")
    diff = np.abs(mat_a - mat_b)
    # the first largest entry in row-major order, as np.unravel_index(np.argmax(diff), shape) gives it
    row, col = divmod(int(diff.argmax()), diff.shape[1])
    max_abs = float(diff[row, col])
    max_rel = float(np.maximum.reduce(diff / (1.0 + np.abs(mat_a)), axis=None))
    return ComparisonResult(
        max_abs_diff=max_abs,
        max_rel_diff=max_rel,
        argmax_location=(row + 1, col + 1),
        within_tolerance=bool(max_abs <= tol),
    )
