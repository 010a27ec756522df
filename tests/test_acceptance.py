"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
Tolerances are pinned here and nowhere else.
"""

import subprocess
import sys
import time

import numpy as np

from jacprop import (
    ActivationSpec,
    EvalCounter,
    FDConfig,
    SingularityError,
    activation_apply,
    activation_jacobian,
    build_report,
    emit_matrix,
    finite_difference_jacobian,
    forward,
    jacobian_at_layer,
    jacobian_forward,
    load_model,
    parse_matrix,
    prefix_model,
    save_model,
    suffix_model,
)
from helpers import (
    INVALID,
    MINIMAL,
    RELU_EYE,
    fd_activation_jacobian,
    make_spec,
    random_smooth_model,
    seeded_model,
)


def _criterion(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed {suffix}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        model, x = random_smooth_model(seed)
        exact = jacobian_forward(model, x).full
        estimate = finite_difference_jacobian(model, x, FDConfig(step=1e-5, scheme="central"))
        bound = 1e-5 * (1.0 + np.max(np.abs(exact)))
        diff = float(np.max(np.abs(exact - estimate)))
        worst = max(worst, diff / bound)
        if diff > bound:
            _criterion(1, "oracle equivalence", False, f"seed {seed}: {diff:.3e} > {bound:.3e}")
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "oracle equivalence",
        worst <= 1.0 and elapsed < 10.0,
        f"200 models, worst diff/bound {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_linear_exactness():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(10_000 + seed)
        depth = int(rng.integers(2, 6))
        widths = [int(w) for w in rng.integers(1, 9, size=depth + 1)]
        model = seeded_model(10_000 + seed, widths, ["identity"] * depth)
        x = rng.uniform(-5.0, 5.0, size=widths[0])
        product = np.eye(model.input_dim)
        for layer in model.layers:
            product = layer.weights @ product
        diff = float(np.max(np.abs(jacobian_forward(model, x).full - product)))
        worst = max(worst, diff)
    _criterion(2, "linear exactness", worst <= 1e-12, f"50 models, worst {worst:.3e}")


def test_criterion_3_chain_rule_consistency():
    worst = 0.0
    checked = 0
    seed = 20_000
    while checked < 50:
        model, x = random_smooth_model(seed)
        seed += 1
        if model.layer_count < 3:
            continue
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, model.layer_count))
        a_k = forward(model, x)[k - 1]
        full = jacobian_forward(model, x).full
        prefix_jac = jacobian_forward(prefix_model(model, k), x).full
        suffix_jac = jacobian_forward(suffix_model(model, k), a_k).full
        diff = float(np.max(np.abs(suffix_jac @ prefix_jac - full)))
        worst = max(worst, diff)
        checked += 1
    _criterion(3, "chain-rule consistency", worst <= 1e-10, f"50 splits, worst {worst:.3e}")


def test_criterion_4_intermediate_layer_byproduct():
    worst = 0.0
    for seed in range(30_000, 30_020):
        model, x = random_smooth_model(seed)
        trace = jacobian_forward(model, x)
        for layer in range(2, model.layer_count + 1):
            truncated = jacobian_forward(prefix_model(model, layer), x).full
            diff = float(np.max(np.abs(jacobian_at_layer(trace, layer) - truncated)))
            worst = max(worst, diff)
    _criterion(4, "intermediate-layer byproduct", worst <= 1e-12, f"20 models, worst {worst:.3e}")


def test_criterion_5_evaluation_counts():
    ok = True
    details = []
    for m in (1, 4, 16, 64):
        model = seeded_model(m, (m, 5, 3), ("tanh", "logistic"))
        traversals = model.layer_count - 1

        engine_counter = EvalCounter()
        jacobian_forward(model, np.zeros(m), counter=engine_counter)
        ok &= engine_counter.weighted_input_evals == traversals
        ok &= engine_counter.model_evals == 1

        fd_counter = EvalCounter()
        finite_difference_jacobian(model, np.zeros(m), FDConfig(scheme="forward"), counter=fd_counter)
        ok &= fd_counter.model_evals == m + 1
        ok &= fd_counter.weighted_input_evals == (m + 1) * traversals

        central_counter = EvalCounter()
        finite_difference_jacobian(model, np.zeros(m), FDConfig(scheme="central"), counter=central_counter)
        ok &= central_counter.model_evals == 2 * m
        details.append(f"m={m}: engine {engine_counter.weighted_input_evals}, fd {fd_counter.model_evals}")
    _criterion(5, "evaluation counts", ok, "; ".join(details))


def test_criterion_6_activation_correctness():
    rng = np.random.default_rng(606)
    worst = 0.0
    worst_row_sum = 0.0
    kinds = ("identity", "logistic", "tanh", "softplus", "relu", "leaky_relu", "softmax")
    for kind in kinds:
        spec = make_spec(kind)
        checked = 0
        while checked < 1000:
            z = rng.uniform(-10.0, 10.0, size=int(rng.integers(1, 7)))
            if kind in ("relu", "leaky_relu"):
                z = z[np.abs(z) > 1e-4]
                if z.size == 0:
                    continue
            exact = activation_jacobian(spec, z).matrix
            estimate = fd_activation_jacobian(spec, z, h=1e-6)
            worst = max(worst, float(np.max(np.abs(exact - estimate))))
            if kind == "softmax":
                worst_row_sum = max(worst_row_sum, float(np.max(np.abs(exact.sum(axis=1)))))
            checked += 1
    fd_ok = worst <= 1e-6 and worst_row_sum <= 1e-12

    relu_ok = True
    zero_spec = ActivationSpec("relu", relu_zero_policy="derivative_zero")
    one_spec = ActivationSpec("relu", relu_zero_policy="derivative_one")
    reject_spec = ActivationSpec("relu", relu_zero_policy="reject")
    result = activation_jacobian(zero_spec, [0.0])
    relu_ok &= result.matrix[0, 0] == 0.0 and result.singular_hit
    result = activation_jacobian(one_spec, [0.0])
    relu_ok &= result.matrix[0, 0] == 1.0 and result.singular_hit
    try:
        activation_jacobian(reject_spec, [0.0])
        relu_ok = False
    except SingularityError as exc:
        relu_ok &= exc.coordinate == 1
    # value function is never rejected at 0
    relu_ok &= activation_apply(reject_spec, [0.0])[0] == 0.0

    _criterion(
        6,
        "activation correctness",
        fd_ok and relu_ok,
        f"worst fd diff {worst:.3e}, softmax row sums {worst_row_sum:.3e}; "
        f"relu policies {'ok' if relu_ok else 'broken'}",
    )


def test_criterion_7_softmax_column_identity():
    worst = 0.0
    for seed in range(40_000, 40_020):
        model, x = random_smooth_model(seed, softmax_last=True)
        full = jacobian_forward(model, x).full
        worst = max(worst, float(np.max(np.abs(full.sum(axis=0)))))
    _criterion(7, "softmax column identity", worst <= 1e-10, f"20 models, worst {worst:.3e}")


def test_criterion_8_round_trip_fidelity():
    ok = True
    for seed in range(50_000, 50_020):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(2, 5))
        widths = [int(w) for w in rng.integers(1, 9, size=depth + 1)]
        kinds = [("tanh", "logistic", "softplus", "relu", "leaky_relu")[int(k)] for k in rng.integers(0, 5, size=depth)]
        biased = tuple(pos for pos in range(1, depth + 1) if rng.random() < 0.5)
        model = seeded_model(seed, widths, kinds, biased=biased)
        x = rng.uniform(-1.0, 1.0, size=widths[0])

        again = load_model(save_model(model))
        ok &= np.array_equal(forward(model, x)[-1], forward(again, x)[-1])
        ok &= np.array_equal(jacobian_forward(model, x).full, jacobian_forward(again, x).full)
        ok &= save_model(model) == save_model(again)

        dump = emit_matrix(jacobian_forward(model, x).full)
        ok &= emit_matrix(parse_matrix(dump)) == dump
    _criterion(8, "round-trip fidelity", ok, "20 models, bit-exact forwards and dumps")


def test_criterion_9_sensitivity_properties():
    ok = True
    rng = np.random.default_rng(909)
    for _ in range(100):
        matrix = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        report = build_report(matrix)

        perm = rng.permutation(matrix.shape[1])
        permuted = build_report(matrix[:, perm])
        ok &= np.allclose(permuted.feature_scores, report.feature_scores[perm], rtol=0, atol=0)
        relabeled = tuple(int(perm[i - 1]) + 1 for i in permuted.feature_ranking)
        if len(set(np.round(report.feature_scores, 12))) == matrix.shape[1]:
            ok &= relabeled == report.feature_ranking

        scale = float(rng.uniform(0.5, 100.0))
        scaled = build_report(scale * matrix)
        ok &= scaled.feature_ranking == report.feature_ranking
        ok &= scaled.output_ranking == report.output_ranking

    tied = build_report(np.array([[3.0, 3.0, 1.0], [0.0, 0.0, 0.0]]))
    ok &= tied.feature_ranking == (1, 2, 3)
    ok &= build_report(np.zeros((3, 4))).feature_ranking == (1, 2, 3, 4)
    _criterion(9, "sensitivity properties", ok, "100 random matrices + constructed ties")


def test_criterion_10_cli_contract(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    minimal = write("minimal.json", MINIMAL)
    invalid = write("invalid.json", INVALID)
    relu = write("relu.json", RELU_EYE)
    smooth = write("smooth.json", save_model(seeded_model(7, (4, 5, 5, 3), ("tanh", "tanh", "softmax"))))
    x4 = "0.1,-0.2,0.3,-0.4"

    def run(*args):
        return subprocess.run([sys.executable, "-m", "jacprop", *args], capture_output=True, text=True)

    cases = [
        (("validate", "--model", minimal), 0),
        (("validate", "--model", invalid), 2),
        (("validate", "--model", f"{tmp_path}/ghost.json"), 1),
        (("forward", "--model", minimal, "--input", "1,1"), 0),
        (("forward", "--model", minimal, "--input", "1,oops"), 1),
        (("jacobian", "--model", minimal, "--input", "1,1"), 0),
        (("jacobian", "--model", invalid, "--input", "1,1"), 2),
        (("jacobian", "--model", relu, "--input", "0,5", "--strict-singularities"), 3),
        (("check", "--model", smooth, "--input", x4), 0),
        (("check", "--model", smooth, "--input", x4, "--tolerance", "1e-300"), 4),
        (("report", "--model", smooth, "--input", x4), 0),
    ]
    ok = True
    details = []
    for args, expected in cases:
        result = run(*args)
        ok &= result.returncode == expected
        if result.returncode != expected:
            details.append(f"{args[0]}: got {result.returncode}, want {expected}")
        if result.returncode == 0 and args[0] != "validate":
            rows = [line.split(",") for line in result.stdout.strip("\n").split("\n")]
            rectangular = len({len(r) for r in rows}) == 1
            ok &= rectangular
            if not rectangular:
                details.append(f"{args[0]}: stdout not rectangular CSV")

    plain = run("jacobian", "--model", smooth, "--input", x4)
    with_layer = run("jacobian", "--model", smooth, "--input", x4, "--layer", "4")
    ok &= plain.stdout == with_layer.stdout and plain.stdout != ""
    _criterion(10, "CLI contract", ok, "; ".join(details) if details else "exit codes + stream purity")
