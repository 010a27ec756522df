"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

Kept out of the repository's default test collection (the file name does
not match test_*.py) because the smoke runs take a few minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import reference as R  # noqa: E402
import tracer as T  # noqa: E402
from workloads import WORKLOADS, Request, tiny_sweep  # noqa: E402


def _tree(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    first = WORKLOADS[name](5, tmp_path / "a")
    second = WORKLOADS[name](5, tmp_path / "b")
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert a.keys() == b.keys() and all(a[k] == b[k] for k in a)
    cycles_a, cycles_b = first.cycles(), second.cycles()
    for _ in range(3):
        # CLI argv hold the workdir path; compare everything else
        assert [(r.kind, r.model, r.inst, r.layer, r.fmt, r.expect) for r in next(cycles_a)] == [
            (r.kind, r.model, r.inst, r.layer, r.fmt, r.expect) for r in next(cycles_b)
        ]
    other = _tree(WORKLOADS[name](6, tmp_path / "c").workdir)
    assert any(other.get(k) != v for k, v in a.items())


def test_reference_reproduces_readme_jacobian():
    R.readme_sanity()


def test_reference_matches_seed7_prefix_chain():
    from workloads import seed7_doc

    model = R.RefModel(seed7_doc())
    ref = R.Reference(model, [0.1, -0.2, 0.3, -0.4])
    # J[4] = F[4] J[3]: the output-side product agrees with the input-side one
    forward_order = R.factor(model.layers[2], ref.zs[2]) @ ref.jac[3]
    np.testing.assert_allclose(ref.full, forward_order, atol=1e-15)
    assert ref.jac[2].shape == (5, 4) and ref.full.shape == (3, 4)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    return tiny_sweep(3, tmp_path_factory.mktemp("tiny"))


def _regular(tiny):
    return next(key for key, ref in tiny.refs.items() if len(ref.acts) >= 4)


def test_checker_flags_one_entry_off_by_1e_6(tiny):
    key = _regular(tiny)
    ref = tiny.refs[key]
    good = ref.jac[2].copy()
    R.verify_library(tiny, Request("prefix", *key, layer=2), "ok", (good, ()))
    bad = good.copy()
    bad[-1, 0] += 1e-6
    with pytest.raises(R.Mismatch):
        R.verify_library(tiny, Request("prefix", *key, layer=2), "ok", (bad, ()))
    per_entry = ref.full.copy()
    per_entry[0, -1] += 1e-6
    payload = (ref.feature_scores, ref.output_scores, tuple(np.argsort(-ref.feature_scores, kind="stable") + 1),
               tuple(np.argsort(-ref.output_scores, kind="stable") + 1), per_entry, ())
    with pytest.raises(R.Mismatch):
        R.verify_library(tiny, Request("report", *key), "ok", payload)


def test_checker_flags_perturbed_cli_csv(tiny):
    key = _regular(tiny)
    ref = tiny.refs[key]
    text = "\n".join(",".join("%.17g" % v for v in row) for row in ref.full) + "\n"
    R.check_cli_output("jacobian", "csv", text, ref)
    perturbed = ref.full.copy()
    perturbed[0, 0] += 1e-6
    text = "\n".join(",".join("%.17g" % v for v in row) for row in perturbed) + "\n"
    with pytest.raises(R.Mismatch):
        R.check_cli_output("jacobian", "csv", text, ref)


def test_checker_flags_ranking_that_puts_a_lower_score_first():
    scores = np.array([0.5, 0.9, 0.1])
    R.check_ranking([2, 1, 3], scores, 1e-12, "ok")
    with pytest.raises(R.Mismatch):
        R.check_ranking([1, 2, 3], scores, 1e-12, "swapped")


def test_checker_flags_wrong_error_type_layer_and_coordinate():
    want = ("SingularityError", 2, 3)
    msg = "layer 2: relu differentiated at its singular point z=0 (coordinate 3)"
    R.check_error("SingularityError", msg, 2, 3, want)
    for got in (
        ("NonFiniteError", msg, None, None),
        ("SingularityError", msg.replace("coordinate 3", "coordinate 4"), 2, 4),
        ("SingularityError", msg.replace("layer 2", "layer 3"), 3, 3),
    ):
        with pytest.raises(R.Mismatch):
            R.check_error(*got, want)
    with pytest.raises(R.Mismatch):
        R.verify_library(None, Request("report", expect=want), "ok", ())


def test_checker_flags_wrong_exit_code(tiny):
    key = _regular(tiny)
    req = Request("jacobian", 0, key[1], argv=("jacobian",), fmt="csv", expect=(3, ("layer 2", "coordinate 7")))
    stderr = "error: layer 2: relu differentiated at its singular point z=0 (coordinate 7)\n"

    class One:
        refs = {(0, key[1]): tiny.refs[key]}

    R.verify_cli(One, req, 3, "", stderr)
    with pytest.raises(R.Mismatch):
        R.verify_cli(One, req, 1, "", stderr)
    with pytest.raises(R.Mismatch):
        R.verify_cli(One, req, 3, "", stderr.replace("coordinate 7", "coordinate 8"))


def test_self_time_on_synthetic_span_tree():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25]
    spans = [
        [0, 0, 100, -1, 1],
        [1, 10, 40, 0, 1],
        [2, 15, 25, 1, 1],
        [1, 50, 90, 0, 1],
        [3, 0, 7, -1, T.SETUP],
    ]
    assert T.self_times(spans) == [30, 20, 10, 40, 7]
    summary = T.Summary(["root", "a", "c", "load"], spans, {1})
    assert summary.count["a"] == 2 and summary.inclusive["a"] == 70 and summary.own["a"] == 60
    assert "load" in summary.entered and summary.count["load"] == 0


def test_tracer_wraps_every_module_reference_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import jacprop
    import jacprop.cli
    import jacprop.engine

    original = jacprop.engine.activation_apply
    tr = T.Tracer()
    names = tr.install(jacprop)
    wrapped = jacprop.engine.activation_apply
    assert tr.install(jacprop) == names and jacprop.engine.activation_apply is wrapped
    try:
        assert "activations.activation_apply" in names
        assert jacprop.engine.activation_apply is not original
        assert jacprop.cli.jacobian_forward is jacprop.engine.jacobian_forward is jacprop.jacobian_forward
        model = jacprop.load_model(json.dumps(R.README_NET))
        tr.request = 7
        jacprop.jacobian_forward(model, [1.0, 1.0])
    finally:
        tr.uninstall()
    assert jacprop.engine.activation_apply is original
    seen = [tr.names[s[0]] for s in tr.spans if s[4] == 7]
    assert {"engine.jacobian_forward", "model.validate_model", "activations.activation_apply",
            "activations.softmax_jacobian"} <= set(seen)
    assert seen.count("engine.jacobian_forward") == 1


def test_compare_verdicts():
    parent = [(s, 100.0 + s) for s in range(10)]
    faster = [(s, 80.0 + s) for s in range(10)]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    slower = [(s, 130.0 + s) for s in range(10)]
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "worse"
    same = [(s, 100.0 + (s * 7) % 10) for s in range(10)]
    assert compare.verdict(parent, same, "lower", 0.1)[0] == "unchanged"
    noisy = [(s, 100.0 * (1 + s % 2)) for s in range(10)]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_at_minimal_length(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "11", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    # every metric is a number, traced ones too: layers a workload never reaches come from a probe
    assert all(type(v["value"]) in (int, float) and math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "tiny-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
