"""The CLI's model sidecar, ``<dir>/__jacprop_cache__/<name>.npz``, read while it holds the document's SHA-256.

Runs go through ``helpers.run_cli`` in process, with the JSON parses of
``model_io`` counted, so a test can tell a parse (a miss) from a rebuild
(a hit). Two tests start processes: one runs the CLI under Python's
development mode, and one imports the package in a fresh interpreter.
"""

import errno
import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from jacprop import ActivationSpec, LayerDef, LayeredModel, load_model, model_io, save_model
from helpers import INVALID, MINIMAL, RELU_EYE, overflowing_activation_model, run_cli, seeded_model

SMOOTH_INPUT = "0.1,-0.2,0.3,-0.4"


def smooth_model():
    return seeded_model(7, (4, 5, 5, 3), ("tanh", "leaky_relu", "softmax"), biased=(1, 3))


@pytest.fixture
def parses(monkeypatch):
    """The documents model_io parses as JSON from here on, one entry each."""
    seen = []
    original = model_io._parse_json

    def counting(text):
        seen.append(text)
        return original(text)

    monkeypatch.setattr(model_io, "_parse_json", counting)
    return seen


def sidecar_of(path):
    return path.parent / "__jacprop_cache__" / f"{path.name}.npz"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def invocations(tmp_path):
    smooth = write(tmp_path / "smooth.json", save_model(smooth_model()))
    relu = write(tmp_path / "relu.json", RELU_EYE)
    leaky = write(tmp_path / "leaky.json", save_model(overflowing_activation_model()))
    out = [("validate", "--model", smooth)]
    for fmt in ("csv", "json"):
        common = ("--format", fmt)
        out += [
            ("forward", "--model", smooth, "--input", SMOOTH_INPUT, "--verbose", *common),
            ("jacobian", "--model", smooth, "--input", SMOOTH_INPUT, *common),
            ("jacobian", "--model", smooth, "--input", SMOOTH_INPUT, "--layer", "2", *common),
            ("jacobian", "--model", relu, "--input", "0,5", *common),  # a singular hit's warning
            ("jacobian", "--model", relu, "--input", "0,5", "--strict-singularities", *common),  # exit 3
            ("check", "--model", smooth, "--input", SMOOTH_INPUT, *common),
            ("check", "--model", smooth, "--input", SMOOTH_INPUT, "--tolerance", "0", *common),  # exit 4
            ("report", "--model", smooth, "--input", SMOOTH_INPUT, "--top-k", "2", *common),
            ("report", "--model", relu, "--input", "0,5", "--strict-singularities", *common),  # exit 3
            ("forward", "--model", smooth, "--input", "0.1,zap,0.3,-0.4", *common),  # exit 1
            ("forward", "--model", leaky, "--input=-1e10", *common),  # exit 1
        ]
    return out


def test_cold_and_warm_runs_are_byte_identical(tmp_path, parses):
    codes = set()
    for argv in invocations(tmp_path):
        path = argv[argv.index("--model") + 1]
        shutil.rmtree(path.parent / "__jacprop_cache__", ignore_errors=True)
        cold = run_cli(*argv)
        assert sidecar_of(path).is_file() and len(parses) == 1, argv
        warm = run_cli(*argv)
        assert len(parses) == 1, argv  # the warm run rebuilt the model
        assert warm == cold, argv
        codes.add(cold.returncode)
        parses.clear()
    assert codes == {0, 1, 3, 4}


def test_same_size_edit_is_parsed_and_cached_again(tmp_path, parses):
    path = write(tmp_path / "m.json", MINIMAL)
    assert run_cli("forward", "--model", path, "--input", "1,1") == (0, "3\n", "")
    write(path, MINIMAL.replace("[[1, 2]]", "[[1, 3]]"))
    assert run_cli("forward", "--model", path, "--input", "1,1") == (0, "4\n", "")
    assert len(parses) == 2
    assert run_cli("forward", "--model", path, "--input", "1,1") == (0, "4\n", "")
    assert len(parses) == 2


def truncate(sidecar, tmp_path):
    data = sidecar.read_bytes()
    sidecar.write_bytes(data[: len(data) // 2])


def empty(sidecar, tmp_path):
    sidecar.write_bytes(b"")


def other_documents(sidecar, tmp_path):
    # a well-formed sidecar whose digest is another document's
    other = write(tmp_path / "other.json", MINIMAL.replace("[[1, 2]]", "[[5, 7]]"))
    model_io._read_model(str(other))
    shutil.copyfile(sidecar_of(other), sidecar)


def group_writable(sidecar, tmp_path):
    os.chmod(sidecar, 0o660)


def other_writable(sidecar, tmp_path):
    os.chmod(sidecar, 0o602)


def fifo(sidecar, tmp_path):
    sidecar.unlink()
    os.mkfifo(sidecar)


def bare_array(sidecar, tmp_path):
    with open(sidecar, "wb") as handle:
        np.save(handle, np.zeros((1, 2)))


def pickled(sidecar, tmp_path):
    with open(sidecar, "wb") as handle:
        np.save(handle, np.array([{"weights": 1}], dtype=object), allow_pickle=True)


def restored(**changes):
    """Damage that rewrites the sidecar's arrays, meta given as its decoded list."""

    def damage(sidecar, tmp_path):
        with np.load(sidecar) as stored:
            arrays = {name: stored[name] for name in stored.files}
        meta = json.loads(arrays["meta"].item())
        for name, change in changes.items():
            if name == "meta":
                meta = change(meta)
            else:
                arrays[name] = change(arrays[name])
        arrays["meta"] = np.array(json.dumps(meta))
        with open(sidecar, "wb") as handle:
            np.savez(handle, **arrays)

    return damage


DAMAGE = {
    "truncated": truncate,
    "empty": empty,
    "other-documents": other_documents,
    "group-writable": group_writable,
    "other-writable": other_writable,
    "fifo": fifo,
    "bare-npy-array": bare_array,
    "pickled": pickled,
    "wrong-digest": restored(meta=lambda m: [m[0], "0" * 64, *m[2:]]),
    "wrong-format-tag": restored(meta=lambda m: ["jacprop-sidecar-0", *m[1:]]),
    "meta-not-a-list": restored(meta=lambda m: {"digest": m[1]}),
    "spec-not-a-list": restored(meta=lambda m: [*m[:3], [7]]),
    "unknown-kind": restored(meta=lambda m: [*m[:3], [["swish", None, None, False]]]),
    "float32-weights": restored(w0=lambda w: w.astype(np.float32)),
    "big-endian-weights": restored(w0=lambda w: w.astype(">f8")),
    "1-d-weights": restored(w0=lambda w: w.ravel()),
    "missing-weights": restored(w0=lambda w: w, meta=lambda m: [*m[:3], m[3] * 2]),
    "non-finite-weights": restored(w0=lambda w: np.full_like(w, np.nan)),
    "broken-chain": restored(w0=lambda w: np.ones((1, 3))),
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_a_bad_sidecar_is_a_silent_miss_and_is_rewritten(tmp_path, parses, damage):
    path = write(tmp_path / "m.json", MINIMAL)
    argv = ("jacobian", "--model", path, "--input", "1,1")
    expected = run_cli(*argv)
    damage(sidecar_of(path), tmp_path)
    parses.clear()
    assert run_cli(*argv) == expected
    assert len(parses) == 1
    assert run_cli(*argv) == expected
    assert len(parses) == 1


def test_a_sidecar_of_another_user_is_a_miss(tmp_path, parses, monkeypatch):
    path = write(tmp_path / "m.json", MINIMAL)
    expected = run_cli("validate", "--model", path)
    monkeypatch.setattr(os, "geteuid", lambda: os.getuid() + 1)
    assert run_cli("validate", "--model", path) == expected
    assert len(parses) == 2


def test_a_file_named_like_the_cache_directory_is_left_alone(tmp_path, parses):
    path = write(tmp_path / "m.json", MINIMAL)
    (tmp_path / "__jacprop_cache__").write_text("mine")
    for _ in range(2):
        assert run_cli("forward", "--model", path, "--input", "1,1") == (0, "3\n", "")
    assert len(parses) == 2
    assert (tmp_path / "__jacprop_cache__").read_text() == "mine"


@pytest.mark.parametrize("where", ["makedirs", "savez"])
def test_a_failed_write_leaves_no_file(tmp_path, parses, monkeypatch, where):
    path = write(tmp_path / "m.json", MINIMAL)

    def fail(*args, **kwargs):
        if where == "savez":
            args[0].write(b"PK")  # part of an archive, then the disk is full
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os if where == "makedirs" else np, where, fail)
    assert run_cli("forward", "--model", path, "--input", "1,1") == (0, "3\n", "")
    cache = tmp_path / "__jacprop_cache__"
    assert not cache.exists() or list(cache.iterdir()) == []


def test_a_stream_gets_no_sidecar(tmp_path, parses):
    path = tmp_path / "m.json"
    os.mkfifo(path)
    for _ in range(2):
        writer = threading.Thread(target=path.write_text, args=(MINIMAL,))
        writer.start()
        assert run_cli("forward", "--model", path, "--input", "1,1") == (0, "3\n", "")
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert len(parses) == 2
    assert not (tmp_path / "__jacprop_cache__").exists()


@pytest.mark.parametrize(
    "data,code",
    [(INVALID.encode(), 2), (b"not json", 1), (b"\xff" + MINIMAL.encode(), 1), (MINIMAL.encode()[:-1], 1)],
    ids=["invalid-model", "syntax-error", "non-utf8", "truncated"],
)
def test_an_invalid_document_leaves_no_sidecar(tmp_path, data, code):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    for argv in (("validate", "--model", path), ("jacobian", "--model", path, "--input", "1,1")):
        assert run_cli(*argv).returncode == code
    assert not (tmp_path / "__jacprop_cache__").exists()


def rebuilt_models():
    yield smooth_model()
    yield seeded_model(3, (2, 3, 1), ("relu", "identity"), biased=(2,))
    yield seeded_model(5, (3, 4, 4, 2), ("softplus", "logistic", "tanh"), biased=(1, 2, 3))
    policies = (
        LayerDef(np.array([[-0.0, 1e-300], [2.5, -1e300]]), ActivationSpec("relu", relu_zero_policy="derivative_one")),
        LayerDef(np.array([[1.0, 2.0, 3.0]]), ActivationSpec("leaky_relu", alpha=0, relu_zero_policy="reject"), True),
    )
    yield LayeredModel(layers=policies, input_dim=2)


@pytest.mark.parametrize("model", rebuilt_models())
def test_a_rebuilt_model_equals_a_fresh_parse(tmp_path, parses, model):
    text = save_model(model)
    path = str(write(tmp_path / "m.json", text))
    assert model_io._read_model(path) == model
    rebuilt = model_io._read_model(path)
    assert len(parses) == 1
    fresh = load_model(text)
    assert rebuilt == fresh
    assert rebuilt._safe_input == fresh._safe_input
    assert all(not layer.weights.flags.writeable for layer in rebuilt.layers)


def test_cold_and_warm_subprocesses_agree_in_development_mode(tmp_path):
    # development mode reports unclosed files on stderr
    path = write(tmp_path / "smooth.json", save_model(smooth_model()))
    for argv in (("validate", "--model", path), ("report", "--model", path, "--input", SMOOTH_INPUT)):
        runs = [
            subprocess.run([sys.executable, "-X", "dev", "-m", "jacprop", *map(str, argv)], capture_output=True, text=True)
            for _ in range(2)
        ]
        assert sidecar_of(path).is_file()
        assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [(0, runs[0].stdout, "")] * 2, argv


def test_importing_the_package_loads_no_hashlib():
    # _read_model imports hashlib where the CLI reads a document: OpenSSL's libcrypto, loaded with it, slows
    # library calls in the same process
    code = "import sys, numpy; before = set(sys.modules); import jacprop.cli; print(sorted(set(sys.modules) - before))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert "jacprop.cli" in loaded
    assert "'hashlib'" not in loaded and "'_hashlib'" not in loaded


# the functions that hold load_model's rules and the sidecar layout; a change to any of them must come with a
# new _SIDECAR_FORMAT, or old sidecars would rebuild models the new rules parse differently
SIDECAR_RULES = (
    "_parse_json", "_parse_int", "_unique_keys", "_build_model", "_require_keys", "_parse_weights", "_all_numbers",
    "_parse_activation", "fold_bias", "_write_sidecar", "_from_sidecar",
)


def test_the_format_tag_is_pinned_with_the_rules_it_names():
    # the source text, not ast.dump, whose output differs between Python versions
    source = "".join(inspect.getsource(getattr(model_io, name)) for name in SIDECAR_RULES)
    pinned = (model_io._SIDECAR_FORMAT, hashlib.sha256(source.encode("utf-8")).hexdigest())
    assert pinned == ("jacprop-sidecar-1", "1cb545e517a91138d7259b0ceb96db531191025232268877a93e078b8d19e12b"), (
        "the source of load_model's rules or of the sidecar layout changed: bump model_io._SIDECAR_FORMAT if a "
        "rule or the layout changed, and keep it if the edit was cosmetic; either way, re-pin the tag and digest here"
    )
