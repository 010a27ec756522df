"""jacprop benchmark: one workload, one run, every metric with its unit.

    python3 perfbench/run.py --workload tiny-sweep --seed 1 --seconds 20 --trace 0

Run from a checkout that holds ``src/jacprop``; the program is imported
from there, never from an installed copy. One client drives one serving
process in a closed loop: each request is sent after the previous reply
is verified. The reference data stays in this client process.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes a
separate run that reports the per-layer metrics: each cycle of requests
runs untraced, then again with every public jacprop function wrapped.
Layers the workload never reaches are measured on a short probe.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Each run also leaves a record in perfbench/out/runs/ for
compare.py. See perfbench/README.md for the workloads and metrics.
"""

import os

# Fixed before numpy loads, here and in every serving process, so both
# commits of a comparison run with identical BLAS settings.
BLAS_THREADS = 1
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference as R  # noqa: E402
import tracer as T  # noqa: E402
from worker import blas_threads  # noqa: E402
from workloads import PROBES, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
TRACED_REQUESTS = 3000  # bounds the spans a traced run keeps in memory
STARTUP_SAMPLES = 5
PROBE_SECONDS = 1.0

END_TO_END = {
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "model_io.load_ms": "ms",
    "model_io.emit_ms_per_req": "ms",
    "model.validate_calls_per_req": "count",
    "model.validate_ms_per_req": "ms",
    "model.forward_self_ms_per_req": "ms",
    "activations.apply_calls_per_req": "count",
    "activations.deriv_calls_per_req": "count",
    "activations.self_ms_per_req": "ms",
    "engine.self_ms_per_req": "ms",
    "engine.share_of_req": "ratio",
    "engine.weighted_input_evals_per_req": "count",
    "engine.retained_mb_per_req": "MB",
    "fd.self_ms_per_check": "ms",
    "fd.model_evals_per_check": "count",
    "fd.compare_ms_per_check": "ms",
    "sensitivity.report_ms_per_req": "ms",
    "cli.python_start_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.jacprop_import_ms": "ms",
    "cli.forward_ms": "ms",
    "cli.jacobian_ms": "ms",
    "cli.check_ms": "ms",
    "cli.report_ms": "ms",
    "cli.unaccounted_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.update(THREAD_ENV)
    return env


@dataclass
class Sample:
    request: object
    ns: int
    error: str | None  # why the output missed its reference; None when verified


# ---------------------------------------------------------------- library workloads


class Worker:
    """A serving process; set-up time is from spawn to its ready message."""

    def __init__(self, args, env):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC), *map(str, args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )
        try:
            pickle.load(self.proc.stdout)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def call(self, msg):
        pickle.dump(msg, self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def library_message(wl, req):
    if req.kind == "load":
        return ("run", "load", req.model, None, None, wl.bad_docs[req.model])
    return ("run", req.kind, req.model, wl.instances[req.model][req.inst], req.layer, None)


def drive(send, verify, cycles, seconds, interlude=None, at=()):
    """Closed loop over whole cycles, stopping at the first cycle boundary after ``seconds``.

    Whole cycles keep the request mix the same in every run.
    ``send(req)`` returns (status, payload, ns); verification happens
    between requests, outside every timed interval. ``interlude()`` runs
    between two requests each time the loop's own time passes a point of
    ``at``; its time does not count. Returns the cycles run, each a list
    of samples.
    """
    done = []
    points = sorted(at)
    start = time.perf_counter()
    paused = 0.0
    for cycle in cycles:
        samples = []
        for req in cycle:
            status, payload, ns = send(req)
            try:
                verify(req, status, payload)
                error = None
            except Exception as exc:  # any verification failure fails the request, not the run
                error = f"{type(exc).__name__}: {exc}"
            samples.append(Sample(req, ns, error))
            if points and time.perf_counter() - start - paused >= points[0]:
                points.pop(0)
                pause_start = time.perf_counter()
                interlude()
                paused += time.perf_counter() - pause_start
        done.append(samples)
        if time.perf_counter() - start - paused >= seconds:
            break
    return done


def setup_points(seconds):
    """When set-up is sampled during a run: spread out, because the CPU speed
    of a shared machine changes within seconds, and samples taken back to
    back would all see the same speed."""
    return [seconds * k / (SETUP_SAMPLES - 1) for k in range(1, SETUP_SAMPLES - 1)]


def flat(cycles):
    return [s for cycle in cycles for s in cycle]


def drive_paired(send, verify, cycles, seconds, worker):
    """Each cycle twice in a row, once untraced and once traced.

    Both runs of a pair see the same machine speed, and the order
    alternates between pairs, so neither drift nor warm-up biases the
    tracing overhead. Stops at the first pair boundary after ``seconds``
    or TRACED_REQUESTS traced requests. Returns (untraced, traced)
    samples in the same request order.
    """
    plain, traced = [], []
    start = time.perf_counter()
    for count, cycle in enumerate(cycles, start=1):
        for on in (count % 2 == 0, count % 2 == 1):
            worker.call(("trace", on))
            (traced if on else plain).extend(flat(drive(send, verify, [cycle], 0)))
        if time.perf_counter() - start >= seconds or len(traced) >= TRACED_REQUESTS:
            break
    worker.call(("trace", False))
    return plain, traced


def run_library(wl, seconds, trace, spans_path):
    env = child_env()
    models_dir = wl.docs[0].parent
    out = {}

    def send_with(worker):
        def send(req):
            return worker.call(library_message(wl, req))
        return send

    def verify(req, status, payload):
        R.verify_library(wl, req, status, payload)

    if not trace:
        def probe():
            worker = Worker([models_dir, "--probe"], env)
            worker.close()
            setup.append(worker.setup_s)

        worker = Worker([models_dir], env)
        setup = [worker.setup_s]
        try:
            cycles = drive(send_with(worker), verify, wl.cycles(), seconds, probe, setup_points(seconds))
            while len(setup) < SETUP_SAMPLES:
                probe()
            fin = worker.call(("finish", None))
        finally:
            worker.close()
        out["samples"] = flat(cycles)
        out["setup"] = setup
        out["peak_rss_mb"] = fin["maxrss_kb"] / 1024.0
        out["blas_threads"] = fin["blas_threads"]
        return out

    worker = Worker([models_dir, "--trace"], env)
    try:
        plain, traced = drive_paired(send_with(worker), verify, wl.cycles(), seconds, worker)
        fin = worker.call(("finish", str(spans_path)))
    finally:
        worker.close()
    out["samples"] = plain + traced
    out["blas_threads"] = fin["blas_threads"]
    out["layers"], out["traced_ms"] = traced_metrics(spans_path, fin, plain, traced, setup_loads=True)
    return out


# ---------------------------------------------------------------- CLI workload


def invoke(argv, env, scratch: Path):
    """Run the jacprop CLI once; returns (code, stdout, stderr, seconds, peak RSS kB)."""
    with open(scratch / "stdout", "w+b") as out, open(scratch / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "jacprop", *argv], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), elapsed, usage.ru_maxrss


def startup_costs(env):
    """Interpreter start, numpy import and jacprop import, each from its own runs."""
    def wall(code):
        times = []
        for _ in range(STARTUP_SAMPLES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    bare, numpy_only, both = wall("pass"), wall("import numpy"), wall("import numpy, jacprop")
    return {
        "cli.python_start_ms": bare,
        "cli.numpy_import_ms": numpy_only - bare,
        "cli.jacprop_import_ms": both - numpy_only,
    }


def run_cli(wl, seconds, trace, spans_path):
    env = child_env()
    scratch = wl.workdir
    peak = []
    out = {}

    def send(req):
        code, stdout, stderr, elapsed, rss = invoke(req.argv, env, scratch)
        peak.append(rss)
        return "done", (code, stdout, stderr), int(elapsed * 1e9)

    def verify(req, status, payload):
        R.verify_cli(wl, req, *payload)

    if not trace:
        def probe():
            code, stdout, stderr, elapsed, _ = invoke(("validate", "--model", str(wl.docs[0])), env, scratch)
            if code != 0 or stdout != "OK\n":
                raise RuntimeError(f"validate failed during set-up: {code} {stderr}")
            setup.append(elapsed)

        setup = []
        probe()
        out["samples"] = flat(drive(send, verify, wl.cycles(), seconds, probe, setup_points(seconds)))
        while len(setup) < SETUP_SAMPLES:
            probe()
        out["setup"] = setup
        out["peak_rss_mb"] = max(peak) / 1024.0
        return out

    layers = startup_costs(env)
    sub_cycles = drive(send, verify, wl.cycles(), seconds / 2)
    sub = flat(sub_cycles)
    for cmd in ("forward", "jacobian", "check", "report"):
        times = [s.ns / 1e6 for s in sub if s.request.kind == cmd and s.request.expect is None]
        layers[f"cli.{cmd}_ms"] = statistics.median(times) if times else None

    # the first cycle again in process, each request untraced then traced
    first_cycle = [[s.request] for s in sub_cycles[0]]
    worker = Worker(["--trace"], env)
    try:
        def send_in_process(req):
            return worker.call(("cli", req.argv))

        def verify_in_process(req, status, payload):
            if status != "ok":
                raise R.Mismatch(f"cli.run raised {payload[0]}: {payload[1]}")
            R.verify_cli(wl, req, *payload)

        drive(send_in_process, verify_in_process, first_cycle[:1], 0)  # warm-up, not counted
        plain, traced = drive_paired(send_in_process, verify_in_process, first_cycle, math.inf, worker)
        fin = worker.call(("finish", str(spans_path)))
    finally:
        worker.close()
    out["samples"] = sub + plain + traced
    out["blas_threads"] = fin["blas_threads"]
    traced_layers, out["traced_ms"] = traced_metrics(spans_path, fin, plain, traced, setup_loads=False)
    out["layers"] = {**layers, **traced_layers}
    return out


# ---------------------------------------------------------------- per-layer metrics


def traced_metrics(spans_path, fin, plain, traced, setup_loads):
    """Per-layer metrics from the traced phase; None where the layer never ran.

    Returns the metrics and the traced request time in ms, the base of
    ``engine.share_of_req``.
    """
    names, spans = T.load(spans_path)
    rids = {rid for rid in {s[4] for s in spans} if rid != T.SETUP}
    summary = T.Summary(names, spans, rids)
    setup = T.Summary(names, spans, {T.SETUP})
    wrapped = set(fin["wrapped"])
    counts = fin["counts"]
    n_req = len(traced)
    n_check = sum(1 for s in traced if s.request.kind == "check")

    def ran(*fns):
        return any(f in wrapped and f in summary.entered for f in fns)

    def per(total, denom):
        return total / denom if denom else None

    def module_total(table, module):
        return sum(v for k, v in table.items() if k.startswith(module + "."))

    activations = ("activations.activation_apply", "activations.elementwise_derivative",
                   "activations.softmax", "activations.softmax_jacobian", "activations.activation_jacobian")
    derivatives = ("activations.elementwise_derivative", "activations.softmax_jacobian",
                   "activations.activation_jacobian")
    engine = ("engine.jacobian_forward", "engine.jacobian_at_layer")
    emit = ("model_io.emit_matrix", "model_io.report_to_csv", "model_io.report_to_json")
    m = {}
    if setup_loads:
        load_ns, loads = setup.inclusive["model_io.load_model"], 1
    else:
        load_ns, loads = summary.inclusive["model_io.load_model"], n_req
    m["model_io.load_ms"] = per(load_ns / 1e6, loads) if ran("model_io.load_model") else None
    m["model_io.emit_ms_per_req"] = (
        per(sum(summary.inclusive[f] for f in emit) / 1e6, n_req) if ran(*emit) else None
    )
    if ran("model.validate_model"):
        m["model.validate_calls_per_req"] = per(summary.count["model.validate_model"], n_req)
        m["model.validate_ms_per_req"] = per(summary.inclusive["model.validate_model"] / 1e6, n_req)
    m["model.forward_self_ms_per_req"] = (
        per(summary.own["model.forward"] / 1e6, n_req) if ran("model.forward") else None
    )
    if ran(*activations):
        m["activations.apply_calls_per_req"] = per(summary.count["activations.activation_apply"], n_req)
        m["activations.deriv_calls_per_req"] = per(sum(summary.count[f] for f in derivatives), n_req)
        m["activations.self_ms_per_req"] = per(module_total(summary.own, "activations") / 1e6, n_req)
    if ran(*engine):
        m["engine.self_ms_per_req"] = per(module_total(summary.own, "engine") / 1e6, n_req)
        m["engine.share_of_req"] = per(module_total(summary.inclusive, "engine"), summary.inclusive["request"])
        if counts["weighted_input_evals"] is not None:
            m["engine.weighted_input_evals_per_req"] = per(counts["weighted_input_evals"], n_req)
        if counts["retained_bytes"] is not None:
            m["engine.retained_mb_per_req"] = per(counts["retained_bytes"] / 1e6, n_req)
    if ran("fd.finite_difference_jacobian"):
        m["fd.self_ms_per_check"] = per(summary.own["fd.finite_difference_jacobian"] / 1e6, n_check)
        if counts["fd_model_evals"] is not None:
            m["fd.model_evals_per_check"] = per(counts["fd_model_evals"], n_check)
    if ran("fd.compare_jacobians"):
        m["fd.compare_ms_per_check"] = per(summary.inclusive["fd.compare_jacobians"] / 1e6, n_check)
    if ran("sensitivity.build_report"):
        m["sensitivity.report_ms_per_req"] = per(summary.inclusive["sensitivity.build_report"] / 1e6, n_req)
    if not setup_loads:
        m["cli.unaccounted_ms"] = per(summary.own["request"] / 1e6, n_req)
    base = sum(s.ns for s in plain)
    m["trace.overhead_frac"] = sum(s.ns for s in traced) / base - 1.0 if base else None
    return m, summary.inclusive["request"] / 1e6


def cli_layer(name):
    return name.startswith("cli.") or name == "model_io.emit_ms_per_req"


def fill_from_probes(out, seed, workdir, spans_path):
    """Measure the layers the workload's own requests never reach on a probe.

    CLI layers come from a short cli-mnist on a small model, library
    layers from a short tiny-sweep on a few models. The probes' requests
    are verified like the workload's and join its samples. A metric that
    no probe reaches either (its function is gone, or nothing calls it)
    reads 0. Returns where each metric came from.
    """
    layers = out["layers"]
    source = {name: "workload" for name in PER_LAYER if layers.get(name) is not None}
    for probe, runner, covers in (("cli", run_cli, cli_layer),
                                  ("library", run_library, lambda name: not cli_layer(name))):
        missing = [name for name in PER_LAYER if name not in source and covers(name)]
        if not missing:
            continue
        wl = PROBES[probe](seed, workdir / f"probe-{probe}")
        got = runner(wl, PROBE_SECONDS, True, spans_path.with_name(f"{spans_path.stem}.{probe}-probe.json"))
        out["samples"] += got["samples"]
        for name in missing:
            if got["layers"].get(name) is not None:
                layers[name] = got["layers"][name]
                source[name] = f"{probe} probe"
    for name in PER_LAYER:
        if name not in source:
            layers[name] = 0.0
            source[name] = "not reached"
    return source


# ---------------------------------------------------------------- results


def end_to_end(out):
    samples = out["samples"]
    lat = np.array([s.ns / 1e6 for s in samples])
    ok = sum(1 for s in samples if s.error is None)
    p50, p90 = (float(v) for v in np.percentile(lat, [50, 90]))
    metrics = {
        "req_per_s": ok / (lat.sum() / 1e3),
        "req_p50_ms": p50,
        "req_p90_ms": p90,
        "setup_s": statistics.median(out["setup"]),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    detail = {"samples": len(samples), "beyond_p90": int(np.sum(lat > p90)), "setup_samples_s": out["setup"]}
    return metrics, detail


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_metadata(seed, serving_blas_threads):
    """Seed and environment of a run; BLAS threads as the serving process reports them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # CLI runs have no long-lived serving process; this process has the same settings
        "blas_threads": serving_blas_threads if serving_blas_threads is not None else blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jacprop" / "__init__.py").is_file():
        print(f"error: no jacprop sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    R.readme_sanity()

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    runs_dir = OUT / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    workdir = OUT / "work" / run_id
    spans_path = runs_dir / f"{run_id}.spans.json"
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        runner = run_cli if args.workload == "cli-mnist" else run_library
        out = runner(wl, args.seconds, bool(args.trace), spans_path)
        if args.trace:
            sources = fill_from_probes(out, args.seed, workdir, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = out["samples"]
    failures = [s for s in samples if s.error is not None]
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": run_metadata(args.seed, out.get("blas_threads")),
        "attempted": len(samples),
        "failed": len(failures),
        "fail_frac": len(failures) / len(samples),
        "failures": [f"{s.request.kind}: {s.error}" for s in failures[:20]],
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        layers = out["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        record["traced_request_ms"] = out["traced_ms"]
        record["metric_source"] = sources
        for name, entry in metrics.items():
            print(f"  {name:38s} {entry['value']:<12.6g} {entry['unit']:6s} ({sources[name]})")
        print(f"  (engine.share_of_req base: {out['traced_ms']:.6g} ms of traced request time)")
    else:
        values, detail = end_to_end(out)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        record.update(detail)
        for name, entry in metrics.items():
            print(f"  {name:14s} {entry['value']:.6g} {entry['unit']}")
        print(f"  latency samples {detail['samples']}, {detail['beyond_p90']} beyond p90")
    print(f"  fail_frac {record['fail_frac']:.6g} ({record['failed']}/{record['attempted']})")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    record["metrics"] = metrics
    (runs_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1))
    result = {"correct": not failures, "attempted": len(samples), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
