"""The serving process: loads jacprop from source and answers requests.

Usage (started by run.py, one client in a closed loop):

    python3 perfbench/worker.py SRC_DIR [MODELS_DIR] [--probe] [--trace]

It imports jacprop from SRC_DIR, loads every model document in
MODELS_DIR, and writes a pickled "ready" message to stdout; that moment
ends set-up. With --probe it exits there. Otherwise it reads pickled
messages from stdin and answers each on stdout:

    ("run", kind, model, x, layer, text)  a library request
    ("cli", argv)                         jacprop.cli.run(argv) in process
    ("trace", on)                         wrap jacprop's functions, or unwrap them
    ("finish", spans_path)                write spans, report usage, exit

Each reply carries the request's own duration in ns, measured here
around the library call only. The reference data never enters this
process.
"""

import ctypes
import inspect
import io
import pickle
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from reference import LIB_CHECK_TOLERANCE


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def retained_bytes(obj, seen=None) -> int:
    """Total nbytes of the distinct arrays reachable from a JacobianTrace."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(retained_bytes(item, seen) for item in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(retained_bytes(getattr(obj, name), seen) for name in obj.__dataclass_fields__)
    return 0


class Server:
    def __init__(self, jacprop, models):
        self.jp = jacprop
        self.models = models
        self.tracer = None
        self.counters = {fn: jacprop.EvalCounter() for fn in ("jacobian_forward", "finite_difference_jacobian")}
        self.retained = 0
        self.traced_library_calls = 0
        self.next_request = 0
        # counts need an EvalCounter argument; without one they read as not reached
        self.countable = {fn: "counter" in inspect.signature(getattr(jacprop, fn)).parameters
                          for fn in self.counters}

    def _kw(self, fn):
        """Counters ride along on traced requests only."""
        if self.tracer is None or not self.countable[fn]:
            return {}
        return {"counter": self.counters[fn]}

    def library(self, kind, index, x, layer, text):
        """The library calls a request makes; returns (payload, JacobianTrace or None)."""
        jp = self.jp
        if kind == "load":
            return jp.load_model(text), None
        model = self.models[index]
        if kind == "forward":
            return jp.forward(model, x), None
        trace = jp.jacobian_forward(model, x, **self._kw("jacobian_forward"))
        if kind == "report":
            rep = jp.build_report(trace.full)
            payload = (rep.feature_scores, rep.output_scores, rep.feature_ranking,
                       rep.output_ranking, rep.per_entry, trace.singular_hits)
        elif kind == "prefix":
            payload = (jp.jacobian_at_layer(trace, layer), trace.singular_hits)
        elif kind == "check":
            estimate = jp.finite_difference_jacobian(model, x, **self._kw("finite_difference_jacobian"))
            cmp = jp.compare_jacobians(trace.full, estimate, LIB_CHECK_TOLERANCE)
            payload = (trace.full, estimate, cmp.max_abs_diff, cmp.max_rel_diff,
                       cmp.argmax_location, cmp.within_tolerance, trace.singular_hits)
        else:
            raise ValueError(f"unknown request kind {kind!r}")
        return payload, trace

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.jp.cli.run(list(argv))
        return (code, out.getvalue(), err.getvalue()), None

    def serve(self, call, *args):
        """Time one request; errors are part of the reply, never fatal."""
        rid = self.next_request
        self.next_request += 1
        trace = None
        if self.tracer is not None:
            self.tracer.request = rid
        start = time.perf_counter_ns()
        try:
            if self.tracer is not None:
                with self.tracer.span("request"):
                    payload, trace = call(*args)
            else:
                payload, trace = call(*args)
            reply = ("ok", payload)
        except Exception as exc:  # the client judges whether this error was expected
            reply = ("error", (type(exc).__name__, str(exc), getattr(exc, "layer", None),
                               getattr(exc, "coordinate", None)))
        elapsed = time.perf_counter_ns() - start
        if self.tracer is not None and call == self.library:
            self.traced_library_calls += 1
            if trace is not None:
                self.retained += retained_bytes(trace)
        return reply + (elapsed,)


def main(argv):
    src = Path(argv[0])
    sys.path.insert(0, str(src))
    import jacprop

    if Path(jacprop.__file__).resolve().parent != (src / "jacprop").resolve():
        raise SystemExit(f"jacprop imported from {jacprop.__file__}, not {src}")
    flags = {a for a in argv[1:] if a.startswith("--")}
    paths = [a for a in argv[1:] if not a.startswith("--")]
    out = sys.stdout.buffer
    inp = sys.stdin.buffer

    tracer = wrapped = None
    if "--trace" in flags:
        import jacprop.cli  # noqa: F401  (so its references get wrapped too)
        from tracer import Tracer

        tracer = Tracer()
        wrapped = tracer.install(jacprop)
    models = []
    if paths:
        for path in sorted(Path(paths[0]).glob("*.json")):
            models.append(jacprop.load_model(path.read_text()))
    if tracer is not None:
        tracer.uninstall()
    pickle.dump(("ready", len(models)), out)
    out.flush()
    if "--probe" in flags:
        return

    import jacprop.cli  # noqa: F401

    server = Server(jacprop, models)
    while True:
        msg = pickle.load(inp)
        op = msg[0]
        if op == "run":
            reply = server.serve(server.library, *msg[1:])
        elif op == "cli":
            reply = server.serve(server.cli, msg[1])
        elif op == "trace":
            if msg[1]:
                tracer.install(jacprop)
                server.tracer = tracer
            else:
                tracer.uninstall()
                server.tracer = None
            reply = ("ok",)
        elif op == "finish":
            # counts exist only where the worker made the library calls itself
            counts = {"weighted_input_evals": None, "fd_model_evals": None, "retained_bytes": None}
            if tracer is not None:
                tracer.uninstall()
                tracer.write(msg[1])
            if server.traced_library_calls:
                counts["retained_bytes"] = server.retained
                if server.countable["jacobian_forward"]:
                    counts["weighted_input_evals"] = server.counters["jacobian_forward"].weighted_input_evals
                if server.countable["finite_difference_jacobian"]:
                    counts["fd_model_evals"] = server.counters["finite_difference_jacobian"].model_evals
            reply = {
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "blas_threads": blas_threads(),
                "wrapped": wrapped,
                "counts": counts,
            }
            pickle.dump(reply, out)
            out.flush()
            return
        else:
            raise ValueError(f"unknown message {op!r}")
        pickle.dump(reply, out)
        out.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
