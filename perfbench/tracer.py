"""Traced in-process run of a workload's wgimage CLI operations.

Run as a child of run.py:

    python3 perfbench/tracer.py OPS_JSON SECONDS RESULT_JSON

It times `import wgimage.cli`, then repeats rounds until SECONDS have
passed. A round runs every operation through `wgimage.cli.main` twice in
this process, in alternating order: once plain, once with timing
wrappers installed around the
function each layer exposes, in every wgimage namespace that holds it.
Nothing in the package is edited. Each wrapper records a span (name,
start, end, parent) and the layer's work counts; spans stay in memory
and are written out at the end, with a per-round summary of each
layer's self time: its spans' duration minus the part covered by their
child spans.

Every output file and stdout of both passes is reduced to a sha256
digest, so run.py can show that they are byte-identical to the plain
subprocess run.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import time

perf = time.perf_counter


def _rows(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    if hasattr(rows, "__len__"):
        n = len(rows)
    else:  # a generator was consumed by the call: count data lines instead
        with open(path, encoding="utf-8") as fh:
            n = sum(1 for ln in fh if not ln.startswith("#")) - 1
    return {"rows_written": n, "bytes_written": os.path.getsize(path)}


def _peak_search(args, kwargs, result):
    _, _, W, beta, E, PT = args
    T, nx, nz, N = W.shape[0], E.shape[0], PT.shape[1], beta.size
    return {"trials": T, "gflop": 8.0 * T * nx * nz * N / 1e9}


# (layer metric prefix, module, attribute, class or None, counts from (args, kwargs, result))
LAYERS = [
    ("config.build_experiment", "wgimage.config", "build_experiment", None, None),
    ("modes.profile_matrix", "wgimage.modes", "profile_matrix", "ModeSet",
     lambda a, k, r: {"profile_values": r.size}),
    ("synth.array_samples", "wgimage.synth", "array_samples", None,
     lambda a, k, r: {"sample_points": r[0].shape[0]}),
    ("synth.mode_traces", "wgimage.synth", "mode_traces", None,
     lambda a, k, r: {"trace_matrix_mb": r.size * 16 / 1e6}),
    ("estimate.coupling_matrix", "wgimage.estimate", "coupling_matrix", None, None),
    ("estimate.sensing_matrix", "wgimage.estimate", "sensing_matrix", None, None),
    ("experiments.localization_error_rates", "wgimage.experiments",
     "localization_error_rates", None, None),
    ("experiments.noise_draw", "wgimage.experiments", "_trial_noise", None,
     lambda a, k, r: {"noise_values": r.size}),
    ("kernels.peak_search", "wgimage._kernels", "peak_search", None, _peak_search),
    ("image.migrate", "wgimage.image", "migrate", None,
     lambda a, k, r: {"pixels": r.values.size}),
    ("image.locate_peak", "wgimage.image", "locate_peak", None, None),
    ("rank.effective_rank", "wgimage.rank", "effective_rank", None, None),
    ("io.write_csv", "wgimage.io", "write_csv", None, _rows),
] + [
    # the per-kind writers build their row lists before calling write_csv;
    # that is CSV-writing time too
    ("io.write_csv", "wgimage.io", f"write_{kind}_csv", None, None)
    for kind in ("spectrum", "image", "rates", "rank_scan")
]
ROOT = "cli.main"


class Tracer:
    """Span recorder. A span is [id, name, parent id, start, end, child
    seconds, counts]; child seconds is the time covered by its children."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, count, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, parent[0] if parent else None, perf(), None, 0.0, None]
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = perf()
            self._stack.pop()
            if parent is not None:
                parent[5] += span[4] - span[3]
        if count is not None:
            span[6] = count(args, kwargs, result)
        return result

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, count, args, kwargs)
        return wrapper


def install(tracer):
    """Replace each layer function by its wrapper wherever a wgimage
    namespace holds it; returns the undo list."""
    undo = []
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "wgimage" or n.startswith("wgimage.")]
    for name, modname, attr, cls, count in LAYERS:
        if cls is not None:
            owner = getattr(sys.modules[modname], cls)
            orig = owner.__dict__[attr]
            undo.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, count))
            continue
        orig = getattr(sys.modules[modname], attr)
        wrapped = tracer.wrap(name, orig, count)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)
    return undo


def uninstall(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def summarize(spans):
    """Per-layer self seconds, span counts and summed work counts."""
    out = {}
    for _, name, _, start, end, child, counts in spans:
        layer = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        layer["self_s"] += (end - start) - child
        layer["calls"] += 1
        for key, val in (counts or {}).items():
            layer[key] = layer.get(key, 0) + val
    return out


def digest_outputs(outdir, stdout):
    """sha256 of every file in outdir, and of stdout with outdir masked."""
    out = {}
    for fname in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, fname), "rb") as fh:
            out[fname] = hashlib.sha256(fh.read()).hexdigest()
    out["<stdout>"] = hashlib.sha256(stdout.replace(outdir, "<out>").encode("utf-8")).hexdigest()
    return out


def run_op(main, op, outdir, tracer=None):
    """One CLI call in this process; returns (exit code, digests)."""
    os.makedirs(outdir, exist_ok=True)
    argv = op["argv"] + ["--out", outdir]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            rc = main(argv)
        else:
            rc = tracer.call(ROOT, main, None, (argv,), {})
    return rc, digest_outputs(outdir, buf.getvalue())


def main(argv):
    ops_path, seconds, result_path = argv[0], float(argv[1]), argv[2]
    t0 = perf()
    import wgimage.cli
    import_s = perf() - t0
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    rounds, spans = [], []
    start = perf()
    while True:
        r = len(rounds)
        outcome, took = {}, {}
        tracer = Tracer()
        # alternate which pass goes first, so that neither gains from order
        for kind in (("plain", "traced") if r % 2 == 0 else ("traced", "plain")):
            undo = install(tracer) if kind == "traced" else []
            try:
                t = perf()
                outcome[kind] = [run_op(wgimage.cli.main, op, f"{op['outdir']}_{kind}",
                                        tracer if kind == "traced" else None)
                                 for op in ops]
                took[kind] = perf() - t
            finally:
                uninstall(undo)
        spans.extend([r] + s for s in tracer.spans)
        rounds.append({"plain_s": took["plain"], "traced_s": took["traced"],
                       "layers": summarize(tracer.spans), "outcome": outcome})
        if perf() - start >= seconds:
            break
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "rounds": rounds}, fh)
    with open(os.path.splitext(result_path)[0] + "_spans.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["round", "id", "name", "parent", "start", "end",
                             "child_s", "counts"]) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
