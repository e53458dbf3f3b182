"""wgimage benchmark: three workloads through the wgimage CLI.

    python3 perfbench/run.py --workload {mc_rate,dense_spectrum,image_fine}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src. Each operation is one `python -m wgimage.cli` invocation in a
fresh child process, one at a time from this single driving process: a
closed loop with one client. A round runs every operation of the
workload once, and every output is checked (checks.py) against values
computed apart from the program. An operation fails on a non-zero exit
or a failed check.

--trace 0 measures the end-to-end metrics:
  setup_s      median wall time of SETUP_REPS fresh interpreters that
               import wgimage.cli and load_config + build_experiment
               every config of the workload, with no computation;
  wall_s       summed wall time of one round's invocations;
  cpu_s        summed user+sys CPU time of those child processes;
  peak_rss_mb  largest peak RSS of any child in the round.
  After the set-up runs and one untimed warm-up operation, whole rounds
  repeat until S seconds have passed; each operation's wall, CPU and RSS
  is its median over the rounds.

--trace 1 measures the per-layer metrics: one plain subprocess round
gives reference outputs, then tracer.py runs the same operations in one
process, with and without timing wrappers, until S seconds have passed
(see tracer.py). Its outputs must be byte-identical to the reference.

The last stdout line is the JSON result. Files go to .perfbench_out/.
"""

import argparse
import collections
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import digest_outputs  # noqa: E402

SETUP_REPS = 11
MC_TRIALS = 1000
MC_CONFIGS = ("vertical", "horizontal", "planar_lhs", "planar_lhs_1000",
              "planar_lhs_w07", "parabolic")
# configs whose error rate is near 0 at the lowest sigma, and near 1 at
# the highest, for any seed (planar_lhs_w07 stays near 0.25 at its top
# sigma 1e-2; horizontal is not monotone in sigma)
MC_LOW_START = ("vertical", "planar_lhs", "planar_lhs_w07", "parabolic")
MC_HIGH_END = ("vertical", "planar_lhs", "parabolic")

SETUP_SCRIPT = """
import sys
import wgimage.cli
from wgimage.config import build_experiment, load_config
for path in sys.argv[1:]:
    build_experiment(load_config(path))
"""

INFO_SCRIPT = """
import ctypes, json, os, platform, numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as fh:
    libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
for lib in libs:
    for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            threads = int(fn())
            break
    if threads is not None:
        break
print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": threads, "nproc": len(os.sched_getaffinity(0))}))
"""


# ---------------------------------------------------------------------------
# workloads: a list of operations. check(outdir, stdout, state) raises
# checks.CheckFailed; state carries results between the checks of a round.

Op = collections.namedtuple("Op", "label argv check")


def _write_cfg(cfgdir, name, entries):
    path = os.path.join(cfgdir, f"{name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path, {k: str(v) for k, v in entries.items()}


def _shipped(name):
    path = os.path.join("configs", f"{name}.cfg")
    with open(path, encoding="utf-8") as fh:
        return path, checks.parse_cfg(fh.read())


def mc_rate_ops(seed, cfgdir):
    ops = []
    for name in MC_CONFIGS:
        path, cfg = _shipped(name)
        sigmas = [float(v) for v in cfg["noise.sigmas"].split(",")]

        def check(outdir, stdout, state, name=name, sigmas=sigmas):
            rates = checks.check_rates(os.path.join(outdir, "rates.csv"), sigmas, MC_TRIALS)
            state[name] = dict(zip(sigmas, rates))
            if name in MC_LOW_START:
                checks.expect(rates[0] <= 0.05,
                              f"{name}: rate {rates[0]} at the lowest sigma, expected <= 0.05")
            if name in MC_HIGH_END:
                checks.expect(rates[-1] >= 0.9,
                              f"{name}: rate {rates[-1]} at the highest sigma, expected >= 0.9")
            if name == "planar_lhs_1000":
                few, many = state["planar_lhs"][1e-3], state[name][1e-3]
                checks.expect(many <= 0.5 * few,
                              f"planar_lhs_1000 rate {many} at sigma 1e-3 is not well "
                              f"below planar_lhs's {few}")

        ops.append(Op(name, ["mc-rate", "--config", path, "--trials", str(MC_TRIALS),
                             "--seed", str(seed)], check))
    return ops


def dense_spectrum_ops(seed, cfgdir):
    rnd = random.Random(seed)
    apertures = {
        # quadrature fallback of coupling_matrix (1-D Gauss-Legendre)
        "dn_vertical": {"waveguide.model": "homogeneous_dn", "waveguide.L": 200,
                        "array.kind": "dense_vertical", "array.a": 40,
                        "array.z_a": round(rnd.uniform(60, 140), 6)},
        "parabolic_vertical": {"waveguide.model": "parabolic", "waveguide.L": 200,
                               "array.kind": "dense_vertical", "array.a": 40,
                               "array.z_a": round(rnd.uniform(-60, 60), 6)},
        # quadrature fallback over the 2-D product rule
        "dd_planar": {"waveguide.model": "homogeneous_dd", "waveguide.L": 200,
                      "array.kind": "dense_planar", "array.a": 10,
                      "array.z_a": round(rnd.uniform(30, 170), 6)},
        # closed forms: the control, untouched by a faster quadrature
        "dd_vertical": {"waveguide.model": "homogeneous_dd", "waveguide.L": 1000,
                        "array.kind": "dense_vertical", "array.a": 100,
                        "array.z_a": round(rnd.uniform(150, 850), 6)},
        "dd_horizontal": {"waveguide.model": "homogeneous_dd", "waveguide.L": 1000,
                          "array.kind": "dense_horizontal", "array.a": 100,
                          "array.z_a": round(rnd.uniform(100, 900), 6)},
    }
    ops = []
    for name, entries in apertures.items():
        entries = dict(entries, omega=1.0, **{"rank.eps": 1e-7})
        path, cfg = _write_cfg(cfgdir, name, entries)
        ops.append(Op(name, ["spectrum", "--config", path, "--seed", str(seed)],
                      lambda outdir, stdout, state, cfg=cfg: checks.check_spectrum(
                          os.path.join(outdir, "spectrum.csv"), cfg)))
    path, cfg = _shipped("rank_scan")

    def check_scan(outdir, stdout, state):
        for kind in ("vertical", "horizontal"):
            checks.check_rank_scan(os.path.join(outdir, f"rank_scan_{kind}.csv"), cfg, kind)

    ops.append(Op("rank_scan", ["rank-scan", "--config", path, "--seed", str(seed)],
                  check_scan))
    return ops


def image_fine_ops(seed, cfgdir):
    rnd = random.Random(seed)
    dd = {"waveguide.model": "homogeneous_dd", "waveguide.L": 200, "omega": 1.0,
          "source.x": round(rnd.uniform(90, 110), 6),
          "source.z": round(rnd.uniform(20, 180), 6),
          "array.kind": "planar_lhs", "array.M": 200, "array.center_x": -100,
          "array.center_z": 100, "array.size": 100,
          "array.seed": rnd.randrange(2 ** 31),
          "noise.sigmas": 0, "noise.seed": seed}
    parabolic = {"waveguide.model": "parabolic", "waveguide.L": 1000, "omega": 1.0,
                 "source.x": round(rnd.uniform(90, 110), 6),
                 "source.z": round(rnd.uniform(-60, 60), 6),
                 "array.kind": "vertical", "array.M": 600, "array.z_a": 0,
                 "array.extent": 1900, "grid.z_min": -100, "grid.z_max": 100,
                 "noise.sigmas": 0, "noise.seed": seed}
    ops = []
    for name, entries in (("dd_planar_lhs", dd), ("parabolic_vertical", parabolic)):
        path, cfg = _write_cfg(cfgdir, name, entries)
        ops.append(Op(name, ["image", "--config", path, "--seed", str(seed)],
                      lambda outdir, stdout, state, cfg=cfg: checks.check_image(
                          os.path.join(outdir, "image.csv"), cfg, seed=seed)))
    path, cfg = _write_cfg(cfgdir, "parabolic_vertical", parabolic)
    ops.append(Op("parabolic_modes", ["modes", "--config", path, "--seed", str(seed)],
                  lambda outdir, stdout, state: checks.check_modes(stdout, cfg)))
    return ops


WORKLOADS = {"mc_rate": mc_rate_ops, "dense_spectrum": dense_spectrum_ops,
             "image_fine": image_fine_ops}


# ---------------------------------------------------------------------------
# child processes

def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, outdir):
    """Run one child to completion; returns (exit code, stdout, stderr,
    wall s, cpu s, peak rss MB) from its own rusage."""
    os.makedirs(outdir, exist_ok=True)
    out_path, err_path = os.path.join(outdir, ".stdout"), os.path.join(outdir, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env())
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    return (proc.returncode, stdout, stderr, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0)


def cli_argv(op, outdir):
    return [sys.executable, "-m", "wgimage.cli"] + op.argv + ["--out", outdir]


class Tally:
    """Attempted / failed operations; `wrong` counts exit-0 runs whose
    output failed its check."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def record(self, label, rc, stderr, check):
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            print(f"FAILED {label}: exit {rc}: {stderr.strip()[-500:]}", file=sys.stderr)
            return False
        try:
            check()
        except checks.CheckFailed as exc:
            self.failed += 1
            self.wrong += 1
            print(f"WRONG {label}: {exc}", file=sys.stderr)
            return False
        return True


def run_round(ops, outroot, tally, keep=False):
    """Every operation once, each checked; returns per-op (wall, cpu, rss)
    and, with keep, the digests of each op's outputs and stdout."""
    state, times, digests = {}, {}, {}
    for op in ops:
        outdir = os.path.join(outroot, op.label)
        shutil.rmtree(outdir, ignore_errors=True)
        rc, stdout, stderr, wall, cpu, rss = spawn(cli_argv(op, outdir), outdir)
        ok = tally.record(op.label, rc, stderr,
                          lambda: op.check(outdir, stdout, state))
        times[op.label] = (wall, cpu, rss)
        if keep and ok:
            digests[op.label] = digest_outputs(outdir, stdout)
        shutil.rmtree(outdir, ignore_errors=True)
    return times, digests


def environment(out):
    rc, stdout, stderr, *_ = spawn([sys.executable, "-c", INFO_SCRIPT], out)
    if rc != 0:
        raise SystemExit(f"environment probe failed: {stderr.strip()}")
    info = json.loads(stdout)
    try:
        # the checkout need not be a git repository; do not look above it
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        info["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                        text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        info["commit"] = "unknown"
    return info


# ---------------------------------------------------------------------------
# the two kinds of run

def measure_setup(ops, out):
    paths = sorted({op.argv[op.argv.index("--config") + 1] for op in ops})
    times = []
    for _ in range(SETUP_REPS):
        rc, _, stderr, wall, _, _ = spawn([sys.executable, "-c", SETUP_SCRIPT] + paths, out)
        if rc != 0:
            raise SystemExit(f"set-up failed: {stderr.strip()[-500:]}")
        times.append(wall)
    return times


def end_to_end(ops, seconds, tally, out):
    setup = measure_setup(ops, out)
    # the first BLAS-heavy call after an idle spell can run 2x slower, so
    # one untimed operation goes first. It is checked, but left out of the
    # tally, which counts whole rounds only.
    run_round(ops[:1], os.path.join(out, "warmup"), Tally())
    per_op = {op.label: [] for op in ops}
    start = time.perf_counter()
    rounds = 0
    while True:
        times, _ = run_round(ops, os.path.join(out, "round"), tally)
        rounds += 1
        for label, t in times.items():
            per_op[label].append(t)
        if time.perf_counter() - start >= seconds:
            break
    med = {label: [statistics.median(t[i] for t in ts) for i in range(3)]
           for label, ts in per_op.items()}
    for label, (wall, cpu, rss) in med.items():
        print(f"op {label}: wall {wall:.4f} s, cpu {cpu:.4f} s, rss {rss:.1f} MB "
              f"(median of {rounds} rounds)")
    return {
        "wall_s": (sum(m[0] for m in med.values()), "s"),
        "cpu_s": (sum(m[1] for m in med.values()), "s"),
        "peak_rss_mb": (max(m[2] for m in med.values()), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }, {"rounds": rounds, "setup_samples": setup, "samples": per_op}


LAYER_METRICS = [
    # (metric, layer, field, unit)
    ("config.build_experiment_s", "config.build_experiment", "self_s", "s"),
    ("modes.profile_matrix_s", "modes.profile_matrix", "self_s", "s"),
    ("modes.profile_matrix_calls", "modes.profile_matrix", "calls", "count"),
    ("modes.profile_values", "modes.profile_matrix", "profile_values", "count"),
    ("synth.array_samples_s", "synth.array_samples", "self_s", "s"),
    ("synth.sample_points", "synth.array_samples", "sample_points", "count"),
    ("synth.mode_traces_s", "synth.mode_traces", "self_s", "s"),
    ("synth.trace_matrix_mb", "synth.mode_traces", "trace_matrix_mb", "MB"),
    ("estimate.coupling_matrix_s", "estimate.coupling_matrix", "self_s", "s"),
    ("estimate.coupling_matrix_calls", "estimate.coupling_matrix", "calls", "count"),
    ("estimate.sensing_matrix_s", "estimate.sensing_matrix", "self_s", "s"),
    ("experiments.localization_error_rates_s", "experiments.localization_error_rates",
     "self_s", "s"),
    ("experiments.noise_draw_s", "experiments.noise_draw", "self_s", "s"),
    ("experiments.noise_draws", "experiments.noise_draw", "calls", "count"),
    ("experiments.noise_values", "experiments.noise_draw", "noise_values", "count"),
    ("kernels.peak_search_s", "kernels.peak_search", "self_s", "s"),
    ("kernels.trials", "kernels.peak_search", "trials", "count"),
    ("kernels.gflop", "kernels.peak_search", "gflop", "Gflop"),
    ("image.migrate_s", "image.migrate", "self_s", "s"),
    ("image.locate_peak_s", "image.locate_peak", "self_s", "s"),
    ("image.pixels", "image.migrate", "pixels", "count"),
    ("rank.effective_rank_s", "rank.effective_rank", "self_s", "s"),
    ("io.write_csv_s", "io.write_csv", "self_s", "s"),
    ("io.rows_written", "io.write_csv", "rows_written", "count"),
    ("io.bytes_written", "io.write_csv", "bytes_written", "count"),
    ("cli.main_s", "cli.main", "self_s", "s"),
]


def per_layer(ops, seconds, tally, out):
    """Reference subprocess round, then the traced in-process run."""
    _, reference = run_round(ops, os.path.join(out, "reference"), tally, keep=True)
    spec = [{"label": op.label, "argv": op.argv,
             "outdir": os.path.join(out, "inproc", op.label)} for op in ops]
    ops_path = os.path.join(out, "ops.json")
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    result_path = os.path.join(out, "trace.json")
    rc, stdout, stderr, *_ = spawn([sys.executable, os.path.join(HERE, "tracer.py"),
                                    ops_path, str(seconds), result_path],
                                   os.path.join(out, "tracer"))
    if rc != 0:
        raise SystemExit(f"traced run failed: {stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    shutil.rmtree(os.path.join(out, "inproc"), ignore_errors=True)
    for rnd in trace["rounds"]:
        for kind in ("plain", "traced"):
            for op, (rc, files) in zip(ops, rnd["outcome"][kind]):
                def same(op=op, files=files):
                    checks.expect(op.label in reference,
                                  f"{op.label}: no checked reference output")
                    checks.expect(files == reference[op.label],
                                  f"{op.label}: {kind} in-process outputs differ from "
                                  f"the subprocess run")
                tally.record(f"{op.label} ({kind})", rc, "", same)

    metrics = {"cli.import_s": (trace["import_s"], "s")}
    for name, layer, field, unit in LAYER_METRICS:
        metrics[name] = (statistics.median([r["layers"].get(layer, {}).get(field, 0) for r in trace["rounds"]]),
                         unit)
    ps = [r["layers"].get("kernels.peak_search", {}) for r in trace["rounds"]]
    metrics["kernels.us_per_trial"] = (
        statistics.median([p["self_s"] / p["trials"] * 1e6 if p.get("trials") else 0 for p in ps]), "us")
    plain = statistics.median([r["plain_s"] for r in trace["rounds"]])
    metrics["trace.plain_round_s"] = (plain, "s")
    metrics["trace.traced_round_s"] = (statistics.median([r["traced_s"] for r in trace["rounds"]]), "s")
    overhead = statistics.median([r["traced_s"] - r["plain_s"] for r in trace["rounds"]])
    print(f"tracing overhead: {overhead:+.4f} s on a {plain:.4f} s in-process round "
          f"({overhead / plain:+.2%}), median over {len(trace['rounds'])} round pairs")
    return metrics, {"rounds": len(trace["rounds"])}


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description="wgimage benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "wgimage", "cli.py")):
        print("run from the root of a wgimage checkout: src/wgimage/cli.py not found",
              file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 31
    out = os.path.abspath(os.path.join(".perfbench_out",
                                       f"{args.workload}-s{args.seed}-t{args.trace}"))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(out, "cfg"))
    info = environment(out)
    print("environment: " + json.dumps(info, sort_keys=True))
    ops = WORKLOADS[args.workload](seed, os.path.join(out, "cfg"))
    tally = Tally()
    run = per_layer if args.trace else end_to_end
    metrics, detail = run(ops, args.seconds, tally, out)
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": info, "detail": detail,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
