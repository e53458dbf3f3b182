"""Cross-check the traced kernels.us_per_trial against bench_kernels.py.

    python3 perfbench/crosscheck_kernels.py [--trials 1000] [--runs 7] [--repeats 1]

Runs from the checkout root. Each run times, in a fresh process, the
traced `wgimage mc-rate` on configs/vertical.cfg with --trials N after
one plain warm-up call (the kernels.peak_search self time per trial, as
tracer.py measures it) and
the numpy line of `benchmarks/bench_kernels.py --trials N --repeats R`.
Both time the same peak search on the same 319x65 grid, 20 receivers and
6 modes. bench_kernels reports the best of its R repeats; the default
R=1 makes it one call, like each sigma of mc-rate, since the minimum of
several calls reads lower on a machine whose speed varies. Prints both
sets, their medians and quartile spreads, and whether the medians agree
within the spread.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.abspath(os.path.join(".perfbench_out", "crosscheck"))

TRACED = """
import json, sys
sys.path.insert(0, {here!r})
import tracer
import wgimage.cli
argv = ["mc-rate", "--config", "configs/vertical.cfg", "--trials", sys.argv[1],
        "--out", sys.argv[2]]
wgimage.cli.main(argv)  # warm-up, as the traced rounds of run.py follow plain ones
t = tracer.Tracer()
undo = tracer.install(t)
rc = t.call(tracer.ROOT, wgimage.cli.main, None, (argv,), {{}})
tracer.uninstall(undo)
ps = tracer.summarize(t.spans)["kernels.peak_search"]
print(json.dumps({{"rc": rc, "us_per_trial": ps["self_s"] / ps["trials"] * 1e6}}))
"""


def env():
    e = dict(os.environ)
    e["PYTHONPATH"] = os.path.abspath("src") + (os.pathsep + e["PYTHONPATH"]
                                                if e.get("PYTHONPATH") else "")
    return e


def spread(values):
    q = statistics.quantiles(values, n=4)
    return statistics.median(values), q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--runs", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)
    traced, bench = [], []
    for _ in range(args.runs):
        out = subprocess.run([sys.executable, "-c", TRACED.format(here=HERE),
                              str(args.trials), OUT], env=env(), capture_output=True,
                             text=True, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if res["rc"] != 0:
            raise SystemExit("traced mc-rate failed")
        traced.append(res["us_per_trial"])
        out = subprocess.run([sys.executable, os.path.join("benchmarks", "bench_kernels.py"),
                              "--trials", str(args.trials), "--repeats", str(args.repeats)],
                             env=env(), capture_output=True,
                             text=True, check=True)
        m = re.search(r"^numpy\s*:.*\(([\d.]+) us/trial\)", out.stdout, re.M)
        if m is None:
            raise SystemExit(f"no numpy line in bench_kernels output:\n{out.stdout}")
        bench.append(float(m.group(1)))
    t, b = spread(traced), spread(bench)
    print(f"traced kernels.us_per_trial : {[round(v, 1) for v in traced]}")
    print(f"bench_kernels numpy us/trial: {[round(v, 1) for v in bench]}")
    print(f"medians {t[0]:.1f} vs {b[0]:.1f} us/trial; quartiles traced "
          f"[{t[1]:.1f}, {t[2]:.1f}], bench_kernels [{b[1]:.1f}, {b[2]:.1f}]")
    width = max(t[2] - t[1], b[2] - b[1])
    agree = abs(t[0] - b[0]) <= width
    print(f"difference {t[0] - b[0]:+.1f} us/trial; widest quartile spread {width:.1f}: "
          f"{'agree' if agree else 'differ'} within the run-to-run spread")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
